"""Automorphisms of free groups, with certified inverses.

A FreeEndomorphism stores the images of the generators and, as a required
field, the inverse_images that prove it an automorphism; every map in the
package is one.  The constructor checks that both compositions fix every
generator, so every map that enters from outside (a catalog entry, a
manifest, a cover's restriction of the monodromy to the subgroup or its
conjugation) is checked, and a wrong inverse raises CertificationError.
The identity, and inverses, composites and powers of certified maps, are
certified by construction and skip the check: if f o f^-1 and g o g^-1 fix
every generator, so do (f o g) o (g^-1 o f^-1) and (g^-1 o f^-1) o (f o g).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .errors import CertificationError
from .linalg import RationalMatrix
from .words import FreeWord, _printable


@dataclass(frozen=True)
class FreeEndomorphism:
    rank: int
    images: tuple
    inverse_images: tuple

    def __post_init__(self):
        for name, label in (("images", "image"), ("inverse_images", "inverse image")):
            words = tuple(getattr(self, name))
            object.__setattr__(self, name, words)
            if len(words) != self.rank:
                raise ValueError(f"one {label} per generator required")
            for w in words:
                if w.max_generator() > self.rank:
                    raise ValueError(f"{label} uses a generator beyond the rank")
        self._verify_inverse()

    @classmethod
    def _derived(cls, rank, images, inverse_images):
        """A map built from checked maps, without __post_init__'s checks."""
        out = object.__new__(cls)
        out.__dict__.update(rank=rank, images=images, inverse_images=inverse_images)
        return out

    def _verify_inverse(self):
        back = self.inverse_endomorphism()
        pairs = ((self, back, "forward o inverse"), (back, self, "inverse o forward"))
        for i in range(1, self.rank + 1):
            gen = FreeWord.generator(i)
            for outer, inner, name in pairs:
                if outer.apply(inner.images[i - 1]) != gen:
                    raise CertificationError(f"{name} does not fix generator {i}")

    @classmethod
    def identity(cls, rank):
        gens = tuple(FreeWord.generator(i) for i in range(1, rank + 1))
        return cls._derived(rank, gens, gens)

    def apply(self, w):
        """The image of w.  It and every image are reduced, so a piece can
        cancel only against the end of the product so far; each inverted
        image is built once per call."""
        inverted = {}
        out = []
        for g, s in w.letters:
            if s > 0:
                piece = self.images[g - 1].letters
            else:
                piece = inverted.get(g)
                if piece is None:
                    piece = inverted[g] = self.images[g - 1].inverse().letters
            k = 0
            for h, e in piece:
                if not out or out[-1] != (h, -e):
                    break
                out.pop()
                k += 1
            out.extend(piece[k:])
        return FreeWord._wrap(tuple(out))

    def compose(self, other):
        """self after other: (self.compose(other)).apply(w) = self(other(w))."""
        if self.rank != other.rank:
            raise ValueError("rank mismatch")
        images = tuple(self.apply(w) for w in other.images)
        back = other.inverse_endomorphism()
        inverse = tuple(back.apply(w) for w in self.inverse_images)
        return FreeEndomorphism._derived(self.rank, images, inverse)

    def inverse_endomorphism(self):
        return FreeEndomorphism._derived(self.rank, self.inverse_images, self.images)

    def power(self, k):
        """self composed with itself k times, by repeated squaring.  Powers
        of one map commute and reduced words are unique, so the images and
        inverse images are those of k-fold composition."""
        base = self if k >= 0 else self.inverse_endomorphism()
        out = None
        k = abs(k)
        while k:
            if k & 1:
                out = base if out is None else base.compose(out)
            k >>= 1
            if k:
                base = base.compose(base)
        return FreeEndomorphism.identity(self.rank) if out is None else out

    def abelianization(self):
        """Integer matrix whose column j records the exponent sums of the
        image of generator j, from a count of the image's letters."""
        rows = [[0] * self.rank for _ in range(self.rank)]
        for j, w in enumerate(self.images):
            for (g, s), n in Counter(w.letters).items():
                rows[g - 1][j] += s * n
        return RationalMatrix._of(rows, 1)

    def __repr__(self):
        imgs = ",".join(str(_printable(w)) for w in self.images)
        return f"FreeEndomorphism(rank={self.rank}, images=[{imgs}])"
