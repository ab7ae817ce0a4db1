"""Endomorphisms of free groups, with certified inverses.

A FreeEndomorphism stores the images of the generators; carrying
inverse_images proves that it is an automorphism.  The constructor checks
that both compositions fix every generator, so every map that enters from
outside (a catalog entry, a manifest, a lifted cover monodromy) is checked.
Inverses, composites and powers of certified maps are certified by
construction and skip the check: if f o f^-1 and g o g^-1 fix every
generator, so do (f o g) o (g^-1 o f^-1) and (g^-1 o f^-1) o (f o g).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import CertificationError
from .linalg import RationalMatrix
from .words import FreeWord, format_word


@dataclass(frozen=True)
class FreeEndomorphism:
    rank: int
    images: tuple
    inverse_images: tuple | None = None

    def __post_init__(self):
        images = tuple(self.images)
        object.__setattr__(self, "images", images)
        if len(images) != self.rank:
            raise ValueError("one image per generator required")
        for w in images:
            if w.max_generator() > self.rank:
                raise ValueError("image uses a generator beyond the rank")
        if self.inverse_images is not None:
            inv = tuple(self.inverse_images)
            object.__setattr__(self, "inverse_images", inv)
            if len(inv) != self.rank:
                raise ValueError("one inverse image per generator required")
            for w in inv:
                if w.max_generator() > self.rank:
                    raise ValueError("inverse image uses a generator beyond the rank")
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
        return cls(rank, gens, gens)

    @property
    def is_certified(self):
        return self.inverse_images is not None

    def apply(self, w):
        out = []
        for g, s in w.letters:
            img = self.images[g - 1].letters
            if s > 0:
                out.extend(img)
            else:
                out.extend((h, -e) for h, e in reversed(img))
        return FreeWord(out)

    def compose(self, other):
        """self after other: (self.compose(other)).apply(w) = self(other(w))."""
        if self.rank != other.rank:
            raise ValueError("rank mismatch")
        images = tuple(self.apply(w) for w in other.images)
        inverse = None
        if self.is_certified and other.is_certified:
            back = other.inverse_endomorphism()
            inverse = tuple(back.apply(w) for w in self.inverse_images)
        return FreeEndomorphism._derived(self.rank, images, inverse)

    def inverse_endomorphism(self):
        if not self.is_certified:
            raise CertificationError("no certified inverse available")
        return FreeEndomorphism._derived(self.rank, self.inverse_images, self.images)

    def power(self, k):
        base = self if k >= 0 else self.inverse_endomorphism()
        out = FreeEndomorphism.identity(self.rank)
        for _ in range(abs(k)):
            out = base.compose(out)
        return out

    def abelianization(self):
        """Integer matrix whose column j records the exponent sums of the
        image of generator j."""
        return RationalMatrix(
            [
                [self.images[j].exponent_sum(i + 1) for j in range(self.rank)]
                for i in range(self.rank)
            ]
        )

    def __repr__(self):
        imgs = ",".join(format_word(w) for w in self.images)
        return f"FreeEndomorphism(rank={self.rank}, images=[{imgs}])"
