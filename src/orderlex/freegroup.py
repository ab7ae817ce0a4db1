"""Endomorphisms of free groups, with certified inverses.

A FreeEndomorphism stores the images of the generators.  When inverse
images are supplied, both compositions are checked to fix every generator
at construction time, so carrying inverse_images is a proof that the map
is an automorphism.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import CertificationError
from .linalg import RationalMatrix
from .words import FreeWord


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

    def _verify_inverse(self):
        back = FreeEndomorphism(self.rank, self.inverse_images)
        for i in range(1, self.rank + 1):
            gen = FreeWord.generator(i)
            if self.apply(back.images[i - 1]) != gen:
                raise CertificationError(
                    f"forward o inverse does not fix generator {i}"
                )
            if back.apply(self.images[i - 1]) != gen:
                raise CertificationError(
                    f"inverse o forward does not fix generator {i}"
                )

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
            img = self.images[g - 1]
            if s > 0:
                out.extend(img.letters)
            else:
                out.extend(img.inverse().letters)
        return FreeWord(out)

    def compose(self, other):
        """self after other: (self.compose(other)).apply(w) = self(other(w))."""
        if self.rank != other.rank:
            raise ValueError("rank mismatch")
        images = tuple(self.apply(w) for w in other.images)
        inverse = None
        if self.is_certified and other.is_certified:
            back = other.inverse_endomorphism()
            fwd_back = self.inverse_endomorphism()
            inverse = tuple(back.apply(w) for w in fwd_back.images)
        return FreeEndomorphism(self.rank, images, inverse)

    def inverse_endomorphism(self):
        if not self.is_certified:
            raise CertificationError("no certified inverse available")
        return FreeEndomorphism(self.rank, self.inverse_images, self.images)

    def power(self, k):
        if k < 0:
            return self.inverse_endomorphism().power(-k)
        out = FreeEndomorphism.identity(self.rank)
        for _ in range(k):
            out = self.compose(out)
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
        from .words import format_word

        imgs = ",".join(format_word(w) for w in self.images)
        return f"FreeEndomorphism(rank={self.rank}, images=[{imgs}])"
