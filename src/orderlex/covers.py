"""Finite covers of the fiber, the lifted monodromy, and the cross-check
that the twisted polynomial of a regular representation equals the classical
polynomial of the associated cover with t replaced by t^d.

The cover of the fiber is the one corresponding to Ftilde = ker(f) cut down
to the fiber subgroup F.  A shortlex breadth-first transversal makes the
Schreier basis and every derived matrix reproducible.  As f o theta is f
conjugated by f(t), theta^(+-1) preserve Ftilde; their restriction theta~ and
conjugation by w, C~_w, are certified once on the basis, where words are short.
The lifted monodromy x -> theta^d(w x w^-1) is exactly theta~^d o C~_w, since
rewriting is an isomorphism of Ftilde onto the free group on the basis.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ConsistencyError
from .finite import (
    _cover_degree,
    invert_permutation,
    multiply_permutations,
    regular_representation,
    schreier_transversal,
)
from .freegroup import FreeEndomorphism
from .laurent import format_polynomial
from .torus import _monodromy_polynomial, twisted_alexander
from .words import FreeWord


@dataclass(frozen=True)
class CoverData:
    d: int
    w: FreeWord
    schreier_transversal: tuple
    subgroup_basis: tuple
    lifted_monodromy: FreeEndomorphism


def build_cover(m, f):
    """Reidemeister-Schreier data for the cover attached to f, together with
    the monodromy lifted through the stable element t^d * w."""
    f.require_well_defined(m.monodromy)
    order, reps = schreier_transversal(f)
    d, w = _cover_degree(f, reps)
    identity = f.group.identity()

    basis = []
    edge_generator = {}
    for element in order:
        u = reps[element]
        for j in range(1, f.rank + 1):
            reached = multiply_permutations(element, f.fiber_images[j - 1])
            s = u * FreeWord.generator(j) * reps[reached].inverse()
            if s:
                basis.append(s)
                edge_generator[(element, j)] = len(basis)
            else:
                edge_generator[(element, j)] = 0

    expected_rank = len(order) * (m.fiber_rank - 1) + 1
    if len(basis) != expected_rank:
        raise ConsistencyError(
            f"Schreier basis has rank {len(basis)}, expected {expected_rank}"
        )
    for b in basis:
        if f.evaluate(b) != identity:
            raise ConsistencyError("Schreier basis element is not in the kernel")

    fiber_inverses = [invert_permutation(p) for p in f.fiber_images]

    def rewrite(word):
        letters = []
        cur = identity
        for g, s in word.letters:
            if s > 0:
                idx = edge_generator[(cur, g)]
                if idx:
                    letters.append((idx, 1))
                cur = multiply_permutations(cur, f.fiber_images[g - 1])
            else:
                cur = multiply_permutations(cur, fiber_inverses[g - 1])
                idx = edge_generator[(cur, g)]
                if idx:
                    letters.append((idx, -1))
        if cur != identity:
            raise ValueError("word does not lie in the subgroup")
        return FreeWord(letters)

    def restricted(forward, backward):
        images = [tuple(rewrite(phi(b)) for b in basis) for phi in (forward, backward)]
        return FreeEndomorphism(len(basis), *images)

    theta = m.monodromy
    w_inv = w.inverse()
    theta_tilde = restricted(theta.apply, theta.inverse_endomorphism().apply)
    conjugation = restricted(lambda b: w * b * w_inv, lambda b: w_inv * b * w)
    lifted = theta_tilde.power(d).compose(conjugation)

    transversal = tuple(reps[element] for element in order)
    return CoverData(
        d=d,
        w=w,
        schreier_transversal=transversal,
        subgroup_basis=tuple(basis),
        lifted_monodromy=lifted,
    )


def cover_alexander(c):
    """Classical polynomial of the cover, rescaled by the cover degree:
    det(t^d I - (theta~^d o C~_w)_*), checked against invariant factors."""
    return _monodromy_polynomial(c.lifted_monodromy.abelianization(), c.d)


def verify_shapiro(m, f):
    """Compare the twisted polynomial of the regular representation of f
    with the cover polynomial; the two pipelines share no code past the
    homomorphism itself."""
    rep = regular_representation(f)
    twisted = twisted_alexander(m, rep)
    cover = build_cover(m, f)
    covered = cover_alexander(cover)
    return {
        "twisted": format_polynomial(twisted.polynomial),
        "cover": format_polynomial(covered.polynomial),
        "equal": twisted.polynomial == covered.polynomial,
        "d": cover.d,
    }
