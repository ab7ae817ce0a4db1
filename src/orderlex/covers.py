"""Finite covers of the fiber, the lifted monodromy, and the cross-check
that the twisted polynomial of a regular representation equals the classical
polynomial of the associated cover with t replaced by t^d.

The cover of the fiber is the one corresponding to Ftilde = ker(f) cut down
to the fiber subgroup F.  A shortlex breadth-first transversal makes the
Schreier basis and every derived matrix reproducible.  build_cover checks
the relations of f and takes the Schreier graph of f(F), on vertex indices,
with that transversal and the cover degree, from one finite.schreier_graph
walk of the group's product table: no permutation product happens outside
FiniteGroup.  The basis, its kernel check and the rewriting of words into
the basis all walk that graph by list lookups.  As f o theta is f
conjugated by f(t), theta^(+-1) preserve Ftilde; their restriction theta~
and conjugation by w, C~_w, are certified once on the basis, where words
are short.  The lifted monodromy x -> theta^d(w x w^-1) is exactly
theta~^d o C~_w, since rewriting is an isomorphism of Ftilde onto the free
group on the basis; theta~^d comes by repeated squaring.  C~_w is built,
certified and composed only when w is non-empty.  When w is empty C~_w is
the identity, which build_cover checks directly on every cover: each basis
element rewrites to its own letter.  That is stronger than certifying the
identity map, which any signed involution of the basis letters also passes.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ConsistencyError
from .finite import regular_representation, schreier_graph
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
    reps, forward, backward, d, w = schreier_graph(f)

    # edge[v][g - 1]: the basis index of the edge v -> forward[v][g - 1],
    # 0 on the edges of the transversal's tree
    basis, edge = [], []
    for u, row in zip(reps, forward):
        ids = []
        for g, target in enumerate(row, 1):
            s = u * FreeWord.generator(g) * reps[target].inverse()
            if s:
                basis.append(s)
            ids.append(len(basis) if s else 0)
        edge.append(ids)

    expected_rank = len(reps) * (m.fiber_rank - 1) + 1
    if len(basis) != expected_rank:
        raise ConsistencyError(
            f"Schreier basis has rank {len(basis)}, expected {expected_rank}"
        )
    for i, b in enumerate(basis, 1):
        try:
            own = _rewrite(b, forward, backward, edge)
        except ValueError:
            raise ConsistencyError("Schreier basis element is not in the kernel") from None
        if own.letters != ((i, 1),):
            raise ConsistencyError("Schreier basis element does not rewrite to its own letter")

    def restricted(there, back):
        images = [tuple(_rewrite(phi(b), forward, backward, edge) for b in basis)
                  for phi in (there, back)]
        return FreeEndomorphism(len(basis), *images)

    theta = m.monodromy
    lifted = restricted(theta.apply, theta.inverse_endomorphism().apply).power(d)
    if w:
        w_inv = w.inverse()
        lifted = lifted.compose(restricted(lambda b: w * b * w_inv, lambda b: w_inv * b * w))

    return CoverData(
        d=d,
        w=w,
        schreier_transversal=tuple(reps),
        subgroup_basis=tuple(basis),
        lifted_monodromy=lifted,
    )


def _rewrite(word, forward, backward, edge):
    """The reduced word over the Schreier basis that equals word, a reduced
    word of F, by a walk of the Schreier graph from the identity: the
    letter x_g^s adds basis letter (edge[v][g - 1], s) for the edge it
    crosses unless that edge lies in the transversal's tree.  Raises
    ValueError when the walk does not end at the identity, as word then
    does not lie in the subgroup.

    The transversal is prefix-closed, so the tree edges form a spanning
    tree of the graph.  Two basis letters that meet with opposite signs on
    one edge would need a walk between them that returns along tree edges
    alone, which a reduced word cannot make; so the result is reduced."""
    letters = []
    v = 0
    for g, s in word.letters:
        if s > 0:
            idx = edge[v][g - 1]
            if idx:
                letters.append((idx, 1))
            v = forward[v][g - 1]
        else:
            v = backward[v][g - 1]
            idx = edge[v][g - 1]
            if idx:
                letters.append((idx, -1))
    if v:
        raise ValueError("word does not lie in the subgroup")
    return FreeWord._wrap(tuple(letters))


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
