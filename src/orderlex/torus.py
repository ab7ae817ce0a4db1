"""Mapping tori of certified free-group automorphisms and their classical
and twisted Alexander polynomials.

The group of the mapping torus with fiber F = F_n and monodromy theta is

    < x_1 .. x_n, t | t x_i t^-1 = theta(x_i) >,

with the distinguished epimorphism phi killing the x_i and sending t to
d_scale.  Twisting a representation of this group by phi turns the cellular
chain complex of the presentation 2-complex into a complex of free modules
over Q[t, 1/t]; the first homology is the twisted Alexander module and its
invariant factors are the p_i.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain

from .errors import ConsistencyError, RepresentationError
from .fox import fox_matrix, specialize
from .freegroup import FreeEndomorphism
from .laurent import (
    LaurentPolynomial,
    _z_to_laurent,
    _zcanonical,
    _zsubmul,
    format_polynomial,
)
from .linalg import PolynomialMatrix, characteristic_matrix, homology_invariant_factors
from .roots import root_counts
from .words import FreeWord


def presentation(m):
    """Relators t x_i t^-1 theta(x_i)^-1 over the generators x_1..x_n, t."""
    t = m.stable_index
    relators = []
    for i in range(1, m.fiber_rank + 1):
        letters = [(t, 1), (i, 1), (t, -1)]
        letters.extend(m.monodromy.images[i - 1].inverse().letters)
        relators.append(FreeWord._reduced(letters))
    return relators


@dataclass(frozen=True)
class MappingTorus:
    fiber_rank: int
    monodromy: FreeEndomorphism
    label: str = ""

    def __post_init__(self):
        if self.fiber_rank < 1:
            raise ValueError("fiber rank must be at least 1")
        if self.monodromy.rank != self.fiber_rank:
            raise ValueError("monodromy rank does not match the fiber rank")

    @property
    def stable_index(self):
        return self.fiber_rank + 1

    # built once per torus, for every twisted polynomial of it
    relators = cached_property(presentation)

    @cached_property
    def _classical(self):
        """classical_alexander's result, computed at its first call."""
        return _monodromy_polynomial(self.monodromy.abelianization(), 1)


@dataclass(frozen=True)
class AlexanderResult:
    """polynomial is the product of the invariant factors; invariant_factors
    lists the non-unit factors of the divisibility chain, canonicalized."""

    polynomial: LaurentPolynomial
    invariant_factors: tuple
    free_rank: int

    def factor_strings(self):
        return [format_polynomial(p) for p in self.invariant_factors]

    @cached_property
    def root_counts(self):
        """roots.root_counts of the polynomial, read once and kept."""
        return root_counts(self.polynomial)


def classical_alexander(m):
    """Characteristic polynomial of the homology action of the monodromy,
    cross-checked against the invariant factors of tI - A.  It is computed
    at the first call for a torus and kept on it, with its root counts
    once they are read."""
    return m._classical


def _monodromy_polynomial(a, d):
    """det(t^d I - A) for the homology action A of an automorphism,
    cross-checked against the invariant factors of t^d I - A.

    Both come from sI - A, with t^d substituted for s afterwards.  If
    U(s) (sI - A) V(s) = diag(f_i(s)) with U, V unimodular over Q[s], then
    s = t^d keeps U and V unimodular over Q[t] and f_i | f_(i+1), so the
    f_i(t^d) are the invariant factors of t^d I - A; substitution also
    maps a canonical polynomial to a canonical one.  The check compares
    the characteristic polynomial with the product of the f_i, at s."""
    chi = a.char_poly().canonicalize()
    factors = characteristic_matrix(a).smith_normal_form()
    if any(f.is_zero for f in factors):
        raise ConsistencyError("tI - A is singular for an automorphism")
    if _product_z(factors) != _zcanonical(chi._z):
        raise ConsistencyError(
            "invariant factors of tI - A do not multiply to the "
            "characteristic polynomial"
        )
    nonunit = tuple(f.substitute_power(d) for f in factors if not f.is_one)
    return AlexanderResult(chi.substitute_power(d), nonunit, 0)


def twisted_alexander(m, rep, d_scale=1):
    """Invariant factors of the first twisted homology of the mapping torus.

    The chain complex of the presentation 2-complex has boundary maps
    assembled from group ring elements: the Fox derivatives of the relators
    (degree 2 -> 1), from one fox_matrix call that walks each relator once
    and writes the whole matrix in Z[t], and x_j - 1 for each generator
    (degree 1 -> 0), from one specialize call over the row of them.  Both
    send g to rep(g) * t^(phi(g)).  Because the module carries a left
    action while the matrices act on column vectors, every block enters
    transposed, which replaces the module by its contragredient and
    changes no invariant factor up to units.

    By Fox's fundamental formula sum_j (dr/dx_j)(x_j - 1) = r - 1, block i
    of b1 * b2 is (rep(r_i) - I)^T, so the homology's b1 * b2 = 0 check is
    the relator check: its ConsistencyError becomes RepresentationError if
    rep violates a relator, and is re-raised as a bug otherwise.

    The module is torsion: by Shapiro's lemma, with phi killing F, it is
    d_scale copies of H_1(F; V), finite-dimensional over Q, so a free part
    raises ConsistencyError.  A second, independent route (Wada's) compares
    det(fox minor) * order(H_0) with product(p_i) * det(rep(t) t^d - I);
    disagreement raises ConsistencyError.  The fibered minor t^d A - B has
    determinant det(A) chi_{A^-1 B}(t^d) (Kitano-Morifuji 2005; see
    _wada_cross_check).
    """
    if d_scale < 1:
        raise ValueError("d_scale must be a positive integer")
    if rep.rank != m.fiber_rank:
        raise RepresentationError("representation rank does not match the fiber")
    gens = range(1, m.stable_index + 1)
    matrices = dict(zip(gens, rep.fiber_matrices + (rep.stable_matrix,)))
    exponents = {j: 0 for j in gens}
    exponents[m.stable_index] = d_scale

    fox = fox_matrix(m.relators, matrices, exponents)
    b2 = fox.transpose()
    one = FreeWord._wrap(())
    row = specialize([{FreeWord._wrap(((j, 1),)): 1, one: -1} for j in gens],
                     matrices, exponents)
    # b1 holds each block of row transposed: b1[a][j + b] = row[b][j + a],
    # so row a of b1 is columns a, a + dim, ... of row, one after another
    dim, cols = row.rows, list(zip(*row._z))
    b1 = PolynomialMatrix._of([list(chain.from_iterable(cols[a::dim])) for a in range(dim)],
                              row._shift, row._den)

    try:
        factors, free_rank, b1_factors = homology_invariant_factors(b1, b2)
    except ConsistencyError:
        if rep.satisfies_relations(m.monodromy):
            raise
        raise RepresentationError(
            "representation violates the mapping-torus relations"
        ) from None
    if free_rank:
        raise ConsistencyError(f"the twisted module has free rank {free_rank}, not 0")
    poly = _product_z(factors)

    # the last block of b1 is (rep(t) t^d - I)^T
    t_block = PolynomialMatrix._of([r[-dim:] for r in b1._z], b1._shift, b1._den)
    _wada_cross_check(fox, b1_factors, t_block, rep.stable_matrix, d_scale, poly)

    nonunit = tuple(f for f in factors if not f.is_one)
    return AlexanderResult(_z_to_laurent(poly), nonunit, free_rank)


def _product_z(polys, out=(1,)):
    """The canonical form of out times the product of the Laurent
    polynomials polys, for a canonical Z[t] list out: by Gauss's lemma it is
    the product of their canonical forms, and a unit's canonical form is 1."""
    for p in polys:
        if not p.is_one:
            q = _zcanonical(p._z)
            if q != [1]:
                out = _zsubmul(out, q, (), ())  # out * q
    return list(out)


def _wada_cross_check(fox, b1_factors, t_block, stable, d, poly):
    """det(fox minor) * order(H_0) == poly * det(t_block), as canonical Z[t] lists.

    The fiber columns of relator t x_i t^-1 theta(x_i)^-1 specialize to
    delta_ij stable t^d - B_ij, B constant, so det(fox minor) is a unit times
    chi_M(t^d) for M = (I_n (x) stable^-1) B (Kitano-Morifuji 2005;
    Friedl-Vidussi, "A survey of twisted Alexander polynomials", 2011).
    order(H_0) is the product of b1_factors, the invariant factors of
    H_0 = coker(b1) that the homology's reduction of b1 already computed:
    a second reduction would run the same loop on the same matrix and
    check nothing independent."""
    lhs = _product_z([fox.pencil_char_poly(stable, d)] + b1_factors)
    rhs = _product_z([t_block.det()], poly)
    if lhs != rhs:
        raise ConsistencyError(
            "homology invariant factors disagree with the determinant bookkeeping: "
            f"{format_polynomial(_z_to_laurent(lhs))} vs "
            f"{format_polynomial(_z_to_laurent(rhs))}"
        )


def lemma4_check(m, rep, ds):
    """Rescaling law: twisting phi by d equals substituting t^d afterwards.

    One report per d in ds, each against the same d = 1 polynomial."""
    base = twisted_alexander(m, rep).polynomial
    reports = []
    for d in ds:
        direct = twisted_alexander(m, rep, d_scale=d).polynomial
        rescaled = base.substitute_power(d).canonicalize()
        reports.append(
            {
                "d": d,
                "direct": format_polynomial(direct),
                "rescaled": format_polynomial(rescaled),
                "equal": direct == rescaled,
            }
        )
    return reports


def lemma5_check(m, pairs):
    """Direct-sum multiplicativity of the twisted polynomial: one bool per
    pair (a, b), in order.  The polynomial of each representation object is
    computed once, however many pairs it appears in."""
    polys = {}

    def poly(rep):
        if rep not in polys:
            polys[rep] = twisted_alexander(m, rep).polynomial
        return polys[rep]

    results = []
    for a, b in pairs:
        combined = twisted_alexander(m, a.direct_sum(b)).polynomial
        results.append(combined == (poly(a) * poly(b)).canonicalize())
    return results
