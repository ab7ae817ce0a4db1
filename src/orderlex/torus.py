"""Mapping tori of certified free-group automorphisms and their classical
and twisted Alexander polynomials.

The group of the mapping torus with fiber F = F_n and monodromy theta is

    < x_1 .. x_n, t | t x_i t^-1 = theta(x_i) >,

with the distinguished epimorphism phi killing the x_i and sending t to
d_scale.  Twisting a representation of this group by phi turns the cellular
chain complex of the presentation 2-complex into a complex of free modules
over Q[t, 1/t], whose Fox matrix comes from the constant Fox Jacobian of the
images theta(x_i); the first homology is the twisted Alexander module and
its invariant factors are the p_i.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import compress
from math import lcm

from .errors import ConsistencyError, RepresentationError
from .fox import jacobian, specialize
from .freegroup import FreeEndomorphism
from .laurent import (
    LaurentPolynomial,
    _positive,
    _z_to_laurent,
    _zcanonical,
    _zsubmul,
    format_polynomial,
)
from .linalg import (
    PolynomialMatrix,
    characteristic_matrix,
    homology_invariant_factors,
    pencil_char_poly,
)
from .roots import root_counts


@dataclass(frozen=True)
class MappingTorus:
    fiber_rank: int
    monodromy: FreeEndomorphism
    label: str = ""

    def __post_init__(self):
        _positive(self.fiber_rank, "fiber rank")
        if self.monodromy.rank != self.fiber_rank:
            raise ValueError("monodromy rank does not match the fiber rank")

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
    """Invariant factors of the first twisted homology of the mapping torus,
    phi sending t to d_scale: those of the complex reduced once at s = t
    (_twisted_complex), with t^d substituted afterwards, as in
    _monodromy_polynomial.  s = t^d keeps the unimodular matrices of a Smith
    form unimodular and a divisibility chain a chain, and maps a canonical
    polynomial to a canonical one."""
    d_scale = _positive(d_scale, "d_scale")
    factors = _twisted_complex(m, rep)[-1]
    nonunit = tuple(f.substitute_power(d_scale) for f in factors if not f.is_one)
    return AlexanderResult(_z_to_laurent(_product_z(nonunit)), nonunit, 0)


def _twisted_complex(m, rep):
    """(J, ends, rep(t), chi, det, h0, factors): the twisted complex of the
    mapping torus under rep, with phi sending t to s, built and reduced once.

    The chain complex of the presentation 2-complex has boundary maps
    assembled from group ring elements, each g sent to rep(g) s^(phi(g)):
    the Fox derivatives of the relators r_i = t x_i t^-1 theta(x_i)^-1
    (degree 2 -> 1), and x_j - 1 for each generator (degree 1 -> 0), whose
    row is the constant blocks rep(x_j) - I and rep(t) s - I that
    fox.specialize lays side by side.  Every block enters transposed, as
    the module carries a left action and the matrices act on column
    vectors; that replaces the module by its contragredient and changes no
    invariant factor up to units.

    dr_i/dx_j = delta_ij t - t x_i t^-1 theta(x_i)^-1 d(theta(x_i))/dx_j
    and dr_i/dt = 1 - t x_i t^-1.  If rep satisfies the relations, these
    specialize to delta_ij rep(t) s - J_ij and I - rep(theta(x_i)), J the
    constant Jacobian of the images, which one fox.jacobian walk gives with
    each product ends[i] = rep(theta(x_i)); b2 is built from these blocks.
    If not, Fox's fundamental formula for theta(x_i) makes block i of
    b1 * b2 equal to ((rep(t) rep(x_i) - rep(theta(x_i)) rep(t)) s)^T,
    nonzero exactly when relation i fails.  So the b1 * b2 = 0 check of the
    homology is the relation check: its ConsistencyError becomes
    RepresentationError if rep violates a relation, and is re-raised as a
    bug otherwise.

    The module is torsion: by Shapiro's lemma, with phi killing F, it is
    H_1(F; V), finite-dimensional over Q, so a free part raises
    ConsistencyError.  factors are the canonical nonzero invariant factors
    of b2, units included.  A second, independent route (Wada's) compares
    chi * h0 with their product times det, for chi = chi_M(s) read off J,
    h0 = order(H_0) and det = det(rep(t) s - I) from b1's t-block;
    disagreement raises ConsistencyError (see _wada_cross_check).
    """
    if rep.rank != m.fiber_rank:
        raise RepresentationError("representation rank does not match the fiber")
    stable = rep.stable_matrix
    jac, ends = jacobian(m.monodromy.images, dict(enumerate(rep.fiber_matrices, 1)))
    b1 = specialize(rep.fiber_matrices, stable)
    try:
        factors, free_rank, b1_factors = homology_invariant_factors(
            b1, _fox_transpose(jac, ends, stable, 1))
    except ConsistencyError:
        if rep.satisfies_relations(m.monodromy):
            raise
        raise RepresentationError(
            "representation violates the mapping-torus relations"
        ) from None
    if free_rank:
        raise ConsistencyError(f"the twisted module has free rank {free_rank}, not 0")
    chi = pencil_char_poly(jac, stable)
    det = PolynomialMatrix._of([r[-b1.rows:] for r in b1._z], 0, b1._den).det()
    h0 = _z_to_laurent(_product_z(b1_factors))
    _wada_cross_check(chi, h0, det, _product_z(factors))
    return jac, ends, stable, chi, det, h0, factors


def _fox_transpose(jac, ends, stable, d):
    """b2 at t^d, the transposed Fox matrix of the relators under a
    representation that satisfies them: row block i of the Fox matrix is
    delta_ij stable t^d - J_ij over the fiber generators j, then
    I - ends[i], under one denominator; zero entries share one list."""
    dim, zero, pad = stable.rows, [], [0] * (d - 1)
    den = lcm(jac._den, stable._den, *(e._den for e in ends))
    fj, fs = den // jac._den, den // stable._den
    rows = []
    for i, end in enumerate(ends):
        for a, srow in enumerate(stable._z):
            r = [[-fj * x] if x else zero for x in jac._z[i * dim + a]]
            for b in compress(range(dim), srow):
                r[i * dim + b] = [*(r[i * dim + b] or [0]), *pad, fs * srow[b]]
            e = [den // end._den * x for x in end._z[a]]
            e[a] -= den
            rows.append(r + [[-v] if v else zero for v in e])
    return PolynomialMatrix._of(rows, 0, den).transpose()


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


def _wada_cross_check(chi, h0, det, poly):
    """det(fox minor) * order(H_0) == poly * det(rep(t) s - I), canonically.

    The fox minor is delta_ij rep(t) s - J_ij, so its determinant is a
    unit times chi = chi_M(s) for M = (I_n (x) rep(t)^-1) J, which
    pencil_char_poly reads off J (Kitano-Morifuji 2005; Friedl-Vidussi,
    "A survey of twisted Alexander polynomials", 2011).  h0 = order(H_0) is
    the product of the invariant factors of H_0 = coker(b1) that the
    homology's reduction of b1 already computed: a second reduction would
    run the same loop on the same matrix and check nothing independent."""
    lhs = _product_z([chi, h0])
    rhs = _product_z([det], poly)
    if lhs != rhs:
        raise ConsistencyError(
            "homology invariant factors disagree with the determinant bookkeeping: "
            f"{format_polynomial(_z_to_laurent(lhs))} vs "
            f"{format_polynomial(_z_to_laurent(rhs))}"
        )


def lemma4_check(m, rep, ds):
    """Rescaling law: twisting phi by d equals substituting t^d afterwards.

    One report per d in ds, each d read as twisted_alexander reads d_scale
    before any work.  The complex is built once; the rescaled side is its
    polynomial at s with t^d substituted.  The direct side alone reduces at
    t^d: b2 built at t^d from the kept Jacobian and image products, the
    product of its nonzero invariant factors, and Wada's comparison on it."""
    ds = [_positive(d, "d") for d in ds]
    jac, ends, stable, chi, det, h0, factors = _twisted_complex(m, rep)
    base = _z_to_laurent(_product_z(factors))
    reports = []
    for d in ds:
        b2 = _fox_transpose(jac, ends, stable, d)
        poly = _product_z([f for f in b2.smith_normal_form() if not f.is_zero])
        _wada_cross_check(chi.substitute_power(d), h0.substitute_power(d),
                          det.substitute_power(d), poly)
        direct = _z_to_laurent(poly)
        rescaled = base.substitute_power(d).canonicalize()
        reports.append({"d": d, "direct": format_polynomial(direct),
                        "rescaled": format_polynomial(rescaled), "equal": direct == rescaled})
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
