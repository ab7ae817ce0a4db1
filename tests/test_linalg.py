"""Exact rational/polynomial linear algebra: determinants, characteristic
polynomials, Smith normal form over Q[t], homology invariant factors."""

import random
import sys
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import example, given, settings, strategies as st

from orderlex import laurent, linalg
from orderlex import torus as torus_module
from orderlex.autos import figure_eight_monodromy
from orderlex.errors import ConsistencyError, SingularMatrixError
from orderlex.finite import TorusHomomorphism, cyclic_group, regular_representation
from _fox_reference import fox_derivative
from _laurent_literal import L, power_characteristic_matrix
from orderlex.fox import specialize
from orderlex.laurent import (
    LaurentPolynomial,
    poly_divmod,
    poly_gcd,
)
from orderlex.linalg import (
    PolynomialMatrix,
    RationalMatrix,
    _pivot,
    characteristic_matrix,
    homology_invariant_factors,
)
from orderlex.torus import MappingTorus, presentation, twisted_alexander


def QM(rows):
    return RationalMatrix([[Fraction(x) for x in r] for r in rows])


def PM(rows):
    return PolynomialMatrix([[L(str(x)) for x in r] for r in rows])


def exact_quotient(a, b):
    """a / b for canonical a and b, asserting that b divides a."""
    q, r = poly_divmod(a, b)
    assert r.is_zero
    return q


def product(a, b):
    """a * b for PolynomialMatrix a and b, entry by entry."""
    zero = LaurentPolynomial.zero()
    return PolynomialMatrix(
        [
            [sum((a.entry(i, k) * b.entry(k, j) for k in range(a.cols)), zero)
             for j in range(b.cols)]
            for i in range(a.rows)
        ]
    )


def random_poly_matrix(rng, n, max_deg=2, span=3):
    entries = [
        [
            LaurentPolynomial(
                {e: Fraction(rng.randint(-span, span)) for e in range(max_deg + 1)}
            )
            for _ in range(n)
        ]
        for _ in range(n)
    ]
    return PolynomialMatrix(entries)


def determinantal_divisor_chain(pm):
    """gcd of all k x k minors, for k = 1..n; the brute-force route."""
    n = pm.rows
    chain = []
    for k in range(1, n + 1):
        acc = LaurentPolynomial.zero()
        for rs in combinations(range(n), k):
            for cs in combinations(range(n), k):
                minor = PolynomialMatrix([[pm.entry(i, j) for j in cs] for i in rs])
                acc = poly_gcd(acc, minor.det())
        chain.append(acc.canonicalize())
    return chain


def factors_from_divisors(chain):
    out = []
    prev = LaurentPolynomial.one()
    for d in chain:
        if d.is_zero:
            out.append(LaurentPolynomial.zero())
        else:
            out.append(exact_quotient(d, prev).canonicalize())
            prev = d
    return out


@pytest.mark.parametrize("rows", [[[1, 2], [3]], [[1], [2, 3]], [[1, 2], []]])
def test_public_constructors_reject_ragged_rows(rows):
    """The public constructors check row lengths; the private _of
    constructors trust their callers."""
    with pytest.raises(ValueError, match="ragged matrix"):
        RationalMatrix(rows)
    with pytest.raises(ValueError, match="ragged matrix"):
        PolynomialMatrix([[L(str(x)) for x in r] for r in rows])


class TestRationalMatrix:
    def test_characteristic_matrix_known(self):
        m = QM([[2, 1], [1, 1]])
        assert characteristic_matrix(m).det() == L("t^2 - 3*t + 1")
        assert characteristic_matrix(m).entry(0, 1) == L("-1")
        assert characteristic_matrix(m).entry(1, 1) == L("t - 1")
        assert power_characteristic_matrix(m, 2).det() == L("t^4 - 3*t^2 + 1")
        # the constant term is det(-m), so a singular m leaves none
        assert characteristic_matrix(QM([[1, 2], [2, 4]])).det() == L("t^2 - 5*t")

    def test_inverse(self):
        m = QM([[2, 1], [1, 1]])
        inv = m.inverse()
        assert (m * inv).is_identity()
        assert (inv * m).is_identity()

    def test_inverse_singular(self):
        with pytest.raises(SingularMatrixError):
            QM([[1, 2], [2, 4]]).inverse()

    @pytest.mark.parametrize("rows", [
        [[0, 1, 0], [0, 0, 1], [1, 0, 0]],
        [[0, -1, 0], [1, 0, 0], [0, 0, -1]],
        [[-1]],
    ])
    def test_inverse_signed_permutation(self, rows):
        """A signed permutation matrix is inverted by its transpose."""
        m = QM(rows)
        inv = m.inverse()
        assert inv.to_lists() == [list(c) for c in zip(*m.to_lists())]
        assert (m * inv).is_identity() and (inv * m).is_identity()

    @pytest.mark.parametrize("rows", [
        [[0, 1, 0], [0, -1, 0], [1, 0, 0]],
        [[1, 0], [1, 0]],
    ])
    def test_inverse_singular_one_entry_per_row(self, rows):
        """One entry +-1 per row, two rows in one column: singular."""
        with pytest.raises(SingularMatrixError):
            QM(rows).inverse()

    def test_char_poly_known(self):
        # trace 3, det 1
        assert QM([[2, 1], [1, 1]]).char_poly() == L("t^2 - 3*t + 1")
        # trace -3, det 1
        assert QM([[-2, -1], [-1, -1]]).char_poly() == L("t^2 + 3*t + 1")
        assert RationalMatrix.identity(3).char_poly() == L("t^3 - 3*t^2 + 3*t - 1")

    def test_char_poly_matches_det_route(self):
        rng = random.Random(3)
        for _ in range(10):
            n = rng.randint(1, 4)
            m = QM([[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)])
            direct = m.char_poly()
            via_det = characteristic_matrix(m).det()
            assert direct == via_det

    def test_power(self):
        m = QM([[2, 1], [1, 1]])
        square = m * m
        assert square.entry(0, 0) + square.entry(1, 1) == 7
        assert (m.inverse() * m).is_identity()


class TestPolynomialMatrixDet:
    def test_det_known(self):
        m = PM([["t - 2", "-1"], ["-1", "t - 1"]])
        assert m.det() == L("t^2 - 3*t + 1")

    def test_det_with_laurent_entries(self):
        tinv = LaurentPolynomial({-1: Fraction(1)})
        m = PolynomialMatrix([[tinv, L("1")], [L("1"), L("t")]])
        assert m.det().is_zero

    def test_det_multiplicative(self):
        rng = random.Random(5)
        for _ in range(5):
            a = random_poly_matrix(rng, 3, max_deg=1, span=2)
            b = random_poly_matrix(rng, 3, max_deg=1, span=2)
            assert product(a, b).det() == a.det() * b.det()

    def test_det_minus_one_pivots(self):
        """det(tR - I) = t^3 - 1 for the 3-cycle R: step 0 pivots on the -1
        of row 0, so step 1 takes its quotient by -1 as a sign.  Wada's
        canonical comparison cannot see a sign, so this pins it."""
        m = PM([["-1", "t", "0"], ["0", "-1", "t"], ["t", "0", "-1"]])
        assert m.det() == L("t^3 - 1")
        assert m.transpose().det() == L("t^3 - 1")

    def test_inexact_division_raises(self, monkeypatch):
        """Column 0 holds no +-1, so step 1 divides by the pivot 2, exactly.
        With each Bareiss update perturbed by 1, the previous pivot 3 does
        not divide the update, and the determinant raises instead of
        keeping a quotient."""
        m = PM([[2, 3, 5], [4, 7, 11], [6, 13, 17]])
        assert m.det() == L("-4")
        submul = linalg._zsubmul

        def perturbed(c, a, q, b):
            out = submul(c, a, q, b) or [0]
            return [out[0] + 1] + out[1:]

        monkeypatch.setattr(linalg, "_zsubmul", perturbed)
        with pytest.raises(ArithmeticError, match="expected to be exact"):
            m.det()


class TestPencilCharPoly:
    """PolynomialMatrix.pencil_char_poly reads the leading square minor
    t^d (I_n (x) block) - B as chi_M(t^d), M = (I_n (x) block^-1) B."""

    def test_identity_block_gives_char_poly_of_b(self):
        b = QM([[2, 1], [1, 1]])
        for d in (1, 2, 3):
            pm = power_characteristic_matrix(b, d)
            chi = pm.pencil_char_poly(RationalMatrix.identity(1), d)
            assert chi == b.char_poly().substitute_power(d)
            assert pm.pencil_char_poly(RationalMatrix.identity(2), d) == pm.det()

    def test_block_is_inverted(self):
        # t^2 * [[2]] - [[3]] has determinant 2 t^2 - 3 = 2 (t^2 - 3/2)
        assert PM([["2*t^2 - 3"]]).pencil_char_poly(QM([[2]]), 2) == L("t^2 - 3/2")
        # I_2 (x) [[0, 1], [1, 0]]: the 4 x 4 minor of 1 + t^3 * swap, with
        # trailing columns ignored
        pm = PM([["1", "t^3", "0", "0", "t^5"],
                 ["t^3", "1", "0", "0", "0"],
                 ["0", "0", "1", "t^3", "t"],
                 ["0", "0", "t^3", "1", "0"]])
        swap = QM([[0, 1], [1, 0]])
        chi = pm.pencil_char_poly(swap, 3)
        bareiss = PolynomialMatrix([[pm.entry(i, j) for j in range(4)] for i in range(4)]).det()
        assert chi == bareiss  # det(I_2 (x) swap) = 1
        assert chi == L("t^12 - 2*t^6 + 1")

    @pytest.mark.parametrize("entry", ["t - 1", "t^3 - 1", "t^-1 + t^2"])
    def test_other_degrees_raise(self, entry):
        with pytest.raises(ConsistencyError, match="t-degrees other than 0 and d"):
            PM([[entry, "0"], ["0", "t^2"]]).pencil_char_poly(RationalMatrix.identity(1), 2)

    def test_other_leading_part_raises(self):
        swap = QM([[0, 1], [1, 0]])
        with pytest.raises(ConsistencyError, match="not I_n"):
            PM([["t", "1"], ["1", "t"]]).pencil_char_poly(swap, 1)
        # an off-diagonal block with a t^d part
        pm = PM([["1", "t"], ["t", "0"]])
        with pytest.raises(ConsistencyError, match="not I_n"):
            pm.pencil_char_poly(RationalMatrix.identity(1), 1)


class TestSmithNormalForm:
    def test_upper_triangular_pair(self):
        # divisor chain of [[t-1,1],[0,t-1]] is 1 | (t-1)^2
        factors = PM([["t - 1", "1"], ["0", "t - 1"]]).smith_normal_form()
        assert [str(f) for f in factors] == ["1", "t^2 - 2*t + 1"]

    def test_t_is_a_unit(self):
        # over the Laurent ring t is invertible, so [[t,1],[0,t]] has unit
        # determinant and trivial invariant factors
        factors = PM([["t", "1"], ["0", "t"]]).smith_normal_form()
        assert [str(f) for f in factors] == ["1", "1"]

    def test_diagonal_rearranged_into_chain(self):
        # diag(t-1, t+1) has coprime entries, so the chain is
        # 1 | (t-1)(t+1)
        m = PM([["t - 1", "0"], ["0", "t + 1"]])
        factors = m.smith_normal_form()
        assert [str(f) for f in factors] == ["1", "t^2 - 1"]

    def test_zero_matrix(self):
        factors = PM([[0, 0], [0, 0]]).smith_normal_form()
        assert all(f.is_zero for f in factors)

    def test_identity(self):
        factors = PM([[int(i == j) for j in range(3)] for i in range(3)]).smith_normal_form()
        assert all(f.is_one for f in factors)

    def test_divisibility_chain_random(self):
        rng = random.Random(11)
        for _ in range(15):
            n = rng.randint(1, 4)
            m = random_poly_matrix(rng, n)
            factors = [f for f in m.smith_normal_form() if not f.is_zero]
            for a, b in zip(factors, factors[1:]):
                exact_quotient(b, a)

    def test_matches_determinantal_divisors_random(self):
        rng = random.Random(12)
        for _ in range(10):
            m = random_poly_matrix(rng, 3)
            got = [f.canonicalize() for f in m.smith_normal_form()]
            expected = factors_from_divisors(determinantal_divisor_chain(m))
            assert got == expected

    def test_det_equals_factor_product_up_to_unit(self):
        rng = random.Random(13)
        for _ in range(10):
            m = random_poly_matrix(rng, 3)
            prod = LaurentPolynomial.one()
            for f in m.smith_normal_form():
                prod = prod * f
            assert prod.canonicalize() == m.det().canonicalize()


class TestHomologyInvariantFactors:
    def test_exact_pair(self):
        # b1 * b2 = 0 with b2 presenting a (t-1)-torsion module
        b1 = PM([["t - 1", "0"]])
        b2 = PM([["0"], ["t - 1"]])
        factors, free_rank, b1_factors = homology_invariant_factors(b1, b2)
        assert [str(f) for f in factors] == ["t - 1"]
        assert free_rank == 0
        assert b1_factors == b1.smith_normal_form() == [L("t - 1")]

    def test_free_part_detected(self):
        b1 = PM([[0, 0]])
        b2 = PM([[0], [0]])
        factors, free_rank, b1_factors = homology_invariant_factors(b1, b2)
        assert factors == []
        assert free_rank == 2
        assert b1_factors == [L("0")]

    def test_no_matrix_product(self, monkeypatch):
        """A twisted boundary pair is only assembled and reduced:
        PolynomialMatrix has no arithmetic, and the homology checks
        b1 * b2 = 0 by a sparse product of the Z[t] rows inside
        homology_invariant_factors."""
        pairs = []
        original = torus_module.homology_invariant_factors

        def capturing(b1, b2):
            pairs.append((b1, b2))
            return original(b1, b2)

        monkeypatch.setattr(torus_module, "homology_invariant_factors", capturing)
        torus = MappingTorus(2, figure_eight_monodromy())
        g = cyclic_group(3)
        f = TorusHomomorphism(g, (g.identity(),) * 2, g.element(1))
        f.require_well_defined(torus.monodromy)
        expected = twisted_alexander(torus, regular_representation(f))
        (b1, b2), = pairs

        arithmetic = ("__add__", "__sub__", "__neg__", "__mul__", "__rmul__")
        assert not any(hasattr(PolynomialMatrix, op) for op in arithmetic)
        factors, free_rank, b1_factors = homology_invariant_factors(b1, b2)
        assert free_rank == expected.free_rank == 0
        assert b1_factors == b1.smith_normal_form()
        assert tuple(x for x in factors if not x.is_one) == expected.invariant_factors

    def test_rejects_non_complex(self):
        b1 = PM([["1", "0"]])
        b2 = PM([["1"], ["0"]])
        with pytest.raises(ConsistencyError):
            homology_invariant_factors(b1, b2)


class TestIntegerKernels:
    def test_no_fraction_division(self, laurent_calls):
        """det, the Smith normal form and the twisted pipeline around them
        run on the Z[t] kernels directly and never reach poly_divmod, which
        converts between Fraction polynomials and Z[t] on every call."""
        # the twisted boundary matrix of the figure-eight knot group under
        # the regular representation onto Z3
        torus = MappingTorus(2, figure_eight_monodromy())
        g = cyclic_group(3)
        f = TorusHomomorphism(g, (g.identity(),) * 2, g.element(1))
        f.require_well_defined(torus.monodromy)
        rep = regular_representation(f)
        matrices = {1: rep.fiber_matrices[0], 2: rep.fiber_matrices[1], 3: rep.stable_matrix}
        exponents = {1: 0, 2: 0, 3: 1}
        rows = [specialize([fox_derivative(r, j) for j in (1, 2, 3)], matrices, exponents)
                for r in presentation(torus)]
        fox = PolynomialMatrix([[row.entry(i, j) for j in range(row.cols)]
                                for row in rows for i in range(row.rows)])
        assert (fox.rows, fox.cols) == (6, 9)
        minor = PolynomialMatrix([[fox.entry(i, j) for j in range(6)] for i in range(6)])
        assert not minor.det().is_zero
        assert len(fox.smith_normal_form()) == 6
        twisted_alexander(torus, rep)
        assert laurent_calls["poly_divmod"] == 0

        # the counter counts: poly_gcd goes through poly_divmod
        assert poly_gcd(L("t - 1"), L("t^2 - 1")) == L("t - 1")
        assert laurent_calls["poly_divmod"] == 2

    def test_values_never_mutate_a_matrix_list(self):
        """Values read off a PolynomialMatrix keep its Z[t] lists, and values
        handed to the constructor lend theirs; computing with either, and
        reducing either matrix, leaves every list as it was."""
        m = PolynomialMatrix([[L("t^2 - 3*t + 1"), L("2*t + 5"), L("0")],
                              [L("t - 1"), L("7"), L("-4*t^3 + 2*t")]])
        values = [m.entry(i, j) for i in range(m.rows) for j in range(m.cols)]
        assert sum(v._z is p for v, p in zip(values, sum(m._z, []))) == 5
        values.append(L("t^-1/2 + 2/3"))
        lent = PolynomialMatrix([values[:3], values[3:6]])
        before = [[list(p) for p in r] for r in m._z + lent._z]
        held = [list(v._z) for v in values]
        for a in values:
            for b in values:
                a + b, a - b, a * b, b - 1, 1 - b
                if b and all(x.is_zero or x.order >= 0 for x in (a, b)):
                    poly_divmod(a, b)
            -a, a * 3, Fraction(2, 3) * a, a.derivative(), a.substitute_power(2)
            a.canonicalize(), a == 7, hash(a), a.items()
        for x in (m, lent):
            x.smith_normal_form(), x.transpose().smith_normal_form()
            PolynomialMatrix([[x.entry(0, 0), x.entry(0, 1)], [x.entry(1, 0), x.entry(1, 1)]]).det()
        assert [[list(p) for p in r] for r in m._z + lent._z] == before
        assert [v._z for v in values] == held

    def test_no_conversion_in_the_twisted_pipeline(self, monkeypatch):
        """The twisted pipeline holds its matrices in Z[t] from fox_matrix
        and specialize to the invariant factors: twisted_alexander converts
        no row of Laurent polynomials into Z[t], and neither fox_matrix nor
        specialize builds a Laurent polynomial, by the public constructor
        or by _z_to_laurent, the one that builds from Z[t]."""
        torus = MappingTorus(2, figure_eight_monodromy())
        g = cyclic_group(3)
        f = TorusHomomorphism(g, (g.identity(),) * 2, g.element(1))
        f.require_well_defined(torus.monodromy)
        rep = regular_representation(f)
        counts = {"rows": 0, "built": 0, "fox_matrix": 0, "specialize": 0}
        to_z = laurent._row_to_z

        def converting(row):
            counts["rows"] += 1
            return to_z(row)

        to_laurent = laurent._z_to_laurent
        inside = []

        def building_z(*args):
            counts["built"] += bool(inside)
            return to_laurent(*args)

        for module in [m for n, m in list(sys.modules.items()) if n.startswith("orderlex")]:
            if vars(module).get("_row_to_z") is to_z:
                monkeypatch.setattr(module, "_row_to_z", converting)
            if vars(module).get("_z_to_laurent") is to_laurent:
                monkeypatch.setattr(module, "_z_to_laurent", building_z)
        init = LaurentPolynomial.__init__

        def building(self, coeffs=None):
            counts["built"] += bool(inside)
            init(self, coeffs)

        def marked(name):
            original = getattr(torus_module, name)

            def call(*args):
                counts[name] += 1
                inside.append(True)
                try:
                    return original(*args)
                finally:
                    inside.pop()

            monkeypatch.setattr(torus_module, name, call)

        monkeypatch.setattr(LaurentPolynomial, "__init__", building)
        marked("fox_matrix")
        marked("specialize")
        result = twisted_alexander(torus, rep)
        assert result.polynomial == L("t^6 - 18*t^3 + 1")
        # one Fox matrix for both relators, one specialize for the row of
        # b1 blocks x_j - 1
        assert counts == {"rows": 0, "built": 0, "fox_matrix": 1, "specialize": 1}
        # the counters count: the public constructor converts its entries,
        # and inside a marked call both ways of building a value are seen
        matrix = PolynomialMatrix([[L("t"), L("1/2")]])
        assert counts["rows"] == 1
        inside.append(True)
        matrix.entry(0, 1)
        LaurentPolynomial({1: 2})
        assert counts["built"] == 2


laurent_st = st.dictionaries(
    st.integers(min_value=-3, max_value=3),
    st.fractions(min_value=-4, max_value=4, max_denominator=6).filter(bool),
    max_size=3,
).map(LaurentPolynomial)


@st.composite
def block_grids(draw):
    """A 2 x 2 grid of blocks of Laurent entries, as nested lists, each
    block scaled by its own unit c * t^k."""
    heights = draw(st.lists(st.integers(min_value=1, max_value=3), min_size=2, max_size=2))
    widths = draw(st.lists(st.integers(min_value=1, max_value=3), min_size=2, max_size=2))
    grid = []
    for h in heights:
        brow = []
        for w in widths:
            k = draw(st.integers(min_value=-4, max_value=4))
            c = draw(st.fractions(min_value=-5, max_value=5, max_denominator=7).filter(bool))
            entries = draw(st.lists(st.lists(laurent_st, min_size=w, max_size=w),
                                    min_size=h, max_size=h))
            brow.append([[x * LaurentPolynomial.term(c, k) for x in row] for row in entries])
        grid.append(brow)
    return grid


@settings(max_examples=30, deadline=None)
@given(block_grids(), st.data())
def test_storage_round_trip(grid, data):
    """Entries survive the Z[t] storage: the constructor and transpose give
    back the entries they were built from, on each block and on the whole
    grid, and so does a minor rebuilt from entries."""
    def entries(pm):
        return [[pm.entry(i, j) for j in range(pm.cols)] for i in range(pm.rows)]

    full = [sum((brow[b][i] for b in range(len(brow))), []) for brow in grid
            for i in range(len(brow[0]))]
    for block in (b for brow in grid for b in brow):
        pm = PolynomialMatrix(block)
        assert entries(pm) == block
        assert entries(pm.transpose()) == [list(c) for c in zip(*block)]
    pm = PolynomialMatrix(full)
    assert entries(pm) == full
    assert entries(pm.transpose()) == [list(c) for c in zip(*full)]
    rows = data.draw(st.lists(st.sampled_from(range(pm.rows)), max_size=4))
    cols = data.draw(st.lists(st.sampled_from(range(pm.cols)), min_size=1, max_size=4))
    minor = PolynomialMatrix([[pm.entry(i, j) for j in cols] for i in rows])
    assert entries(minor) == [[full[i][j] for j in cols] for i in rows]


@settings(max_examples=30, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(min_value=-3, max_value=3), min_size=3, max_size=3),
        min_size=3,
        max_size=3,
    )
)
def test_char_poly_root_trace_consistency(rows):
    m = QM(rows)
    p = m.char_poly()
    assert p.degree == 3
    assert p.leading_coefficient == 1
    # coefficient of t^(n-1) is -trace, constant term is (-1)^n det, with
    # det expanded along the first row
    (a, b, c), (d, e, f), (g, h, i) = rows
    det = a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    assert p.coefficient(2) == -(a + e + i)
    assert p.coefficient(0) == -det


@st.composite
def sparse_zmatrices(draw):
    """(m, k): Z[t] rows with at least 60% zero entries and a column k <
    min(rows, cols).  shortest = 2 draws no constant entry; shortest = 1
    draws constants among longer entries, often several."""
    rows = draw(st.integers(min_value=1, max_value=6))
    cols = draw(st.integers(min_value=1, max_value=6))
    shortest = draw(st.sampled_from([1, 2]))
    nonzero = st.builds(
        lambda body, top: body + [top],
        st.lists(st.integers(min_value=-5, max_value=5), min_size=shortest - 1, max_size=3),
        st.integers(min_value=-5, max_value=5).filter(bool))
    nonzeros = draw(st.integers(min_value=0, max_value=rows * cols * 2 // 5))
    cells = draw(st.permutations(range(rows * cols)))[:nonzeros]
    m = [[draw(nonzero) if i * cols + j in cells else [] for j in range(cols)]
         for i in range(rows)]
    return m, draw(st.integers(min_value=0, max_value=min(rows, cols) - 1))


@settings(max_examples=200, deadline=None)
@given(sparse_zmatrices())
@example(([[[] for _ in range(3)] for _ in range(2)], 0))  # all zero
@example(([[[], [0, 2]], [[3], [-1]]], 0))  # constants in both rows
@example(([[[0, 0, 2], [-1]], [[0, 3], []]], 0))  # a constant above a monomial
@example(([[[1, 1], [0, 0, 2]], [[], [4, 1]]], 1))  # a monomial, no constant
@example(([[[1, 1], [1, 0, 2]], [[], [4, 1, 1]]], 1))  # no unit
def test_pivot_takes_units_first_from_the_last_row(case):
    """The pivot is a constant in the last row that holds one, else a
    monomial c t^e in the last row that holds one, else an entry of
    least length; there is none exactly when every row is empty."""
    m, _ = case
    rows = [{j: x for j, x in enumerate(r) if x} for r in m]
    pivot = _pivot(rows)
    assert (pivot is None) == (not any(rows))
    if pivot is None:
        return
    i, j = pivot
    x = rows[i][j]

    def last(unit):
        return max((i for i, r in enumerate(rows) if any(map(unit, r.values()))), default=None)

    constant = last(lambda y: len(y) == 1)
    monomial = last(lambda y: y.count(0) == len(y) - 1)
    if constant is not None:
        assert i == constant and len(x) == 1
    elif monomial is not None:
        assert i == monomial and x.count(0) == len(x) - 1
    else:
        assert len(x) == min(len(y) for r in rows for y in r.values())
