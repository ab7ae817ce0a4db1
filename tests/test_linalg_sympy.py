"""Differential oracle: RationalMatrix and PolynomialMatrix against sympy's
exact matrices and its invariant factors over QQ[t].

sympy shares no code with orderlex and is used only here; without it the
module is skipped.
"""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from orderlex import linalg
from orderlex.autos import figure_eight_monodromy
from orderlex.errors import ConsistencyError, SingularMatrixError
from orderlex.finite import TorusHomomorphism, cyclic_group, regular_representation
from orderlex.laurent import LaurentPolynomial
from orderlex.linalg import (
    PolynomialMatrix,
    RationalMatrix,
    characteristic_matrix,
    homology_invariant_factors,
)
from orderlex.torus import MappingTorus, classical_alexander, twisted_alexander

sympy = pytest.importorskip("sympy")

from _laurent_literal import power_characteristic_matrix
from sympy.matrices.normalforms import invariant_factors
from sympy.polys.matrices import DomainMatrix

T = sympy.Symbol("t")
QQ_T = sympy.QQ[T]


def random_entry(rng, density):
    if rng.random() >= density:
        return Fraction(0)
    return Fraction(rng.randint(-9, 9), rng.randint(1, 6))


def random_matrix(rng, rows, cols, density):
    return RationalMatrix(
        [[random_entry(rng, density) for _ in range(cols)] for _ in range(rows)]
    )


def random_permutation_matrix(rng, n):
    p = list(range(n))
    rng.shuffle(p)
    return RationalMatrix([[int(p[j] == i) for j in range(n)] for i in range(n)])


def to_sympy(m):
    return sympy.Matrix(
        m.rows,
        m.cols,
        [sympy.Rational(x.numerator, x.denominator) for r in m.to_lists() for x in r],
    )


def from_sympy(x):
    x = sympy.Rational(x)
    return Fraction(int(x.p), int(x.q))


def assert_same(m, s):
    assert (m.rows, m.cols) == s.shape
    assert m.to_lists() == [[from_sympy(s[i, j]) for j in range(s.cols)] for i in range(s.rows)]


def assert_fraction_matrix(m):
    """Entries are Fraction, and the matrix equals and hashes like the one
    the public constructor builds from its entries."""
    assert all(type(x) is Fraction for r in m.to_lists() for x in r)
    rebuilt = RationalMatrix(m.to_lists())
    assert m == rebuilt
    assert hash(m) == hash(rebuilt)


def assert_reduced(m):
    """The stored form: integer rows over one positive denominator that
    shares no factor with all of them."""
    assert m._den > 0
    assert math.gcd(m._den, *(x for r in m._z for x in r)) == 1


# (rows, inner, cols, density): mostly zero, dense, non-square, degenerate
SHAPES = [
    (5, 5, 5, 0.2),
    (6, 6, 6, 0.15),
    (4, 4, 4, 1.0),
    (3, 5, 2, 0.3),
    (2, 4, 6, 1.0),
    (1, 7, 1, 0.5),
    (4, 1, 3, 1.0),
    (3, 3, 3, 0.0),
]


@pytest.mark.parametrize("rows, inner, cols, density", SHAPES)
def test_product(rows, inner, cols, density):
    rng = random.Random(f"{rows}x{inner}x{cols}@{density}")
    for _ in range(10):
        a = random_matrix(rng, rows, inner, density)
        b = random_matrix(rng, inner, cols, density)
        product = a * b
        assert_same(product, to_sympy(a) * to_sympy(b))
        assert_fraction_matrix(product)
        assert_reduced(product)


@pytest.mark.parametrize("n, density", [(1, 1.0), (3, 1.0), (5, 0.5), (6, 0.25), (7, 0.15)])
def test_square_invariants(n, density):
    rng = random.Random(f"{n}@{density}")
    invertible = 0
    for _ in range(12):
        # a nonzero entry on a random permutation keeps sparse matrices
        # mostly invertible
        rows = random_matrix(rng, n, n, density).to_lists()
        p = list(range(n))
        rng.shuffle(p)
        for i in range(n):
            rows[i][p[i]] = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 6))
        m = RationalMatrix(rows)
        s = to_sympy(m)
        det = s.det()
        coeffs = [from_sympy(c) for c in s.charpoly(T).all_coeffs()]
        cp = m.char_poly()
        assert [cp.coefficient(n - k) for k in range(n + 1)] == coeffs
        if det == 0:
            with pytest.raises(SingularMatrixError):
                m.inverse()
        else:
            invertible += 1
            inverse = m.inverse()
            assert_same(inverse, s.inv())
            assert_fraction_matrix(inverse)
            assert_reduced(inverse)
            assert (m * inverse).is_identity()
    assert invertible > 0


def test_permutation_products():
    rng = random.Random(7)
    for n in (1, 2, 4, 6, 12, 24):
        factors = [random_permutation_matrix(rng, n) for _ in range(6)]
        acc = RationalMatrix.identity(n)
        expected = sympy.eye(n)
        for p in factors:
            acc = acc * p
            expected = expected * to_sympy(p)
            assert_same(acc, expected)
            assert_fraction_matrix(acc)
        assert_same(acc.inverse(), expected.inv())
        assert_fraction_matrix(RationalMatrix.identity(n))


@pytest.mark.parametrize("n", range(1, 7))
def test_scaled_conjugates(n):
    """D P D^-1 for a signed permutation P and a rational diagonal D: every
    entry can carry a denominator and the matrices have finite order, so
    products, powers, inverses and characteristic polynomials all meet
    denominators and cancel some of them."""
    rng = random.Random(f"conjugates {n}")
    mats = []
    for _ in range(4):
        p = list(range(n))
        rng.shuffle(p)
        d = [Fraction(rng.randint(1, 6), rng.randint(1, 6)) for _ in range(n)]
        mats.append(RationalMatrix(
            [[rng.choice((-1, 1)) * d[i] / d[j] if p[i] == j else 0 for j in range(n)]
             for i in range(n)]
        ))
    for a, b in zip(mats, mats[1:]):
        s = to_sympy(a)
        inv = a.inverse()
        for m, expected in ((a * b, s * to_sympy(b)), (inv, s.inv()),
                            (a * a * a * a * a, s ** 5), (inv * inv * inv, s.inv() ** 3)):
            assert_same(m, expected)
            assert_fraction_matrix(m)
            assert_reduced(m)
        coeffs = [from_sympy(c) for c in s.charpoly(T).all_coeffs()]
        cp = a.char_poly()
        assert [cp.coefficient(n - k) for k in range(n + 1)] == coeffs
        assert sum(a.entry(i, i) for i in range(n)) == from_sympy(s.trace())
        assert (a * a.inverse()).is_identity()


# -- the modular characteristic polynomial ------------------------------


def sympy_charpoly(m):
    """The coefficients, leading first, of det(tI - m) by sympy's
    DomainMatrix charpoly over QQ."""
    dm = DomainMatrix([[sympy.QQ(x.numerator, x.denominator) for x in r] for r in m.to_lists()],
                      (m.rows, m.cols), sympy.QQ)
    return [Fraction(int(c.numerator), int(c.denominator)) for c in dm.charpoly()]


def hadamard_bound(z):
    """prod_i (2 + isqrt(|z_i|^2)) over the rows z_i."""
    return math.prod(2 + math.isqrt(sum(x * x for x in r)) for r in z)


@pytest.fixture
def moduli(monkeypatch):
    """The (bound, p) of every char_poly call; each p is checked to exceed
    twice its bound."""
    chosen = []
    modulus = linalg._char_poly_modulus

    def recording(bound):
        p = modulus(bound)
        assert p > 2 * bound
        chosen.append((bound, p))
        return p

    monkeypatch.setattr(linalg, "_char_poly_modulus", recording)
    return chosen


def assert_char_poly(m):
    """char_poly(m) equals sympy's, and every coefficient of the integer
    characteristic polynomial of den * m is at most its Hadamard bound."""
    n = m.rows
    cp = m.char_poly()
    assert [cp.coefficient(n - k) for k in range(n + 1)] == sympy_charpoly(m)
    scaled = RationalMatrix(m._z).char_poly()
    assert all(abs(scaled.coefficient(e)) <= hadamard_bound(m._z) for e in range(n + 1))


# (n, largest numerator, largest denominator): up to N = 24 with small
# entries; entries up to 2^200, at sizes that keep the bound's prime small
# enough to test quickly
CHAR_POLY_SHAPES = [
    (1, 9, 1), (2, 9, 1), (7, 9, 1), (12, 9, 1), (18, 9, 1), (24, 9, 1),
    (5, 9, 6), (10, 9, 6), (16, 9, 6), (24, 3, 4),
    (2, 2 ** 200, 1), (4, 2 ** 200, 1), (3, 2 ** 200, 2 ** 100),
]


@pytest.mark.parametrize("n, top, den", CHAR_POLY_SHAPES, ids=[
    f"{n}x{n}-top{top.bit_length()}b-den{den.bit_length()}b" for n, top, den in CHAR_POLY_SHAPES])
def test_char_poly_against_sympy(n, top, den, moduli):
    rng = random.Random(f"char poly {n} {top} {den}")
    for density in (1.0, 0.3):
        entries = [[Fraction(rng.randint(-top, top), rng.randint(1, den))
                    if rng.random() < density else 0 for _ in range(n)] for _ in range(n)]
        assert_char_poly(RationalMatrix(entries))
    if top >= 2 ** 200:
        # the dense matrix's entries push its bound past 2^61 - 1: q >= 521
        assert moduli[0][1].bit_length() >= 521


def direct_sum(*blocks):
    n = sum(len(b) for b in blocks)
    out, at = [], 0
    for b in blocks:
        out += [[0] * at + r + [0] * (n - at - len(r)) for r in b]
        at += len(b)
    return out


STRUCTURED = {
    "zero": [[0] * 5 for _ in range(5)],
    "identity": [[int(i == j) for j in range(6)] for i in range(6)],
    "one-by-one": [[-7]],
    "nilpotent Jordan block": [[int(j == i + 1) for j in range(6)] for i in range(6)],
    "direct sum": direct_sum([[2, 1], [1, 1]], [[0, -1], [1, 0]], [[3, 1, 4], [1, 5, 9], [2, 6, 5]]),
    # the first column is zero below the diagonal, so the first Hessenberg
    # step finds no pivot
    "block upper triangular": [
        [4, 1, 2, 7, -1], [0, 3, 5, 2, 8], [0, 1, -2, 6, 0],
        [0, 0, 0, 1, 9], [0, 0, 0, -4, 2],
    ],
    "block lower triangular": [
        [1, 2, 0, 0, 0], [3, 4, 0, 0, 0], [5, 6, 7, 8, 0],
        [9, 1, 2, 3, 0], [4, 5, 6, 7, 8],
    ],
    "permuted direct sum": [
        [0, 0, 1, 0, 0], [0, 2, 0, 0, 1], [1, 0, 0, 0, 0],
        [0, 0, 0, 5, 0], [0, 1, 0, 0, 3],
    ],
}


@pytest.mark.parametrize("name", STRUCTURED)
def test_char_poly_structured(name, moduli):
    """Zero, the identity, 1 x 1, a nilpotent Jordan block, direct sums and
    block-triangular matrices, where Hessenberg steps find no pivot, and
    their rational multiples."""
    entries = STRUCTURED[name]
    assert_char_poly(RationalMatrix(entries))
    assert_char_poly(RationalMatrix([[Fraction(x, 3) for x in r] for r in entries]))
    assert moduli and all(p == least_listed_prime(bound) for bound, p in moduli)


def least_listed_prime(bound):
    """The least of the one-digit prime, then the Mersenne primes of the
    table, above 2 * bound."""
    listed = [linalg._ONE_DIGIT_PRIME] + [(1 << q) - 1 for q in linalg._MERSENNE_EXPONENTS]
    return next(p for p in listed if p > 2 * bound)


def test_one_digit_prime():
    """The first modulus is a prime of one 30-bit CPython digit."""
    p0 = linalg._ONE_DIGIT_PRIME
    assert sympy.isprime(p0)
    assert p0 < 2 ** 30


@pytest.mark.parametrize("x, p", [(21474833, linalg._ONE_DIGIT_PRIME),
                                  (21474834, 2 ** 61 - 1)])
def test_char_poly_either_side_of_the_one_digit_prime(x, p, moduli):
    """The bound of this 3 x 3 matrix is 25 (2 + x), so twice it is just
    below p0 = 2^30 - 35 at the first x and just above it at the next:
    both sides of the modulus rule run."""
    assert_char_poly(RationalMatrix([[x, 1, 2], [3, -1, 1], [1, 2, -2]]))
    assert moduli[0] == (25 * (2 + x), p)


def test_char_poly_coefficient_above_half_the_one_digit_prime(moduli):
    """[[a]] has bound B = a + 2 < p0 <= 2B and char poly t - a with
    a > p0 / 2, so the residue of -a mod p0 would read as p0 - a: the
    rule must take a prime above 2B, not above B."""
    a = 2 ** 29 + 5
    assert a + 2 < linalg._ONE_DIGIT_PRIME < 2 * a
    assert RationalMatrix([[a]]).char_poly() == LaurentPolynomial({1: 1, 0: -a})
    assert moduli == [(a + 2, 2 ** 61 - 1)]


def test_char_poly_bound_past_the_table(monkeypatch):
    """With the table cut to 2^61 - 1, a matrix whose bound exceeds 2^60
    raises ArithmeticError naming the bound's bit length; one within it
    still computes."""
    monkeypatch.setattr(linalg, "_MERSENNE_EXPONENTS", (61,))
    small = RationalMatrix([[2, 1], [1, 1]])
    assert small.char_poly() == LaurentPolynomial({2: 1, 1: -3, 0: 1})
    z = [[2 ** 40, 1], [3, 2 ** 40]]
    bits = hadamard_bound(z).bit_length()
    assert bits > 61
    with pytest.raises(ArithmeticError, match=f"bound of {bits} bits"):
        RationalMatrix(z).char_poly()


def test_char_poly_prime_below_twice_the_bound(monkeypatch):
    """A prime below 2B gives wrong coefficients, and the independent
    routes that check char_poly raise ConsistencyError: the Smith normal
    form in classical_alexander and the Bareiss determinant in
    twisted_alexander's Wada check."""
    torus = MappingTorus(2, figure_eight_monodromy())
    g = cyclic_group(2)
    rep = regular_representation(TorusHomomorphism(g, (g.identity(),) * 2, g.element(1)))

    def small(bound):
        assert 3 < 2 * bound
        return 3

    monkeypatch.setattr(linalg, "_char_poly_modulus", small)
    with pytest.raises(ConsistencyError, match="characteristic polynomial"):
        classical_alexander(torus)
    with pytest.raises(ConsistencyError, match="determinant bookkeeping"):
        twisted_alexander(torus, rep)


@pytest.mark.parametrize("n", range(1, 7))
def test_characteristic_matrix(n):
    """det(t^d I - A) is sympy's characteristic polynomial of A at t^d: the
    library's tI - A at d = 1, the tests' own t^d I - A past it."""
    rng = random.Random(f"characteristic {n}")
    for d in (1, 2, 3):
        for density in (1.0, 0.5):
            m = random_matrix(rng, n, n, density)
            charpoly = to_sympy(m).charpoly(T).as_expr().subs(T, T ** d)
            pm = characteristic_matrix(m) if d == 1 else power_characteristic_matrix(m, d)
            assert pm.det() == from_sympy_laurent(charpoly)

def random_sympy_matrix(rng, rows, cols, density):
    return sympy.Matrix(rows, cols, lambda i, j: sympy.Rational(
        rng.randint(-9, 9) if rng.random() < density else 0, rng.randint(1, 6)))


@pytest.mark.parametrize("size", range(1, 7))
def test_pencil_char_poly(size):
    """det(t^d A - B) = det(A) chi_{A^-1 B}(t^d) for A = I_n (x) S with S a
    random invertible rational matrix (S = A when n = 1) and B random, each
    built in sympy; the left side is sympy's determinant."""
    rng = random.Random(f"pencil {size}")
    for dim in (k for k in range(1, size + 1) if size % k == 0):
        for d in (1, 2, 3):
            for density in (1.0, 0.4):
                s = random_sympy_matrix(rng, dim, dim, 1.0)
                while s.det() == 0:
                    s = random_sympy_matrix(rng, dim, dim, 1.0)
                a = sympy.diag(*[s] * (size // dim))
                b = random_sympy_matrix(rng, size, size, density)
                minor = T ** d * a - b
                block = RationalMatrix([[from_sympy(s[i, j]) for j in range(dim)]
                                        for i in range(dim)])
                chi = from_sympy_matrix(minor).pencil_char_poly(block, d)
                det = DomainMatrix.from_Matrix(minor).convert_to(QQ_T).det()
                expected = from_sympy_poly(QQ_T.to_sympy(det))
                assert chi * LaurentPolynomial.term(from_sympy(a.det())) == expected


# -- PolynomialMatrix ---------------------------------------------------
#
# Entries carry non-monic Fraction coefficients and negative exponents, so
# the determinant and the Smith normal form must clear denominators, shift
# rows and scale pseudo-divisions, which matrices with integer or
# permutation entries never make them do.


def random_laurent(rng, density, low=-2, high=2):
    if rng.random() >= density:
        return LaurentPolynomial.zero()
    start = rng.randint(low, high)
    return LaurentPolynomial(
        {e: Fraction(rng.randint(-9, 9), rng.randint(1, 6))
         for e in range(start, start + rng.randint(0, 2) + 1)}
    )


def random_poly_matrix(rng, rows, cols, density):
    return PolynomialMatrix(
        [[random_laurent(rng, density) for _ in range(cols)] for _ in range(rows)]
    )


def shifted_rows(m):
    """The rows of m as sympy polynomials, each row multiplied by the unit
    t^-order that puts it in QQ[t]; returns (matrix, total shift)."""
    rows = []
    total = 0
    for i in range(m.rows):
        row = [m.entry(i, j) for j in range(m.cols)]
        live = [x.order for x in row if not x.is_zero]
        k = min(live) if live else 0
        total += k
        rows.append([
            sum((sympy.Rational(c.numerator, c.denominator) * T ** (e - k)
                 for e, c in x.items()), sympy.Integer(0))
            for x in row
        ])
    return sympy.Matrix(rows), total


def from_sympy_poly(expr):
    poly = sympy.Poly(expr, T, domain=sympy.QQ)
    return LaurentPolynomial(
        {e: from_sympy(c) for (e,), c in poly.terms()}
    )


def from_sympy_laurent(expr):
    """A sympy expression in t and 1/t as a LaurentPolynomial."""
    poly = sympy.Poly(sympy.expand(expr), T, 1 / T, domain=sympy.QQ)
    out = {}
    for (up, down), c in poly.terms():
        out[up - down] = out.get(up - down, 0) + from_sympy(c)
    return LaurentPolynomial(out)


def from_sympy_matrix(s):
    return PolynomialMatrix(
        [[from_sympy_laurent(s[i, j]) for j in range(s.cols)] for i in range(s.rows)]
    )


def sympy_invariant_factors(m):
    """Canonical invariant factors of m over Q[t, 1/t], by sympy.  Row
    shifts by t^k and the factors t^k of sympy's QQ[t] answer are units."""
    s, _ = shifted_rows(m)
    factors = invariant_factors(s, domain=QQ_T)
    return [from_sympy_poly(f).canonicalize() for f in factors]


def test_polynomial_det():
    rng = random.Random("polynomial det")
    for n in range(1, 7):
        for density in (1.0, 0.5):
            m = random_poly_matrix(rng, n, n, density)
            s, shift = shifted_rows(m)
            det = DomainMatrix.from_Matrix(s).convert_to(QQ_T).det()
            expected = from_sympy_poly(QQ_T.to_sympy(det)) * LaurentPolynomial.term(1, shift)
            assert m.det() == expected
    # a repeated row up to a unit makes the determinant zero
    rows = random_poly_matrix(rng, 4, 4, 1.0)
    rows = [[rows.entry(i, j) for j in range(4)] for i in range(4)]
    rows[3] = [x * LaurentPolynomial.term(Fraction(-2, 3), -1) for x in rows[0]]
    assert PolynomialMatrix(rows).det().is_zero


def sympy_det(rows):
    """sympy's determinant over QQ[t] of the matrix of integer coefficient
    dicts {exponent: c}, and the same matrix as a PolynomialMatrix."""
    s = sympy.Matrix([[sum((c * T ** e for e, c in x.items()), sympy.Integer(0)) for x in r]
                      for r in rows])
    det = DomainMatrix.from_Matrix(s).convert_to(QQ_T).det()
    m = PolynomialMatrix([[LaurentPolynomial(x) for x in r] for r in rows])
    return m, from_sympy_poly(QQ_T.to_sympy(det))


@pytest.mark.parametrize("d", [1, 2, 3])
def test_det_against_sympy(d):
    """det() equals sympy's determinant at d = 1-3 on matrices over Z[t^d]
    whose constants are often +-1, so Bareiss pivots on units and takes
    quotients by a sign; on ones whose coefficients avoid +-1, so no
    column starts with a unit pivot and it divides by the others; and on
    signed-permutation pencils t^d R - I and their transposes, the shape
    of Wada's t-block, where each point R moves puts a -1 on the diagonal."""
    rng = random.Random(f"det {d}")
    for n in range(1, 7):
        for coeffs in ((-1, 1, 1, -1, 0, 2), (-4, -3, -2, 0, 2, 3, 4)):
            rows = [[{d * e: rng.choice(coeffs) for e in range(rng.randint(0, 2))}
                     for _ in range(n)] for _ in range(n)]
            m, expected = sympy_det(rows)
            assert m.det() == expected
        perm = list(range(n))
        rng.shuffle(perm)
        signs = [rng.choice((1, -1)) for _ in range(n)]
        rows = [[{d: signs[i]} if perm[i] == j else {} for j in range(n)] for i in range(n)]
        for i in range(n):
            rows[i][i] = {**rows[i][i], 0: -1}
        m, expected = sympy_det(rows)
        assert m.det() == expected
        assert m.transpose().det() == expected


# (rows, cols, density): square sizes 1-6, non-square shapes, sparse
SNF_SHAPES = [
    (1, 1, 1.0), (2, 2, 1.0), (3, 3, 0.7), (4, 4, 0.5), (5, 5, 0.4),
    (6, 6, 0.3), (2, 4, 0.8), (4, 2, 0.8), (3, 5, 0.5), (5, 3, 0.5),
    (1, 3, 1.0), (3, 1, 1.0),
]


@pytest.mark.parametrize("rows, cols, density", SNF_SHAPES)
def test_polynomial_smith_normal_form(rows, cols, density):
    rng = random.Random(f"snf {rows}x{cols}@{density}")
    for _ in range(3):
        m = random_poly_matrix(rng, rows, cols, density)
        assert m.smith_normal_form() == sympy_invariant_factors(m)
    # a dependent row gives a zero invariant factor when rows <= cols
    entries = [[m.entry(i, j) for j in range(cols)] for i in range(rows)]
    if rows > 1:
        t2 = LaurentPolynomial.term(1, 2)
        entries[-1] = [a * Fraction(3, 4) + b * t2 for a, b in zip(entries[0], entries[1])]
        m = PolynomialMatrix(entries)
        assert m.smith_normal_form() == sympy_invariant_factors(m)


# the first pivot (t-1)(t-2) divides neither the entry below it nor the one
# beside it, and the later pivot t - 1 does not divide (t+1)(t+2), so the
# reduction meets a column remainder, a row remainder and a non-divisible
# later entry
REMAINDER_CASE = [
    [(T - 1) * (T - 2), (T - 1) * (T - 5), 0],
    [(T - 1) * (T - 3), (T - 1) * T, 0],
    [0, 0, (T + 1) * (T + 2)],
]


def test_smith_normal_form_remainders():
    m = from_sympy_matrix(sympy.Matrix(REMAINDER_CASE).expand())
    assert m.smith_normal_form() == sympy_invariant_factors(m)


# unit pivots with nonzero row tails: two constant pivots ahead of a block
# with no unit, and a first pivot t, a unit of Q[t, 1/t] but not of Q[t],
# whose column clears by one row operation
UNIT_PIVOT_CASES = [
    [[2, 3, T ** 2 + 1, T - 4],
     [1, 1, T, T ** 3],
     [0, 0, (T - 1) * (T - 2), (T - 1) * (T - 5)],
     [0, 0, (T - 1) * (T - 3), (T - 1) * T]],
    [[T, T + 1, 0],
     [T ** 2, T ** 2 + T + 5, T - 1],
     [0, T ** 2 - 1, (T - 1) ** 2]],
]


@pytest.mark.parametrize("case", UNIT_PIVOT_CASES)
@pytest.mark.parametrize("transpose", [False, True])
def test_smith_normal_form_unit_pivots(case, transpose):
    """A unit pivot clears its row without column operations; the factors
    still match sympy's, alone and as b1 of a homology pair."""
    s = sympy.Matrix(case).expand()
    m = from_sympy_matrix(s.T if transpose else s)
    expected = sympy_invariant_factors(m)
    assert m.smith_normal_form() == expected
    # the same matrix as b1 of a pair with b2 = 0
    b2 = PolynomialMatrix([[0] for _ in range(m.cols)])
    factors, free_rank, b1_factors = homology_invariant_factors(m, b2)
    assert b1_factors == expected
    assert factors == [] and free_rank == m.cols - sum(1 for f in expected if not f.is_zero)


@pytest.mark.parametrize("v", [(T, 1, T ** 2), (1, T, 0), (T ** 2, 0, 1)])
def test_homology_remainders(v):
    """b1 = [M | M v] and b2 = [v; -1] B compose to zero for the remainder
    case M, which has full rank, so ker b1 is spanned by [v; -1] and the
    homology is the cokernel of the row B; reducing b1 meets every
    remainder."""
    m = sympy.Matrix(REMAINDER_CASE)
    v = sympy.Matrix(v)
    b = sympy.Matrix([[(T - 1) * (T + 3), (T - 1) ** 2, T * (T - 1) * (T + 2)]])
    b1 = m.row_join(m * v).expand()
    b2 = (v.col_join(sympy.Matrix([[-1]])) * b).expand()
    b1 = from_sympy_matrix(b1)
    factors, free_rank, b1_factors = homology_invariant_factors(b1, from_sympy_matrix(b2))
    assert factors == sympy_invariant_factors(from_sympy_matrix(b)) == [
        LaurentPolynomial({0: -1, 1: 1})]
    assert free_rank == 0
    assert b1_factors == sympy_invariant_factors(b1)


def sparse_entry(rng):
    """Zero with probability 0.65; else a rational constant, a unit c t^k
    or a Laurent polynomial of two or three terms, each equally often."""
    if rng.random() < 0.65:
        return sympy.Integer(0)

    def c():
        return sympy.Rational(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 4))

    kind = rng.randrange(3)
    if kind == 0:
        return c()
    if kind == 1:
        return c() * T ** rng.randint(-2, 2)
    start = rng.randint(-1, 1)
    return sum((c() * T ** e for e in range(start, start + rng.randint(2, 3))), sympy.Integer(0))


def mostly_zero(s):
    return sum(1 for x in s if x == 0) >= 0.6 * len(s)


def pivot_row_has_gaps(s):
    """Some row with a nonzero constant has a zero where another row has a
    nonzero entry, so a row operation by it meets both kinds of entry."""
    return any(
        any(s[i, j].is_number and s[i, j] != 0 for j in range(s.cols))
        and any(s[i, j] == 0 and any(s[a, j] != 0 for a in range(s.rows) if a != i)
                for j in range(s.cols))
        for i in range(s.rows))


def sparse_matrix(rng, rows, cols, full_rank=False):
    """A sparse_entry matrix with at least 60% zero entries, constants
    among the others and a pivot row with gaps; of full rank if asked."""
    while True:
        s = sympy.Matrix(rows, cols, lambda i, j: sparse_entry(rng))
        if (mostly_zero(s) and pivot_row_has_gaps(s)
                and not (full_rank and s.det() == 0)):
            return s


SPARSE_SHAPES = [(3, 3), (4, 4), (5, 5), (6, 6), (4, 6), (6, 4), (3, 5), (5, 3)]


@pytest.mark.parametrize("rows, cols", SPARSE_SHAPES)
def test_smith_normal_form_sparse(rows, cols):
    """Mostly-zero matrices mixing constants with polynomials, and their
    transposes, where row and column operations mostly scale or keep
    entries: the factors match sympy's."""
    rng = random.Random(f"sparse snf {rows}x{cols}")
    for _ in range(4):
        s = sparse_matrix(rng, rows, cols)
        for x in (s, s.T):
            m = from_sympy_matrix(x)
            assert m.smith_normal_form() == sympy_invariant_factors(m)


# (columns n of the full-rank M, columns s of V, columns k of B)
SPARSE_HOMOLOGY_SHAPES = [(3, 1, 2), (4, 1, 3), (4, 2, 2), (5, 2, 3), (6, 1, 4)]


@pytest.mark.parametrize("n, s, k", SPARSE_HOMOLOGY_SHAPES)
def test_homology_invariant_factors_sparse(n, s, k):
    """b1 = [M | M V] and b2 = [V; -I] B compose to zero for sparse M, V and
    B; M has full rank, so ker b1 is the image of [V; -I] and the homology
    is the cokernel of B, read off the reduction of the mostly-zero b2."""
    rng = random.Random(f"sparse homology {n} {s} {k}")
    for _ in range(3):
        while True:
            m = sparse_matrix(rng, n, n, full_rank=True)
            v = sympy.Matrix(n, s, lambda i, j: sparse_entry(rng))
            b = sympy.Matrix(s, k, lambda i, j: sparse_entry(rng))
            b1 = m.row_join(m * v).expand()
            b2 = (v.col_join(-sympy.eye(s)) * b).expand()
            if mostly_zero(b1) and mostly_zero(b2) and any(b2):
                break
        b1 = from_sympy_matrix(b1)
        factors, free_rank, b1_factors = homology_invariant_factors(b1, from_sympy_matrix(b2))
        expected = [f for f in sympy_invariant_factors(from_sympy_matrix(b)) if not f.is_zero]
        assert factors == expected
        assert free_rank == s - len(expected)
        assert b1_factors == sympy_invariant_factors(b1)


# the constants +-1, 2 and 3 and the monomials c t^e, e in -3..3 with e != 0,
# next to Laurent polynomials, so that a unit pivot meets entries it divides
# and entries it does not, and the scaled row operation c t^e * row - a *
# pivot_row runs, with and without a shift
UNIT_COEFFS = (1, -1, 2, -2, 3, -3)
MIXED_ENTRY = st.one_of(
    st.just(sympy.Integer(0)),
    st.sampled_from([sympy.Integer(c) for c in UNIT_COEFFS]),
    st.builds(lambda c, e: c * T ** e, st.sampled_from(UNIT_COEFFS),
              st.sampled_from([-3, -2, -1, 1, 2, 3])),
    st.lists(st.integers(min_value=-4, max_value=4), min_size=1, max_size=3).flatmap(
        lambda cs: st.integers(min_value=-2, max_value=2).map(
            lambda e: sum((c * T ** (e + k) for k, c in enumerate(cs)), sympy.Integer(0)))),
)


@st.composite
def mixed_matrices(draw, min_rows=1, max_rows=5, min_cols=1, max_cols=5):
    """A sympy matrix of MIXED_ENTRY entries, square, wide or tall, with
    some rows and columns set to zero."""
    rows = draw(st.integers(min_value=min_rows, max_value=max_rows))
    cols = draw(st.integers(min_value=min_cols, max_value=max_cols))
    s = sympy.Matrix(rows, cols, draw(st.lists(MIXED_ENTRY, min_size=rows * cols,
                                               max_size=rows * cols)))
    for i in draw(st.sets(st.integers(min_value=0, max_value=rows - 1), max_size=rows // 2)):
        s[i, :] = sympy.zeros(1, cols)
    for j in draw(st.sets(st.integers(min_value=0, max_value=cols - 1), max_size=cols // 2)):
        s[:, j] = sympy.zeros(rows, 1)
    return s


@settings(max_examples=150, deadline=None)
@given(mixed_matrices())
# the pivot 2 does not divide the 3 below it: 2 * row_1 - 3 * row_0
@example(sympy.Matrix([[2, T], [3, 1 + T]]))
# no constant: the monomial 3 t is the first unit of the last row that holds
# one, and 3 t * row_0 - 2 t^2 * row_1 clears 2 t^2 above it
@example(sympy.Matrix([[2 * T ** 2, 1 + T], [3 * T, T - 1], [T + T ** 2, 1 + T ** 3]]))
def test_smith_normal_form_mixed_against_sympy(s):
    """The elimination, with its unit pivots c t^e and its pseudo-division
    by the others, gives sympy's invariant factors, padded with zeros to
    min(rows, cols)."""
    m = from_sympy_matrix(s)
    assert m.smith_normal_form() == sympy_invariant_factors(m)


@settings(max_examples=40, deadline=None)
@given(mixed_matrices(max_rows=4, max_cols=3), st.data())
def test_homology_mixed_against_sympy(s, data):
    """b1 = [M | M V] and b2 = [V; -I] B compose to zero; when M has full
    column rank, ker b1 is the image of [V; -I], so the homology is the
    cokernel of B, and sympy gives its invariant factors and those of b1."""
    n = s.cols
    if s.rank() < n:
        # stack an identity under M: still of full column rank, with
        # constant +-1 entries to pivot on
        s = s.col_join(sympy.eye(n))
    v = data.draw(mixed_matrices(min_rows=n, max_rows=n, max_cols=2))
    b = data.draw(mixed_matrices(min_rows=v.cols, max_rows=v.cols, max_cols=3))
    b1 = from_sympy_matrix(s.row_join(s * v).expand())
    b2 = from_sympy_matrix((v.col_join(-sympy.eye(v.cols)) * b).expand())
    factors, free_rank, b1_factors = homology_invariant_factors(b1, b2)
    expected = [f for f in sympy_invariant_factors(from_sympy_matrix(b)) if not f.is_zero]
    assert factors == expected
    assert free_rank == v.cols - len(expected)
    assert b1_factors == sympy_invariant_factors(b1)
    assert b2.smith_normal_form() == sympy_invariant_factors(b2)


def sympy_laurent(rng, density, low=-2, high=2):
    """random_laurent's draws, as a sympy expression."""
    if rng.random() >= density:
        return sympy.Integer(0)
    start = rng.randint(low, high)
    return sum(
        (sympy.Rational(rng.randint(-9, 9), rng.randint(1, 6)) * T ** e
         for e in range(start, start + rng.randint(0, 2) + 1)),
        sympy.Integer(0),
    )


def unimodular_pair(rng, n, steps):
    """(P, P^-1) in sympy for a product of elementary operations over
    Q[t, 1/t]: adding a Laurent multiple of one row to another, and scaling
    a row by a rational unit times t^k."""
    p = sympy.eye(n)
    p_inv = sympy.eye(n)
    for _ in range(steps):
        i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
        e = sympy.eye(n)
        e_inv = sympy.eye(n)
        if i != j and rng.random() < 0.7:
            x = sympy_laurent(rng, 1.0)
            e[i, j] = x
            e_inv[i, j] = -x
        else:
            c = sympy.Rational(rng.choice((-1, 1)) * rng.randint(1, 5), rng.randint(1, 5))
            k = rng.randint(-2, 2)
            e[i, i] = c * T ** k
            e_inv[i, i] = T ** -k / c
        p = (p * e).expand()
        p_inv = (e_inv * p_inv).expand()
    return p, p_inv


# (b1 rows, chain rank n, rank of b1, b2 cols)
HOMOLOGY_SHAPES = [
    (1, 2, 1, 1), (2, 3, 1, 2), (2, 4, 2, 2), (3, 4, 1, 3),
    (3, 5, 2, 2), (2, 5, 2, 4), (4, 6, 3, 3), (1, 6, 1, 5),
]


def composing_pair(rng, m_rows, n, r, k):
    """b1 = [A | 0] P^-1 and b2 = P [0; B], which compose to zero, and B,
    all as sympy matrices."""
    p, p_inv = unimodular_pair(rng, n, n)
    # A has full column rank r: its top r x r block is lower triangular
    # with a nonzero diagonal
    a = [[sympy_laurent(rng, 0.8) if j < i else sympy.Integer(0) for j in range(r)]
         for i in range(m_rows)]
    for i in range(r):
        while a[i][i] == 0:
            a[i][i] = sympy_laurent(rng, 1.0)
    a_block = sympy.Matrix([row + [0] * (n - r) for row in a])
    b = sympy.Matrix([[sympy_laurent(rng, 0.6) for _ in range(k)] for _ in range(n - r)])
    b_block = sympy.zeros(r, k).col_join(b)
    return (a_block * p_inv).expand(), (p * b_block).expand(), b


# the reduction of these pairs peaks under 500 bits
GROWTH_BITS = 4096


@pytest.mark.parametrize("m_rows, n, r, k", HOMOLOGY_SHAPES)
def test_homology_invariant_factors(m_rows, n, r, k, monkeypatch):
    """The homology of a composing pair is the cokernel of B, whose
    invariant factors sympy computes; P hides that structure from the
    library.  No coefficient of a row operation passes GROWTH_BITS, so a
    pivot rule that lets coefficients grow fails fast instead of running
    on."""
    scales = []
    submul, pseudo = linalg._zsubmul, linalg._zpseudo_divmod

    def recording(c, a, q, b):
        scales.extend(c)
        out = submul(c, a, q, b)
        bits = max((x.bit_length() for x in out), default=0)
        if bits > GROWTH_BITS:
            raise AssertionError(f"a coefficient of {bits} bits passed {GROWTH_BITS}")
        return out

    def dividing(a, b):
        out = pseudo(a, b)
        scales.append(out[0])
        return out

    monkeypatch.setattr(linalg, "_zsubmul", recording)
    monkeypatch.setattr(linalg, "_zpseudo_divmod", dividing)
    rng = random.Random(f"homology {m_rows} {n} {r} {k}")
    for _ in range(3):
        b1, b2, b = (from_sympy_matrix(x) for x in composing_pair(rng, m_rows, n, r, k))
        factors, free_rank, b1_factors = homology_invariant_factors(b1, b2)
        expected = [f for f in sympy_invariant_factors(b) if not f.is_zero]
        assert factors == expected
        assert free_rank == (n - r) - len(expected)
        assert b1_factors == sympy_invariant_factors(b1)
    # some row or column operation scaled by a pivot scale other than 1:
    # a constant pivot that does not divide the entry it clears, or a
    # pseudo-division by a non-monic pivot.  A pair of a single row and a
    # single column, as b1 (1 x 2) and b2 (2 x 1), may reduce with no
    # operation between two rows or columns at all.
    if max(min(b1.rows, b1.cols), min(b2.rows, b2.cols)) > 1:
        assert any(c != 1 for c in scales)


@pytest.mark.parametrize("m_rows, n, r, k", HOMOLOGY_SHAPES)
def test_perturbed_pair_does_not_compose(m_rows, n, r, k):
    """One b2 entry moved off a composing pair is caught by the product
    check: the entry sits in a row i where column i of b1 is nonzero, so
    b1 * b2 != 0."""
    rng = random.Random(f"perturbed {m_rows} {n} {r} {k}")
    b1, b2, _ = composing_pair(rng, m_rows, n, r, k)
    i = next(i for i in range(n) if any(b1[a, i] != 0 for a in range(m_rows)))
    delta = sympy.Integer(0)
    while delta == 0:
        delta = sympy_laurent(rng, 1.0)
    j = rng.randrange(k)
    b2[i, j] = (b2[i, j] + delta).expand()
    with pytest.raises(ConsistencyError, match="do not compose to zero"):
        homology_invariant_factors(from_sympy_matrix(b1), from_sympy_matrix(b2))
