"""Differential oracle: RationalMatrix against sympy's exact matrices.

sympy shares no code with orderlex and is used only here; without it the
module is skipped.
"""

import random
from fractions import Fraction

import pytest

from orderlex.errors import SingularMatrixError
from orderlex.linalg import RationalMatrix

sympy = pytest.importorskip("sympy")

T = sympy.Symbol("t")


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
        scalar = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        assert_same(a * scalar, to_sympy(a) * sympy.Rational(scalar.numerator, scalar.denominator))
        assert_fraction_matrix(scalar * a)


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
        assert m.det() == from_sympy(det)
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
        assert acc.det() == from_sympy(expected.det())
        assert_fraction_matrix(RationalMatrix.identity(n))
