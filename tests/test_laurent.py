"""Laurent polynomial arithmetic, canonical forms, text form, divisibility."""

from fractions import Fraction

import pytest
import sympy
from hypothesis import given, strategies as st

from _laurent_literal import L

from orderlex.laurent import (
    LaurentPolynomial,
    _zsubmul,
    format_polynomial,
    poly_divmod,
    poly_gcd,
)


def assert_divides(p, q):
    """p | q in Q[t, 1/t]: the division of the unit-free forms is exact."""
    _, r = poly_divmod(q.canonicalize(), p.canonicalize())
    assert r.is_zero


coeff_st = st.integers(min_value=-9, max_value=9)
poly_st = st.dictionaries(
    st.integers(min_value=-5, max_value=5), coeff_st, max_size=6
).map(lambda d: LaurentPolynomial({e: Fraction(c) for e, c in d.items()}))


class TestArithmetic:
    def test_zero_and_one(self):
        assert LaurentPolynomial.zero().is_zero
        assert LaurentPolynomial.one().is_one
        assert not LaurentPolynomial.one().is_zero

    def test_constants_hash_like_their_coefficient(self):
        for c in (0, 1, -1, 7, Fraction(-3, 4)):
            p = LaurentPolynomial.term(c)
            assert p == c
            assert hash(p) == hash(c)
            assert p in {c} and c in {p}
        assert LaurentPolynomial.one() in {1}
        assert LaurentPolynomial.zero() in {0}

    def test_add_sub(self):
        p = L("t^2 - 3*t + 1")
        assert p - p == LaurentPolynomial.zero()
        assert p + LaurentPolynomial.zero() == p

    def test_mul_known_product(self):
        # (t^2-3t+1)(t^2+3t+1) expanded by hand
        assert L("t^2 - 3*t + 1") * L("t^2 + 3*t + 1") == L("t^4 - 7*t^2 + 1")

    def test_negative_exponents(self):
        p = LaurentPolynomial({-1: Fraction(3), 0: Fraction(-9), 1: Fraction(3)})
        assert p.coefficient(-1) == 3
        assert p.order == -1
        assert p.degree == 1

    def test_substitute_power(self):
        p = L("t^2 - 3*t + 1")
        assert p.substitute_power(2) == L("t^4 - 3*t^2 + 1")
        assert p.substitute_power(3) == L("t^6 - 3*t^3 + 1")

    def test_derivative(self):
        assert L("t^3 - 3*t^2 + 3*t - 1").derivative() == L("3*t^2 - 6*t + 3")

    @pytest.mark.parametrize("bad", [1.5, 2.9, "3", True, 2.0])
    @pytest.mark.parametrize("use", [
        lambda e: LaurentPolynomial({e: 1}),
        lambda e: LaurentPolynomial.term(1, e),
        lambda e: L("t^2 + 1").substitute_power(e),
        lambda e: L("t + 1").coefficient(e),
    ], ids=["init", "term", "substitute_power", "coefficient"])
    def test_exponents_are_integers(self, use, bad):
        """An exponent or a power is read by operator.index: a float, a
        string or a bool raises TypeError, never truncated or parsed."""
        with pytest.raises(TypeError):
            use(bad)

    def test_sympy_integer_exponents(self):
        two = sympy.Integer(2)
        assert LaurentPolynomial({two: 1}) == LaurentPolynomial.term(1, two) == L("t^2")
        assert L("t + 1").substitute_power(two) == L("t^2 + 1")
        assert L("3*t^2").coefficient(two) == 3


class TestCanonicalForm:
    def test_unit_normalization(self):
        # 3t^-1 - 9 + 3t differs from t^2 - 3t + 1 by the unit 3t^-1
        p = LaurentPolynomial({-1: Fraction(3), 0: Fraction(-9), 1: Fraction(3)})
        assert p.canonicalize() == L("t^2 - 3*t + 1")

    def test_pure_unit_canonicalizes_to_one(self):
        p = LaurentPolynomial({5: Fraction(-2)})
        assert p.canonicalize().is_one

    def test_negative_leading_coefficient(self):
        p = L("-2*t^2 + 6*t - 2")
        assert p.canonicalize() == L("t^2 - 3*t + 1")

    def test_zero_fixed(self):
        assert LaurentPolynomial.zero().canonicalize().is_zero

    @given(poly_st, st.integers(min_value=-4, max_value=4), coeff_st.filter(bool))
    def test_canonical_absorbs_units(self, p, k, c):
        unit = LaurentPolynomial({k: Fraction(c)})
        assert (p * unit).canonicalize() == p.canonicalize()

    @given(poly_st)
    def test_canonicalize_idempotent(self, p):
        q = p.canonicalize()
        assert q.canonicalize() == q


class TestTextForm:
    def test_format_known(self):
        assert format_polynomial(L("t^2 - 3*t + 1")) == "t^2 - 3*t + 1"
        assert format_polynomial(LaurentPolynomial.zero()) == "0"
        assert format_polynomial(LaurentPolynomial.one()) == "1"

    def test_format_negative_exponent(self):
        p = LaurentPolynomial({-2: Fraction(1), 0: Fraction(-1)})
        assert format_polynomial(p) == "-1 + t^-2"

    def test_format_fractional_coefficients(self):
        p = LaurentPolynomial({1: Fraction(1, 2), 0: Fraction(-3, 4)})
        assert format_polynomial(p) == "1/2*t - 3/4"


class TestDivision:
    def test_divmod_known(self):
        q, r = poly_divmod(L("t^4 - 7*t^2 + 1"), L("t^2 - 3*t + 1"))
        assert q == L("t^2 + 3*t + 1")
        assert r.is_zero

    def test_divmod_remainder(self):
        q, r = poly_divmod(L("t^2 + 1"), L("t - 1"))
        assert q == L("t + 1")
        assert r == L("2")

    def test_zero_divisible_by_everything(self):
        zero = LaurentPolynomial.zero()
        assert poly_divmod(zero, L("t - 1")) == (zero, zero)
        with pytest.raises(ZeroDivisionError):
            poly_divmod(L("t - 1"), zero)

    def test_divmod_rejects_negative_order(self):
        with pytest.raises(ValueError):
            poly_divmod(L("t^-1 + 1"), L("t - 1"))
        with pytest.raises(ValueError):
            poly_divmod(L("t^2 + 1"), L("2*t^-1 - 2"))

    def test_gcd_known(self):
        g = poly_gcd(L("t^4 - 7*t^2 + 1"), L("t^3 - 3*t^2 + t"))
        # common factor of (t^2-3t+1)(t^2+3t+1) and t(t^2-3t+1)
        assert g == L("t^2 - 3*t + 1")

    def test_gcd_coprime(self):
        assert poly_gcd(L("t - 1"), L("t + 1")).is_one

    @given(poly_st.filter(lambda p: not p.is_zero), poly_st)
    def test_divmod_identity(self, b, a):
        if a.is_zero:
            return
        a = a * LaurentPolynomial.term(1, -a.order)
        b = b * LaurentPolynomial.term(1, -b.order)
        q, r = poly_divmod(a, b)
        assert q * b + r == a
        assert r.is_zero or b.degree == 0 or r.degree < b.degree

    @given(poly_st, poly_st)
    def test_gcd_divides_both(self, p, q):
        g = poly_gcd(p, q)
        if g.is_zero:
            assert p.is_zero and q.is_zero
            return
        for x in (p, q):
            if not x.is_zero:
                assert_divides(g, x)


# a Z[t] list: [] for zero, else no trailing zero; zero is drawn as often as
# all nonzero lists together
zlist_st = st.one_of(
    st.just([]),
    st.builds(lambda body, top: body + [top],
              st.lists(st.integers(min_value=-9, max_value=9), max_size=3),
              st.integers(min_value=-9, max_value=9).filter(bool)),
)


def dense(p):
    return LaurentPolynomial({e: x for e, x in enumerate(p) if x})


@given(zlist_st, zlist_st, zlist_st, zlist_st)
def test_zsubmul_against_dense_reference(c, a, q, b):
    """c*a - q*b on Z[t] lists equals the product of the dense Laurent
    polynomials, for operands that may be zero, and keeps no trailing zero."""
    out = _zsubmul(c, a, q, b)
    assert out == [] or out[-1] != 0
    assert all(isinstance(x, int) for x in out)
    assert dense(out) == dense(c) * dense(a) - dense(q) * dense(b)


const_st = st.integers(min_value=-9, max_value=9).filter(bool).map(lambda x: [x])


@given(const_st, zlist_st, st.one_of(const_st, zlist_st), zlist_st, st.booleans())
def test_zsubmul_constant_multipliers(c, a, q, b, swap):
    """The one-pass path: c constant and q or b constant (either order),
    operands that may be zero or cancel at the top."""
    if swap:
        q, b = b, q
    out = _zsubmul(c, a, q, b)
    assert out == [] or out[-1] != 0
    assert dense(out) == dense(c) * dense(a) - dense(q) * dense(b)
    # a top that cancels leaves no trailing zero
    assert _zsubmul(c, [1, 2], [1], [0, 2 * c[0]]) == [c[0]]
