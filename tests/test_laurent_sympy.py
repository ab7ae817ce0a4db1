"""Differential oracle: the division boundary and the text form of laurent,
the Sturm counts of roots and the verdicts built on them, against sympy's
polynomial arithmetic over QQ and its expression reader.

Coefficients are non-monic fractions, so the Z[t] pseudo-division behind
poly_divmod has to scale and clear denominators.  sympy shares no code with
orderlex and is used only here; without it the module is skipped.
"""

import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, strategies as st

from orderlex.laurent import LaurentPolynomial, format_polynomial, poly_divmod, poly_gcd
from orderlex.ordering import OrderStatus, clay_rolfsen_verdict
from orderlex.roots import root_counts, sturm_positive_root_count
from orderlex.torus import AlexanderResult

sympy = pytest.importorskip("sympy")

T = sympy.Symbol("t")


def random_fraction(rng):
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 6))


def random_laurent(rng, max_terms=5, low=0, high=0):
    """A nonzero polynomial with up to max_terms terms starting at an
    exponent in [low, high]."""
    start = rng.randint(low, high)
    coeffs = {e: random_fraction(rng) if rng.random() < 0.8 else 0
              for e in range(start, start + rng.randint(1, max_terms))}
    coeffs[max(coeffs)] = random_fraction(rng)
    coeffs[start] = random_fraction(rng)
    return LaurentPolynomial(coeffs)


def random_product(rng, low=0, high=0):
    """A product of random factors, some repeated and some with rational
    positive roots, so gcds, multiplicities and root counts are
    nontrivial."""
    factors = [random_laurent(rng, 3, low, high) for _ in range(rng.randint(1, 3))]
    factors += [LaurentPolynomial({0: -Fraction(rng.randint(1, 7), rng.randint(1, 4)), 1: 1})
                for _ in range(rng.randint(0, 2))]
    factors.append(rng.choice(factors))
    p = LaurentPolynomial.term(random_fraction(rng))
    for f in rng.sample(factors, rng.randint(1, len(factors))):
        p = p * f
    return p


def positive_product(rng):
    """A product of factors t - r with r > 0 and t^2 - a*t + 1 with a >= 3,
    one of them repeated, so every root is real and positive."""
    factors = [LaurentPolynomial({0: -Fraction(rng.randint(1, 9), rng.randint(1, 4)), 1: 1})
               for _ in range(rng.randint(1, 3))]
    factors += [LaurentPolynomial({0: 1, 1: -rng.randint(3, 6), 2: 1})
                for _ in range(rng.randint(0, 1))]
    factors.append(rng.choice(factors))
    p = LaurentPolynomial.term(random_fraction(rng), rng.randint(-2, 2))
    for f in factors:
        p = p * f
    return p


def to_sympy(p):
    """p times the unit t^-order, as a sympy polynomial over QQ; 0 is not
    one of its roots."""
    k = p.order
    expr = sum((sympy.Rational(c.numerator, c.denominator) * T ** (e - k)
                for e, c in p.items()), sympy.Integer(0))
    return sympy.Poly(expr, T, domain=sympy.QQ)


def from_sympy(poly):
    return LaurentPolynomial(
        {e: Fraction(int(c.p), int(c.q)) for (e,), c in poly.terms()}
    )


fraction_st = st.fractions(min_value=-20, max_value=20, max_denominator=9)
laurent_st = st.dictionaries(st.integers(-6, 6), fraction_st, max_size=6).map(LaurentPolynomial)
scalar_st = st.one_of(st.integers(-9, 9), fraction_st)


def held(p):
    """p, after checking the state it is held in: a Z[t] list whose first
    and last entries are nonzero, under a denominator > 0 coprime to it;
    zero is ([], 0, 1)."""
    z = p._z
    assert all(type(x) is int for x in z)
    if z:
        assert z[0] and z[-1]
        assert p._den > 0 and gcd(p._den, *z) == 1
    else:
        assert (p._shift, p._den) == (0, 1)
    return p


def sym(x):
    """A Laurent polynomial, int or Fraction as a sympy expression in t."""
    if isinstance(x, LaurentPolynomial):
        return sum((sym(c) * T ** e for e, c in held(x).items()), sympy.Integer(0))
    return sympy.Rational(Fraction(x).numerator, Fraction(x).denominator)


def same(p, expr):
    return sympy.expand(sym(p) - expr) == 0


@given(laurent_st, laurent_st, scalar_st)
def test_arithmetic_matches_sympy(p, q, c):
    """Every operation against sympy's, each result in its held state."""
    P, Q, C = sym(p), sym(q), sym(c)
    assert same(p + q, P + Q) and same(p - q, P - Q) and same(p * q, P * Q)
    assert same(p + c, P + C) and same(c + p, P + C)
    assert same(p - c, P - C) and same(c - p, C - P) and same(-p, -P)
    assert same(p * c, P * C) and same(c * p, P * C)
    assert same(p.derivative(), sympy.diff(P, T))
    for d in (1, 2, 3):
        assert same(p.substitute_power(d), P.subs(T, T ** d))
    assert (p == q) == same(p, Q) and (p == c) == same(p, C)
    if p == q:
        assert hash(p) == hash(q)
    if p == c:
        assert hash(p) == hash(c)
    # the same value by another route has the same state and hash
    r = held((p + q) - q)
    assert r == p and hash(r) == hash(p)
    assert held(p * c * q) == held(q * (p * c))


@given(laurent_st)
def test_inspection_matches_sympy(p):
    P = sympy.expand(sym(p) * T ** 6)  # exponents >= -6, so a polynomial
    if p.is_zero:
        assert P == 0 and p == 0 and p == Fraction(0) and hash(p) == hash(0)
        return
    poly = sympy.Poly(P, T, domain=sympy.QQ)
    assert p.coefficient(-7) == 0
    for e in range(-6, 8):
        assert sym(p.coefficient(e)) == poly.coeff_monomial(T ** (e + 6))
    assert p.degree == poly.degree() - 6
    assert p.order == min(m for (m,) in poly.monoms()) - 6
    assert sym(p.leading_coefficient) == poly.LC()


@given(laurent_st)
def test_canonicalize_matches_sympy(p):
    """The canonical form is the one multiple of p t^-order with integer,
    content-1 coefficients and a positive leading one."""
    c = held(p.canonicalize())
    assert held(c.canonicalize()) is c
    if p.is_zero:
        assert c.is_zero
        return
    assert c.order == 0 and c.leading_coefficient > 0
    coeffs = [x for _, x in c.items()]
    assert all(x.denominator == 1 for x in coeffs) and gcd(*map(int, coeffs)) == 1
    monic = sympy.Poly(sympy.expand(sym(p) * T ** -p.order), T, domain=sympy.QQ).monic()
    assert sympy.Poly(sym(c), T, domain=sympy.QQ).monic() == monic


@given(laurent_st)
def test_format_polynomial_reads_back_in_sympy(p):
    """sympy reads the text form, '^' as '**', back to p itself: every sign,
    coefficient and exponent, negative ones too, survives formatting."""
    text = format_polynomial(p).replace("^", "**")
    expected = sum((sympy.Rational(c.numerator, c.denominator) * T ** e
                    for e, c in p.items()), sympy.Integer(0))
    assert sympy.expand(sympy.sympify(text, locals={"t": T}) - expected) == 0


def test_divmod_matches_sympy():
    rng = random.Random("poly_divmod")
    for _ in range(200):
        a = random_laurent(rng, 7, 0, 3)
        b = random_laurent(rng, 4, 0, 2)
        q, r = map(held, poly_divmod(a, b))
        # poly_divmod divides a and b themselves, with no unit removed
        sq, sr = sympy.div(to_sympy(a) * T ** a.order, to_sympy(b) * T ** b.order)
        assert q == from_sympy(sq)
        assert r == from_sympy(sr)


def test_gcd_matches_sympy():
    rng = random.Random("poly_gcd")
    nontrivial = 0
    for _ in range(100):
        common = random_product(rng, -2, 2)
        p = common * random_product(rng, -2, 2)
        q = common * random_laurent(rng, 3, -2, 2)
        expected = from_sympy(sympy.gcd(to_sympy(p), to_sympy(q))).canonicalize()
        assert poly_gcd(p, q) == expected
        nontrivial += not expected.is_one
    assert nontrivial > 50


def test_sturm_counts_match_sympy():
    rng = random.Random("sturm")
    positive = 0
    for _ in range(100):
        p = random_product(rng, -2, 2)
        expected = int(to_sympy(p).sqf_part().count_roots(0, None))
        assert sturm_positive_root_count(p) == expected
        positive += expected > 0
    assert positive > 0


def test_common_positive_root_count_matches_sympy():
    rng = random.Random("common_positive_root_count")
    shared = 0
    for _ in range(100):
        common = random_product(rng, -2, 2)
        p = common * random_product(rng, -2, 2)
        q = common * random_product(rng, -2, 2)
        gcd = sympy.gcd(to_sympy(p), to_sympy(q))
        expected = int(gcd.sqf_part().count_roots(0, None))
        assert sturm_positive_root_count(poly_gcd(p, q)) == expected
        shared += expected > 0
    assert shared > 20


def test_clay_rolfsen_verdict_matches_sympy():
    """The verdict and both root-count entries, AlexanderResult's too,
    against sympy's count of distinct roots in (0, oo) and in C."""
    rng = random.Random("clay_rolfsen_verdict")
    cases = [LaurentPolynomial.term(Fraction(-3, 2), -4)]  # a constant times a unit
    for i in range(90):
        # positive factors alone, mixed with random ones, and random alone
        p = positive_product(rng) if i % 3 < 2 else LaurentPolynomial.one()
        if i % 3:
            p = p * random_product(rng, -2, 2)
        cases.append(p)
    assert min(p.order for p in cases) < 0
    seen = set()
    for p in cases:
        sqf = to_sympy(p).sqf_part()
        positive = int(sqf.count_roots(0, None))
        counts = (positive, sqf.degree())
        assert root_counts(p) == counts
        assert AlexanderResult(p, (), 0).root_counts == counts
        verdict = clay_rolfsen_verdict(p)
        assert verdict.positive_root_count == positive
        if positive == 0:
            assert verdict.status is OrderStatus.OBSTRUCTED
        elif positive == sqf.degree():
            assert verdict.status is OrderStatus.BIORDERABLE
        else:
            assert verdict.status is OrderStatus.INCONCLUSIVE
        seen.add(verdict.status)
    assert seen == set(OrderStatus)
