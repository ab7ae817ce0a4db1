"""Free differential calculus: axioms, the fundamental identity, and
specialization into polynomial matrices."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from orderlex.fox import fox_derivative, specialize
from orderlex.laurent import parse_polynomial
from orderlex.linalg import RationalMatrix
from orderlex.words import FreeWord, parse_word

words_st = st.lists(
    st.tuples(st.integers(min_value=1, max_value=2), st.sampled_from((1, -1))),
    max_size=12,
).map(FreeWord)


def W(s, rank=2):
    return parse_word(s, rank)


# Group ring elements are dicts {reduced FreeWord: nonzero Fraction}.
ONE = {FreeWord.empty(): Fraction(1)}


def ring(s, rank=2, coeff=1):
    return {W(s, rank): Fraction(coeff)}


def add(x, y, sign=1):
    out = dict(x)
    for w, c in y.items():
        out[w] = out.get(w, Fraction(0)) + sign * c
    return {w: c for w, c in out.items() if c}


def left_mul(word, x):
    return {word * w: c for w, c in x.items()}


def right_mul(x, word):
    return {w * word: c for w, c in x.items()}


class TestAxioms:
    def test_on_generators(self):
        assert fox_derivative(W("a"), 1) == ONE
        assert fox_derivative(W("a"), 2) == {}

    def test_on_inverse(self):
        # d(a^-1)/da = -a^-1
        assert fox_derivative(W("A"), 1) == ring("A", coeff=-1)

    def test_product_rule_example(self):
        # d(ab)/da = 1, d(ab)/db = a
        assert fox_derivative(W("ab"), 1) == ONE
        assert fox_derivative(W("ab"), 2) == ring("a")

    def test_square(self):
        # d(a^2)/da = 1 + a
        assert fox_derivative(W("aa"), 1) == add(ONE, ring("a"))

    def test_commutator(self):
        # d([a,b])/da = -a^-1 + a^-1 b^-1
        expected = add(ring("A", coeff=-1), ring("AB"))
        assert fox_derivative(W("ABab"), 1) == expected

    @given(words_st, words_st)
    def test_product_rule(self, u, v):
        for g in (1, 2):
            lhs = fox_derivative(u * v, g)
            rhs = add(fox_derivative(u, g), left_mul(u, fox_derivative(v, g)))
            assert lhs == rhs


class TestFundamentalIdentity:
    @settings(max_examples=200)
    @given(words_st)
    def test_sum_recovers_word(self, w):
        # sum_j (dw/dx_j) (x_j - 1) = w - 1 in the group ring
        total = {}
        for g in (1, 2):
            d = fox_derivative(w, g)
            gen = FreeWord.generator(g)
            total = add(add(total, right_mul(d, gen)), d, sign=-1)
        expected = add({w: Fraction(1)}, ONE, sign=-1)
        assert total == expected


class TestSpecialize:
    def test_scalar_with_exponent(self):
        swap = RationalMatrix([[Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]])
        ident = RationalMatrix.identity(2)
        mats = {1: swap, 2: ident}
        exps = {1: 1, 2: 0}
        pm = specialize(W("a"), mats, exps)
        assert pm.entry(0, 1) == parse_polynomial("t")
        assert pm.entry(0, 0).is_zero

    def test_inverse_letter(self):
        swap = RationalMatrix([[Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]])
        mats = {1: swap}
        pm = specialize(parse_word("A", 1), mats, {1: 2})
        # swap is an involution, so the inverse contributes t^-2 * swap
        assert pm.entry(0, 1) == parse_polynomial("t").shift(-3)

    def test_sum_of_terms(self):
        ident = RationalMatrix.identity(1)
        x = add(ring("a", rank=1), ONE)
        pm = specialize(x, {1: ident}, {1: 1})
        assert pm.entry(0, 0) == parse_polynomial("t + 1")

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            specialize(
                W("ab"),
                {1: RationalMatrix.identity(1), 2: RationalMatrix.identity(2)},
                {1: 0, 2: 0},
            )

    def test_missing_generator_rejected(self):
        with pytest.raises(ValueError):
            specialize(ring("a"), {2: RationalMatrix.identity(1)}, {2: 0})
