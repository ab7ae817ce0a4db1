"""Differential oracle: the Fox matrix against sympy.

Each entry is built in sympy straight from the definition: block (i, g) of
the Fox matrix is the sum, over the letters x_g^s of relator i, of
s * rho(prefix) * t^phi(prefix), the prefix taken through the letter when
s = -1.  Products, inverses and sums are sympy's, so the oracle shares no
code with orderlex.fox; without sympy the module is skipped.
"""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from orderlex.fox import fox_matrix
from orderlex.linalg import RationalMatrix
from orderlex.words import FreeWord

sympy = pytest.importorskip("sympy")

T = sympy.Symbol("t")


def reduce_letters(letters):
    out = []
    for g, s in letters:
        if out and out[-1] == (g, -s):
            out.pop()
        else:
            out.append((g, s))
    return out


@st.composite
def matrices_st(draw, dim):
    """A sympy matrix of dimension dim: a permutation matrix, or one with
    small rational entries and nonzero determinant."""
    if draw(st.booleans()):
        perm = draw(st.permutations(range(dim)))
        return sympy.Matrix(dim, dim, lambda i, j: int(perm[j] == i))
    entry = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    values = draw(st.lists(entry, min_size=dim * dim, max_size=dim * dim))
    m = sympy.Matrix(dim, dim, [sympy.Rational(x.numerator, x.denominator) for x in values])
    assume(m.det() != 0)
    return m


@st.composite
def fox_cases(draw):
    """(relators, matrices, exponents) with 2-3 generators, 1-3 reduced
    relators of at most 12 letters, matrices of one dimension 1-3 and
    exponents in -2..2."""
    rank = draw(st.integers(min_value=2, max_value=3))
    dim = draw(st.integers(min_value=1, max_value=3))
    letter = st.tuples(st.integers(min_value=1, max_value=rank), st.sampled_from((1, -1)))
    relators = draw(st.lists(st.lists(letter, max_size=12).map(reduce_letters),
                             min_size=1, max_size=3))
    matrices = {g: draw(matrices_st(dim)) for g in range(1, rank + 1)}
    exponents = {g: draw(st.integers(min_value=-2, max_value=2)) for g in range(1, rank + 1)}
    return relators, matrices, exponents


def oracle(relators, matrices, exponents):
    """The Fox matrix as a sympy Matrix of Laurent expressions in T."""
    gens = sorted(matrices)
    dim = matrices[gens[0]].rows
    letter = {}
    for g, m in matrices.items():
        letter[g, 1] = m
        letter[g, -1] = m.inv()
    out = sympy.zeros(len(relators) * dim, len(gens) * dim)
    for i, letters in enumerate(relators):
        for k, (g, s) in enumerate(letters):
            prefix = letters[:k + 1] if s < 0 else letters[:k]
            prod = sympy.eye(dim)
            for h, e in prefix:
                prod = prod * letter[h, e]
            phi = sum(e * exponents[h] for h, e in prefix)
            col = gens.index(g)
            for a in range(dim):
                for b in range(dim):
                    out[i * dim + a, col * dim + b] += s * prod[a, b] * T ** phi
    return out


def to_library(m):
    return RationalMatrix([[Fraction(int(sympy.Rational(x).p), int(sympy.Rational(x).q))
                            for x in m.row(i)] for i in range(m.rows)])


def as_sympy(p):
    return sum((sympy.Rational(c.numerator, c.denominator) * T ** e for e, c in p.items()),
               sympy.Integer(0))


@settings(max_examples=60, deadline=None)
@given(fox_cases())
def test_fox_matrix_against_sympy(case):
    relators, matrices, exponents = case
    got = fox_matrix([FreeWord(r) for r in relators],
                     {g: to_library(m) for g, m in matrices.items()}, exponents)
    expected = oracle(relators, matrices, exponents)
    assert (got.rows, got.cols) == expected.shape
    for i in range(got.rows):
        for j in range(got.cols):
            assert sympy.expand(as_sympy(got.entry(i, j)) - expected[i, j]) == 0, (i, j)
