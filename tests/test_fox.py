"""Free differential calculus: axioms, the fundamental identity, and the
twisted boundary matrices built from it."""

from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

from orderlex.autos import figure_eight_monodromy, standard_battery
from orderlex.finite import (
    FiniteRepresentation,
    cyclic_group,
    enumerate_homomorphisms,
    homomorphism_classes,
    regular_representation,
)
from _fox_reference import fox_derivative, presentation
from _laurent_literal import L
from orderlex import torus as torus_module
from orderlex.fox import jacobian, specialize
from orderlex.linalg import RationalMatrix
from orderlex.torus import MappingTorus
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


def reference_fox(w, gen):
    """d(u x^s) = du + u d(x^s) letter by letter, with d(x)/dx = 1 and
    d(x^-1)/dx = -x^-1, every word built by the validating constructor and
    equal words merged."""
    out = {}
    u = []
    for g, s in w.letters:
        if g == gen:
            word = FreeWord(u if s > 0 else u + [(g, -1)])
            out[word] = out.get(word, Fraction(0)) + s
        u.append((g, s))
    return {word: c for word, c in out.items() if c}


ranked_words_st = st.integers(min_value=1, max_value=4).flatmap(
    lambda rank: st.tuples(
        st.just(rank),
        st.lists(
            st.tuples(st.integers(min_value=1, max_value=rank), st.sampled_from((1, -1))),
            max_size=16,
        ).map(FreeWord),
    )
)


@settings(max_examples=200)
@given(ranked_words_st)
def test_matches_reference(ranked):
    rank, w = ranked
    for g in range(1, rank + 1):
        got = fox_derivative(w, g)
        assert got == reference_fox(w, g)
        assert all(type(c) is Fraction for c in got.values())


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
        """A one-dimensional representation: b1 is the row rho(x_j) - 1,
        then rho(t) t - 1, under the lcm of the denominators."""
        b1 = specialize((RationalMatrix([[2]]), RationalMatrix([[Fraction(1, 3)]])),
                        RationalMatrix([[Fraction(-1, 2)]]))
        assert [b1.entry(0, j) for j in range(3)] == [L("1"), L("-2/3"), L("-1/2*t - 1")]
        assert (b1._shift, b1._den) == (0, 6)

    def test_row_places_blocks_side_by_side(self):
        """Block j of the row is (rho(x_j) - I)^T and the last block
        (rho(t) t - I)^T; a block whose matrix is the identity is zero."""
        shear = RationalMatrix([[1, 1], [0, 1]])
        quarter = RationalMatrix([[0, -2], [Fraction(1, 2), 0]])
        b1 = specialize((shear, RationalMatrix.identity(2)), quarter)
        assert (b1.rows, b1.cols, b1._den) == (2, 6, 2)
        assert [[str(b1.entry(i, j)) for j in range(6)] for i in range(2)] == [
            ["0", "0", "0", "0", "-1", "1/2*t"],
            ["1", "0", "0", "0", "-2*t", "-1"],
        ]


def _reference_inverse(a):
    """Gauss-Jordan inverse of a list matrix of Fractions."""
    dim = len(a)
    rows = [list(r) + [Fraction(int(i == j)) for j in range(dim)] for i, r in enumerate(a)]
    for k in range(dim):
        piv = next(i for i in range(k, dim) if rows[i][k])
        rows[k], rows[piv] = rows[piv], rows[k]
        rows[k] = [v / rows[k][k] for v in rows[k]]
        for i in range(dim):
            if i != k and rows[i][k]:
                f = rows[i][k]
                rows[i] = [v - f * w for v, w in zip(rows[i], rows[k])]
    return [r[dim:] for r in rows]


def _reference_specialize(x, letters, exponents):
    """The per-term specialization in plain lists: each word's product is
    rebuilt from the identity.  letters maps (generator, sign) to a list
    matrix of Fractions.  Returns {(row, col): {exponent: nonzero
    Fraction}}."""
    dim = len(next(iter(letters.values())))

    def product(a, b):
        out = [[Fraction(0)] * dim for _ in range(dim)]
        for row, arow in zip(out, a):
            for k, v in enumerate(arow):
                if v:
                    for j, w in enumerate(b[k]):
                        if w:
                            row[j] += v * w
        return out

    out = {}
    for word, coeff in x.items():
        prod = [[Fraction(int(i == j)) for j in range(dim)] for i in range(dim)]
        shift = 0
        for g, s in word.letters:
            prod = product(prod, letters[g, s])
            shift += s * exponents[g]
        for i in range(dim):
            for j in range(dim):
                if prod[i][j]:
                    entry = out.setdefault((i, j), {})
                    entry[shift] = entry.get(shift, Fraction(0)) + coeff * prod[i][j]
    return {
        key: {e: c for e, c in entry.items() if c}
        for key, entry in out.items()
        if any(entry.values())
    }


def _library_entries(pm):
    return {
        (i, j): dict(pm.entry(i, j).items())
        for i in range(pm.rows)
        for j in range(pm.cols)
        if pm.entry(i, j)
    }


# invertible 2 x 2 matrices: the identity, integer ones and ones with
# denominators
MATRIX_POOL = (
    RationalMatrix.identity(2),
    RationalMatrix([[0, 1], [1, 0]]),
    RationalMatrix([[0, -2], [Fraction(1, 2), 0]]),
    RationalMatrix([[1, 1], [0, 1]]),
    RationalMatrix([[Fraction(1, 3), 0], [Fraction(2, 5), 3]]),
)


@st.composite
def fox_grids(draw):
    """(words, matrices): one to three words over generators 1..rank and a
    pool matrix per generator."""
    rank = draw(st.integers(min_value=1, max_value=4))
    letter = st.tuples(st.integers(min_value=1, max_value=rank), st.sampled_from((1, -1)))
    words = draw(st.lists(st.lists(letter, max_size=16).map(FreeWord), min_size=1, max_size=3))
    matrices = {g: draw(st.sampled_from(MATRIX_POOL)) for g in range(1, rank + 1)}
    return words, matrices


def _constant_block(jac, i, j, dim):
    """The nonzero entries of block (i, j) of a RationalMatrix, dim x dim
    blocks, as t^0 entries in the form of _reference_specialize."""
    return {(a, b): {0: x} for a in range(dim) for b in range(dim)
            if (x := jac.entry(i * dim + a, j * dim + b))}


@settings(max_examples=200)
@given(fox_grids())
def test_fox_matrix_matches_reference(case):
    """Block (i, j) of the one-walk Jacobian is the reference
    specialization of d(w_i)/dx_j with every exponent 0, and ends[i] is
    the product of w_i."""
    words, matrices = case
    letters = {}
    for g, a in matrices.items():
        letters[g, 1] = a.to_lists()
        letters[g, -1] = _reference_inverse(letters[g, 1])
    zero = dict.fromkeys(matrices, 0)
    jac, ends = jacobian(words, matrices)
    assert (jac.rows, jac.cols) == (2 * len(words), 2 * len(matrices))
    for i, w in enumerate(words):
        for j in range(len(matrices)):
            expected = _reference_specialize(fox_derivative(w, j + 1), letters, zero)
            assert _constant_block(jac, i, j, 2) == expected, (w, j + 1)
        end = _reference_specialize({w: Fraction(1)}, letters, zero)
        assert _constant_block(ends[i], 0, 0, 2) == end


def _assembled_fox_matrices(monkeypatch, cases):
    """(m, rep, d, fox, b1) for each (m, rep) of cases and d = 1, 2, 3,
    from one lemma4_check(m, rep, (2, 3)): fox is the Fox matrix, the
    transpose of the b2 built at t^d, which at d = 1 is the b2 handed to
    the homology, and b1 the b1 handed over with it, at s = t."""
    fox_transpose, homology = torus_module._fox_transpose, torus_module.homology_invariant_factors
    built, handed = [], []

    def building(jac, ends, stable, d):
        built.append((d, fox_transpose(jac, ends, stable, d)))
        return built[-1][1]

    monkeypatch.setattr(torus_module, "_fox_transpose", building)
    monkeypatch.setattr(torus_module, "homology_invariant_factors",
                        lambda b1, b2: handed.append((b1, b2)) or homology(b1, b2))
    out = []
    for m, rep in cases:
        torus_module.lemma4_check(m, rep, (2, 3))
        (b1, b2), = handed
        assert [d for d, _ in built] == [1, 2, 3] and built[0][1] is b2
        out += [(m, rep, d, fox.transpose(), b1) for d, fox in built]
        built.clear()
        handed.clear()
    return out


def _z_form(entries, rows, cols):
    """(z, shift, den) of the rows x cols matrix whose nonzero entries are
    entries {(row, col): {exponent: nonzero Fraction}}: shift is the least
    exponent, den the lcm of the denominators, and each entry the list of
    its coefficients times den from t^shift up, [] for zero."""
    shift = min(e for entry in entries.values() for e in entry)
    den = lcm(*(c.denominator for entry in entries.values() for c in entry.values()))
    z = [[[] for _ in range(cols)] for _ in range(rows)]
    for (i, j), entry in entries.items():
        z[i][j] = [int(entry.get(e, 0) * den) for e in range(shift, max(entry) + 1)]
    return z, shift, den


def _reference_b1(rep):
    """b1 under rep at s = t in plain Fraction lists, in the form of
    _reference_specialize: block j of its row is (rep(x_j) - I)^T over the
    fiber generators, then (rep(t) t - I)^T."""
    blocks = [m.to_lists() for m in rep.fiber_matrices + (rep.stable_matrix,)]
    dim, out = len(blocks[0]), {}
    for j, m in enumerate(blocks):
        e = int(j == len(blocks) - 1)
        for a in range(dim):
            for b in range(dim):
                entry = {e: m[b][a]} if m[b][a] else {}
                if a == b:
                    entry[0] = entry.get(0, 0) - 1
                if entry := {k: c for k, c in entry.items() if c}:
                    out[a, j * dim + b] = entry
    return out


def _reference_fox(m, rep, d):
    """The Fox matrix of presentation(m) under rep at t^d: block (i, g) is
    the plain-list _reference_specialize of fox_derivative(r_i, g)."""
    matrices = rep.fiber_matrices + (rep.stable_matrix,)
    letters = {}
    for g, a in enumerate(matrices, 1):
        letters[g, 1] = a.to_lists()
        letters[g, -1] = _reference_inverse(letters[g, 1])
    exponents = dict.fromkeys(range(1, m.fiber_rank + 1), 0)
    exponents[m.fiber_rank + 1] = d
    dim, out = rep.dimension, {}
    for i, r in enumerate(presentation(m)):
        for g in range(1, m.fiber_rank + 2):
            block = _reference_specialize(fox_derivative(r, g), letters, exponents)
            for (a, b), entry in block.items():
                out[i * dim + a, (g - 1) * dim + b] = entry
    return out


def _battery_cases():
    """(m, rep) for every battery class's regular representation."""
    cases = []
    for _, auto in standard_battery():
        m = MappingTorus(auto.rank, auto)
        cases += [(m, regular_representation(f)) for f in homomorphism_classes(auto).values()]
    assert len(cases) == 256
    return cases


def test_fox_matrix_is_the_block_assembly(monkeypatch):
    """On every battery class's regular representation at d = 1, 2, 3, the
    Fox matrix assembled from the Jacobian of the monodromy's images, at
    s = t for the homology and at t^d for lemma 4's direct side, holds the
    very rows, shift and denominator of the plain-list reference blocks
    fox_derivative(r, g) per relator r of presentation(m)."""
    checked = 0
    for m, rep, d, got, _ in _assembled_fox_matrices(monkeypatch, _battery_cases()):
        dim, n = rep.dimension, m.fiber_rank
        expected = _z_form(_reference_fox(m, rep, d), n * dim, (n + 1) * dim)
        assert (got._z, got._shift, got._den) == expected
        checked += 1
    assert checked == 768


@st.composite
def b1_grids(draw):
    """(fiber, stable): one to four fiber matrices and a stable matrix,
    each drawn from the pool."""
    rank = draw(st.integers(min_value=1, max_value=4))
    fiber = tuple(draw(st.sampled_from(MATRIX_POOL)) for _ in range(rank))
    return fiber, draw(st.sampled_from(MATRIX_POOL))


class TestSpecializeAgainstReference:
    def test_battery_regular_representations(self, monkeypatch):
        """On every battery class's regular representation, specialize's
        b1 at s = t, and the b1 handed to the homology, built once at s for
        lemma 4's d = 2, 3, hold the very rows, shift and denominator of the
        plain-Fraction transposed blocks rep(x_j) - I and rep(t) t - I."""
        for m, rep, d, _, b1 in _assembled_fox_matrices(monkeypatch, _battery_cases()):
            dim, n = rep.dimension, m.fiber_rank
            expected = _z_form(_reference_b1(rep), dim, (n + 1) * dim)
            assert (b1._z, b1._shift, b1._den) == expected
            if d == 1:
                got = specialize(rep.fiber_matrices, rep.stable_matrix)
                assert (got._z, got._shift, got._den) == expected

    def test_non_integer_entries(self, monkeypatch):
        """On the quarter-turn representations of figure-eight conjugated
        by diag(2, 1), whose matrices have denominators, the Fox matrix
        holds the entries of the plain-list reference at d = 1, 2, 3, and b1
        the very rows of the reference blocks at s = t."""
        a = RationalMatrix([[0, -2], [Fraction(1, 2), 0]])
        powers = [RationalMatrix.identity(2), a, a * a, a * a * a]
        m, g = MappingTorus(2, figure_eight_monodromy()), cyclic_group(4)
        cases = []
        for f in enumerate_homomorphisms(m.monodromy, g):
            k = [g.index(p) for p in f.fiber_images + (f.stable_image,)]
            rep = FiniteRepresentation([powers[i] for i in k[:2]], powers[k[2]])
            cases.append((m, rep))
        dens = set()
        for m, rep, d, got, b1 in _assembled_fox_matrices(monkeypatch, cases):
            assert _library_entries(got) == _reference_fox(m, rep, d)
            assert (b1._z, b1._shift, b1._den) == _z_form(_reference_b1(rep), 2, 6)
            dens |= {got._den, b1._den}
        assert dens - {1}

    @settings(max_examples=100)
    @given(b1_grids())
    def test_arbitrary_group_ring_elements(self, case):
        """Block j of specialize's row is the transpose of the plain-list
        specialization of the group ring element x_j - 1, with exponent 1
        on the stable letter, for any pool matrices, not only those of a
        representation of a mapping torus group."""
        fiber, stable = case
        matrices = dict(enumerate(fiber + (stable,), 1))
        letters = {(g, 1): a.to_lists() for g, a in matrices.items()}
        exponents = dict.fromkeys(matrices, 0)
        exponents[len(matrices)] = 1
        expected = {}
        for g in matrices:
            element = {FreeWord.generator(g): Fraction(1), FreeWord.empty(): Fraction(-1)}
            block = _reference_specialize(element, letters, exponents)
            for (a, b), entry in block.items():
                expected[b, (g - 1) * 2 + a] = entry
        got = specialize(fiber, stable)
        assert (got.rows, got.cols) == (2, 2 * len(matrices))
        assert _library_entries(got) == expected


def test_fox_matrix_rejects_missing_generator():
    with pytest.raises(ValueError, match="no matrix assigned to generator 2"):
        jacobian([W("ab")], {1: RationalMatrix.identity(1)})
