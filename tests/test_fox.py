"""Free differential calculus: axioms, the fundamental identity, and
specialization into polynomial matrices."""

from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

from orderlex.autos import figure_eight_monodromy, standard_battery
from orderlex.finite import (
    FiniteRepresentation,
    homomorphism_classes,
    regular_representation,
)
from _fox_reference import fox_derivative
from _laurent_literal import L
from orderlex.fox import fox_matrix, specialize
from orderlex.linalg import PolynomialMatrix, RationalMatrix
from orderlex.torus import MappingTorus, presentation
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
        swap = RationalMatrix([[Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]])
        ident = RationalMatrix.identity(2)
        mats = {1: swap, 2: ident}
        exps = {1: 1, 2: 0}
        pm = specialize(ring("a"), mats, exps)
        assert pm.entry(0, 1) == L("t")
        assert pm.entry(0, 0).is_zero

    def test_inverse_letter(self):
        swap = RationalMatrix([[Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]])
        mats = {1: swap}
        pm = specialize(ring("A", rank=1), mats, {1: 2})
        # swap is an involution, so the inverse contributes t^-2 * swap
        assert pm.entry(0, 1) == L("t^-2")

    def test_sum_of_terms(self):
        ident = RationalMatrix.identity(1)
        x = add(ring("a", rank=1), ONE)
        pm = specialize(x, {1: ident}, {1: 1})
        assert pm.entry(0, 0) == L("t + 1")

    def test_row_places_blocks_side_by_side(self):
        """A list of group ring elements specializes to one dim-row matrix
        whose blocks are those of the elements, under one unit."""
        swap = RationalMatrix([[0, 1], [1, 0]])
        scaled = RationalMatrix([[Fraction(1, 3), 0], [0, 2]])
        mats, exps = {1: swap, 2: scaled}, {1: 1, 2: -1}
        xs = [add(ring("a"), ONE, -1), ring("B", coeff=Fraction(1, 2)), ring("aB")]
        row = specialize(xs, mats, exps)
        assert (row.rows, row.cols) == (2, 6)
        for k, x in enumerate(xs):
            block = specialize(x, mats, exps)
            assert [[row.entry(i, 2 * k + j) for j in range(2)] for i in range(2)] == [
                [block.entry(i, j) for j in range(2)] for i in range(2)]
        assert row.entry(0, 0) == L("-1") and row.entry(1, 0) == L("t")

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            specialize(
                ring("ab"),
                {1: RationalMatrix.identity(1), 2: RationalMatrix.identity(2)},
                {1: 0, 2: 0},
            )

    def test_missing_generator_rejected(self):
        with pytest.raises(ValueError):
            specialize(ring("a"), {2: RationalMatrix.identity(1)}, {2: 0})


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


def _assert_matches_reference(m, fiber_matrices, stable_matrix, d_scales):
    matrices = dict(enumerate(fiber_matrices, start=1))
    matrices[m.stable_index] = stable_matrix
    letters = {}
    for g, a in matrices.items():
        letters[g, 1] = a.to_lists()
        letters[g, -1] = _reference_inverse(letters[g, 1])
    for d_scale in d_scales:
        exponents = {g: 0 for g in matrices}
        exponents[m.stable_index] = d_scale
        for r in presentation(m):
            for j in range(1, m.stable_index + 1):
                x = fox_derivative(r, j)
                got = _library_entries(specialize(x, matrices, exponents))
                assert got == _reference_specialize(x, letters, exponents), (r, j)


class TestSpecializeAgainstReference:
    def test_battery_regular_representations(self):
        classes = 0
        for _, auto in standard_battery():
            m = MappingTorus(auto.rank, auto)
            for f in homomorphism_classes(auto).values():
                rep = regular_representation(f)
                _assert_matches_reference(
                    m, rep.fiber_matrices, rep.stable_matrix, (1, 2, 3)
                )
                classes += 1
        assert classes == 256

    def test_non_integer_entries(self):
        # the quarter-turn rotation conjugated by diag(2, 1)
        q = RationalMatrix([[0, -2], [Fraction(1, 2), 0]])
        rep = FiniteRepresentation((q, q), q)
        for _, auto in standard_battery():
            if auto.rank != 2:
                continue
            _assert_matches_reference(
                MappingTorus(2, auto), rep.fiber_matrices, rep.stable_matrix, (1, 2, 3)
            )

    @settings(max_examples=100)
    @given(
        st.dictionaries(
            words_st,
            st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(bool),
            max_size=6,
        )
    )
    def test_arbitrary_group_ring_elements(self, x):
        # words that are not prefixes of one word, such as a and a^-1
        matrices = {
            1: RationalMatrix([[0, -2], [Fraction(1, 2), 0]]),
            2: RationalMatrix([[0, 1], [1, 0]]),
        }
        exponents = {1: 1, 2: -2}
        letters = {}
        for g, a in matrices.items():
            letters[g, 1] = a.to_lists()
            letters[g, -1] = _reference_inverse(letters[g, 1])
        got = _library_entries(specialize(x, matrices, exponents))
        assert got == _reference_specialize(x, letters, exponents)


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
    """(relators, matrices, exponents): one to three words over generators
    1..rank, a pool matrix per generator and t-exponent d in {1, 2, 3} on
    the last generator, as on a mapping torus's stable letter."""
    rank = draw(st.integers(min_value=1, max_value=4))
    letter = st.tuples(st.integers(min_value=1, max_value=rank), st.sampled_from((1, -1)))
    relators = draw(st.lists(st.lists(letter, max_size=16).map(FreeWord),
                             min_size=1, max_size=3))
    matrices = {g: draw(st.sampled_from(MATRIX_POOL)) for g in range(1, rank + 1)}
    exponents = {g: draw(st.integers(min_value=-2, max_value=2)) for g in range(1, rank)}
    exponents[rank] = draw(st.sampled_from((1, 2, 3)))
    return relators, matrices, exponents


def _block_entries(pm, i, j, dim):
    """_library_entries of block (i, j) of pm, dim x dim blocks."""
    return {
        (a, b): dict(pm.entry(i * dim + a, j * dim + b).items())
        for a in range(dim)
        for b in range(dim)
        if pm.entry(i * dim + a, j * dim + b)
    }


@settings(max_examples=200)
@given(fox_grids())
def test_fox_matrix_matches_reference(case):
    """Block (i, j) of the one-walk Fox matrix is the reference
    specialization of d(r_i)/dx_j."""
    relators, matrices, exponents = case
    letters = {}
    for g, a in matrices.items():
        letters[g, 1] = a.to_lists()
        letters[g, -1] = _reference_inverse(letters[g, 1])
    pm = fox_matrix(relators, matrices, exponents)
    assert (pm.rows, pm.cols) == (2 * len(relators), 2 * len(matrices))
    for i, r in enumerate(relators):
        for j in range(len(matrices)):
            expected = _reference_specialize(fox_derivative(r, j + 1), letters, exponents)
            assert _block_entries(pm, i, j, 2) == expected, (r, j + 1)


def _stacked(parts):
    """The PolynomialMatrix whose rows are those of the polynomial matrices
    parts, in order, under their least shift and the lcm of their
    denominators."""
    shift = min(m._shift for m in parts)
    den = lcm(*(m._den for m in parts))
    return PolynomialMatrix._of(
        [[[0] * (m._shift - shift) + [den // m._den * x for x in p] if p else p for p in r]
         for m in parts for r in m._z], shift, den)


def test_fox_matrix_is_the_block_assembly():
    """On every battery presentation and regular representation at d = 1,
    2, 3, fox_matrix holds the very rows, shift and denominator that
    stacking one specialize row of the blocks fox_derivative(r, g) per
    relator r gives."""
    checked = 0
    for _, auto in standard_battery():
        m = MappingTorus(auto.rank, auto)
        relators = presentation(m)
        for f in list(homomorphism_classes(auto).values())[::5]:
            rep = regular_representation(f)
            matrices = dict(enumerate(rep.fiber_matrices + (rep.stable_matrix,), 1))
            for d in (1, 2, 3):
                exponents = {g: 0 for g in matrices}
                exponents[m.stable_index] = d
                blocks = _stacked(
                    [specialize([fox_derivative(r, g) for g in sorted(matrices)],
                                matrices, exponents) for r in relators])
                got = fox_matrix(relators, matrices, exponents)
                assert (got._z, got._shift, got._den) == (
                    blocks._z, blocks._shift, blocks._den)
                checked += 1
    assert checked >= 150


def test_fox_matrix_rejects_missing_generator():
    with pytest.raises(ValueError, match="no matrix assigned to generator 2"):
        fox_matrix([W("ab")], {1: RationalMatrix.identity(1)}, {1: 0})


def test_identity_terms_placed_once_per_key():
    """_assemble sums the identity terms by (top, left, e) and places each
    sum once.  Under identity matrices every prefix product is the
    identity, so its identity placement runs dim times per distinct key of
    the walk, fewer than the letters; a key whose sum is zero (a and A at
    one exponent in abA) still matches the reference."""
    import inspect
    import sys

    from orderlex import fox

    source, first = inspect.getsourcelines(fox._assemble)
    placement = [first + n for n, text in enumerate(source) if text.strip() == "p[e] += f"]
    assert len(placement) == 1
    runs = [0]

    def local(frame, event, arg):
        if event == "line" and frame.f_lineno == placement[0]:
            runs[0] += 1
        return local

    def tracer(frame, event, arg):
        return local if frame.f_code is fox._assemble.__code__ else None

    m = MappingTorus(2, figure_eight_monodromy())
    relators = list(presentation(m)) + [W("abA", 3)]
    dim = 2
    matrices = {g: RationalMatrix.identity(dim) for g in (1, 2, 3)}
    exponents = {1: 0, 2: 0, 3: 2}
    keys, letters = set(), 0
    for i, r in enumerate(relators):
        shift = 0
        for g, s in r.letters:
            after = shift + s * exponents[g]
            keys.add((i, g, shift if s > 0 else after))
            shift = after
            letters += 1
    sys.settrace(tracer)
    try:
        pm = fox_matrix(relators, matrices, exponents)
    finally:
        sys.settrace(None)
    assert runs[0] == dim * len(keys) < dim * letters
    reference = {(g, s): RationalMatrix.identity(dim).to_lists()
                 for g in (1, 2, 3) for s in (1, -1)}
    for i, r in enumerate(relators):
        for j in range(3):
            expected = _reference_specialize(fox_derivative(r, j + 1), reference, exponents)
            assert _block_entries(pm, i, j, dim) == expected, (r, j + 1)
