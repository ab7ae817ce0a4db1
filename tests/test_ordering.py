"""Magnus-expansion ordering, property suites, and orderability verdicts."""

import random
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from _laurent_literal import L

from orderlex import cli, ordering, roots as roots_module, torus as torus_module
from orderlex.autos import figure_eight_monodromy, standard_battery
from orderlex.errors import ConsistencyError
from orderlex.finite import FiniteGroup, homomorphism_classes
from orderlex.laurent import LaurentPolynomial
from orderlex.linalg import RationalMatrix
from orderlex.ordering import (
    DEFAULT_DEPTH,
    Comparison,
    OrderStatus,
    bi_order_axiom_suite,
    clay_rolfsen_verdict,
    has_positive_real_eigenvalue,
    lemma_comm_suite,
    magnus_compare,
    magnus_expand,
    random_reduced_word,
    theorem2_report,
)
from orderlex.torus import AlexanderResult, MappingTorus
from orderlex.words import FreeWord, commutator, parse_word


def W(s, rank=2):
    return parse_word(s, rank)


words_st = st.lists(
    st.tuples(st.integers(min_value=1, max_value=2), st.sampled_from((1, -1))),
    max_size=8,
).map(FreeWord)


def truncated_product(a, b, depth):
    """Product of two series given as {monomial: coefficient}, truncated at
    total degree depth."""
    out = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            if len(m1) + len(m2) <= depth:
                out[m1 + m2] = out.get(m1 + m2, 0) + c1 * c2
    return {m: c for m, c in out.items() if c}


def oracle_expand(letters, depth):
    """Truncated Magnus image of a letter list (reduced or not), as the
    product of the images 1 + X_g and sum_k (-X_g)^k of its letters."""
    series = {(): 1}
    for g, s in letters:
        if s > 0:
            factor = {(): 1, (g,): 1}
        else:
            factor = {(g,) * k: (-1) ** k for k in range(depth + 1)}
        series = truncated_product(series, factor, depth)
    return series


def inverse_letters(letters):
    return [(g, -s) for g, s in reversed(letters)]


def oracle_compare(u, v, depth):
    """Magnus comparison of two letter lists from the oracle expansion of
    u v^-1 and its graded-lex leading term."""
    if FreeWord(u) == FreeWord(v):
        return Comparison.EQUAL
    series = oracle_expand(u + inverse_letters(v), depth)
    terms = [m for m in series if m]
    if not terms:
        return Comparison.UNRESOLVED_AT_DEPTH
    lead = min(terms, key=lambda m: (len(m), m))
    return Comparison.GREATER if series[lead] > 0 else Comparison.LESS


@st.composite
def letter_pairs(draw):
    """Two letter lists of rank 2 or 3; sometimes the second is the first
    followed by a commutator, so that u v^-1 lies deep in the lower central
    series."""
    rank = draw(st.integers(min_value=2, max_value=3))
    letters = st.lists(
        st.tuples(st.integers(min_value=1, max_value=rank), st.sampled_from((1, -1))),
        max_size=8,
    )
    u = draw(letters)
    if draw(st.booleans()):
        x, y = draw(letters), draw(letters)
        return u, u + inverse_letters(x) + inverse_letters(y) + x + y
    return u, draw(letters)


@st.composite
def sparse_words(draw):
    """A letter list over one to three generators drawn from 1..9, such as
    {2, 7}, so that most generators below the largest are absent."""
    gens = draw(st.lists(st.integers(min_value=1, max_value=9), min_size=1,
                         max_size=3, unique=True))
    return draw(st.lists(st.tuples(st.sampled_from(gens), st.sampled_from((1, -1))),
                         max_size=10))


@st.composite
def commutator_products(draw):
    """(rank, letters) of a product of one to three commutators [x, y] of
    short letter lists, rank 2 to 5, over a drawn subset of the generators,
    so that some are absent; every exponent sum of the word is zero."""
    rank = draw(st.integers(min_value=2, max_value=5))
    present = draw(st.lists(st.integers(min_value=1, max_value=rank), min_size=1,
                            max_size=rank, unique=True))
    letters = st.lists(st.tuples(st.sampled_from(present), st.sampled_from((1, -1))),
                       max_size=4)
    word = []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        x, y = draw(letters), draw(letters)
        word += inverse_letters(x) + inverse_letters(y) + x + y
    return rank, word


@st.composite
def commutator_offsets(draw):
    """(u, u c) as letter lists, c a product of commutators at rank 2 to 5:
    the pair agrees at degree 1, and often at degree 2 too, when u^-1 (u c)
    = c lies in the third term of the lower central series."""
    rank, c = draw(commutator_products())
    u = draw(st.lists(
        st.tuples(st.integers(min_value=1, max_value=rank), st.sampled_from((1, -1))),
        max_size=6,
    ))
    return u, u + c


class TestMagnusExpansion:
    def test_generator(self):
        s = magnus_expand(W("a"), depth=3)
        assert s.coefficient(()) == 1
        assert s.coefficient((1,)) == 1
        assert s.coefficient((1, 1)) == 0

    def test_inverse_is_geometric_series(self):
        s = magnus_expand(W("A"), depth=3)
        assert s.coefficient((1,)) == -1
        assert s.coefficient((1, 1)) == 1
        assert s.coefficient((1, 1, 1)) == -1

    def test_commutator_leading_term(self):
        s = magnus_expand(commutator(W("a"), W("b")), depth=2)
        assert s.coefficient((1, 2)) == 1
        assert s.coefficient((2, 1)) == -1
        assert s.coefficient((1,)) == 0
        assert s.coefficient((2,)) == 0

    def test_empty_word_is_one(self):
        s = magnus_expand(FreeWord.empty(), depth=4)
        assert s.coefficients == {(): 1}

    @given(words_st, words_st)
    def test_multiplicative(self, u, v):
        su = magnus_expand(u, depth=4)
        sv = magnus_expand(v, depth=4)
        product = truncated_product(su.coefficients, sv.coefficients, 4)
        assert product == magnus_expand(u * v, depth=4).coefficients

    @settings(max_examples=150, deadline=None)
    @given(letter_pairs(), st.integers(min_value=1, max_value=6))
    def test_matches_oracle(self, pair, depth):
        u, v = pair
        assert magnus_expand(FreeWord(u), depth).coefficients == oracle_expand(u, depth)
        assert magnus_expand(FreeWord(v), depth).coefficients == oracle_expand(v, depth)
        assert magnus_compare(FreeWord(u), FreeWord(v), depth) is oracle_compare(u, v, depth)

    def test_stops_at_first_nonzero_degree(self, monkeypatch):
        """A query extends only the monomials it reads: one coefficient walks
        its own chain of prefixes, the leading term stops in the first
        nonzero degree, and a monomial zero on every prefix is never
        extended, so a depth of 40 costs nothing past the last nonzero one."""
        calls = []
        extend = ordering._extend

        def counting(letters, a, g):
            calls.append(g)
            return extend(letters, a, g)

        monkeypatch.setattr(ordering, "_extend", counting)
        a, b = W("a"), W("b")
        comm = commutator(a, b)
        series = magnus_expand(comm, depth=40)
        assert series.coefficient((2, 1)) == -1
        assert calls == [2, 1]
        calls.clear()
        assert series.leading_term() == ((1, 2), 1)
        assert calls == [1, 2, 1, 2]
        calls.clear()
        deep = commutator(comm, b)
        result = magnus_compare(deep, FreeWord.empty(), depth=40)
        assert result is oracle_compare(list(deep.letters), [], 3)
        assert 2 + 4 < len(calls) <= 2 + 4 + 8
        calls.clear()
        # ab: X_a, X_b and X_a X_b; every other extension is zero on all
        # prefixes and is pruned, so the walk ends at degree 3
        assert magnus_expand(W("ab"), depth=40).coefficients == {
            (): 1, (1,): 1, (2,): 1, (1, 2): 1}
        assert len(calls) == 2 + 4 + 2

    @settings(max_examples=150, deadline=None)
    @given(sparse_words(), st.integers(min_value=1, max_value=5),
           st.lists(st.lists(st.integers(min_value=1, max_value=9), max_size=7).map(tuple),
                    max_size=8))
    @example([(2, 1), (7, -1), (2, -1), (7, 1)], 3, [(7,), (2, 7), (7, 2), (1, 2), (2, 7, 7, 2)])
    def test_series_queries_match_oracle(self, letters, depth, monomials):
        """On words over sparse generator sets such as {2, 7}: the leading
        term is the graded-lex least monomial of the oracle expansion, and
        every coefficient matches the oracle, on monomials of the
        expansion, on monomials with absent generators and on monomials
        longer than the depth (zero)."""
        series = magnus_expand(FreeWord(letters), depth)
        oracle = oracle_expand(letters, depth)
        lead = min((m for m in oracle if m), key=lambda m: (len(m), m), default=None)
        assert series.leading_term() == (None if lead is None else (lead, oracle[lead]))
        for mono in [*oracle, *monomials]:
            assert series.coefficient(mono) == oracle.get(mono, 0)

    @settings(max_examples=60, deadline=None)
    @given(commutator_products())
    def test_commutator_subgroup_matches_oracle(self, drawn):
        """On a word with every exponent sum zero the expansion matches the
        oracle through degree 6, and degree 2 is antisymmetric with a zero
        diagonal (a Lie element)."""
        rank, letters = drawn
        word = FreeWord(letters)
        for depth in range(2, 7):
            assert magnus_expand(word, depth).coefficients == oracle_expand(letters, depth)
        series = magnus_expand(word, 2)
        gens = range(1, rank + 1)
        assert all(series.coefficient((a,)) == 0 for a in gens)
        for a in gens:
            assert series.coefficient((a, a)) == 0
            for b in gens:
                assert series.coefficient((a, b)) == -series.coefficient((b, a))

    def test_low_degrees_build_no_prefix_recursion(self, monkeypatch):
        """Comparisons that resolve at degree 1 or 2 take those degrees in
        closed form and extend no monomial; only a pair whose difference
        lies in the third term of the lower central series walks the
        prefixes of its quotient."""
        walked = []
        extend = ordering._extend

        def counting(letters, a, g):
            walked.append(letters)
            return extend(letters, a, g)

        monkeypatch.setattr(ordering, "_extend", counting)
        a, b = W("a"), W("b")
        one = FreeWord.empty()
        assert magnus_compare(W("ab"), b) is Comparison.GREATER
        assert magnus_compare(W("Ab"), W("bA")) is Comparison.LESS
        assert magnus_compare(commutator(a, b), one) is Comparison.GREATER
        assert magnus_compare(commutator(b, a), commutator(a, b)) is Comparison.LESS
        assert walked == []
        deep = commutator(commutator(a, b), b)
        result = magnus_compare(deep, one)
        assert result is oracle_compare(list(deep.letters), [], DEFAULT_DEPTH)
        assert walked and set(walked) == {deep.letters}

    def test_huge_generator_index(self):
        """The closed forms range over the generators present, never up to
        the largest index: x_N x_1 against x_1 x_N for N = 10^9 is decided
        by one pair sum, c(1, N), at once."""
        big = 10 ** 9
        u, v = [(big, 1), (1, 1)], [(1, 1), (big, 1)]
        start = time.perf_counter()
        result = magnus_compare(FreeWord(u), FreeWord(v))
        assert time.perf_counter() - start < 0.1
        assert result is Comparison.LESS is oracle_compare(u, v, 2)
        assert magnus_compare(FreeWord(v), FreeWord(u)) is Comparison.GREATER

    def test_low_degree_pairs_build_no_product(self, monkeypatch):
        """A comparison whose lead lies in degree 1 or 2 reads it from the
        two words on their own: it neither inverts a word nor expands one.
        Only a pair whose quotient lies in the third term of the lower
        central series builds u v^-1 and expands it."""
        rng = random.Random(19)
        pairs = []
        for _ in range(150):
            rank = rng.randint(2, 4)
            u = random_reduced_word(rng, rank, max_len=6)
            x = random_reduced_word(rng, rank, max_len=3)
            y = random_reduced_word(rng, rank, max_len=3)
            pairs.append((u, random_reduced_word(rng, rank, max_len=6)))
            pairs.append((u, u * commutator(x, y)))
            pairs.append((u, u * commutator(commutator(x, y), x)))
        calls = []
        expand, inverse = ordering.magnus_expand, FreeWord.inverse

        def counting_expand(*args):
            calls.append("expand")
            return expand(*args)

        def counting_inverse(w):
            calls.append("inverse")
            return inverse(w)

        monkeypatch.setattr(ordering, "magnus_expand", counting_expand)
        monkeypatch.setattr(FreeWord, "inverse", counting_inverse)
        seen = {True: 0, False: 0}
        for u, v in pairs:
            quotient = list(u.letters) + inverse_letters(list(v.letters))
            low = any(oracle_expand(quotient, 2).keys() - {()})
            calls.clear()
            result = magnus_compare(u, v, depth=4)
            assert result is oracle_compare(list(u.letters), list(v.letters), 4)
            if u == v:
                continue
            seen[low] += 1
            assert calls == ([] if low else ["inverse", "expand"])
        assert seen[True] > 200 and seen[False] > 100

    @settings(max_examples=100, deadline=None)
    @given(commutator_offsets(), st.integers(min_value=2, max_value=5))
    # 1 against [b, c][d, a]: pair sums differ at (1, 4) and (2, 3) with
    # opposite signs, and lex order on (a, b) puts (1, 4) first, where
    # order on (b, a) would put (2, 3) first
    @example(([], [(2, -1), (3, -1), (2, 1), (3, 1), (4, -1), (1, -1), (4, 1), (1, 1)]), 2)
    def test_commutator_offsets_match_oracle(self, pair, depth):
        """Pairs that agree at degree 1, ranks 2 to 5: at depth 1 they are
        unresolved, and at depth 2 and the drawn depth the degree-2 pair-sum
        comparison and the expansion past it match the oracle, either way
        round."""
        u, v = pair
        tie = (Comparison.EQUAL if FreeWord(u) == FreeWord(v)
               else Comparison.UNRESOLVED_AT_DEPTH)
        assert magnus_compare(FreeWord(u), FreeWord(v), 1) is tie
        for d in (1, 2, depth):
            assert magnus_compare(FreeWord(u), FreeWord(v), d) is oracle_compare(u, v, d)
            assert magnus_compare(FreeWord(v), FreeWord(u), d) is oracle_compare(v, u, d)


class TestMagnusCompare:
    def test_positive_generators(self):
        assert magnus_compare(W("a"), FreeWord.empty()) is Comparison.GREATER
        assert magnus_compare(W("A"), FreeWord.empty()) is Comparison.LESS

    def test_equality_only_on_equal_words(self):
        assert magnus_compare(W("ab"), W("ab")) is Comparison.EQUAL
        assert magnus_compare(W("ab"), W("ba")) is not Comparison.EQUAL

    def test_depth_checked_before_equality(self):
        for depth in (0, -1):
            with pytest.raises(ValueError):
                magnus_compare(W("ab"), W("ab"), depth=depth)
            with pytest.raises(ValueError):
                magnus_compare(W("ab"), W("ba"), depth=depth)

    @pytest.mark.parametrize("depth", [1, 2])
    def test_generator_one_first_matches_oracle(self, depth):
        """The degree-1 lead takes x_1's exponent sum first.  Against the
        oracle, either way round: random words at ranks 1-5; the same words
        with every x_1 deleted; pairs whose x_1 sums tie, so that x_2 or
        x_3 decides; words over the sparse indices {2, 7}; the empty word."""
        rng = random.Random(f"generator one first {depth}")
        pairs = [([], []), ([], [(1, 1)]), ([(2, -1)], []), ([(7, 1)], [(2, 1)]),
                 ([(1, 1), (2, 1)], [(2, 1), (1, 1), (3, -1)]),
                 ([(2, 1), (1, 1), (2, 1)], [(1, 1), (2, 1), (3, 1), (3, 1)])]
        for _ in range(200):
            rank = rng.randint(1, 5)
            u, v = (list(random_reduced_word(rng, rank, 6).letters) for _ in range(2))
            tie = u[:] + [(rng.randint(2, 3), rng.choice((1, -1)))
                          for _ in range(rng.randint(1, 3))]
            rng.shuffle(tie)
            pairs += [(u, v), (u, []),
                      ([x for x in u if x[0] != 1], [x for x in v if x[0] != 1]),
                      (u, tie),
                      ([((2, 7)[g % 2], s) for g, s in u], [((2, 7)[g % 2], s) for g, s in v])]
        decided = {"x_1": 0, "tie": 0}
        for u, v in pairs:
            e1 = sum(s for g, s in u if g == 1) - sum(s for g, s in v if g == 1)
            if FreeWord(u) != FreeWord(v):
                decided["x_1" if e1 else "tie"] += 1
            for x, y in ((u, v), (v, u)):
                assert magnus_compare(FreeWord(x), FreeWord(y), depth) is oracle_compare(x, y, depth)
        assert decided["x_1"] > 300 and decided["tie"] > 300

    def test_antisymmetric_pairs(self):
        u, v = W("abA"), W("bb")
        c1 = magnus_compare(u, v)
        c2 = magnus_compare(v, u)
        flip = {Comparison.LESS: Comparison.GREATER, Comparison.GREATER: Comparison.LESS}
        assert c2 is flip[c1]

    def test_commutator_below_generator(self):
        # b > 1 forces [a, b] < b
        assert magnus_compare(commutator(W("a"), W("b")), W("b")) is Comparison.LESS

    def test_deep_agreement_with_shallow(self):
        rng = random.Random(0)
        for _ in range(50):
            u = random_reduced_word(rng, 2, max_len=6)
            v = random_reduced_word(rng, 2, max_len=6)
            shallow = magnus_compare(u, v, depth=2)
            if shallow in (Comparison.LESS, Comparison.GREATER):
                assert magnus_compare(u, v, depth=6) is shallow

    @given(words_st)
    def test_word_vs_itself_times_positive(self, w):
        assert magnus_compare(w * W("a"), w) is Comparison.GREATER


class TestSuites:
    def test_comm_suite_clean(self):
        report = lemma_comm_suite(2, 60, depth=6, seed=5)
        assert report["violations"] == 0
        assert report["trials"] == 60
        assert set(report) == {"trials", "resolved", "unresolved", "violations", "depth"}

    def test_axiom_suite_clean(self):
        report = bi_order_axiom_suite(2, 60, depth=6, seed=5)
        assert report["violations"] == 0

    def test_rank3(self):
        assert lemma_comm_suite(3, 30, depth=6, seed=2)["violations"] == 0
        assert bi_order_axiom_suite(3, 30, depth=6, seed=2)["violations"] == 0

    def test_deterministic_given_seed(self):
        a = bi_order_axiom_suite(2, 40, depth=6, seed=9)
        b = bi_order_axiom_suite(2, 40, depth=6, seed=9)
        assert a == b


def reference_random_word(rng, rank, max_len=8):
    """random_reduced_word as once written, on Random.randint and
    Random.choice; the oracle of the stream the library must consume."""
    length = rng.randint(1, max_len)
    letters = []
    prev = None
    for _ in range(length):
        while True:
            g = rng.randint(1, rank)
            s = rng.choice((1, -1))
            if prev != (g, -s):
                break
        letters.append((g, s))
        prev = (g, s)
    return FreeWord(letters)


class TestRandomReducedWord:
    def test_same_stream_as_randint_and_choice(self):
        """Seeds 0-499, ranks 1-9, max_len 1-12: the same words as the
        reference, which reduces through the validating constructor, and the
        generator left in the same state."""
        for seed in range(500):
            ours, ref = random.Random(seed), random.Random(seed)
            for rank in range(1, 10):
                for max_len in range(1, 13):
                    assert random_reduced_word(ours, rank, max_len) == reference_random_word(
                        ref, rank, max_len
                    )
                assert ours.getstate() == ref.getstate()

    @pytest.mark.parametrize("rank, max_len", [(0, 8), (-1, 8), (2, 0), (2, -3), (0, 0)])
    def test_rejects_empty_ranges_before_drawing(self, rank, max_len):
        """A zero range would loop forever on getrandbits(0); it raises, as
        randint did, before any draw."""

        class NoDraws(random.Random):
            def getrandbits(self, k):
                raise AssertionError("drew from the generator")

        with pytest.raises(ValueError):
            random_reduced_word(NoDraws(7), rank, max_len)


class TestVerdicts:
    def test_biorderable(self):
        v = clay_rolfsen_verdict(L("t^2 - 3*t + 1"))
        assert v.status is OrderStatus.BIORDERABLE
        assert v.positive_root_count == 2

    def test_obstructed(self):
        v = clay_rolfsen_verdict(L("t^2 - t + 1"))
        assert v.status is OrderStatus.OBSTRUCTED
        assert v.positive_root_count == 0

    def test_obstructed_negative_real(self):
        assert clay_rolfsen_verdict(L("t^2 + 3*t + 1")).status is OrderStatus.OBSTRUCTED

    def test_inconclusive(self):
        # one positive root, one negative: neither criterion fires
        v = clay_rolfsen_verdict(L("t^2 - t - 2"))
        assert v.status is OrderStatus.INCONCLUSIVE
        assert v.positive_root_count == 1

    def test_constant_is_obstructed(self):
        assert clay_rolfsen_verdict(L("1")).status is OrderStatus.OBSTRUCTED

    def test_unit_invariance(self):
        p = L("t^2 - 3*t + 1")
        q = p * LaurentPolynomial({-1: Fraction(-5)})
        assert clay_rolfsen_verdict(p) == clay_rolfsen_verdict(q)

    def test_zero_rejected(self):
        with pytest.raises(ValueError, match="every point as a root"):
            clay_rolfsen_verdict(LaurentPolynomial.zero())

    @pytest.mark.parametrize("text", ["t^2 - 3*t + 1", "t^2 - t + 1", "t^2 - t - 2", "1"])
    def test_one_canonical_form_and_sturm_chain(self, monkeypatch, text):
        """Both counts come from one Sturm chain of the one canonical form;
        a constant obstructs without a chain.  Every chain starts in roots."""
        calls = {"canonicalize": 0, "_sturm_counts": 0}
        canonicalize, sturm_counts = LaurentPolynomial.canonicalize, roots_module._sturm_counts

        def counting(name, original):
            def wrapper(*args):
                calls[name] += 1
                return original(*args)
            return wrapper

        monkeypatch.setattr(LaurentPolynomial, "canonicalize", counting("canonicalize", canonicalize))
        monkeypatch.setattr(roots_module, "_sturm_counts", counting("_sturm_counts", sturm_counts))
        clay_rolfsen_verdict(L(text) * LaurentPolynomial({-1: Fraction(-5)}))
        assert calls == {"canonicalize": 1, "_sturm_counts": int(text != "1")}


class TestPositiveEigenvalue:
    def test_triangular_positive_diagonal(self):
        m = RationalMatrix(
            [
                [Fraction(2), Fraction(-7), Fraction(3)],
                [Fraction(0), Fraction(1), Fraction(5)],
                [Fraction(0), Fraction(0), Fraction(9)],
            ]
        )
        assert has_positive_real_eigenvalue(m)

    def test_rotation_has_none(self):
        m = RationalMatrix([[Fraction(0), Fraction(-1)], [Fraction(1), Fraction(0)]])
        assert not has_positive_real_eigenvalue(m)

    def test_negative_identity(self):
        m = RationalMatrix([[Fraction(-1), Fraction(0)], [Fraction(0), Fraction(-1)]])
        assert not has_positive_real_eigenvalue(m)


class TestTheorem2Report:
    @staticmethod
    def counting_chains(monkeypatch):
        """The canonical polynomials theorem2_report runs a Sturm chain on:
        its own chains, and the classical counts the torus keeps.  Every
        chain starts in roots."""
        chains = []
        sturm_counts = roots_module._sturm_counts

        def wrapper(q):
            chains.append(q)
            return sturm_counts(q)

        monkeypatch.setattr(roots_module, "_sturm_counts", wrapper)
        return chains

    def test_equal_cover_polynomial_shares_the_twisted_chain(self, monkeypatch):
        """Over every 8th class of the battery the cover polynomial equals the
        twisted one (Shapiro), so each report runs one chain, the twisted
        one, and takes the cover's count from it; the classical chain runs
        once per torus."""
        tori = [MappingTorus(auto.rank, auto, label) for label, auto in standard_battery()]
        classes = [(torus, f) for torus in tori
                   for f in homomorphism_classes(torus.monodromy).values()][::8]
        chains = self.counting_chains(monkeypatch)
        for torus, f in classes:
            report = theorem2_report(torus, f)
            assert report["cover"] == report["twisted"]
            assert report["cover_positive_roots"] == report["twisted_positive_roots"]
        reached = {id(torus) for torus, _ in classes}
        assert len(classes) > 20 and len(reached) > 1
        assert len(chains) == len(classes) + len(reached)

    def test_differing_cover_polynomial_runs_its_chain(self, monkeypatch):
        """A cover polynomial other than the twisted one gets its own chain,
        so existence_equal still catches a disagreement."""
        torus = MappingTorus(2, figure_eight_monodromy(), "figure-eight")
        homs = list(homomorphism_classes(torus.monodromy).values())[:2]
        monkeypatch.setattr(ordering, "cover_alexander",
                            lambda cover: AlexanderResult(L("t^2 + t + 1"), (), 0))
        chains = self.counting_chains(monkeypatch)
        for f in homs:
            report = theorem2_report(torus, f)
            assert chains[-1] == L("t^2 + t + 1")
            assert report["twisted_positive_roots"] > 0
            assert report["cover_positive_roots"] == 0
            assert report["existence_equal"] is False
        # the torus's classical chain, then twisted and cover per report
        assert len(chains) == 1 + 2 * len(homs)

    @staticmethod
    def not_dividing(monkeypatch):
        """Make the classical polynomial of every torus t^2 - 5*t + 1, which
        divides no regular twisted polynomial of figure-eight."""
        monkeypatch.setattr(ordering, "classical_alexander",
                            lambda m: AlexanderResult(L("t^2 - 5*t + 1"), (), 0))

    def test_classical_not_dividing_raises(self, monkeypatch):
        torus = MappingTorus(2, figure_eight_monodromy(), "figure-eight")
        self.not_dividing(monkeypatch)
        for f in homomorphism_classes(torus.monodromy).values():
            with pytest.raises(ConsistencyError, match="does not divide"):
                theorem2_report(torus, f)

    @pytest.mark.parametrize("argv", [["verify", "theorem2"], ["report"]])
    def test_classical_not_dividing_exits_internal(
        self, monkeypatch, capsys, fig8_manifest_path, argv
    ):
        self.not_dividing(monkeypatch)
        assert cli.main(argv + [fig8_manifest_path]) == cli.EXIT_INTERNAL
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: internal cross-check disagreed")

    @pytest.mark.parametrize("argv", [["verify", "theorem2"], ["report"]])
    def test_torus_and_image_work_done_once(self, monkeypatch, capsys, fig8_manifest_path, argv):
        """Over figure-eight's four maps onto Z2..Z5, the base classical
        polynomial is computed once and each image is walked once, over
        f(a), f(b), f(t); each cover's Schreier walk, over the four fiber
        letters, is its own."""
        classical = []
        polynomial = torus_module._monodromy_polynomial  # covers binds its own

        def counting(a, d):
            classical.append(d)
            return polynomial(a, d)

        walks = []
        walk = FiniteGroup._walk

        def walking(group, gens):
            walks.append((group, len(gens)))
            return walk(group, gens)

        monkeypatch.setattr(torus_module, "_monodromy_polynomial", counting)
        monkeypatch.setattr(FiniteGroup, "_walk", walking)
        assert cli.main(argv + [fig8_manifest_path, "--json"]) == 0
        assert classical == [1]
        images = [id(group) for group, n in walks if n == 3]
        assert len(images) == len(set(images)) == 4

    def test_division_and_gain_match_sympy(self):
        """Over every 4th class of the battery, from the report's strings and
        sympy alone: the classical polynomial divides the twisted one, and
        gain is the formula of the gcd route, the shared positive roots
        numbering the classical ones and the twisted ones more."""
        sympy = pytest.importorskip("sympy")
        t = sympy.Symbol("t")

        def poly(text):
            return sympy.Poly(sympy.sympify(text.replace("^", "**")), t, domain=sympy.QQ)

        classes = [(MappingTorus(auto.rank, auto, label), f)
                   for label, auto in standard_battery()
                   for f in homomorphism_classes(auto).values()][::4]
        gains = 0
        for torus, f in classes:
            report = theorem2_report(torus, f)
            classical, twisted = poly(report["classical"]), poly(report["twisted"])
            assert sympy.rem(twisted, classical).is_zero
            shared = {r for r in sympy.gcd(twisted, classical).real_roots() if r.is_positive}
            classical_count = report["classical_positive_roots"]
            gain = (len(shared) == classical_count
                    and report["twisted_positive_roots"] > classical_count)
            assert report["gain"] is gain
            gains += gain
        assert len(classes) == 64 and gains > 0
