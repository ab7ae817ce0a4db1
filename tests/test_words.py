"""Free reduction, word parsing, and the reserved stable letter."""

from functools import reduce
from operator import mul

import pytest
from hypothesis import given, strategies as st

from orderlex.errors import WordParseError
from orderlex.words import FreeWord, commutator, format_word, parse_word

letters_st = st.lists(
    st.tuples(st.integers(min_value=1, max_value=3), st.sampled_from((1, -1))),
    max_size=12,
)


class TestReduction:
    def test_cancellation(self):
        assert FreeWord([(1, 1), (1, -1)]) == FreeWord.empty()
        assert FreeWord([(1, 1), (2, 1), (2, -1), (1, -1)]) == FreeWord.empty()

    def test_partial_cancellation(self):
        w = FreeWord([(1, 1), (2, 1), (2, -1), (2, 1)])
        assert w == parse_word("ab", 2)

    def test_no_adjacent_inverse_pairs(self):
        w = parse_word("aBAbab", 2)
        for (g1, s1), (g2, s2) in zip(w.letters, w.letters[1:]):
            assert not (g1 == g2 and s1 == -s2)

    @given(letters_st)
    def test_reduction_idempotent(self, letters):
        w = FreeWord(letters)
        assert FreeWord(w.letters) == w

    @given(letters_st)
    def test_inverse_cancels(self, letters):
        w = FreeWord(letters)
        assert w * w.inverse() == FreeWord.empty()
        assert w.inverse() * w == FreeWord.empty()

    @given(letters_st, letters_st, st.integers(min_value=0, max_value=12))
    def test_product_and_inverse_match_validating_constructor(self, l1, l2, overlap):
        """The product, which cancels only at the junction, and the inverse,
        which is not re-reduced, give the words that the validating
        constructor builds from the concatenated and the reversed letters.
        v may start with the inverse of a tail of u, so that the junction
        cancels far, up to all of u or of v.  The product is a slotted word,
        with no instance dict."""
        u = FreeWord(l1)
        tail = u.letters[len(u) - min(overlap, len(u)):]
        v = FreeWord([(g, -s) for g, s in reversed(tail)] + l2)
        assert u * v == FreeWord(u.letters + v.letters)
        assert not hasattr(u * v, "__dict__")
        assert v * u == FreeWord(v.letters + u.letters)
        assert u.inverse() == FreeWord([(g, -s) for g, s in reversed(u.letters)])

    @given(letters_st, letters_st, st.integers(min_value=-4, max_value=4))
    def test_power_matches_validating_constructor(self, l1, l2, k):
        """w = p c p^-1 with p drawn on its own, so that w is often not
        cyclically reduced; the product of |k| copies of w, or of w^-1 when
        k < 0, is the reduced repetition of their letters."""
        p = FreeWord(l1)
        w = p * FreeWord(l2) * p.inverse()
        base = w if k >= 0 else w.inverse()
        assert reduce(mul, [base] * abs(k), FreeWord.empty()) == FreeWord(base.letters * abs(k))

    @pytest.mark.parametrize("text", ["aBcbA", "abcBA", "aBA", "abAB", "a", ""])
    @pytest.mark.parametrize("k", range(-4, 5))
    def test_power_examples(self, text, k):
        w = parse_word(text, 3)
        base = w if k >= 0 else w.inverse()
        assert reduce(mul, [base] * abs(k), FreeWord.empty()) == FreeWord(base.letters * abs(k))

    @given(letters_st, letters_st)
    def test_product_antihomomorphism(self, l1, l2):
        u, v = FreeWord(l1), FreeWord(l2)
        assert (u * v).inverse() == v.inverse() * u.inverse()


class TestValidation:
    @pytest.mark.parametrize("letter", [
        (0, 1), (1, 2), (-1, 1), (1, 0),
        # no truncation or conversion: only ints, and no bools, are letters
        (1.5, 1), (1, 1.5), (2.9, -1), (1.0, 1), (1, -1.0), ("2", 1), (1, "1"),
        (True, 1), (1, True), (2, False),
    ])
    def test_rejects_bad_letters(self, letter):
        with pytest.raises(ValueError, match="bad letter"):
            FreeWord([letter])
        with pytest.raises(ValueError, match="bad letter"):
            FreeWord([(1, 1), letter, (1, -1)])


class TestParsing:
    def test_round_trip(self):
        for s in ("", "a", "aB", "abAB", "bbbA"):
            assert format_word(parse_word(s, 2)) == s

    def test_case_encodes_sign(self):
        assert parse_word("A", 1) == FreeWord.generator(1).inverse()

    def test_rank_enforced(self):
        with pytest.raises(WordParseError):
            parse_word("c", 2)

    def test_unknown_symbol(self):
        with pytest.raises(WordParseError):
            parse_word("a-b", 2)

    def test_stable_letter_gated(self):
        for text in ("at", "aT"):
            with pytest.raises(WordParseError, match=r"stable letter 't'.*position 1"):
                parse_word(text, 2)

    @pytest.mark.parametrize("text", ["\u212a", "b\u212a", "\uff41"])
    def test_only_ascii_letters(self, text):
        # the Kelvin sign lowercases to 'k', the fullwidth a is a letter
        with pytest.raises(WordParseError, match=f"unknown letter.*position {len(text) - 1}"):
            parse_word(text, 11)

    @pytest.mark.parametrize(
        "text, pos",
        [("a\u3000b A\x1c", 1), ("ab A\x1c", 4), ("a\xa0b", 1), ("\u2003a", 0)],
        ids=["ideographic-space", "file-separator", "no-break-space", "em-space"],
    )
    def test_only_ascii_whitespace(self, text, pos):
        # str.isspace also holds for these, which are not blanks of the grammar
        with pytest.raises(WordParseError, match=f"unknown letter.*position {pos}"):
            parse_word(text, 2)

    def test_ascii_whitespace_is_ignored(self):
        assert parse_word(" a\tb\nA\r\x0b\x0c", 2) == parse_word("abA", 2)

    def test_repr_past_the_alphabet(self):
        # a generator past FIBER_ALPHABET has no letter: repr shows the pairs
        w = FreeWord([(26, 1), (1, -1)])
        assert repr(w) == "FreeWord([(26, 1), (1, -1)])"
        assert eval(repr(w)) == w
        assert repr(FreeWord([(25, 1), (1, -1)])) == "FreeWord('zA')"

    def test_stable_letter_skips_t_slot(self):
        # fiber alphabet has no 't'; the letter after 's' is 'u'
        w = parse_word("su", 20)
        assert w.letters == ((19, 1), (20, 1))

    def test_format_has_no_stable_letter(self):
        # a rank-2 torus's stable generator 3 prints as the fiber letter c
        w = FreeWord([(3, 1), (1, -1)])
        assert format_word(w) == "cA"


class TestCommutator:
    def test_definition(self):
        a, b = parse_word("a", 2), parse_word("b", 2)
        assert commutator(a, b) == parse_word("ABab", 2)

    def test_trivial_when_equal(self):
        a = parse_word("ab", 2)
        assert commutator(a, a) == FreeWord.empty()

    @given(letters_st, letters_st)
    def test_inverse_swaps_arguments(self, l1, l2):
        u, v = FreeWord(l1), FreeWord(l2)
        assert commutator(u, v).inverse() == commutator(v, u)


class TestExponentSum:
    def test_counts(self):
        w = parse_word("aabA", 2)
        assert w.exponent_sum(1) == 1
        assert w.exponent_sum(2) == 1

    @given(letters_st, letters_st)
    def test_additive_under_product(self, l1, l2):
        u, v = FreeWord(l1), FreeWord(l2)
        for g in (1, 2, 3):
            assert (u * v).exponent_sum(g) == u.exponent_sum(g) + v.exponent_sum(g)
