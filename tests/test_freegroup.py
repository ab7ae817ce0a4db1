"""Certified free-group endomorphisms and their abelianizations."""

from itertools import accumulate
from operator import mul

import pytest
from hypothesis import given, settings, strategies as st

from orderlex.autos import automorphism, figure_eight_monodromy, standard_battery
from orderlex.covers import build_cover
from orderlex.errors import CertificationError
from orderlex.finite import homomorphism_classes
from orderlex.freegroup import FreeEndomorphism
from orderlex.torus import MappingTorus
from orderlex.words import FreeWord, commutator, parse_word

words_st = st.lists(
    st.tuples(st.integers(min_value=1, max_value=2), st.sampled_from((1, -1))),
    max_size=8,
).map(FreeWord)


@st.composite
def nielsen_products(draw, min_rank, max_rank):
    """A certified product of up to six elementary Nielsen moves at a drawn
    rank: x_i -> x_i x_j^e, x_i -> x_j^e x_i (j != i) or x_i -> x_i^-1, each
    built through the public constructor with its inverse images."""
    rank = draw(st.integers(min_value=min_rank, max_value=max_rank))
    auto = FreeEndomorphism.identity(rank)
    for _ in range(draw(st.integers(min_value=0, max_value=6))):
        i = draw(st.integers(min_value=1, max_value=rank))
        kinds = ("invert", "right", "left") if rank > 1 else ("invert",)
        kind = draw(st.sampled_from(kinds))
        images = [FreeWord.generator(g) for g in range(1, rank + 1)]
        back = list(images)
        x = images[i - 1]
        if kind == "invert":
            images[i - 1] = back[i - 1] = x.inverse()
        else:
            j = draw(st.integers(min_value=1, max_value=rank).filter(lambda j: j != i))
            y = FreeWord([(j, draw(st.sampled_from((1, -1))))])
            if kind == "right":
                images[i - 1], back[i - 1] = x * y, x * y.inverse()
            else:
                images[i - 1], back[i - 1] = y * x, y.inverse() * x
        auto = FreeEndomorphism(rank, images, back).compose(auto)
    return auto


def assert_inverse_pair(f):
    """f and its inverse undo each other on every generator:
    outer.apply(inner.images[i]) == x_i both ways."""
    back = f.inverse_endomorphism()
    for i in range(f.rank):
        x = FreeWord.generator(i + 1)
        assert f.apply(back.images[i]) == x
        assert back.apply(f.images[i]) == x


class TestConstruction:
    def test_identity(self):
        e = FreeEndomorphism.identity(3)
        assert_inverse_pair(e)
        w = parse_word("abC", 3)
        assert e.apply(w) == w

    def test_apply_known(self):
        theta = figure_eight_monodromy()
        assert theta.apply(parse_word("a", 2)) == parse_word("aba", 2)
        assert theta.apply(parse_word("AB", 2)) == parse_word("ABABA", 2)

    def test_rejects_wrong_length(self):
        a, b = parse_word("a", 2), parse_word("b", 2)
        with pytest.raises(ValueError, match="one image per generator"):
            FreeEndomorphism(2, (a,), (a, b))
        with pytest.raises(ValueError, match="one inverse image per generator"):
            FreeEndomorphism(2, (a, b), (a,))

    def test_rejects_bad_inverse(self):
        with pytest.raises(CertificationError):
            automorphism(2, ("aba", "ab"), ("Ba", "Ab"))


class TestComposition:
    def test_power_inverse_roundtrip(self):
        theta = figure_eight_monodromy()
        inv = theta.inverse_endomorphism()
        for w in (parse_word("a", 2), parse_word("bAb", 2)):
            assert inv.apply(theta.apply(w)) == w
            assert theta.apply(inv.apply(w)) == w

    def test_negative_power(self):
        theta = figure_eight_monodromy()
        w = parse_word("ab", 2)
        assert theta.power(-2).apply(theta.power(2).apply(w)) == w

    def test_compose_order(self):
        # compose(other) applies other first
        theta = figure_eight_monodromy()
        swap = automorphism(2, ("b", "a"), ("b", "a"))
        w = parse_word("a", 2)
        assert theta.compose(swap).apply(w) == theta.apply(swap.apply(w))

    @given(words_st)
    def test_homomorphism_property(self, w):
        theta = figure_eight_monodromy()
        u = parse_word("aB", 2)
        assert theta.apply(u * w) == theta.apply(u) * theta.apply(w)

    @given(words_st)
    def test_certified_inverse_on_random_words(self, w):
        theta = figure_eight_monodromy()
        assert theta.inverse_endomorphism().apply(theta.apply(w)) == w


class TestAbelianization:
    def test_fig8_matrix(self):
        m = figure_eight_monodromy().abelianization()
        assert m.to_lists() == [[2, 1], [1, 1]]

    def test_functorial_under_composition(self):
        theta = figure_eight_monodromy()
        m1 = theta.abelianization()
        m2 = theta.compose(theta).abelianization()
        assert (m1 * m1).to_lists() == m2.to_lists()

    def test_battery_matrices_unimodular(self):
        # the constant term of det(tI - A) is (-1)^n det(A)
        for label, auto in standard_battery():
            d = auto.abelianization().char_poly().coefficient(0)
            assert d in (1, -1), label

    @staticmethod
    def exponent_sums(auto):
        return [
            [auto.images[j].exponent_sum(i + 1) for j in range(auto.rank)]
            for i in range(auto.rank)
        ]

    @given(nielsen_products(2, 5))
    def test_matches_exponent_sums(self, auto):
        """Entry (i, j) is the exponent sum of x_i in the image of x_j."""
        assert auto.abelianization().to_lists() == self.exponent_sums(auto)
        back = auto.inverse_endomorphism()
        assert back.abelianization().to_lists() == self.exponent_sums(back)

    def test_lifted_cover_monodromy(self):
        """The lifted monodromies of the covers of the 3-cycle of F_3's
        generators reach rank 13."""
        cycle3 = dict(standard_battery())["cycle3"]
        m = MappingTorus(3, cycle3)
        ranks = set()
        for f in homomorphism_classes(m.monodromy).values():
            lifted = build_cover(m, f).lifted_monodromy
            assert lifted.abelianization().to_lists() == self.exponent_sums(lifted)
            ranks.add(lifted.rank)
        assert max(ranks) == 13


class TestBattery:
    def test_size_and_certification(self):
        battery = standard_battery()
        assert len(battery) >= 10
        for _, auto in battery:
            assert_inverse_pair(auto)

    def test_labels_unique(self):
        labels = [label for label, _ in standard_battery()]
        assert len(labels) == len(set(labels))

    def test_ranks(self):
        ranks = {auto.rank for _, auto in standard_battery()}
        assert ranks == {2, 3}

    def test_one_certification_per_catalog_entry(self, monkeypatch):
        """The composite entry is built from the list's own fig8 and swap,
        so only the 11 catalog specs run the inverse check."""
        certified = []
        verify = FreeEndomorphism._verify_inverse

        def counting(self):
            certified.append(self)
            return verify(self)

        monkeypatch.setattr(FreeEndomorphism, "_verify_inverse", counting)
        battery = standard_battery()
        assert len(battery) == 12
        assert certified == [auto for _, auto in battery[:11]]


BATTERY = standard_battery()


def recertify(auto):
    """Rebuild a map through the public constructor, which checks its inverse."""
    return FreeEndomorphism(auto.rank, auto.images, auto.inverse_images)


class TestCertifiedByConstruction:
    """Derived maps skip the inverse check; these tests run it on them."""

    @pytest.mark.parametrize("label, auto", BATTERY, ids=[label for label, _ in BATTERY])
    def test_powers_and_inverse(self, label, auto):
        for k in range(-4, 5):
            power = auto.power(k)
            assert recertify(power) == power
            if abs(k) <= 3:
                assert_inverse_pair(power)
        for k in range(1, 5):
            assert auto.power(-k).images == auto.power(k).inverse_images
        inverse = auto.inverse_endomorphism()
        assert recertify(inverse) == inverse

    def test_composites(self):
        pairs = 0
        for _, f in BATTERY:
            for _, g in BATTERY:
                if f.rank == g.rank:
                    composite = f.compose(g)
                    assert recertify(composite) == composite
                    assert_inverse_pair(composite)
                    pairs += 1
        assert pairs == 9 * 9 + 3 * 3

    def test_check_runs_only_in_the_constructor(self, monkeypatch):
        theta = figure_eight_monodromy()
        swap = automorphism(2, ("b", "a"), ("b", "a"))
        checked = []
        verify = FreeEndomorphism._verify_inverse

        def counting(self):
            checked.append(self)
            verify(self)

        monkeypatch.setattr(FreeEndomorphism, "_verify_inverse", counting)
        identity = FreeEndomorphism.identity(2)
        for build in (
            lambda: theta.power(6),
            lambda: theta.power(-6),
            lambda: theta.compose(swap),
            theta.inverse_endomorphism,
        ):
            checked.clear()
            build()
            assert len(checked) <= 1
            assert all(m == identity for m in checked)

    def test_identity_and_powers_run_no_check(self, monkeypatch):
        # the identity is certified by definition, so a power starting from
        # it is certified by construction throughout
        theta = figure_eight_monodromy()
        checked = []
        monkeypatch.setattr(FreeEndomorphism, "_verify_inverse", checked.append)
        assert_inverse_pair(FreeEndomorphism.identity(3))
        for k in (0, 6, -6):
            assert_inverse_pair(theta.power(k))
        assert checked == []


def composed_powers(auto, budget=None):
    """(k, auto composed with itself |k| times, auto^-1 for k < 0) for
    k = 0..9 and then 0..-9, one compose a step, as power did before it
    squared; each sign stops early once the images and inverse images
    hold more than budget letters."""
    for base, sign in ((auto, 1), (auto.inverse_endomorphism(), -1)):
        step = FreeEndomorphism.identity(auto.rank)
        for k in range(10):
            yield sign * k, step
            if budget is not None and sum(map(len, step.images + step.inverse_images)) > budget:
                break
            step = base.compose(step)


class TestPowerBySquaring:
    """power squares; its images and inverse images are those of k-fold
    compose, word for word."""

    @pytest.mark.parametrize("label, auto", BATTERY, ids=[label for label, _ in BATTERY])
    def test_matches_repeated_composition(self, label, auto):
        checked = set()
        for k, expected in composed_powers(auto):
            power = auto.power(k)
            assert power.images == expected.images, k
            assert power.inverse_images == expected.inverse_images, k
            checked.add(k)
        assert checked == set(range(-9, 10))

    @settings(deadline=None)
    @given(nielsen_products(1, 4))
    def test_matches_repeated_composition_on_nielsen_products(self, auto):
        """k = -9..9, each sign up to the first power past 20000 letters:
        each Nielsen move of a product can double a word's length, so a
        power of a product of six can grow 64-fold a step."""
        for k, expected in composed_powers(auto, budget=20000):
            power = auto.power(k)
            assert power.images == expected.images, k
            assert power.inverse_images == expected.inverse_images, k


class TestApplyBuildsReducedWords:
    """apply builds its result without the public constructor's letter
    checks; these tests compare it with that constructor."""

    @pytest.mark.parametrize("label, auto", BATTERY, ids=[label for label, _ in BATTERY])
    def test_matches_public_constructor(self, label, auto):
        for k in range(-4, 5):
            power = auto.power(k)
            for w in power.images + power.inverse_images:
                assert FreeWord(list(w.letters)) == w
                substituted = [
                    letter
                    for g, s in w
                    for letter in (auto.images[g - 1] if s > 0 else auto.images[g - 1].inverse())
                ]
                assert auto.apply(w) == FreeWord(substituted)

    @given(nielsen_products(1, 4), st.data())
    def test_matches_public_constructor_on_nielsen_products(self, auto, data):
        """apply cancels only where an image meets the product so far; this
        checks it against reduction of the whole concatenation, on words
        whose images cancel far (v = auto^-1(w)) or entirely (w * w^-1)."""
        letters_st = st.tuples(
            st.integers(min_value=1, max_value=auto.rank), st.sampled_from((1, -1))
        )
        w = FreeWord(data.draw(st.lists(letters_st, max_size=12)))
        v = auto.inverse_endomorphism().apply(w)
        for word in (w, w.inverse(), v, v.inverse(), w * w.inverse(), FreeWord.empty()):
            pieces = [
                letter
                for g, s in word
                for letter in (auto.images[g - 1] if s > 0 else auto.images[g - 1].inverse())
            ]
            assert auto.apply(word) == FreeWord(pieces)
        assert auto.apply(v) == w

    def test_apply_skips_letter_validation(self, monkeypatch):
        theta = figure_eight_monodromy()
        words = [w for k in range(-3, 4) for w in theta.power(k).images]
        words.append(FreeWord.empty())
        built = []
        init = FreeWord.__init__

        def counting(self, letters=()):
            built.append(letters)
            init(self, letters)

        monkeypatch.setattr(FreeWord, "__init__", counting)
        for w in words:
            theta.apply(w)
        assert built == []


class TestWordOperationsBuildReducedWords:
    """Products, repeated products and inverses of words build their results
    without the public constructor's letter checks; these tests compare them
    with that constructor."""

    def test_match_public_constructor_without_validation(self, monkeypatch):
        def inv(letters):
            return [(g, -s) for g, s in reversed(letters)]

        a, b = parse_word("abA", 2), parse_word("bab", 2)
        words = [parse_word(s, 3) for s in ("abA", "aBAb", "abcAB", "b")]
        a3, b2 = list(a.letters) * 3, inv(b.letters) * 2
        expected = [FreeWord(inv(a3) + inv(b2) + a3 + b2)]
        for w in words:
            expected.append(FreeWord(inv(w.letters)))
            expected.append(FreeWord(list(w.letters) + inv(w.letters)))
            expected += [FreeWord(list(w.letters) * k) for k in range(1, 5)]
            expected += [FreeWord(inv(w.letters) * k) for k in range(1, 5)]

        built = []
        init = FreeWord.__init__

        def counting(self, letters=()):
            built.append(letters)
            init(self, letters)

        monkeypatch.setattr(FreeWord, "__init__", counting)
        b_inv = b.inverse()
        results = [commutator(a * a * a, b_inv * b_inv)]
        for w in words:
            w_inv = w.inverse()
            results += [w_inv, w * w_inv]
            results += accumulate([w] * 4, mul)
            results += accumulate([w_inv] * 4, mul)
        monkeypatch.undo()
        assert built == []
        assert results == expected
