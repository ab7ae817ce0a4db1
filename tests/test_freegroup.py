"""Certified free-group endomorphisms and their abelianizations."""

import pytest
from hypothesis import given, strategies as st

from orderlex.autos import automorphism, figure_eight_monodromy, standard_battery
from orderlex.errors import CertificationError
from orderlex.freegroup import FreeEndomorphism
from orderlex.words import FreeWord, parse_word

words_st = st.lists(
    st.tuples(st.integers(min_value=1, max_value=2), st.sampled_from((1, -1))),
    max_size=8,
).map(FreeWord)


class TestConstruction:
    def test_identity(self):
        e = FreeEndomorphism.identity(3)
        assert e.is_certified
        w = parse_word("abC", 3)
        assert e.apply(w) == w

    def test_apply_known(self):
        theta = figure_eight_monodromy()
        assert theta.apply(parse_word("a", 2)) == parse_word("aba", 2)
        assert theta.apply(parse_word("AB", 2)) == parse_word("ABABA", 2)

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            FreeEndomorphism(2, (parse_word("a", 2),))

    def test_rejects_bad_inverse(self):
        with pytest.raises(CertificationError):
            automorphism(2, ("aba", "ab"), ("Ba", "Ab"))

    def test_uncertified_endomorphism_allowed(self):
        # a non-injective endomorphism carries no inverse certificate
        e = FreeEndomorphism(2, (parse_word("a", 2), parse_word("a", 2)))
        assert not e.is_certified


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
        for label, auto in standard_battery():
            d = auto.abelianization().det()
            assert d in (1, -1), label


class TestBattery:
    def test_size_and_certification(self):
        battery = standard_battery()
        assert len(battery) >= 10
        for label, auto in battery:
            assert auto.is_certified, label

    def test_labels_unique(self):
        labels = [label for label, _ in standard_battery()]
        assert len(labels) == len(set(labels))

    def test_ranks(self):
        ranks = {auto.rank for _, auto in standard_battery()}
        assert ranks == {2, 3}


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
