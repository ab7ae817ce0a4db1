"""Finite covers: Schreier transversals, subgroup bases, lifted monodromy,
and the twisted-vs-cover cross-check."""

import pytest

from orderlex.autos import automorphism, figure_eight_monodromy, identity_automorphism
from orderlex.covers import build_cover, cover_alexander, verify_shapiro
from orderlex.errors import CertificationError, ConsistencyError
from orderlex.finite import (
    TorusHomomorphism,
    cyclic_group,
    klein_four_group,
    symmetric_group,
    trivial_representation,
)
from orderlex.freegroup import FreeEndomorphism
from orderlex.laurent import LaurentPolynomial, parse_polynomial
from orderlex.linalg import PolynomialMatrix, RationalMatrix
from orderlex.torus import MappingTorus, classical_alexander, twisted_alexander
from orderlex.words import FreeWord, format_word, parse_word


def L(s):
    return parse_polynomial(s)


def cyclic_stable_hom(m, k):
    g = cyclic_group(k)
    f = TorusHomomorphism(g, (g.identity(),) * m.fiber_rank, g.element(1), label=f"z{k}")
    f.require_well_defined(m.monodromy)
    return f


class TestBuildCover:
    def test_fig8_double_cover(self):
        m = MappingTorus(2, figure_eight_monodromy())
        c = build_cover(m, cyclic_stable_hom(m, 2))
        assert c.d == 2
        assert c.w == FreeWord.empty()
        assert [format_word(u) for u in c.schreier_transversal] == [""]
        assert [format_word(b) for b in c.subgroup_basis] == ["a", "b"]
        # lifted monodromy is theta^2
        theta2 = figure_eight_monodromy().power(2)
        assert c.lifted_monodromy.images == theta2.images

    def test_index_two_fiber_cover(self):
        m = MappingTorus(2, identity_automorphism(2))
        g = cyclic_group(2)
        f = TorusHomomorphism(g, (g.element(1), g.identity()), g.identity())
        f.require_well_defined(m.monodromy)
        c = build_cover(m, f)
        assert c.d == 1
        assert len(c.schreier_transversal) == 2
        # Nielsen-Schreier: rank = index * (n - 1) + 1 = 3
        assert len(c.subgroup_basis) == 3
        assert [format_word(b) for b in c.subgroup_basis] == ["b", "aa", "abA"]
        assert c.lifted_monodromy.images == identity_automorphism(3).images

    def test_stable_letter_mixing(self):
        m = MappingTorus(2, identity_automorphism(2))
        g = cyclic_group(2)
        f = TorusHomomorphism(g, (g.element(1), g.identity()), g.element(1))
        f.require_well_defined(m.monodromy)
        c = build_cover(m, f)
        assert c.d == 1
        assert format_word(c.w) == "a"
        imgs = [format_word(w) for w in c.lifted_monodromy.images]
        # conjugation by a, rewritten in the basis [b, aa, abA]
        assert imgs == ["c", "b", "baB"]

    def test_nielsen_schreier_rank(self):
        m = MappingTorus(2, identity_automorphism(2))
        g = symmetric_group(3)
        f = TorusHomomorphism(g, (g.element(1), g.element(2)), g.identity())
        f.require_well_defined(m.monodromy)
        c = build_cover(m, f)
        assert len(c.schreier_transversal) == 6
        assert len(c.subgroup_basis) == 6 * (2 - 1) + 1

    def test_lifted_monodromy_certified(self):
        m = MappingTorus(2, figure_eight_monodromy())
        c = build_cover(m, cyclic_stable_hom(m, 3))
        assert c.lifted_monodromy.is_certified

    def test_w_override_validation(self):
        m = MappingTorus(2, identity_automorphism(2))
        g = cyclic_group(2)
        f = TorusHomomorphism(g, (g.element(1), g.identity()), g.element(1))
        with pytest.raises(ValueError):
            build_cover(m, f, w_override=parse_word("b", 2))

    def test_w_override_changes_basis_expression_not_polynomial(self):
        m = MappingTorus(2, identity_automorphism(2))
        g = cyclic_group(2)
        f = TorusHomomorphism(g, (g.element(1), g.identity()), g.element(1))
        default = cover_alexander(build_cover(m, f))
        other = cover_alexander(build_cover(m, f, w_override=parse_word("aaa", 2)))
        assert default.polynomial == other.polynomial


class TestCoverAlexander:
    def test_fig8_double_cover_polynomial(self):
        m = MappingTorus(2, figure_eight_monodromy())
        c = build_cover(m, cyclic_stable_hom(m, 2))
        res = cover_alexander(c)
        # char poly of theta^2 abelianized, evaluated at t^2
        assert res.polynomial == L("t^4 - 7*t^2 + 1")

    def test_identity_z2_fiber_cover(self):
        m = MappingTorus(2, identity_automorphism(2))
        g = cyclic_group(2)
        f = TorusHomomorphism(g, (g.element(1), g.identity()), g.identity())
        c = build_cover(m, f)
        assert cover_alexander(c).polynomial == L("t^3 - 3*t^2 + 3*t - 1")


class TestShapiro:
    def test_fig8_cyclic_covers(self):
        m = MappingTorus(2, figure_eight_monodromy())
        for k in (2, 3, 4, 5):
            report = verify_shapiro(m, cyclic_stable_hom(m, k))
            assert report["equal"], report
            assert report["d"] == k
            assert set(report) == {"twisted", "cover", "equal", "d"}

    def test_identity_with_fiber_surjection(self):
        m = MappingTorus(2, identity_automorphism(2))
        g = cyclic_group(2)
        for stable in (0, 1):
            f = TorusHomomorphism(g, (g.element(1), g.identity()), g.element(stable))
            report = verify_shapiro(m, f)
            assert report["equal"], report
            assert report["d"] == 1

    def test_klein_four(self):
        m = MappingTorus(2, identity_automorphism(2))
        g = klein_four_group()
        f = TorusHomomorphism(g, (g.element(1), g.identity()), g.element(2))
        f.require_well_defined(m.monodromy)
        report = verify_shapiro(m, f)
        assert report["equal"], report
        assert report["d"] == 2

    def test_nonabelian_image(self):
        m = MappingTorus(2, identity_automorphism(2))
        g = symmetric_group(3)
        f = TorusHomomorphism(g, (g.element(1), g.element(2)), g.identity())
        report = verify_shapiro(m, f)
        assert report["equal"], report

    def test_battery_member_with_conjugating_stable(self):
        theta = automorphism(2, ("ab", "b"), ("aB", "b"))
        m = MappingTorus(2, theta)
        g = cyclic_group(2)
        # fiber image must satisfy f(theta(x)) = f(t) f(x) f(t)^-1
        f = TorusHomomorphism(g, (g.identity(), g.identity()), g.element(1))
        f.require_well_defined(theta)
        report = verify_shapiro(m, f)
        assert report["equal"], report


class TestCrossChecksRaise:
    """Each second route raises when it disagrees with the first."""

    def test_char_poly_against_invariant_factors(self, monkeypatch):
        m = MappingTorus(2, figure_eight_monodromy())
        cover = build_cover(m, cyclic_stable_hom(m, 2))
        monkeypatch.setattr(RationalMatrix, "char_poly", lambda self: LaurentPolynomial.one())
        with pytest.raises(ConsistencyError):
            classical_alexander(m)
        with pytest.raises(ConsistencyError):
            cover_alexander(cover)

    def test_wada_bookkeeping(self, monkeypatch):
        m = MappingTorus(2, figure_eight_monodromy())
        monkeypatch.setattr(PolynomialMatrix, "det", lambda self: LaurentPolynomial.one())
        with pytest.raises(ConsistencyError):
            twisted_alexander(m, trivial_representation(2))

    def test_lifted_monodromy_certification(self, monkeypatch):
        m = MappingTorus(2, figure_eight_monodromy())
        f = cyclic_stable_hom(m, 2)
        power = FreeEndomorphism.power

        def wrong_power(self, k):
            # theta^k carrying theta^-(k+1) as its inverse: only the lifted
            # monodromy's own certification sees the error
            inverse_images = power(self, k + 1).inverse_images
            return FreeEndomorphism._derived(self.rank, power(self, k).images, inverse_images)

        monkeypatch.setattr(FreeEndomorphism, "power", wrong_power)
        with pytest.raises(CertificationError):
            build_cover(m, f)

    def test_lifted_monodromy_is_checked(self, monkeypatch):
        m = MappingTorus(2, figure_eight_monodromy())
        f = cyclic_stable_hom(m, 3)
        identity = FreeEndomorphism.identity(2)
        checked = []
        verify = FreeEndomorphism._verify_inverse

        def counting(self):
            checked.append(self)
            verify(self)

        monkeypatch.setattr(FreeEndomorphism, "_verify_inverse", counting)
        cover = build_cover(m, f)
        assert checked == [identity, cover.lifted_monodromy]
