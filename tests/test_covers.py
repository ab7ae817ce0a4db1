"""Finite covers: Schreier transversals, subgroup bases, lifted monodromy,
and the twisted-vs-cover cross-check.

TestPinnedCovers compares a digest of every battery cover with
data/cover_digests.json.  After a deliberate change of the cover data,
rewrite that file with

    PYTHONPATH=src python tests/test_covers.py
"""

import hashlib
import json
import pathlib

import pytest

from _laurent_literal import L, power_characteristic_matrix

from orderlex import cli, covers, finite, torus
from orderlex.autos import (
    automorphism,
    figure_eight_monodromy,
    identity_automorphism,
    standard_battery,
)
from orderlex.covers import build_cover, cover_alexander, verify_shapiro
from orderlex.errors import CertificationError, ConsistencyError
from orderlex.finite import (
    FiniteGroup,
    TorusHomomorphism,
    cyclic_group,
    enumerate_homomorphisms,
    homomorphism_classes,
    klein_four_group,
    parse_cycles,
    symmetric_group,
    trivial_representation,
)
from orderlex.freegroup import FreeEndomorphism
from orderlex.laurent import LaurentPolynomial
from orderlex.linalg import PolynomialMatrix, RationalMatrix
from orderlex.torus import AlexanderResult, MappingTorus, classical_alexander, twisted_alexander
from orderlex.words import FreeWord, format_word

from test_finite import DIHEDRAL_AND_ALTERNATING

COVER_DIGESTS = pathlib.Path(__file__).resolve().parent / "data" / "cover_digests.json"


def cyclic_stable_hom(m, k):
    g = cyclic_group(k)
    f = TorusHomomorphism(g, (g.identity(),) * m.fiber_rank, g.element(1), label=f"z{k}")
    f.require_well_defined(m.monodromy)
    return f


class TestBuildCover:
    def test_repr_of_a_basis_past_the_alphabet(self):
        """Z13 with a, b, c -> 1 lifts cycle3 to a rank-27 cover; its
        generators past FIBER_ALPHABET print as letter pairs."""
        m = MappingTorus(3, dict(standard_battery())["cycle3"])
        g = cyclic_group(13)
        f = TorusHomomorphism(g, (g.element(1),) * 3, g.identity())
        f.require_well_defined(m.monodromy)
        lifted = build_cover(m, f).lifted_monodromy
        assert lifted.rank == 27
        text = repr(lifted)
        assert text.startswith("FreeEndomorphism(rank=27, images=[")
        assert "(26, 1)" in text and "(27, 1)" in text
        assert repr(lifted.images[22]) == f"FreeWord({list(lifted.images[22].letters)!r})"

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

    def test_one_transversal_per_cover(self, monkeypatch):
        """build_cover takes d and w from the Schreier graph it builds on."""
        calls = []
        graph = finite.schreier_graph

        def counting(f):
            calls.append(f)
            return graph(f)

        monkeypatch.setattr(finite, "schreier_graph", counting)
        monkeypatch.setattr(covers, "schreier_graph", counting)
        m = MappingTorus(2, figure_eight_monodromy())
        for f in homomorphism_classes(m.monodromy).values():
            calls.clear()
            c = build_cover(m, f)
            assert len(calls) == 1
            assert (c.d, c.w) == finite.cover_degree(f)

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
        # every cover's lifted monodromy and its inverse undo each other
        # on every basis generator
        covers = 0
        for _, auto in standard_battery():
            m = MappingTorus(auto.rank, auto)
            for f in homomorphism_classes(auto).values():
                lifted = build_cover(m, f).lifted_monodromy
                back = lifted.inverse_endomorphism()
                for i in range(lifted.rank):
                    x = FreeWord.generator(i + 1)
                    assert lifted.apply(back.images[i]) == x
                    assert back.apply(lifted.images[i]) == x
                covers += 1
        assert covers == 256


class TestSchreierGraph:
    """build_cover walks one Schreier graph of f(F) on vertex indices."""

    def test_rewrite_returns_reduced_words(self, monkeypatch):
        """Every word _rewrite returns is the reduced word on its letters,
        over every battery class; a word off the subgroup raises."""
        rewrite = covers._rewrite
        returned, tables = [], []

        def recording(word, forward, backward, edge):
            out = rewrite(word, forward, backward, edge)
            returned.append(out)
            tables.append((forward, backward, edge))
            return out

        monkeypatch.setattr(covers, "_rewrite", recording)
        classes = off_subgroup = 0
        for _, auto in standard_battery():
            m = MappingTorus(auto.rank, auto)
            for f in homomorphism_classes(auto).values():
                returned.clear()
                tables.clear()
                build_cover(m, f)
                assert returned
                for word in returned:
                    assert word == FreeWord(word.letters)
                outside = [g for g in range(1, f.rank + 1)
                           if f.fiber_images[g - 1] != f.group.identity()]
                for g in outside:
                    with pytest.raises(ValueError, match="does not lie in the subgroup"):
                        rewrite(FreeWord.generator(g), *tables[0])
                    off_subgroup += 1
                classes += 1
        assert classes == 256 and off_subgroup > 0

    def test_permutation_products_one_per_graph_edge(self, monkeypatch):
        """schreier_graph and cover_degree read the group's product table:
        no permutation product once enumeration filled it, and on an
        unfilled Z_k, k = 3..13, at most one per graph edge, 2 rank |f(F)|,
        plus d - 1 for the degree.  covers makes none of its own."""
        assert not hasattr(covers, "multiply_permutations")
        filled = [f for _, auto in standard_battery()
                  for f in homomorphism_classes(auto).values()]
        calls = [0]
        multiply = finite.multiply_permutations

        def counting(p, q):
            calls[0] += 1
            return multiply(p, q)

        def products(f):
            calls[0] = 0
            reps, *_ = finite.schreier_graph(f)
            d, _ = finite.cover_degree(f)
            return calls[0], len(reps), d

        monkeypatch.setattr(finite, "multiply_permutations", counting)
        assert len(filled) == 256
        for f in filled:
            assert products(f)[0] == 0, f
        for k in range(3, 14):
            for a in (0, 1, 2):
                g = cyclic_group(k)
                f = TorusHomomorphism(g, (g.element(a), g.identity()), g.element(1))
                count, size, d = products(f)
                assert 0 < count <= 2 * f.rank * size + d - 1, (k, a, count, size, d)

    def test_build_cover_makes_no_product_after_enumeration(self, monkeypatch):
        """Once homomorphism_classes filled the product tables, build_cover,
        its relation check included, makes no permutation product over the
        256 battery classes."""
        calls = [0]
        multiply = finite.multiply_permutations

        def counting(p, q):
            calls[0] += 1
            return multiply(p, q)

        covers_built = 0
        for _, auto in standard_battery():
            m = MappingTorus(auto.rank, auto)
            classes = homomorphism_classes(auto)
            with monkeypatch.context() as patch:
                patch.setattr(finite, "multiply_permutations", counting)
                for f in classes.values():
                    build_cover(m, f)
                    covers_built += 1
        assert covers_built == 256
        assert calls[0] == 0

    def test_lifted_power_by_squaring(self, monkeypatch):
        """Figure-eight onto Z_k, k = 3..13, lifts theta~^k with w empty:
        at most 2 ceil(log2 k) + 1 composes, none with C~_w."""
        calls = [0]
        compose = FreeEndomorphism.compose

        def counting(self, other):
            calls[0] += 1
            return compose(self, other)

        monkeypatch.setattr(FreeEndomorphism, "compose", counting)
        m = MappingTorus(2, figure_eight_monodromy())
        for k in range(3, 14):
            calls[0] = 0
            cover = build_cover(m, cyclic_stable_hom(m, k))
            assert cover.w == FreeWord.empty()
            assert calls[0] <= 2 * (k - 1).bit_length() + 1, (k, calls[0])


def battery_classes():
    """(group, battery label, torus, homomorphism) for every image class of
    the battery into the catalog of groups of order <= 6, then into D4, D6
    and A4, in enumeration order."""
    groups = [("catalog", None)] + [
        (name, FiniteGroup(degree, [parse_cycles(c, degree) for c in generators], name=name))
        for name, degree, generators, _ in DIHEDRAL_AND_ALTERNATING
    ]
    for name, group in groups:
        for label, auto in standard_battery():
            if group is None:
                classes = homomorphism_classes(auto)
            else:
                classes = {}
                for f in enumerate_homomorphisms(auto, group):
                    classes.setdefault(f.image_key(), f)
            for f in classes.values():
                yield name, label, MappingTorus(auto.rank, auto), f


def on_fresh_group(f):
    """f into a new copy of its group, whose product table is unfilled."""
    g = f.group
    copy = FiniteGroup(g.degree, g.generators, name=g.name)
    return TorusHomomorphism(copy, f.fiber_images, f.stable_image, label=f.label)


def cover_digest(m, f):
    """sha256 over the cover's d and the letters of w, the transversal,
    the basis and the lifted images."""
    c = build_cover(m, f)
    data = [
        c.d,
        c.w.letters,
        [u.letters for u in c.schreier_transversal],
        [b.letters for b in c.subgroup_basis],
        [x.letters for x in c.lifted_monodromy.images],
    ]
    return hashlib.sha256(json.dumps(data).encode()).hexdigest()


def battery_cover_digests():
    """{group: {battery label: [digest per class]}}; each cover is built
    again into a fresh copy of its group and must match."""
    doc = {}
    for name, label, m, f in battery_classes():
        digest = cover_digest(m, f)
        assert cover_digest(m, on_fresh_group(f)) == digest, (name, label, f)
        doc.setdefault(name, {}).setdefault(label, []).append(digest)
    return doc


class TestPinnedCovers:
    def test_battery_cover_digests(self):
        """Every battery cover, on a filled and on an unfilled product
        table, against the digests recorded in data/cover_digests.json."""
        pinned = json.loads(COVER_DIGESTS.read_text())
        assert battery_cover_digests() == pinned
        counts = {name: sum(map(len, labels.values())) for name, labels in pinned.items()}
        assert counts["catalog"] == 256


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


    def test_invariant_factors_against_the_smith_form_at_t_d(self):
        """cover_alexander reduces tI - A and substitutes t -> t^d; the
        direct route reduces t^d I - A itself.  Over the 256 battery
        classes and the D4, D6 and A4 classes behind data/cover_digests.json
        both give the same chain, and the same polynomial."""
        covers_seen = 0
        for _, _, m, f in battery_classes():
            c = build_cover(m, f)
            a = c.lifted_monodromy.abelianization()
            direct = power_characteristic_matrix(a, c.d).smith_normal_form()
            result = cover_alexander(c)
            assert result.invariant_factors == tuple(p for p in direct if not p.is_one)
            assert result.polynomial == a.char_poly().substitute_power(c.d).canonicalize()
            covers_seen += 1
        assert covers_seen == 256 + 115 + 193 + 90


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

    def test_differing_cover_polynomial_reported(self, monkeypatch):
        """equal compares the two routes: a cover polynomial other than the
        twisted one reads False."""
        m = MappingTorus(2, figure_eight_monodromy())
        monkeypatch.setattr(covers, "cover_alexander",
                            lambda cover: AlexanderResult(L("t^2 + t + 1"), (), 0))
        report = verify_shapiro(m, cyclic_stable_hom(m, 2))
        assert report["equal"] is False
        assert report["cover"] == "t^2 + t + 1" != report["twisted"]

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

    def test_free_part_raises(self, monkeypatch, capsys, fig8_manifest_path):
        """The twisted module is torsion, so a free part raises even when
        Wada's route agrees with it: both routes are made to read zero."""
        homology = torus.homology_invariant_factors

        def free(b1, b2):
            factors, _, b1_factors = homology(b1, b2)
            return factors, 1, b1_factors

        monkeypatch.setattr(torus, "homology_invariant_factors", free)
        monkeypatch.setattr(PolynomialMatrix, "pencil_char_poly",
                            lambda self, stable, d: LaurentPolynomial.zero())
        m = MappingTorus(2, figure_eight_monodromy())
        with pytest.raises(ConsistencyError, match="free rank 1"):
            twisted_alexander(m, trivial_representation(2))
        assert cli.main(["report", fig8_manifest_path]) == cli.EXIT_INTERNAL
        assert "error: internal cross-check disagreed" in capsys.readouterr().err

    def test_restricted_monodromy_certification(self, monkeypatch):
        theta = figure_eight_monodromy()
        m = MappingTorus(2, theta)
        f = cyclic_stable_hom(m, 2)
        inverse = FreeEndomorphism.inverse_endomorphism

        def wrong_inverse(self):
            # theta carrying theta^-2 as its inverse: the base map was
            # certified already, so only the restriction theta~ sees it
            back = inverse(self)
            return back.compose(back) if self is theta else back

        checked = []
        verify = FreeEndomorphism._verify_inverse

        def counting(self):
            checked.append(self)
            verify(self)

        monkeypatch.setattr(FreeEndomorphism, "inverse_endomorphism", wrong_inverse)
        monkeypatch.setattr(FreeEndomorphism, "_verify_inverse", counting)
        with pytest.raises(CertificationError):
            build_cover(m, f)
        # the first map build_cover certifies is theta~, and it raised
        assert len(checked) == 1
        assert checked[0].images == theta.images

    @pytest.mark.parametrize(
        "theta, k, fiber, stable, certified",
        [
            # figure-eight onto Z3: Ftilde = F, theta~ = theta; w is empty,
            # so C~_w is the identity and is neither built nor certified
            (figure_eight_monodromy(), 3, (0, 0), 1, [("aba", "ab")]),
            # identity onto Z2 through a and t: w = a, basis [b, aa, abA];
            # theta~, then C~_w
            (identity_automorphism(2), 2, (1, 0), 1, [("a", "b", "c"), ("c", "b", "baB")]),
        ],
        ids=["figure-eight-z3", "identity-z2-conjugating"],
    )
    def test_only_restrictions_are_checked(self, monkeypatch, theta, k, fiber, stable, certified):
        m = MappingTorus(2, theta)
        g = cyclic_group(k)
        f = TorusHomomorphism(g, tuple(g.element(x) for x in fiber), g.element(stable))
        checked = []
        verify = FreeEndomorphism._verify_inverse

        def counting(self):
            checked.append(self)
            verify(self)

        monkeypatch.setattr(FreeEndomorphism, "_verify_inverse", counting)
        cover = build_cover(m, f)
        rank = len(cover.subgroup_basis)
        assert [tuple(format_word(w) for w in c.images) for c in checked] == certified
        assert all(c.rank == rank for c in checked)
        assert all(c is not cover.lifted_monodromy for c in checked)

    @pytest.mark.parametrize("theta, k, fiber, stable", [
        (figure_eight_monodromy(), 3, (0, 0), 1),  # w empty, basis [a, b]
        (identity_automorphism(2), 2, (1, 0), 1),  # w = a, basis [b, aa, abA]
    ], ids=["figure-eight-z3", "identity-z2-conjugating"])
    @pytest.mark.parametrize("signed", [
        {1: (2, 1), 2: (1, 1)},  # letters 1 and 2 swapped
        {1: (1, -1)},  # letter 1 rewritten to its inverse
    ], ids=["swap", "invert"])
    def test_basis_rewrites_to_its_own_letters(self, monkeypatch, theta, k, fiber, stable,
                                               signed):
        """A rewriting that permutes or inverts basis letters is an
        automorphism of the free group on the basis, so the identity map
        read through it still certifies, which is what certifying C~_w
        for an empty w accepted.  build_cover's direct check refuses it."""
        m = MappingTorus(2, theta)
        g = cyclic_group(k)
        f = TorusHomomorphism(g, tuple(g.element(x) for x in fiber), g.element(stable))
        rank = len(build_cover(m, f).subgroup_basis)
        rewrite = covers._rewrite

        def letter(i, s):
            h, e = signed.get(i, (i, 1))
            return h, e * s

        def wrong(word, *graph):
            return FreeWord(tuple(letter(i, s) for i, s in rewrite(word, *graph).letters))

        # the identity map as the rewriting reads it: basis element i, which
        # rewrites honestly to letter i, now goes to letter(i, 1)
        images = tuple(FreeWord((letter(i, 1),)) for i in range(1, rank + 1))
        FreeEndomorphism(rank, images, images)  # an involution: it certifies
        monkeypatch.setattr(covers, "_rewrite", wrong)
        with pytest.raises(ConsistencyError, match="own letter"):
            build_cover(m, f)


class TestLiftedMonodromy:
    def test_certified_words_stay_small(self, monkeypatch):
        # figure-eight onto Z_k lifts theta^k, whose images have Fibonacci
        # lengths; the maps certified on the way are theta~ and C~_w only
        m = MappingTorus(2, figure_eight_monodromy())
        sizes = []
        verify = FreeEndomorphism._verify_inverse

        def measuring(self):
            sizes.append(sum(map(len, self.images + self.inverse_images)))
            verify(self)

        monkeypatch.setattr(FreeEndomorphism, "_verify_inverse", measuring)
        for k in range(2, 10):
            sizes.clear()
            cover = build_cover(m, cyclic_stable_hom(m, k))
            assert sizes and max(sizes) <= 20, (k, sizes)
        assert sum(map(len, cover.lifted_monodromy.images)) == 10946

    def test_lifted_words_against_base_powers(self):
        # substituting basis words back into F needs no rewriting
        def in_fiber(word, basis):
            out = FreeWord.empty()
            for g, s in word.letters:
                out = out * (basis[g - 1] if s > 0 else basis[g - 1].inverse())
            return out

        classes = 0
        for _, auto in standard_battery():
            m = MappingTorus(auto.rank, auto)
            for f in homomorphism_classes(auto).values():
                cover = build_cover(m, f)
                d, w, basis = cover.d, cover.w, cover.subgroup_basis
                if d > 7:
                    continue
                forward, backward = auto.power(d), auto.power(-d)
                lifted = cover.lifted_monodromy
                for b, image, inverse_image in zip(
                    basis, lifted.images, lifted.inverse_images
                ):
                    assert in_fiber(image, basis) == forward.apply(w * b * w.inverse())
                    assert in_fiber(inverse_image, basis) == (
                        w.inverse() * backward.apply(b) * w
                    )
                classes += 1
        assert classes == 256


if __name__ == "__main__":
    doc = battery_cover_digests()
    COVER_DIGESTS.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
