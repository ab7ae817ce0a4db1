"""Mapping-torus presentations and classical/twisted polynomial computation."""

from fractions import Fraction

import pytest

from _laurent_literal import L

from orderlex.autos import (
    automorphism,
    figure_eight_monodromy,
    identity_automorphism,
    standard_battery,
)
from orderlex import torus as torus_module
from orderlex.errors import ConsistencyError, RepresentationError
from orderlex.finite import (
    FiniteRepresentation,
    TorusHomomorphism,
    cyclic_group,
    enumerate_homomorphisms,
    homomorphism_classes,
    regular_representation,
    symmetric_group,
    trivial_representation,
)
from orderlex.linalg import PolynomialMatrix, RationalMatrix
from orderlex.torus import (
    MappingTorus,
    classical_alexander,
    lemma4_check,
    lemma5_check,
    presentation,
    twisted_alexander,
)
from orderlex.words import FreeWord, parse_word


def fig8():
    return MappingTorus(2, figure_eight_monodromy(), label="figure-eight")


def z2_regular(m):
    g = cyclic_group(2)
    f = TorusHomomorphism(g, (g.identity(),) * m.fiber_rank, g.element(1))
    f.require_well_defined(m.monodromy)
    return regular_representation(f)


def every_fifth_class_twisted():
    """Twisted polynomials of every fifth class of the battery into the
    groups of order <= 6, at d = 1 and 2; returns how many it computed."""
    checked = 0
    for _, auto in standard_battery():
        m = MappingTorus(auto.rank, auto)
        for f in list(homomorphism_classes(auto).values())[::5]:
            rep = regular_representation(f)
            for d in (1, 2):
                twisted_alexander(m, rep, d_scale=d)
                checked += 1
    return checked


class TestConstruction:
    def test_rank_mismatch(self):
        with pytest.raises(ValueError):
            MappingTorus(3, figure_eight_monodromy())

    def test_presentation_relators(self):
        m = fig8()
        rels = presentation(m)
        assert len(rels) == 2
        t = FreeWord.generator(m.stable_index)
        # t x_i t^-1 theta(x_i)^-1, freely reduced
        assert rels[0] == t * parse_word("a", 2) * t.inverse() * parse_word("ABA", 2)
        assert rels[1] == t * parse_word("b", 2) * t.inverse() * parse_word("BA", 2)

    def test_relators_built_once(self, monkeypatch):
        """Every twisted polynomial of one torus walks the same relator
        list, built on first use."""
        m = fig8()
        seen = []
        fox_matrix = torus_module.fox_matrix
        monkeypatch.setattr(torus_module, "fox_matrix",
                            lambda rs, *a: seen.append(rs) or fox_matrix(rs, *a))
        for d in (1, 2, 3):
            twisted_alexander(m, trivial_representation(2), d_scale=d)
        assert len(seen) == 3 and all(rs is m.relators for rs in seen)
        assert m.relators == presentation(m)


class TestClassical:
    def test_fig8(self):
        res = classical_alexander(fig8())
        assert res.polynomial == L("t^2 - 3*t + 1")
        assert [str(f) for f in res.invariant_factors] == ["t^2 - 3*t + 1"]
        assert res.free_rank == 0

    def test_identity_monodromy(self):
        m = MappingTorus(2, identity_automorphism(2))
        res = classical_alexander(m)
        assert res.polynomial == L("t^2 - 2*t + 1")

    def test_inverting_generator(self):
        m = MappingTorus(1, automorphism(1, ("A",), ("A",)))
        assert classical_alexander(m).polynomial == L("t + 1")

    def test_rank3_cycle(self):
        m = MappingTorus(3, automorphism(3, ("b", "c", "a"), ("c", "a", "b")))
        assert classical_alexander(m).polynomial == L("t^3 - 1")


class TestTwisted:
    def test_fig8_z2_regular(self):
        # block determinant worked out by hand:
        # (t^2-3t+1)(t^2+3t+1) = t^4 - 7t^2 + 1
        m = fig8()
        res = twisted_alexander(m, z2_regular(m))
        assert res.polynomial == L("t^4 - 7*t^2 + 1")
        assert res.free_rank == 0

    def test_trivial_rep_recovers_classical(self):
        m = fig8()
        direct = twisted_alexander(m, trivial_representation(2))
        assert direct.polynomial == classical_alexander(m).polynomial

    def test_trivial_rep_on_battery_member(self):
        m = MappingTorus(2, automorphism(2, ("ab", "b"), ("aB", "b")))
        assert (
            twisted_alexander(m, trivial_representation(2)).polynomial
            == classical_alexander(m).polynomial
        )

    def test_d_scale_substitutes(self):
        m = fig8()
        rep = z2_regular(m)
        base = twisted_alexander(m, rep).polynomial
        for d in (2, 3):
            scaled = twisted_alexander(m, rep, d_scale=d).polynomial
            assert scaled == base.substitute_power(d).canonicalize()

    def test_d_scale_validated(self):
        m = fig8()
        with pytest.raises(ValueError):
            twisted_alexander(m, trivial_representation(2), d_scale=0)

    def test_rejects_incompatible_representation(self):
        m = fig8()
        # sign representation violates t b t^-1 = theta(b) for this monodromy
        sign = RationalMatrix([[Fraction(-1)]])
        one = RationalMatrix.identity(1)
        from orderlex.finite import FiniteRepresentation

        rep = FiniteRepresentation((sign, sign), one)
        with pytest.raises(RepresentationError):
            twisted_alexander(m, rep)

    def test_corrupted_fox_block_is_a_bug(self, monkeypatch):
        """A representation that satisfies the relators, with one entry of
        the stable-letter columns of the Fox matrix corrupted: b1 * b2 != 0
        is reported as ConsistencyError, not as bad input.  The Fox matrix
        comes from one fox_matrix call over the relators, the stable-letter
        block last; the b1 blocks x_j - 1 come from one specialize call over
        the row of them and are left intact."""
        m = fig8()
        rep = z2_regular(m)
        relators, calls = [], []
        fox_matrix = torus_module.fox_matrix
        specialize = torus_module.specialize

        def corrupting(rs, matrices, exponents):
            out = fox_matrix(rs, matrices, exponents)
            relators.extend(rs)
            rows = [[out.entry(i, j) for j in range(out.cols)] for i in range(out.rows)]
            stable = out.cols - rep.stable_matrix.rows
            rows[0][stable] = rows[0][stable] + L("1")
            return PolynomialMatrix(rows)

        def recording(x, matrices, exponents):
            calls.append(x)
            return specialize(x, matrices, exponents)

        monkeypatch.setattr(torus_module, "fox_matrix", corrupting)
        monkeypatch.setattr(torus_module, "specialize", recording)
        with pytest.raises(ConsistencyError, match="do not compose to zero"):
            twisted_alexander(m, rep)
        assert relators == presentation(m)
        one = FreeWord.empty()
        assert calls == [
            [{FreeWord.generator(j): 1, one: -1} for j in range(1, m.stable_index + 1)]
        ]

    def test_no_product_with_an_identity_factor(self, monkeypatch):
        """Prefix chains start at a letter's matrix, a letter whose matrix
        is the identity multiplies nothing, and a prefix product equal to
        the identity, such as t x_i t^-1 under a map that kills the fiber,
        is carried as None: over the 6 classes of fig8, no prefix product
        has an identity factor, and some come out as the identity."""
        from orderlex import fox

        label, auto = standard_battery()[0]
        m = MappingTorus(auto.rank, auto)
        reps = [regular_representation(f) for f in homomorphism_classes(auto).values()]
        assert (label, len(reps)) == ("fig8", 6)
        product = fox._product
        factors, results = [], []

        def recording(prod, right):
            factors.append(prod.is_identity() or right.is_identity())
            out = product(prod, right)
            results.append(out)
            return out

        monkeypatch.setattr(fox, "_product", recording)
        for rep in reps:
            twisted_alexander(m, rep)
        assert factors and not any(factors)
        assert None in results
        assert all(p is None or not p.is_identity() for p in results)

    def test_one_reduction_of_b1(self, monkeypatch):
        """The homology reduces b1 once and b2 once, each on its own, and
        carries nothing: the Wada check reads order(H_0) off the homology's
        reduction of b1 instead of taking b1's Smith normal form again."""
        from orderlex import linalg

        m = fig8()
        rep = z2_regular(m)
        reductions, snf, pairs = [], [], []
        core = linalg._snf_core
        smith = PolynomialMatrix.smith_normal_form
        homology = torus_module.homology_invariant_factors

        def reducing(rows, cols):
            reductions.append((len(rows), cols))
            return core(rows, cols)

        def counting(self):
            snf.append(self)
            return smith(self)

        def capturing(b1, b2):
            pairs.append((b1, b2))
            return homology(b1, b2)

        monkeypatch.setattr(linalg, "_snf_core", reducing)
        monkeypatch.setattr(PolynomialMatrix, "smith_normal_form", counting)
        monkeypatch.setattr(torus_module, "homology_invariant_factors", capturing)
        assert twisted_alexander(m, rep).polynomial == L("t^4 - 7*t^2 + 1")
        (b1, b2), = pairs
        assert reductions == [(b1.rows, b1.cols), (b2.rows, b2.cols)]
        assert snf == []

    def test_reduction_skips_zero_products(self, monkeypatch):
        """Inside the Smith reduction, c*a - q*b goes to _zsubmul only when
        q*b is nonzero: where the pivot row has a zero entry the entry is
        only scaled, and a column operation scales its column by a plain
        product.  Over every fifth class of the battery into the groups of
        order <= 6, at d = 1 and 2."""
        from orderlex import linalg

        core, submul = linalg._snf_core, linalg._zsubmul
        inside, calls, zero = [False], [0], []

        def within(rows, cols):
            inside[0] = True
            try:
                return core(rows, cols)
            finally:
                inside[0] = False

        def counting(c, a, q, b):
            if inside[0]:
                calls[0] += 1
                if not (q and b):
                    zero.append((c, a, q, b))
            return submul(c, a, q, b)

        monkeypatch.setattr(linalg, "_snf_core", within)
        monkeypatch.setattr(linalg, "_zsubmul", counting)
        assert every_fifth_class_twisted() == 114 and calls[0] > 0
        assert zero == []

    def test_reduction_drops_emptied_rows(self, monkeypatch):
        """The Smith reduction drops a row once it is empty, so _pivot
        never receives one, over the cases of
        test_reduction_skips_zero_products."""
        from orderlex import linalg

        pivot, searches, empty = linalg._pivot, [0], []

        def checking(rows):
            searches[0] += 1
            empty.extend(r for r in rows if not r)
            return pivot(rows)

        monkeypatch.setattr(linalg, "_pivot", checking)
        assert every_fifth_class_twisted() == 114 and searches[0] > 0
        assert empty == []

    def test_fox_products_per_relator(self, monkeypatch):
        """The Fox blocks of a relator of length L cost at most L - 1
        matrix products, one per letter after the first, whichever
        generators the letters carry: over every class of the battery
        into the groups of order <= 6, at d = 1 and 2."""
        product = RationalMatrix.__mul__
        count = [0]

        def counting(a, b):
            count[0] += 1
            return product(a, b)

        monkeypatch.setattr(RationalMatrix, "__mul__", counting)
        checked = 0
        for _, auto in standard_battery():
            m = MappingTorus(auto.rank, auto)
            bound = sum(len(r) - 1 for r in presentation(m))
            for f in homomorphism_classes(auto).values():
                rep = regular_representation(f)
                for d in (1, 2):
                    count[0] = 0
                    twisted_alexander(m, rep, d_scale=d)
                    assert count[0] <= bound, (auto, f, d)
                    checked += 1
        assert checked == 512

    def test_conjugate_with_denominators(self):
        """The quarter-turn representations of every rank-2 battery map and
        their conjugates by diag(2, 1), whose matrices have denominators,
        have equal twisted polynomials."""
        q = RationalMatrix([[0, -1], [1, 0]])
        conjugate = RationalMatrix([[0, -2], [Fraction(1, 2), 0]])
        # a^0..a^3 for each of the two matrices a
        tables = []
        for a in (q, conjugate):
            tables.append([RationalMatrix.identity(2)])
            for _ in range(3):
                tables[-1].append(tables[-1][-1] * a)
        g = cyclic_group(4)
        checked = 0
        for _, auto in standard_battery():
            if auto.rank != 2:
                continue
            m = MappingTorus(2, auto)
            for f in enumerate_homomorphisms(auto, g):
                # element k of the cyclic group is its generator to the k
                k = [g.index(p) for p in f.fiber_images + (f.stable_image,)]
                plain, scaled = (
                    FiniteRepresentation([a[i] for i in k[:2]], a[k[2]]) for a in tables
                )
                for d in (1, 2, 3):
                    assert twisted_alexander(m, scaled, d) == twisted_alexander(m, plain, d)
                    checked += 1
        assert checked > 0

    def test_invariant_factors_multiply_to_polynomial(self):
        m = fig8()
        res = twisted_alexander(m, z2_regular(m))
        prod = L("1")
        for f in res.invariant_factors:
            prod = prod * f
        assert prod.canonicalize() == res.polynomial.canonicalize()

    def test_identity_monodromy_z2(self):
        # cyclic double cover of F_2 x S^1 along t
        m = MappingTorus(2, identity_automorphism(2))
        res = twisted_alexander(m, z2_regular(m))
        assert res.polynomial == L("t^4 - 2*t^2 + 1")

    def test_wada_minor_matches_bareiss(self, monkeypatch):
        """On every battery class at d_scale 1-3, the fiber minor's
        determinant read as chi_M(t^d) equals the Bareiss determinant of the
        same minor, canonically."""
        pencil = PolynomialMatrix.pencil_char_poly
        minors = []

        def recording(self, block, d):
            out = pencil(self, block, d)
            minors.append((self, out))
            return out

        monkeypatch.setattr(PolynomialMatrix, "pencil_char_poly", recording)
        classes = 0
        for _, auto in standard_battery():
            m = MappingTorus(auto.rank, auto)
            for f in homomorphism_classes(auto).values():
                rep = regular_representation(f)
                classes += 1
                for d in (1, 2, 3):
                    twisted_alexander(m, rep, d)
        assert (classes, len(minors)) == (256, 768)
        for fox, chi in minors:
            n = fox.rows
            minor = PolynomialMatrix([[fox.entry(i, j) for j in range(n)] for i in range(n)])
            assert chi.canonicalize() == minor.det().canonicalize()

    def test_one_polynomial_det_per_twisted_polynomial(self, monkeypatch):
        """The Bareiss determinant serves only det(rep(t) t^d - I)."""
        det = PolynomialMatrix.det
        calls = []

        def counting(self):
            calls.append(self.rows)
            return det(self)

        monkeypatch.setattr(PolynomialMatrix, "det", counting)
        _, auto = standard_battery()[0]
        m = MappingTorus(auto.rank, auto)
        for rep in map(regular_representation, homomorphism_classes(auto).values()):
            for d in (1, 2):
                before = len(calls)
                twisted_alexander(m, rep, d)
                assert calls[before:] == [rep.dimension]

    def test_generators_inverted_once_per_representation(self, monkeypatch):
        m = MappingTorus(2, identity_automorphism(2))
        g = symmetric_group(3)
        f = TorusHomomorphism(g, (g.element(1), g.element(2)), g.identity())
        f.require_well_defined(m.monodromy)
        rep = regular_representation(f)
        generators = rep.fiber_matrices + (rep.stable_matrix,)
        inverted = []
        invert = RationalMatrix._invert

        def counting(self):
            inverted.append(self)
            return invert(self)

        monkeypatch.setattr(RationalMatrix, "_invert", counting)
        first = twisted_alexander(m, rep)
        assert twisted_alexander(m, rep) == first
        assert len(inverted) <= len(generators)
        assert len({id(a) for a in inverted}) == len(inverted)
        assert all(any(a is b for b in generators) for a in inverted)


class TestLemma4:
    def test_rescaling(self):
        m = fig8()
        rep = z2_regular(m)
        reports = lemma4_check(m, rep, (2, 3))
        assert [report["d"] for report in reports] == [2, 3]
        for report in reports:
            assert report["equal"], report

    def test_report_keys(self):
        m = fig8()
        [report] = lemma4_check(m, trivial_representation(2), (2,))
        assert set(report) == {"d", "direct", "rescaled", "equal"}


class TestLemma5:
    def test_trivial_pair(self):
        m = fig8()
        assert lemma5_check(m, [(trivial_representation(2), trivial_representation(2))]) == [True]

    def test_mixed_pair(self):
        m = fig8()
        assert lemma5_check(m, [(trivial_representation(2), z2_regular(m))]) == [True]

    def test_direct_sum_polynomial_is_product(self):
        m = fig8()
        a = trivial_representation(2)
        b = z2_regular(m)
        merged = twisted_alexander(m, a.direct_sum(b)).polynomial
        prod = twisted_alexander(m, a).polynomial * twisted_alexander(m, b).polynomial
        assert merged == prod.canonicalize()

    def test_s3_image_pair(self):
        m = MappingTorus(2, identity_automorphism(2))
        g = symmetric_group(3)
        f = TorusHomomorphism(g, (g.element(1), g.element(2)), g.identity())
        f.require_well_defined(m.monodromy)
        rep = regular_representation(f)
        assert rep.dimension == 6
        assert lemma5_check(m, [(rep, trivial_representation(2))]) == [True]
