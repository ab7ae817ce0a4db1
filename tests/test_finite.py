"""Permutation groups, torus homomorphisms, cover degrees, and finite
representations."""

import hashlib
import itertools
import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from orderlex import finite
from orderlex.autos import figure_eight_monodromy, identity_automorphism, standard_battery
from orderlex.errors import (
    IllDefinedHomomorphismError,
    RepresentationError,
    SingularMatrixError,
)
from orderlex.finite import (
    FiniteGroup,
    FiniteRepresentation,
    TorusHomomorphism,
    cover_degree,
    cyclic_group,
    enumerate_homomorphisms,
    format_cycles,
    homomorphism_classes,
    invert_permutation,
    klein_four_group,
    multiply_permutations,
    parse_cycles,
    regular_representation,
    small_groups_catalog,
    symmetric_group,
    trivial_group,
    trivial_representation,
)
from orderlex.freegroup import FreeEndomorphism
from orderlex.linalg import PolynomialMatrix, RationalMatrix
from orderlex.words import FreeWord, parse_word


def permutation_order(g, a):
    """The order of the element a of g, from its successive powers."""
    power, k = a, 1
    while power != g.identity():
        power, k = multiply_permutations(power, a), k + 1
    return k


def matrix_power(m, k):
    """m^k for k >= 1, by square-and-multiply."""
    out, square = None, m
    while True:
        if k & 1:
            out = square if out is None else out * square
        k >>= 1
        if not k:
            return out
        square = square * square


@pytest.fixture
def matrix_products(monkeypatch):
    """The left factors of the RationalMatrix products made in the test,
    which bound the products of an image closure."""
    calls = []
    product = RationalMatrix.__mul__

    def counting(self, other):
        calls.append(self)
        return product(self, other)

    monkeypatch.setattr(RationalMatrix, "__mul__", counting)
    return calls


def _corner_two(n):
    """All-ones upper triangle with entries (n, 1) = 1 and (n, n) = 2: its
    trace n + 1 exceeds C(n, 1) and its c_0 is 2, so it has infinite order."""
    rows = [[int(j >= i) for j in range(n)] for i in range(n)]
    rows[n - 1][0], rows[n - 1][n - 1] = 1, 2
    return rows


def _cyclotomic_companion(orders):
    """The companion matrix of the product of Phi_k over k in orders; its
    order is the lcm of orders."""
    cyclotomic = {
        3: [1, 1, 1],
        5: [1, 1, 1, 1, 1],
        7: [1, 1, 1, 1, 1, 1, 1],
        8: [1, 0, 0, 0, 1],
        9: [1, 0, 0, 1, 0, 0, 1],
    }
    poly = [1]
    for k in orders:
        out = [0] * (len(poly) + len(cyclotomic[k]) - 1)
        for i, a in enumerate(poly):
            for j, b in enumerate(cyclotomic[k]):
                out[i + j] += a * b
        poly = out
    n = len(poly) - 1
    rows = [[int(i == j + 1) for j in range(n)] for i in range(n)]
    for i in range(n):
        rows[i][n - 1] = -poly[i]
    return RationalMatrix(rows)


class TestCycles:
    def test_parse_identity_forms(self):
        for text in ("()", "e", "id", ""):
            assert parse_cycles(text, 3) == (0, 1, 2)

    def test_parse_transposition(self):
        assert parse_cycles("(1 2)", 3) == (1, 0, 2)

    def test_parse_disjoint(self):
        assert parse_cycles("(1 2)(3 4)", 4) == (1, 0, 3, 2)
        assert parse_cycles(" (1,2) (3 4) ", 4) == (1, 0, 3, 2)

    def test_reject_overlap(self):
        with pytest.raises(ValueError):
            parse_cycles("(1 2)(2 3)", 3)

    def test_round_trip(self):
        g = symmetric_group(4)
        for p in g.elements:
            assert parse_cycles(format_cycles(p), 4) == p

    @pytest.mark.parametrize(
        "text", ["(1 2", "(1 2)(3", "(1 2))", "((1 2)", "(1 2)x", ")(1 2"]
    )
    def test_reject_unbalanced(self, text):
        with pytest.raises(ValueError, match="bad cycle notation"):
            parse_cycles(text, 4)

    @pytest.mark.parametrize(
        "text", ["(a b)", "(+1 2)", "(1_0 2)", "(\u0661 2)", "(1 -2)", "(1.0 2)", "(1 2)(3 x)"]
    )
    def test_reject_non_digit_points(self, text):
        """Points are runs of ASCII digits: no letters, signs, underscores,
        decimal points or non-ASCII digits, which int() would accept."""
        with pytest.raises(ValueError, match="bad cycle notation"):
            parse_cycles(text, 12)

    def test_ascii_points(self):
        assert parse_cycles("(10 2)", 12) == parse_cycles("(2, 10)", 12)
        assert parse_cycles("(10 2)", 12)[9] == 1


class TestGroups:
    @pytest.mark.parametrize(
        "degree, generators",
        [(2.9, [(1.7, 0.2)]), (3, [("1", "2", "0")]), (2, [(True, False)]), (True, [(0,)]),
         ("2", [(1, 0)])],
        ids=["floats", "strings", "bool-points", "bool-degree", "string-degree"],
    )
    def test_non_integer_input_refused(self, degree, generators):
        """The degree and every point are read by operator.index: a float
        is not truncated, a string not parsed and a bool not taken as 0 or 1."""
        with pytest.raises(TypeError):
            FiniteGroup(degree, generators)

    def test_orders(self):
        assert trivial_group().order == 1
        assert cyclic_group(5).order == 5
        assert klein_four_group().order == 4
        assert symmetric_group(3).order == 6
        assert symmetric_group(4).order == 24

    def test_bfs_enumeration_deterministic(self):
        a = symmetric_group(3)
        b = symmetric_group(3)
        assert a.elements == b.elements
        assert a.elements[0] == a.identity()

    def test_element_order(self):
        g = symmetric_group(3)
        orders = sorted(permutation_order(g, p) for p in g.elements)
        assert orders == [1, 2, 2, 2, 3, 3]

    def test_catalog_covers_small_orders(self):
        orders = sorted(g.order for g in small_groups_catalog())
        # every group of order <= 6 up to isomorphism: 1, 2, 3, 4, 4, 5, 6, 6
        assert orders == [1, 2, 3, 4, 4, 5, 6, 6]


class TestHomomorphisms:
    def test_well_defined_requires_conjugation_relation(self):
        theta = figure_eight_monodromy()
        g = cyclic_group(2)
        bad = TorusHomomorphism(g, (g.element(1), g.element(0)), g.element(1))
        assert not bad.is_well_defined(theta)
        with pytest.raises(IllDefinedHomomorphismError):
            bad.require_well_defined(theta)

    def test_image_subgroup(self):
        g = symmetric_group(3)
        f = TorusHomomorphism(g, (g.identity(), g.identity()), g.element(1))
        img = f.image_subgroup()
        assert len(img) == permutation_order(g, g.element(1))

    def test_surjectivity_flag(self):
        g = cyclic_group(3)
        f = TorusHomomorphism(g, (g.identity(), g.identity()), g.element(1))
        assert f.is_surjective()
        f2 = TorusHomomorphism(g, (g.identity(), g.identity()), g.identity())
        assert not f2.is_surjective()

    def test_enumeration_against_abelian_count(self):
        # identity monodromy: any triple of commuting-compatible images works;
        # for an abelian target every triple is valid
        theta = identity_automorphism(2)
        g = cyclic_group(3)
        homs = enumerate_homomorphisms(theta, g)
        assert len(homs) == 27

    def test_enumeration_fig8_z2(self):
        theta = figure_eight_monodromy()
        g = cyclic_group(2)
        homs = enumerate_homomorphisms(theta, g)
        # fiber must die (abelianization forces it); stable letter is free
        assert len(homs) == 2
        for f in homs:
            assert f.fiber_images == (g.identity(), g.identity())


    @pytest.mark.parametrize(
        "image",
        [(0, 2, 1), (0, 1), (0, 1, 2, 3), (0, 0, 1), (1, 2, 3)],
        ids=["odd-permutation", "short", "long", "not-a-permutation", "out-of-range"],
    )
    def test_image_outside_group_rejected(self, image):
        g = cyclic_group(3)
        e = g.identity()
        for fibers, stable in (((e, image), e), ((e, e), image)):
            with pytest.raises(ValueError, match="not an element of the target group"):
                TorusHomomorphism(g, fibers, stable)

    def test_images_given_as_lists(self):
        g = cyclic_group(3)
        f = TorusHomomorphism(g, ([0, 1, 2], list(g.element(1))), list(g.element(2)))
        assert f.fiber_images == (g.identity(), g.element(1))
        assert f.stable_image == g.element(2)

    def test_homomorphism_classes(self):
        theta = figure_eight_monodromy()
        catalog = small_groups_catalog()
        classes = homomorphism_classes(theta)
        every = [f for g in catalog for f in enumerate_homomorphisms(theta, g)]
        assert set(classes) == {f.image_key() for f in every}
        assert all(f.image_key() == key for key, f in classes.items())
        positions = [catalog.index(f.group) for f in classes.values()]
        assert positions == sorted(positions)

    def test_classes_build_no_group_beyond_the_catalog(self, monkeypatch):
        """Over the battery, homomorphism_classes builds the catalog's
        groups and no other: image_key() and regular_representation act on
        the image's element list without a second FiniteGroup."""
        built = []
        init = FiniteGroup.__init__

        def counting(self, *args, **kwargs):
            built.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(FiniteGroup, "__init__", counting)
        catalog = len(small_groups_catalog())
        for label, auto in standard_battery():
            built.clear()
            classes = homomorphism_classes(auto)
            for f in classes.values():
                regular_representation(f)
            assert len(built) == catalog, label


def reference_relations_hold(monodromy, fibers, stable):
    """t x_i t^-1 = theta(x_i) for the permutations fibers and stable, by
    permutation products alone: no group, table or TorusHomomorphism."""
    tinv = invert_permutation(stable)
    for x, image in zip(fibers, monodromy.images):
        acc = tuple(range(len(stable)))
        for g, s in image.letters:
            y = fibers[g - 1]
            acc = multiply_permutations(acc, y if s > 0 else invert_permutation(y))
        if multiply_permutations(multiply_permutations(stable, x), tinv) != acc:
            return False
    return True


def reference_homomorphisms(monodromy, group):
    """(fiber images, stable image) of every candidate map that passes
    reference_relations_hold, in product order."""
    n = monodromy.rank
    return [
        (combo[:n], combo[n])
        for combo in itertools.product(group.elements, repeat=n + 1)
        if reference_relations_hold(monodromy, combo[:n], combo[n])
    ]


def assert_matches_reference(monodromy, group):
    got = enumerate_homomorphisms(monodromy, group)
    want = reference_homomorphisms(monodromy, group)
    assert all(f.group is group for f in got)
    assert [(f.fiber_images, f.stable_image) for f in got] == want


def reference_enumerate(monodromy, group):
    """(fiber images, stable image) of every map, by the full scan:
    theta(x_i) evaluated over a signed dict per fiber tuple, then every
    stable image t tried against every pair, in product order."""
    table = group._product_table()
    inverse = [group._inverse(i) for i in range(group.order)]
    found = []
    for fibers in itertools.product(range(group.order), repeat=monodromy.rank):
        signed = {}
        for g, x in enumerate(fibers, 1):
            signed[g, 1], signed[g, -1] = x, inverse[x]
        targets = []
        for image in monodromy.images:
            acc = 0
            for letter in image.letters:
                acc = table[acc][signed[letter]]
            targets.append(acc)
        for t, row in enumerate(table):
            if all(row[x] == table[y][t] for x, y in zip(fibers, targets)):
                found.append((tuple(group.elements[x] for x in fibers), group.elements[t]))
    return found


BATTERY = standard_battery()


class TestEnumeration:
    """enumerate_homomorphisms against the candidate-by-candidate search,
    element for element and in product order."""

    @pytest.mark.parametrize("label, auto", BATTERY, ids=[label for label, _ in BATTERY])
    def test_battery_into_catalog(self, label, auto):
        for group in small_groups_catalog():
            assert_matches_reference(auto, group)

    @pytest.mark.parametrize(
        "name, degree, generators, order",
        [
            ("D4", 4, ["(1 2 3 4)", "(2 4)"], 8),
            ("D6", 6, ["(1 2 3 4 5 6)", "(2 6)(3 5)"], 12),
            ("A4", 4, ["(1 2 3)", "(2 3 4)"], 12),
        ],
        ids=["D4", "D6", "A4"],
    )
    def test_battery_into_groups_beyond_the_catalog(self, name, degree, generators, order):
        group = FiniteGroup(degree, [parse_cycles(c, degree) for c in generators], name=name)
        assert group.order == order
        for _, auto in BATTERY:
            assert_matches_reference(auto, group)

    @settings(max_examples=25, deadline=None)
    @given(
        rank=st.sampled_from([2, 3]),
        factors=st.lists(
            st.tuples(st.integers(0, 100), st.integers(-2, 2)), min_size=1, max_size=3
        ),
        group=st.sampled_from(small_groups_catalog()),
    )
    def test_composites_and_powers(self, rank, factors, group):
        autos = [auto for _, auto in BATTERY if auto.rank == rank]
        monodromy = identity_automorphism(rank)
        for i, k in factors:
            monodromy = monodromy.compose(autos[i % len(autos)].power(k))
        assert_matches_reference(monodromy, group)

    @pytest.mark.parametrize("name, degree, generators", [
        ("catalog", None, None),
        ("D6", 6, ["(1 2 3 4 5 6)", "(2 6)(3 5)"]),
        ("A4", 4, ["(1 2 3)", "(2 3 4)"]),
        ("Z12", 12, ["(1 2 3 4 5 6 7 8 9 10 11 12)"]),
    ], ids=["catalog", "D6", "A4", "Z12"])
    def test_conjugator_lookup_against_the_full_scan(self, name, degree, generators):
        """Trying only the t with t f(x_1) = f(theta(x_1)) t finds the maps
        the scan over every t finds, in the same order; at rank 0, where
        there is no x_1, every t."""
        groups = (small_groups_catalog() if degree is None else
                  [FiniteGroup(degree, [parse_cycles(c, degree) for c in generators])])
        for auto in [auto for _, auto in BATTERY] + [FreeEndomorphism.identity(0)]:
            for group in groups:
                got = [(f.fiber_images, f.stable_image)
                       for f in enumerate_homomorphisms(auto, group)]
                assert got == reference_enumerate(auto, group)

    def test_products_bounded_by_the_table(self, monkeypatch):
        """One call makes the |G|^2 products of its multiplication table
        and no other, whatever the number of candidates."""
        group = symmetric_group(3)
        auto = next(auto for _, auto in BATTERY if auto.rank == 3)
        products = []
        multiply = finite.multiply_permutations

        def counting(p, q):
            products.append((p, q))
            return multiply(p, q)

        monkeypatch.setattr(finite, "multiply_permutations", counting)
        homs = enumerate_homomorphisms(auto, group)
        assert homs
        assert len(products) <= group.order ** 2


def reference_image(f):
    """image_subgroup() by permutation products: breadth-first from the
    identity over the images of the fiber generators and the stable letter."""
    gens = list(f.fiber_images) + [f.stable_image]
    elems = [f.group.identity()]
    for cur in elems:
        for g in gens:
            nxt = multiply_permutations(cur, g)
            if nxt not in elems:
                elems.append(nxt)
    return elems


def reference_image_key(f):
    """image_key() by permutation products: each generator image's action
    by left multiplication on reference_image(f)."""
    elems = reference_image(f)
    idx = {e: i for i, e in enumerate(elems)}

    def as_perm(g):
        return tuple(idx[multiply_permutations(g, h)] for h in elems)

    return tuple(map(as_perm, f.fiber_images)), as_perm(f.stable_image)


def assert_keys_match_reference(monodromy, groups):
    """Every map's key and image equal the reference's, and
    homomorphism_classes-style deduplication keeps the same representatives
    in the same order."""
    classes, want = {}, {}
    for group in groups:
        for f in enumerate_homomorphisms(monodromy, group):
            key = reference_image_key(f)
            assert f.image_key() == key
            assert f.image_subgroup() == reference_image(f)
            classes.setdefault(f.image_key(), f)
            want.setdefault(key, f)
    assert list(classes) == list(want)
    assert list(classes.values()) == list(want.values())
    return classes


DIHEDRAL_AND_ALTERNATING = [
    ("D4", 4, ["(1 2 3 4)", "(2 4)"], 8),
    ("D6", 6, ["(1 2 3 4 5 6)", "(2 6)(3 5)"], 12),
    ("A4", 4, ["(1 2 3)", "(2 3 4)"], 12),
]


class TestImageKey:
    """image_key() off the group's product table against the reference by
    permutation products, and what the table costs."""

    @pytest.mark.parametrize("label, auto", BATTERY, ids=[label for label, _ in BATTERY])
    def test_battery_into_catalog(self, label, auto):
        classes = assert_keys_match_reference(auto, small_groups_catalog())
        assert list(homomorphism_classes(auto)) == list(classes)

    @pytest.mark.parametrize(
        "name, degree, generators, order", DIHEDRAL_AND_ALTERNATING,
        ids=[case[0] for case in DIHEDRAL_AND_ALTERNATING],
    )
    def test_battery_into_groups_beyond_the_catalog(self, name, degree, generators, order):
        group = FiniteGroup(degree, [parse_cycles(c, degree) for c in generators], name=name)
        assert group.order == order
        for _, auto in BATTERY:
            assert_keys_match_reference(auto, [group])

    @settings(max_examples=15, deadline=None)
    @given(
        rank=st.sampled_from([2, 3]),
        factors=st.lists(
            st.tuples(st.integers(0, 100), st.integers(-2, 2)), min_size=1, max_size=3
        ),
    )
    def test_composites(self, rank, factors):
        autos = [auto for _, auto in BATTERY if auto.rank == rank]
        monodromy = identity_automorphism(rank)
        for i, k in factors:
            monodromy = monodromy.compose(autos[i % len(autos)].power(k))
        classes = assert_keys_match_reference(monodromy, small_groups_catalog())
        assert list(homomorphism_classes(monodromy)) == list(classes)

    def test_no_products_after_enumeration(self, monkeypatch):
        """Enumeration fills the product table, so the keys, images and
        surjectivity of the maps it returns make no permutation product."""
        homs = [f for _, auto in BATTERY for group in small_groups_catalog()
                for f in enumerate_homomorphisms(auto, group)]
        products = []
        multiply = finite.multiply_permutations

        def counting(p, q):
            products.append((p, q))
            return multiply(p, q)

        monkeypatch.setattr(finite, "multiply_permutations", counting)
        for f in homs:
            f.image_key()
            f.image_subgroup()
            f.is_surjective()
        assert products == []

    def test_products_bounded_on_a_large_group(self, monkeypatch):
        """Into S7, of order 5040, a map with image Z2 reads only the table
        entries its key needs: at most the 2 |image| (rank + 1) products of
        the search and the key by permutation products, never a row."""
        group = symmetric_group(7)
        e = group.identity()
        f = TorusHomomorphism(group, (e, e), parse_cycles("(1 2)", 7))
        products = []
        multiply = finite.multiply_permutations

        def counting(p, q):
            products.append((p, q))
            return multiply(p, q)

        monkeypatch.setattr(finite, "multiply_permutations", counting)
        rep = regular_representation(f)
        assert rep.dimension == 2
        assert 0 < len(products) <= 2 * 2 * (f.rank + 1)


class TestRelationCheck:
    """is_well_defined on element indices against reference_relations_hold,
    and the table entries it reads."""

    def test_every_battery_candidate_on_fresh_groups(self):
        """Every candidate map of the battery into the catalog, each on a
        new copy of its group, whose product table is unfilled."""
        checked = kept = 0
        for _, auto in BATTERY:
            n = auto.rank
            for group in small_groups_catalog():
                for combo in itertools.product(group.elements, repeat=n + 1):
                    fresh = FiniteGroup(group.degree, group.generators)
                    f = TorusHomomorphism(fresh, combo[:n], combo[n])
                    want = reference_relations_hold(auto, combo[:n], combo[n])
                    assert f.is_well_defined(auto) is want, combo
                    checked += 1
                    kept += want
        assert checked == 17970 and 0 < kept < checked

    def test_products_bounded_on_a_large_group(self, monkeypatch):
        """Into an unfilled S7, of order 5040, the check reads at most one
        table entry per letter of theta(x_i) and two per generator, and
        makes each of their permutation products once.  The maps are, per
        battery member, its map into S3 with the largest image and that
        map with its stable image changed so that a relation fails, moved
        into S7; figure-eight with image Z2 needs only 3 entries."""
        products = []
        multiply = finite.multiply_permutations

        def counting(p, q):
            products.append((p, q))
            return multiply(p, q)

        def pad(p):
            return tuple(p) + tuple(range(3, 7))

        s3 = symmetric_group(3)
        cases = []
        for _, auto in BATTERY:
            f = max(enumerate_homomorphisms(auto, s3), key=lambda f: len(f.image_subgroup()))
            fibers = tuple(map(pad, f.fiber_images))
            cases.append((auto, fibers, pad(f.stable_image), True))
            bad = [t for t in s3.elements if not reference_relations_hold(auto, f.fiber_images, t)]
            cases += [(auto, fibers, pad(t), False) for t in bad[:1]]
        assert sum(not ok for *_, ok in cases) > 0
        e = tuple(range(7))
        cases.append((figure_eight_monodromy(), (e, e), parse_cycles("(1 2)", 7), True))

        for auto, fibers, stable, ok in cases:
            f = TorusHomomorphism(symmetric_group(7), fibers, stable)
            products.clear()
            with monkeypatch.context() as patch:
                patch.setattr(finite, "multiply_permutations", counting)
                assert f.is_well_defined(auto) is ok
            bound = sum(len(image) for image in auto.images) + 2 * auto.rank
            assert 0 < len(products) <= bound, (auto, len(products))
            assert len(set(products)) == len(products)
        assert len(products) == 3

    def test_rank_mismatch_raises(self):
        """The check zips fiber images with theta's images, so a map of the
        wrong rank is refused rather than compared on a prefix."""
        g = cyclic_group(2)
        f = TorusHomomorphism(g, (g.identity(),) * 2, g.element(1))
        for rank in (1, 3):
            with pytest.raises(ValueError, match="rank mismatch"):
                f.is_well_defined(identity_automorphism(rank))


class TestCoverDegree:
    def test_fig8_z2(self):
        g = cyclic_group(2)
        f = TorusHomomorphism(g, (g.identity(), g.identity()), g.element(1))
        d, w = cover_degree(f)
        assert d == 2
        assert w == FreeWord.empty()

    def test_degree_one_when_stable_in_fiber_image(self):
        g = cyclic_group(2)
        f = TorusHomomorphism(g, (g.element(1), g.identity()), g.element(1))
        d, w = cover_degree(f)
        assert d == 1
        assert w == parse_word("a", 2)  # shortlex witness with f(w) = f(t)^-1

    def test_degree_three(self):
        g = cyclic_group(3)
        f = TorusHomomorphism(g, (g.identity(), g.identity()), g.element(1))
        d, w = cover_degree(f)
        assert d == 3
        assert w == FreeWord.empty()


def _signed_permutation(perm, signs):
    """The matrix sending basis vector j to signs[j] times basis vector
    perm[j]."""
    n = len(perm)
    return RationalMatrix(
        [[signs[j] if perm[j] == i else 0 for j in range(n)] for i in range(n)]
    )


def reference_signed_closure(generators):
    """The group generated by signed permutations, each a tuple of the
    signed images +-(j + 1) of the basis vectors j, by composing tuples."""
    n = len(generators[0])

    def compose(p, q):  # p after q
        return tuple((1 if y > 0 else -1) * p[abs(y) - 1] for y in q)

    elements = [tuple(range(1, n + 1))]
    seen = set(elements)
    for cur in elements:
        for g in generators:
            nxt = compose(cur, g)
            if nxt not in seen:
                seen.add(nxt)
                elements.append(nxt)
    return elements


def _hyperoctahedral_generators(n):
    """A transposition, an n-cycle and one sign change: they generate the
    2^n n! signed permutation matrices of dimension n."""
    swap = (1, 0) + tuple(range(2, n))
    cycle = tuple(range(1, n)) + (0,)
    ones = (1,) * n
    return [
        _signed_permutation(swap, ones),
        _signed_permutation(cycle, ones),
        _signed_permutation(tuple(range(n)), (-1,) + ones[1:]),
    ]


ROTATION = [[0, -1], [1, 0]]
REFLECTION = [[1, 0], [0, -1]]
# left multiplication by i and by j on the quaternions, basis 1, i, j, k
QUATERNION_I = [[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]]
QUATERNION_J = [[0, 0, -1, 0], [0, 0, 0, 1], [1, 0, 0, 0], [0, -1, 0, 0]]


def _conjugate(rows, by):
    p = RationalMatrix(by)
    return p * RationalMatrix(rows) * p.inverse()


class TestRepresentations:
    def test_trivial(self):
        rep = trivial_representation(2)
        assert rep.dimension == 1
        a, b = rep.fiber_matrices
        assert (a * b * rep.stable_matrix.inverse()).is_identity()  # a b T

    def test_regular_dimension_is_image_order(self):
        g = symmetric_group(3)
        f = TorusHomomorphism(g, (g.identity(), g.identity()), g.element(1))
        rep = regular_representation(f)
        assert rep.dimension == permutation_order(g, g.element(1))

    def test_regular_matrices_are_permutations(self):
        g = cyclic_group(3)
        f = TorusHomomorphism(g, (g.identity(), g.identity()), g.element(1))
        rep = regular_representation(f)
        m = rep.stable_matrix
        for j in range(3):
            col = [m.entry(i, j) for i in range(3)]
            assert sorted(col) == [0, 0, 1]

    def test_satisfies_relations(self):
        theta = figure_eight_monodromy()
        g = cyclic_group(2)
        f = TorusHomomorphism(g, (g.identity(), g.identity()), g.element(1))
        assert regular_representation(f).satisfies_relations(theta)

    def test_satisfies_relations_inverts_no_stable_matrix(self, monkeypatch):
        """The relations are tested as rho(t) rho(x_i) = rho(theta(x_i)) rho(t):
        over every figure-eight class, no stable matrix is inverted, and a
        map that breaks a relation is refused."""
        inverted = []
        invert = RationalMatrix._invert

        def counting(self):
            inverted.append(self)
            return invert(self)

        theta = figure_eight_monodromy()
        reps = [regular_representation(f) for f in homomorphism_classes(theta).values()]
        g = cyclic_group(2)
        bad = regular_representation(TorusHomomorphism(g, (g.element(1), g.identity()), g.element(1)))
        monkeypatch.setattr(RationalMatrix, "_invert", counting)
        assert all(rep.satisfies_relations(theta) for rep in reps)
        assert not bad.satisfies_relations(theta)
        assert not any(m is rep.stable_matrix for m in inverted for rep in reps + [bad])

    @pytest.mark.parametrize(
        "rows", [[[0]], [[1, 2], [2, 4]], [[0, 1], [0, 0]]], ids=["zero", "rank-1", "nilpotent"]
    )
    def test_rejects_singular_generator(self, rows):
        ident = RationalMatrix.identity(len(rows))
        with pytest.raises(RepresentationError, match="generator matrix is singular"):
            FiniteRepresentation((ident, RationalMatrix(rows)), ident)

    @pytest.mark.parametrize(
        "fibers, stable, order",
        [
            ([ROTATION, [[1, 0], [0, 1]]], ROTATION, 4),
            ([ROTATION, REFLECTION], [[1, 0], [0, 1]], 8),
            ([QUATERNION_I, QUATERNION_J], QUATERNION_I, 8),
            (_hyperoctahedral_generators(3)[:2], _hyperoctahedral_generators(3)[2], 48),
            ([_conjugate(ROTATION, [[2, 0], [0, 1]]), _conjugate(REFLECTION, [[2, 0], [0, 1]])],
             [[1, 0], [0, 1]], 8),
        ],
        ids=["cyclic", "dihedral", "quaternion", "signed-permutations", "conjugate"],
    )
    def test_accepts_finite_images(self, fibers, stable, order):
        """The image is accepted and the closure lists each of its elements
        once; the conjugate of the dihedral group by diag(2, 1) has entries
        2 and 1/2 yet integer traces."""
        mats = [m if isinstance(m, RationalMatrix) else RationalMatrix(m)
                for m in fibers + [stable]]
        rep = FiniteRepresentation(mats[:-1], mats[-1])
        assert len(finite._close_image(mats, rep.dimension)) == order

    def test_signed_permutation_order_is_exact(self):
        """The closure of one signed permutation matrix lists exactly k
        elements, k the least with m^k = I, for every signed permutation
        matrix up to dimension 3 and sampled ones of dimensions 4 to 6."""

        def signed_permutations(n):
            for perm in itertools.permutations(range(n)):
                for signs in itertools.product((1, -1), repeat=n):
                    yield perm, signs

        rng = random.Random(6)
        cases = [c for n in (1, 2, 3) for c in signed_permutations(n)]
        for n in (4, 5, 6):
            cases += rng.sample(list(signed_permutations(n)), 40)
        for perm, signs in cases:
            m = _signed_permutation(perm, signs)
            acc, k = m, 1
            while not acc.is_identity():
                acc, k = acc * m, k + 1
            assert len(finite._close_image([m], m.rows)) == k, (perm, signs)

    def test_rejects_infinite_order(self):
        shear = RationalMatrix([[1, 1], [0, 1]])
        ident = RationalMatrix.identity(2)
        with pytest.raises(RepresentationError, match="image not finite within 10000 elements"):
            FiniteRepresentation((ident, ident), shear)

    @pytest.mark.parametrize(
        "rows",
        [_corner_two(4), _corner_two(8), _corner_two(12), [[2, 1], [1, 1]], [[1, 1], [0, 1]]]
        + [[[int(j in (i, i + 1)) for j in range(n)] for i in range(n)] for n in (4, 8, 12)],
        ids=["corner-4", "corner-8", "corner-12", "figure-eight-homology", "shear",
             "jordan-4", "jordan-8", "jordan-12"],
    )
    def test_rejects_infinite_order_without_powers(self, matrix_products, rows):
        """The first product with a generator of trace above the dimension
        (the corners and the figure-eight homology) or of trace equal to it
        but not the identity (the shear and the Jordan blocks) ends the
        closure: at most rank + 1 products are made."""
        ident = RationalMatrix.identity(len(rows))
        with pytest.raises(RepresentationError, match="image not finite within"):
            FiniteRepresentation((RationalMatrix(rows), ident), ident)
        assert len(matrix_products) <= 2 + 1

    def test_order_certification_makes_no_polynomial_det(self, monkeypatch):
        """Certifying an image computes no determinant over Q[t, 1/t]."""
        calls = []
        det = PolynomialMatrix.det

        def counting(m):
            calls.append(m)
            return det(m)

        monkeypatch.setattr(PolynomialMatrix, "det", counting)
        eye = RationalMatrix.identity(2)
        FiniteRepresentation((RationalMatrix(ROTATION), eye), eye)
        for n in (4, 8, 12):
            jordan = [[int(j in (i, i + 1)) for j in range(n)] for i in range(n)]
            eye = RationalMatrix.identity(n)
            with pytest.raises(RepresentationError, match="image not finite"):
                FiniteRepresentation((RationalMatrix(jordan), eye), eye)
        assert calls == []

    @pytest.mark.parametrize(
        "orders, order",
        [((8, 3, 5, 7), 840), ((8, 9, 5, 7), 2520)],
        ids=["order-840", "order-2520"],
    )
    def test_cyclic_companion_image(self, matrix_products, orders, order):
        """The companion matrix of prod Phi_k generates a cyclic image of
        order lcm(k), closed in exactly that many products; no bound on
        the order of one generator remains below the element limit."""
        m = _cyclotomic_companion(orders)
        eye = RationalMatrix.identity(m.rows)
        FiniteRepresentation((m, eye), eye)
        assert len(matrix_products) == order

    def test_refuses_image_beyond_the_limit(self):
        """The 46080 signed permutation matrices of dimension 6 form a
        finite group past the element limit, refused like an infinite one."""
        gens = _hyperoctahedral_generators(6)
        with pytest.raises(RepresentationError, match="image not finite within 10000 elements"):
            FiniteRepresentation(gens[:2], gens[2])

    @settings(max_examples=40, deadline=None)
    @given(
        data=st.data(),
        n=st.integers(1, 4),
        count=st.integers(1, 3),
    )
    def test_conjugated_signed_permutations(self, data, n, count):
        """Signed permutation generators conjugated by a random invertible
        rational matrix are accepted, and their closure has as many
        elements as the reference closure on signed tuples; one more
        generator, a conjugated non-identity unipotent, is refused."""
        tuples = [
            tuple(s * (p + 1) for p, s in zip(
                data.draw(st.permutations(range(n))),
                data.draw(st.lists(st.sampled_from((1, -1)), min_size=n, max_size=n))))
            for _ in range(count)
        ]
        entries = st.fractions(min_value=-3, max_value=3, max_denominator=3)
        p = RationalMatrix(data.draw(st.lists(
            st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n)))
        try:
            pinv = p.inverse()
        except SingularMatrixError:
            assume(False)
        gens = [p * _signed_permutation([abs(x) - 1 for x in g], [x // abs(x) for x in g]) * pinv
                for g in tuples]
        FiniteRepresentation(gens[1:], gens[0])
        assert len(finite._close_image(gens, n)) == len(reference_signed_closure(tuples))
        if n > 1:
            i, j = data.draw(st.sampled_from([(i, j) for i in range(n) for j in range(n) if i != j]))
            rows = [[int(a == b) + int((a, b) == (i, j)) for b in range(n)] for a in range(n)]
            unipotent = p * RationalMatrix(rows) * pinv
            with pytest.raises(RepresentationError, match="image not finite"):
                FiniteRepresentation(gens[1:] + [unipotent], gens[0])

    def test_direct_sum_certifies_nothing(self, monkeypatch, capsys, fig8_manifest_path):
        """No closure runs inside regular_representation,
        trivial_representation or direct_sum: verify lemma5 closes only the
        image of the manifest's explicit representation, once, though it
        builds direct sums of every pair."""
        from orderlex import cli

        close = finite._close_image
        direct_sum = FiniteRepresentation.direct_sum
        closed, sums = [], []

        def counting(generators, n):
            closed.append(n)
            return close(generators, n)

        def recorded(self, other):
            sums.append(direct_sum(self, other))
            return sums[-1]

        monkeypatch.setattr(finite, "_close_image", counting)
        monkeypatch.setattr(FiniteRepresentation, "direct_sum", recorded)
        for f in homomorphism_classes(figure_eight_monodromy()).values():
            regular_representation(f).direct_sum(trivial_representation(2))
        assert sums and closed == []
        sums.clear()
        assert cli.main(["verify", "lemma5", fig8_manifest_path, "--json"]) == 0
        capsys.readouterr()
        assert sums and closed == [2]

    def test_direct_sum_of_accepted_images(self):
        """Images of orders 840 and 9 each pass; their direct sum, of order
        2520, passes with them, as every subgroup of a product of finite
        groups is finite."""
        a, b = _cyclotomic_companion((8, 3, 5, 7)), _cyclotomic_companion((9,))
        left = FiniteRepresentation((a, RationalMatrix.identity(a.rows)), a)
        right = FiniteRepresentation((b, RationalMatrix.identity(b.rows)), b)
        s = left.direct_sum(right)
        assert s.dimension == a.rows + b.rows
        assert matrix_power(s.stable_matrix, 2520).is_identity()
        assert not matrix_power(s.stable_matrix, 840).is_identity()

    def test_direct_sum_dimensions(self):
        a = trivial_representation(2)
        g = cyclic_group(2)
        f = TorusHomomorphism(g, (g.identity(), g.identity()), g.element(1))
        b = regular_representation(f)
        s = a.direct_sum(b)
        assert s.dimension == 3
        one = RationalMatrix.identity(3)
        assert s.fiber_matrices == (one, one)
        assert one * s.stable_matrix == RationalMatrix([[1, 0, 0], [0, 0, 1], [0, 1, 0]])


def _order_digest(items):
    return hashlib.sha256(repr(items).encode()).hexdigest()[:16]


class TestElementOrder:
    """The breadth-first element order is pinned: manifests name elements
    by index, so every group and image must list its elements in the same
    order from one version to the next."""

    CATALOG = {
        "1": "78fce9491f4b0e3b", "Z2": "6df3ef58aaac2aff", "Z3": "276126cb1df8f2b8",
        "Z4": "6fcb67ca35502e18", "V4": "a30147bc1e4552f2", "Z5": "ce50ee4a07ae9219",
        "Z6": "3c9401c1366fe0d2", "S3": "7c30c8a59f181abd",
    }
    BEYOND = {"D4": "600ffba88abe28c1", "D6": "36790e5677c002dc", "A4": "7da206576da3eb5f"}

    def test_catalog(self):
        assert {g.name: _order_digest(g.elements) for g in small_groups_catalog()} == self.CATALOG

    @pytest.mark.parametrize(
        "name, degree, generators, order", DIHEDRAL_AND_ALTERNATING,
        ids=[case[0] for case in DIHEDRAL_AND_ALTERNATING],
    )
    def test_groups_beyond_the_catalog(self, name, degree, generators, order):
        group = FiniteGroup(degree, [parse_cycles(c, degree) for c in generators])
        assert group.order == order
        assert _order_digest(group.elements) == self.BEYOND[name]

    def test_symmetric_group_of_degree_seven(self):
        group = symmetric_group(7)
        assert group.order == 5040
        assert _order_digest(group.elements) == "e67684283eb64459"

    def test_signed_permutation_image(self):
        """The closure of a representation's image skips the identity and a
        repeated generator, and lists the 48 signed permutation matrices of
        dimension 3 in a fixed order."""
        swap, cycle, sign = _hyperoctahedral_generators(3)
        gens = [swap, RationalMatrix.identity(3), cycle, swap, sign]
        elements = finite._close_image(gens, 3)
        assert len(elements) == 48
        entries = [[[str(m.entry(i, j)) for j in range(3)] for i in range(3)] for m in elements]
        assert _order_digest(entries) == "5e2f3a6b966b5fcf"
