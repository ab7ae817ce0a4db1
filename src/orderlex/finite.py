"""Finite permutation groups, homomorphisms out of a mapping-torus group,
and matrix representations of that group over Q.

Permutations are tuples p of length degree with p[i] = image of point i
(0-based); a product p q applies q first.  Group elements are enumerated
breadth-first from the identity in generator order, which makes every
derived object (indices, regular representations) reproducible.  After
parsing, only FiniteGroup handles a permutation: a homomorphism's relation
check, image, Schreier graph and cover degree all read element indices off
the group's product table.  One breadth-first closure, _closure, lists a
group's permutations, walks the table for an image or a Schreier graph,
and closes the image of a matrix representation.
"""

from __future__ import annotations

import itertools
import re

from functools import cached_property
from math import lcm

from .errors import (
    EnumerationLimitError,
    IllDefinedHomomorphismError,
    RepresentationError,
    SingularMatrixError,
)
from .laurent import _integer, _positive
from .linalg import RationalMatrix
from .words import _SPACE, FreeWord

DEFAULT_ELEMENT_LIMIT = 10000
# elements x degree: the points an enumerated group keeps, about 80 MB
POINT_LIMIT = 10 ** 7


def multiply_permutations(p, q):
    """(p * q)(x) = p(q(x))."""
    return tuple([p[i] for i in q])


def invert_permutation(p):
    out = [0] * len(p)
    for i, x in enumerate(p):
        out[x] = i
    return tuple(out)


def _check_permutation(p, degree):
    p = tuple(map(_integer, p))
    if len(p) != degree or sorted(p) != list(range(degree)):
        raise ValueError(f"not a permutation of degree {degree}: {p!r}")
    return p


def parse_cycles(text, degree):
    """Parse disjoint cycle notation like "(1 2)(3 4)"; "()" is the identity.
    Points are runs of ASCII digits, separated by ASCII whitespace (words._SPACE,
    which is what the pattern's class matches under re.ASCII) or commas."""
    out = list(range(degree))
    seen = set()
    body = text.strip(_SPACE)
    if body in ("", "()", "e", "id"):
        return tuple(out)
    if not re.fullmatch(r"(\s*\([0-9,\s]*\))+", body, re.ASCII):
        raise ValueError(f"bad cycle notation: {text!r}")
    for chunk in re.findall(r"\(([0-9,\s]*)\)", body, re.ASCII):
        items = chunk.replace(",", " ").split()
        cycle = []
        for item in items:
            k = int(item)
            if not 1 <= k <= degree:
                raise ValueError(f"point {k} out of range 1..{degree}")
            if k - 1 in seen:
                raise ValueError(f"point {k} repeated; cycles must be disjoint")
            seen.add(k - 1)
            cycle.append(k - 1)
        for i, point in enumerate(cycle):
            out[point] = cycle[(i + 1) % len(cycle)]
    return tuple(out)


def format_cycles(p):
    """Disjoint cycle notation with 1-based points; identity is "()"."""
    n = len(p)
    seen = [False] * n
    parts = []
    for start in range(n):
        if seen[start] or p[start] == start:
            seen[start] = True
            continue
        cycle = [start]
        seen[start] = True
        cur = p[start]
        while cur != start:
            cycle.append(cur)
            seen[cur] = True
            cur = p[cur]
        parts.append("(" + " ".join(str(x + 1) for x in cycle) + ")")
    return "".join(parts) if parts else "()"


def _closure(start, step, admit=None):
    """Everything reachable from start, breadth-first: step(x) lists the
    neighbours of x in generator order, and each one not met before is
    kept, in the order met.  admit(y, count), when given, sees each new y
    before it is kept, count the number kept so far, and may raise to end
    the closure."""
    kept = [start]
    seen = {start}
    for cur in kept:  # also visits the items appended below
        for nxt in step(cur):
            if nxt not in seen:
                if admit is not None:
                    admit(nxt, len(kept))
                seen.add(nxt)
                kept.append(nxt)
    return kept


class FiniteGroup:
    """A permutation group with a fixed, reproducible element order.

    The group owns one product table on element indices: entry (i, j) is
    index(elements[i] * elements[j]).  An entry costs one permutation
    product the first time it is read, and a row is allocated when the
    first of its entries is, so a hom into a large group whose image is
    small never fills, or allocates, |G|^2 entries.
    """

    def __init__(self, degree, generators, name=None):
        """Enumerates the elements; raises EnumerationLimitError beyond
        DEFAULT_ELEMENT_LIMIT elements or POINT_LIMIT stored points."""
        self.degree = degree = _positive(degree, "degree")
        self.generators = gens = [_check_permutation(g, degree) for g in generators]
        self.name = name

        def admit(p, count):
            if count >= DEFAULT_ELEMENT_LIMIT:
                raise EnumerationLimitError(
                    f"group enumeration exceeded {DEFAULT_ELEMENT_LIMIT} elements"
                )
            if (count + 1) * degree > POINT_LIMIT:
                raise EnumerationLimitError(
                    f"group enumeration exceeded {POINT_LIMIT} points "
                    f"(elements x degree)"
                )

        self.elements = _closure(
            tuple(range(degree)), lambda p: [multiply_permutations(p, g) for g in gens], admit
        )
        self._index = {g: i for i, g in enumerate(self.elements)}
        self._rows = [None] * len(self.elements)
        self._filled = False

    def _row(self, i, columns):
        """Row i of the product table, its entries at columns filled."""
        row = self._rows[i]
        if row is None:
            row = self._rows[i] = [None] * len(self._rows)
        if not self._filled:
            a = self.elements[i]
            for j in columns:
                if row[j] is None:
                    row[j] = self._index[multiply_permutations(a, self.elements[j])]
        return row

    def _inverse(self, i):
        """The index of the inverse of element i."""
        return self._index[invert_permutation(self.elements[i])]

    def _walk(self, gens):
        """The indices reachable from the identity, breadth-first over the
        element indices gens in order, and the table row of each, its
        entries at gens filled."""
        rows = []

        def step(i):
            row = self._row(i, gens)
            rows.append(row)
            return [row[g] for g in gens]

        return _closure(0, step), rows  # the identity, first in BFS order

    def _product_table(self):
        """The product table as a list of rows, every entry filled."""
        if not self._filled:
            for i in range(self.order):
                self._row(i, range(self.order))
            self._filled = True
        return self._rows

    @property
    def order(self):
        return len(self.elements)

    def identity(self):
        return self.elements[0]

    def __contains__(self, p):
        return p in self._index

    def index(self, p):
        try:
            return self._index[p]
        except KeyError:
            raise ValueError(f"{p!r} is not an element of the group") from None

    def element(self, i):
        return self.elements[i]

    def __eq__(self, other):
        return (
            isinstance(other, FiniteGroup)
            and self.degree == other.degree
            and self.elements == other.elements
        )

    def __hash__(self):
        return hash((self.degree, tuple(self.elements)))

    def __repr__(self):
        label = self.name or f"degree {self.degree}"
        return f"FiniteGroup({label}, order {self.order})"


def trivial_group():
    return FiniteGroup(1, [(0,)], name="1")


def cyclic_group(n):
    n = _positive(n, "order")
    if n == 1:
        return trivial_group()
    shift = tuple((i + 1) % n for i in range(n))
    return FiniteGroup(n, [shift], name=f"Z{n}")


def klein_four_group():
    return FiniteGroup(4, [(1, 0, 3, 2), (2, 3, 0, 1)], name="V4")


def symmetric_group(n):
    if n < 2:
        return trivial_group()
    swap = (1, 0) + tuple(range(2, n))
    cycle = tuple(range(1, n)) + (0,)
    gens = [swap] if n == 2 else [swap, cycle]
    return FiniteGroup(n, gens, name=f"S{n}")


def small_groups_catalog():
    """One representative per isomorphism class of order at most 6."""
    return [
        trivial_group(),
        cyclic_group(2),
        cyclic_group(3),
        cyclic_group(4),
        klein_four_group(),
        cyclic_group(5),
        cyclic_group(6),
        symmetric_group(3),
    ]


class TorusHomomorphism:
    """A homomorphism f from the mapping-torus group to a finite group,
    recorded by the images of the fiber generators and the stable letter.

    The constructor looks each image up in the group, which gives its
    element index, stable image last; every later step reads those indices
    off the group's product table, and no permutation product happens
    outside FiniteGroup."""

    def __init__(self, group, fiber_images, stable_image, label=None):
        self.group = group
        self.fiber_images = tuple(map(tuple, fiber_images))
        self.stable_image = tuple(stable_image)
        # membership is the whole check: FiniteGroup certified its elements
        images = self.fiber_images + (self.stable_image,)
        try:
            self._indices = tuple(group._index[p] for p in images)
        except KeyError:
            raise ValueError("image is not an element of the target group") from None
        self.rank = len(self.fiber_images)
        self.label = label

    def is_well_defined(self, monodromy):
        """Check the mapping-torus relations f(t) f(x_i) = f(theta(x_i)) f(t)
        on element indices, reading only the product-table entries they
        need: one per letter of theta(x_i) and two per i, so a large group
        never fills its table."""
        if monodromy.rank != self.rank:
            raise ValueError("rank mismatch")
        row = self.group._row
        *fibers, t = self._indices
        signed = {}
        for g, x in enumerate(fibers, 1):
            signed[g, 1], signed[g, -1] = x, self.group._inverse(x)
        for x, image in zip(fibers, monodromy.images):
            y = 0  # the identity, first in BFS order
            for letter in image.letters:
                z = signed[letter]
                y = row(y, (z,))[z]
            if row(t, (x,))[x] != row(y, (t,))[t]:
                return False
        return True

    def require_well_defined(self, monodromy):
        if not self.is_well_defined(monodromy):
            raise IllDefinedHomomorphismError(
                "images violate the mapping-torus relations"
            )

    @cached_property
    def _image(self):
        """Indices of the elements of the full image, breadth-first from
        the identity over the images of the fiber generators and then the
        stable letter, each step read off the group's product table.
        Walked once per homomorphism and kept, for image_key,
        image_subgroup and is_surjective alike."""
        return self.group._walk(self._indices)[0]

    @cached_property
    def _schreier(self):
        """schreier_graph(self), walked once per homomorphism and kept, for
        the cover command's rank check, build_cover and cover_degree alike."""
        return schreier_graph(self)

    def image_subgroup(self):
        """Elements of the full image, ordered by BFS."""
        return [self.group.elements[i] for i in self._image]

    def is_surjective(self):
        return len(self._image) == self.group.order

    def image_key(self):
        """The permutations by which the images of the fiber generators and
        of the stable letter act by left multiplication on the BFS-ordered
        image_subgroup().  Two homomorphisms with equal keys carry identical
        twisting data, so this doubles as a deduplication key.  Computed at
        the first call and kept, so deduplication and
        regular_representation share it."""
        return self._key

    @cached_property
    def _key(self):
        """image_key(), read off the product table over the kept image:
        |image| (rank + 1) entries, each a permutation product only the
        first time the group reads it, so none after
        enumerate_homomorphisms filled the table."""
        image = self._image
        pos = {k: i for i, k in enumerate(image)}
        row_of = self.group._row

        def as_perm(g):
            row = row_of(g, image)
            return tuple([pos[row[h]] for h in image])

        perms = tuple(map(as_perm, self._indices))
        return perms[:-1], perms[-1]

    def __repr__(self):
        tag = f" {self.label!r}" if self.label else ""
        return (
            f"TorusHomomorphism{tag}(rank {self.rank} -> {self.group!r})"
        )


def schreier_graph(f):
    """The Schreier graph of f(F), whose vertices are the cosets of
    ker(f|F) in F, and the cover degree, from one walk of the group's
    product table.

    The walk runs breadth-first over the letters x_1, x_1^-1, x_2, ... as
    element indices, so vertex v is the v-th element of f(F) in discovery
    order, the identity 0.  Returns (reps, forward, backward, d, w):
    reps[v] is vertex v's shortlex-minimal representative word, the
    prefix-closed transversal; forward[v][g - 1] / backward[v][g - 1] are
    the vertices that x_g^+-1 lead to from v; and d, w are as in
    cover_degree, found by walking f(t)'s column of the table."""
    group = f.group
    letters, columns = [], []
    for g, x in enumerate(f._indices[:-1], 1):
        letters += [(g, 1), (g, -1)]
        columns += [x, group._inverse(x)]
    vertex, rows = group._walk(columns)
    position = {x: v for v, x in enumerate(vertex)}
    reps = [FreeWord.empty()] + [None] * (len(vertex) - 1)
    forward, backward = [], []
    for word, row in zip(reps, rows):
        targets = [position[row[x]] for x in columns]
        for letter, u in zip(letters, targets):
            if reps[u] is None:
                reps[u] = FreeWord(word.letters + (letter,))
        forward.append(targets[0::2])
        backward.append(targets[1::2])
    t = acc = f._indices[-1]
    d = 1
    while acc not in position:
        acc = group._row(acc, (t,))[t]
        d += 1
    return reps, forward, backward, d, reps[position[group._inverse(acc)]]


def cover_degree(f):
    """Smallest d >= 1 with f(t)^d in f(F), plus a shortlex-minimal word w
    over the fiber generators with f(w) = f(t)^-d.  d is |f(G)| / |f(F)|, as
    f(F) is normal with cyclic quotient: a route apart from the kept graph's
    walk of f(t)'s powers, which build_cover reads.  w is the graph's."""
    return len(f._image) // len(f._schreier[0]), f._schreier[4]


def permutation_matrix(p):
    """Left-multiplication convention: column i carries a 1 in row p[i]."""
    n = len(p)
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[p[i]][i] = 1
    return RationalMatrix._of(rows, 1)


class FiniteRepresentation:
    """Invertible rational matrices for the fiber generators and the stable
    letter that generate a finite group, the image of the representation.

    The constructor certifies both facts: it inverts each matrix once,
    keeping the inverse, and closes the image breadth-first (see
    _close_image).  Only the constructions whose image is finite by
    construction pass _finite and skip both: regular_representation (a
    permutation group), trivial_representation (the trivial group) and
    direct_sum (a subgroup of the product of two certified images)."""

    def __init__(self, fiber_matrices, stable_matrix, label=None, _finite=False):
        self.fiber_matrices = tuple(fiber_matrices)
        self.stable_matrix = stable_matrix
        self.label = label
        mats = self.fiber_matrices + (self.stable_matrix,)
        dims = {m.rows for m in mats} | {m.cols for m in mats}
        if len(dims) != 1:
            raise RepresentationError("matrices must be square of a common dimension")
        self.dimension = dims.pop()
        if self.dimension == 0:
            raise RepresentationError("matrices must have dimension at least 1")
        self.rank = len(self.fiber_matrices)
        if not _finite:
            for m in mats:
                try:
                    m.inverse()
                except SingularMatrixError:
                    raise RepresentationError("generator matrix is singular") from None
            _close_image(mats, self.dimension)

    def satisfies_relations(self, monodromy):
        """Whether rho(t) rho(x_i) = rho(theta(x_i)) rho(t) for every i,
        the mapping-torus relations with no inverse of rho(t)."""
        if monodromy.rank != self.rank:
            return False
        t = self.stable_matrix
        for x, image in zip(self.fiber_matrices, monodromy.images):
            y = RationalMatrix.identity(self.dimension)
            for g, s in image.letters:
                m = self.fiber_matrices[g - 1]
                y = y * (m if s > 0 else m.inverse())
            if t * x != y * t:
                return False
        return True

    def direct_sum(self, other):
        if self.rank != other.rank:
            raise ValueError("representations are over different generator sets")
        fibers = [
            _block_diagonal(a, b)
            for a, b in zip(self.fiber_matrices, other.fiber_matrices)
        ]
        stable = _block_diagonal(self.stable_matrix, other.stable_matrix)
        label = None
        if self.label and other.label:
            label = f"{self.label}+{other.label}"
        return FiniteRepresentation(fibers, stable, label=label, _finite=True)

    def __repr__(self):
        tag = f" {self.label!r}" if self.label else ""
        return f"FiniteRepresentation{tag}(rank {self.rank}, dim {self.dimension})"


def _close_image(generators, n):
    """The group generated by the invertible n x n matrices, breadth-first
    from the identity in generator order over the distinct non-identity
    generators.  Raises RepresentationError unless the group is finite with
    at most min(DEFAULT_ELEMENT_LIMIT, POINT_LIMIT / n^2) elements, a bound
    on the integer entries kept.

    Every element of a finite group has finite order, so it is
    diagonalizable over C with roots of unity as eigenvalues.  Its trace is
    then a rational algebraic integer, an integer, of absolute value at
    most n, and equals n only for the identity.  A new element whose trace
    is not an integer in [-n, n) therefore proves the group infinite, which
    ends the closure at once for a unipotent or an expanding generator."""
    one = RationalMatrix.identity(n)
    gens = [g for g in dict.fromkeys(generators) if g != one]
    limit = min(DEFAULT_ELEMENT_LIMIT, POINT_LIMIT // (n * n))

    def admit(m, count):
        trace, den = sum(r[i] for i, r in enumerate(m._z)), m._den
        if count >= limit or trace % den or not -n <= trace // den < n:
            raise RepresentationError(f"image not finite within {limit} elements")

    return _closure(one, lambda m: (m * g for g in gens), admit)


def _block_diagonal(a, b):
    n, k = a.rows, b.rows
    den = lcm(a._den, b._den)
    sa, sb = den // a._den, den // b._den
    rows = [[sa * x for x in r] + [0] * k for r in a._z]
    rows += [[0] * n + [sb * x for x in r] for r in b._z]
    return RationalMatrix._of(rows, den)


def regular_representation(f):
    """Left-regular permutation representation of the image of f.

    For surjective f the dimension is the order of the target; otherwise the
    representation is taken over the image subgroup, which is the part the
    associated cover sees.
    """
    fibers, stable = f.image_key()
    name = f.group.name
    if len(stable) != f.group.order:
        name = (name or "G") + "-image"
    label = f"regular-{name}" if name else "regular"
    return FiniteRepresentation(
        [permutation_matrix(p) for p in fibers], permutation_matrix(stable), label=label,
        _finite=True,
    )


def trivial_representation(rank):
    one = RationalMatrix.identity(1)
    return FiniteRepresentation([one] * rank, one, label="trivial", _finite=True)


def enumerate_homomorphisms(monodromy, group):
    """All maps of the mapping-torus group into the group, in the order of
    itertools.product(group.elements, repeat=rank + 1).

    The search runs on element indices over the group's product table,
    which it fills (at most |G|^2 permutation products, once per group),
    one inverse list and one conjugator table: conj[x][y] lists, in
    ascending order, every t with t x = y t, |G|^2 lookups in all.  For
    each tuple of fiber images, each theta(x_i) is evaluated once by table
    lookups over the slots of the fiber images and their inverses; the
    stable images tried are conj[f(x_1)][f(theta(x_1))] alone, and one is
    kept when t f(x_i) = f(theta(x_i)) t for every other i, stopping at
    the first failure.  So the |G|^(rank + 1) candidates cost
    O(|G|^2 + |G|^rank (|theta| + |C| rank)) lookups, |theta| the total
    length of the images theta(x_i) and |C| the largest centralizer, the
    length of a nonempty conj[x][y].  A TorusHomomorphism is built only
    for the maps kept, by one membership lookup per image.  Every
    permutation product is the table's, made inside FiniteGroup; the
    image_key() and the relation check of each map returned then read the
    filled table and make none.
    """
    rank = monodromy.rank
    elements = group.elements
    n = len(elements)
    table = group._product_table()
    inverse = [group._inverse(i) for i in range(n)]
    conj = [[[] for _ in range(n)] for _ in range(n)]
    for t, row in enumerate(table):  # ascending t, so each list ascends
        back = inverse[t]
        for x, tx in enumerate(row):
            conj[x][table[tx][back]].append(t)
    # theta(x_i) as slots: g - 1 for x_g, rank + g - 1 for its inverse
    words = [[g - 1 if s > 0 else rank + g - 1 for g, s in image.letters]
             for image in monodromy.images]
    homs = []
    for fibers in itertools.product(range(n), repeat=rank):
        slots = fibers + tuple([inverse[x] for x in fibers])
        targets = []
        for word in words:
            acc = 0  # the identity, first in BFS order
            for k in word:
                acc = table[acc][slots[k]]
            targets.append(acc)
        # at rank 0 the identity's conj[0][0], every t, is tried
        (x1, y1), *rest = list(zip(fibers, targets)) or [(0, 0)]
        for t in conj[x1][y1]:
            row = table[t]
            for x, y in rest:
                if row[x] != table[y][t]:
                    break
            else:
                homs.append(TorusHomomorphism(group, [elements[x] for x in fibers], elements[t]))
    return homs


def homomorphism_classes(monodromy):
    """One homomorphism into each group of small_groups_catalog() per
    image_key(), keyed by it, in catalog and enumeration order."""
    classes = {}
    for group in small_groups_catalog():
        for f in enumerate_homomorphisms(monodromy, group):
            classes.setdefault(f.image_key(), f)
    return classes
