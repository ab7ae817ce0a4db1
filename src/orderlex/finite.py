"""Finite permutation groups, homomorphisms out of a mapping-torus group,
and matrix representations of that group over Q.

Permutations are tuples p of length degree with p[i] = image of point i
(0-based); multiply(p, q) applies q first.  Group elements are enumerated
breadth-first from the identity in generator order, which makes every
derived object (indices, regular representations) reproducible.
"""

from __future__ import annotations

import itertools

from fractions import Fraction

from .errors import (
    EnumerationLimitError,
    IllDefinedHomomorphismError,
    RepresentationError,
)
from .linalg import RationalMatrix
from .words import FreeWord

DEFAULT_ELEMENT_LIMIT = 10000
_F0 = Fraction(0)
_F1 = Fraction(1)


def identity_permutation(degree):
    return tuple(range(degree))


def multiply_permutations(p, q):
    """(p * q)(x) = p(q(x))."""
    return tuple(p[q[i]] for i in range(len(p)))


def invert_permutation(p):
    out = [0] * len(p)
    for i, x in enumerate(p):
        out[x] = i
    return tuple(out)


def _check_permutation(p, degree):
    p = tuple(int(x) for x in p)
    if len(p) != degree or sorted(p) != list(range(degree)):
        raise ValueError(f"not a permutation of degree {degree}: {p!r}")
    return p


def parse_cycles(text, degree):
    """Parse disjoint cycle notation like "(1 2)(3 4)"; "()" is the identity."""
    out = list(range(degree))
    seen = set()
    body = text.strip()
    if body in ("", "()", "e", "id"):
        return tuple(out)
    if not body.startswith("("):
        raise ValueError(f"bad cycle notation: {text!r}")
    for chunk in body.split(")"):
        chunk = chunk.strip()
        if not chunk:
            continue
        if not chunk.startswith("("):
            raise ValueError(f"bad cycle notation: {text!r}")
        items = chunk[1:].replace(",", " ").split()
        if not items:
            continue
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


def _bfs_closure(degree, generators, limit):
    """Elements reachable from the identity, breadth-first in generator
    order; in a finite group this is the generated subgroup."""
    start = identity_permutation(degree)
    elements = [start]
    seen = {start}
    head = 0
    while head < len(elements):
        cur = elements[head]
        head += 1
        for g in generators:
            nxt = multiply_permutations(cur, g)
            if nxt not in seen:
                if len(elements) >= limit:
                    raise EnumerationLimitError(
                        f"group enumeration exceeded {limit} elements"
                    )
                seen.add(nxt)
                elements.append(nxt)
    return elements


class FiniteGroup:
    """A permutation group with a fixed, reproducible element order."""

    def __init__(self, degree, generators, name=None, element_limit=DEFAULT_ELEMENT_LIMIT):
        self.degree = int(degree)
        if self.degree < 1:
            raise ValueError("degree must be positive")
        self.generators = [_check_permutation(g, self.degree) for g in generators]
        self.name = name
        self.elements = _bfs_closure(self.degree, self.generators, element_limit)
        self._index = {g: i for i, g in enumerate(self.elements)}

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

    def multiply(self, a, b):
        return multiply_permutations(a, b)

    def inverse(self, a):
        return invert_permutation(a)

    def element_order(self, a):
        e = self.identity()
        acc = a
        k = 1
        while acc != e:
            acc = multiply_permutations(acc, a)
            k += 1
        return k

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
    if n < 1:
        raise ValueError("order must be positive")
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
    recorded by the images of the fiber generators and the stable letter."""

    def __init__(self, group, fiber_images, stable_image, label=None):
        self.group = group
        self.fiber_images = tuple(
            _check_permutation(p, group.degree) for p in fiber_images
        )
        self.stable_image = _check_permutation(stable_image, group.degree)
        for p in self.fiber_images + (self.stable_image,):
            if p not in group:
                raise ValueError("image is not an element of the target group")
        self.rank = len(self.fiber_images)
        self.label = label

    def evaluate(self, word):
        """Image of a word over the fiber generators and the stable letter
        (index rank + 1)."""
        acc = self.group.identity()
        for g, s in word.letters:
            if g <= self.rank:
                el = self.fiber_images[g - 1]
            elif g == self.rank + 1:
                el = self.stable_image
            else:
                raise ValueError(f"generator {g} outside the mapping-torus group")
            if s < 0:
                el = invert_permutation(el)
            acc = multiply_permutations(acc, el)
        return acc

    def is_well_defined(self, monodromy):
        """Check the mapping-torus relations f(t) f(x) f(t)^-1 = f(theta(x))."""
        if monodromy.rank != self.rank:
            raise ValueError("rank mismatch")
        t = self.stable_image
        tinv = invert_permutation(t)
        for i in range(self.rank):
            lhs = multiply_permutations(
                multiply_permutations(t, self.fiber_images[i]), tinv
            )
            if lhs != self.evaluate(monodromy.images[i]):
                return False
        return True

    def require_well_defined(self, monodromy):
        if not self.is_well_defined(monodromy):
            raise IllDefinedHomomorphismError(
                "images violate the mapping-torus relations"
            )

    def image_subgroup(self):
        """Elements of the full image, ordered by BFS."""
        gens = list(self.fiber_images) + [self.stable_image]
        return _bfs_closure(self.group.degree, gens, self.group.order + 1)

    def is_surjective(self):
        return len(self.image_subgroup()) == self.group.order

    def restricted_to_image(self):
        """The same homomorphism onto its image, realized as left
        multiplication of the image on its own BFS-ordered element list.
        Two homomorphisms with equal restrictions carry identical twisting
        data, so this doubles as a deduplication key."""
        elems = self.image_subgroup()
        idx = {e: i for i, e in enumerate(elems)}

        def as_perm(g):
            return tuple(idx[multiply_permutations(g, h)] for h in elems)

        gens = [as_perm(p) for p in self.fiber_images] + [as_perm(self.stable_image)]
        name = self.group.name if len(elems) == self.group.order else (self.group.name or "G") + "-image"
        image_group = FiniteGroup(len(elems), gens, name=name)
        return TorusHomomorphism(image_group, gens[:-1], gens[-1], label=self.label)

    def image_key(self):
        h = self.restricted_to_image()
        return (h.fiber_images, h.stable_image)

    def __repr__(self):
        tag = f" {self.label!r}" if self.label else ""
        return (
            f"TorusHomomorphism{tag}(rank {self.rank} -> {self.group!r})"
        )


def schreier_transversal(f):
    """Shortlex-minimal coset representatives for ker(f|F) in F.

    Cosets are identified with the elements of f(F); breadth-first search
    over the letters x_1, x_1^-1, x_2, ... yields a prefix-closed
    transversal, listed in discovery order starting at the identity coset.
    Returns (order, reps): the elements of f(F) in discovery order and the
    map from each element to its representative word.
    """
    identity = f.group.identity()
    letters = []
    for g in range(1, f.rank + 1):
        letters.append(((g, 1), f.fiber_images[g - 1]))
        letters.append(((g, -1), invert_permutation(f.fiber_images[g - 1])))
    reps = {identity: FreeWord.empty()}
    order = [identity]
    frontier = [identity]
    while frontier:
        nxt = []
        for element in frontier:
            word = reps[element]
            for letter, image in letters:
                reached = multiply_permutations(element, image)
                if reached in reps:
                    continue
                reps[reached] = FreeWord(word.letters + (letter,))
                order.append(reached)
                nxt.append(reached)
        frontier = nxt
    return order, reps


def cover_degree(f):
    """Smallest d >= 1 with f(t)^d in f(F), plus a shortlex-minimal word w
    over the fiber generators with f(w) = f(t)^-d."""
    _, reps = schreier_transversal(f)
    t = f.stable_image
    acc = t
    d = 1
    while acc not in reps:
        acc = multiply_permutations(acc, t)
        d += 1
    return d, reps[invert_permutation(acc)]


def permutation_matrix(p):
    """Left-multiplication convention: column i carries a 1 in row p[i]."""
    n = len(p)
    rows = [[_F0] * n for _ in range(n)]
    for i in range(n):
        rows[p[i]][i] = _F1
    return RationalMatrix(rows)


class FiniteRepresentation:
    """Invertible rational matrices for the fiber generators and the stable
    letter, each of finite multiplicative order."""

    def __init__(self, fiber_matrices, stable_matrix, label=None, order_bound=1000):
        self.fiber_matrices = tuple(fiber_matrices)
        self.stable_matrix = stable_matrix
        self.label = label
        mats = self.fiber_matrices + (self.stable_matrix,)
        dims = {m.rows for m in mats} | {m.cols for m in mats}
        if len(dims) != 1:
            raise RepresentationError("matrices must be square of a common dimension")
        self.dimension = dims.pop()
        self.rank = len(self.fiber_matrices)
        for m in mats:
            if m.det() == 0:
                raise RepresentationError("generator matrix is singular")
            if _multiplicative_order(m, order_bound) is None:
                raise RepresentationError(
                    f"generator matrix has no order up to {order_bound}"
                )

    @classmethod
    def trivial(cls, rank, dimension=1):
        eye = RationalMatrix.identity(dimension)
        return cls([eye] * rank, eye, label="trivial")

    def matrix_for(self, gen):
        if 1 <= gen <= self.rank:
            return self.fiber_matrices[gen - 1]
        if gen == self.rank + 1:
            return self.stable_matrix
        raise ValueError(f"generator {gen} outside the mapping-torus group")

    def evaluate(self, word):
        acc = RationalMatrix.identity(self.dimension)
        for g, s in word.letters:
            m = self.matrix_for(g)
            if s < 0:
                m = m.inverse()
            acc = acc * m
        return acc

    def satisfies_relations(self, monodromy):
        if monodromy.rank != self.rank:
            return False
        t = self.stable_matrix
        tinv = t.inverse()
        for i in range(self.rank):
            lhs = t * self.fiber_matrices[i] * tinv
            if lhs != self.evaluate(monodromy.images[i]):
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
        return FiniteRepresentation(fibers, stable, label=label)

    def __repr__(self):
        tag = f" {self.label!r}" if self.label else ""
        return f"FiniteRepresentation{tag}(rank {self.rank}, dim {self.dimension})"


def _multiplicative_order(m, bound):
    eye = RationalMatrix.identity(m.rows)
    acc = m
    for k in range(1, bound + 1):
        if acc == eye:
            return k
        acc = acc * m
    return None


def _block_diagonal(a, b):
    n, k = a.rows, b.rows
    rows = []
    for i in range(n):
        rows.append(list(a.row(i)) + [_F0] * k)
    for i in range(k):
        rows.append([_F0] * n + list(b.row(i)))
    return RationalMatrix(rows)


def regular_representation(f):
    """Left-regular permutation representation of the image of f.

    For surjective f the dimension is the order of the target; otherwise the
    representation is taken over the image subgroup, which is the part the
    associated cover sees.
    """
    h = f.restricted_to_image()
    fibers = [permutation_matrix(p) for p in h.fiber_images]
    stable = permutation_matrix(h.stable_image)
    label = f"regular-{h.group.name}" if h.group.name else "regular"
    return FiniteRepresentation(fibers, stable, label=label)


def trivial_representation(rank, dimension=1):
    return FiniteRepresentation.trivial(rank, dimension)


def enumerate_homomorphisms(monodromy, group):
    """All maps of the mapping-torus group into the group, by brute force
    over images of the fiber generators and the stable letter."""
    rank = monodromy.rank
    homs = []
    for combo in itertools.product(group.elements, repeat=rank + 1):
        hom = TorusHomomorphism(group, combo[:rank], combo[rank])
        if hom.is_well_defined(monodromy):
            homs.append(hom)
    return homs
