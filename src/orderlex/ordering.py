"""Magnus-expansion bi-ordering on free groups, property suites for the
commutator inequalities it satisfies, and orderability verdicts from
Alexander polynomials.

The ordering: embed the free group into power series in non-commuting
variables X_1..X_n by x_i -> 1 + X_i, and compare elements by the first
nonzero coefficient of u * v^-1 - 1 in graded-lexicographic monomial order.
It lies in the first nonzero homogeneous degree, the lower-central-series
class of u * v^-1 (Magnus-Karrass-Solitar, MKS, 5.5-5.7).  The expansion
walks one monomial at a time, m X_g from m in one pass over the prefixes of
the word, so a query expands only the monomials it reads, and the leading
term stops at the first nonzero one.  A class above the depth is reported
unresolved, never guessed.

The expansion M is a ring homomorphism and M(v)^-1 is 1 plus higher
terms, so the lead of M(u v^-1) - 1 = (M(u) - M(v)) M(v)^-1 is the lead of
M(u) - M(v).  Degree 1 of a word is sum_a e_a X_a, e_a the exponent sum of
x_a, and degree 2 is c(a,b) X_a X_b off the diagonal, c(a,b) a pair sum of
Fox derivatives (Chen-Fox-Lyndon, "Free differential calculus IV", Ann.
Math. 68 (1958)).  These closed forms live only in the comparison, which
reads both from u and v over the generators they contain; only a pair that
agrees at both, u * v^-1 in the third lower-central term, expands u * v^-1.
Degree 1 reads x_1's exponent sums first, in one pass with no dict, as x_1
leads every other generator in graded-lex order; in the property suites
it decides about two comparisons in three alone."""

from __future__ import annotations

import random

from dataclasses import dataclass
from enum import Enum
from itertools import accumulate, combinations
from operator import mul

from .covers import build_cover, cover_alexander
from .errors import ConsistencyError
from .finite import regular_representation
from .laurent import format_polynomial, poly_divmod
from .roots import root_counts, sturm_positive_root_count
from .torus import classical_alexander, twisted_alexander
from .words import FreeWord, commutator

DEFAULT_DEPTH = 6


class Comparison(Enum):
    LESS = "Less"
    GREATER = "Greater"
    EQUAL = "Equal"
    UNRESOLVED_AT_DEPTH = "UnresolvedAtDepth"


def _extend(letters, a, g):
    """Coefficients of m X_g on the prefixes p_0..p_n of the word, from those
    a of m: the j-th letter x_g (p_j = p_{j-1} (1 + X_g)) adds a[j-1], x_g^-1
    (p_j (1 + X_g) = p_{j-1}) subtracts a[j], and any other letter adds 0."""
    out = [c := 0]
    for j, (h, s) in enumerate(letters):
        if h == g:
            c += a[j] if s > 0 else -a[j + 1]
        out.append(c)
    return out


class MagnusSeries:
    """Image of a word under x_i -> 1 + X_i, truncated at total degree depth,
    with integer coefficients on monomials stored as tuples of generator
    indices.  A query extends monomials one generator at a time, only by the
    generators of the word, and never past a monomial that is zero on every
    prefix, as each of its extensions is too."""

    __slots__ = ("depth", "_letters", "_gens")

    def __init__(self, depth, letters):
        self.depth = depth
        self._letters = letters
        self._gens = sorted({g for g, _ in letters})

    def _terms(self):
        """Yield (monomial, coefficients on every prefix) for the monomials of
        degree 1..depth nonzero on some prefix, in graded-lex order: each
        degree extends the last one's, in lex order, by increasing generators."""
        level = [((), [1] * (len(self._letters) + 1))]
        for _ in range(self.depth):
            following = []
            for mono, a in level:
                for g in self._gens:
                    b = _extend(self._letters, a, g)
                    if any(b):
                        following.append((mono + (g,), b))
                        yield following[-1]
            level = following

    def coefficient(self, mono):
        """The coefficient of one monomial, from its chain of prefixes."""
        mono = tuple(mono)
        if len(mono) > self.depth:
            return 0
        a = [1] * (len(self._letters) + 1)
        for g in mono:
            a = _extend(self._letters, a, g)
        return a[-1]

    @property
    def coefficients(self):
        """Every nonzero coefficient up to the depth, as a dict."""
        return {(): 1, **{mono: a[-1] for mono, a in self._terms() if a[-1]}}

    def leading_term(self):
        """Smallest non-constant monomial with nonzero coefficient in
        graded-lex order, as (monomial, coefficient), or None."""
        return next(((mono, a[-1]) for mono, a in self._terms() if a[-1]), None)

    def __repr__(self):
        return f"MagnusSeries(depth={self.depth}, letters={len(self._letters)})"


def magnus_expand(w, depth=DEFAULT_DEPTH):
    """Image of the word under x_i -> 1 + X_i, truncated at total degree
    depth; inverses expand through the geometric series, when a query needs."""
    if depth < 1:
        raise ValueError("depth must be at least 1")
    return MagnusSeries(depth, w.letters)


def _pair_sum(letters, a, b):
    """c(a,b): the sum of s E_a(j) over the letters x_b^s of the word, E_a(j)
    the exponent sum of x_a before letter j."""
    before = total = 0
    for g, s in letters:
        if g == a:
            before += s
        elif g == b:
            total += s * before
    return total


def _low_degree_lead(left, right, depth):
    """The lead coefficient of M(u) - M(v) if it lies in degree 1, or 2 when
    depth >= 2, else 0: the first nonzero difference of exponent sums, then
    of pair sums c(a,b), a < b in lex order, over the generators present.
    Where the e_a agree, so do C(e_a, 2) and c(b,a) = e_a e_b - c(a,b).

    Generator 1 comes first, in one pass over the letters with no dict:
    1 is the least index a word can hold, so a nonzero e_1 difference is
    the lead, and an absent x_1 differs by 0 and leaves it to the rest.
    The suites' words are mostly over x_1 and x_2, and x_1 alone decides
    most of their comparisons."""
    d = 0
    for g, s in left:
        if g == 1:
            d += s
    for g, s in right:
        if g == 1:
            d -= s
    if d:
        return d
    diff = {}
    for g, s in left:
        diff[g] = diff.get(g, 0) + s
    for g, s in right:
        diff[g] = diff.get(g, 0) - s
    gens = sorted(diff)
    for g in gens:
        if diff[g]:
            return diff[g]
    if depth >= 2:
        for a, b in combinations(gens, 2):
            d = _pair_sum(left, a, b) - _pair_sum(right, a, b)
            if d:
                return d
    return 0


def magnus_compare(u, v, depth=DEFAULT_DEPTH):
    """Compare two words under the Magnus bi-ordering at the given depth, by
    the sign of the lead of M(u) - M(v) (module docstring): in closed form in
    degrees 1 and 2, and past them from the expansion of u * v^-1."""
    if depth < 1:
        raise ValueError("depth must be at least 1")
    if u.letters == v.letters:
        return Comparison.EQUAL
    lead = _low_degree_lead(u.letters, v.letters, depth)
    if not lead:
        term = magnus_expand(u * v.inverse(), depth).leading_term()
        if term is None:
            return Comparison.UNRESOLVED_AT_DEPTH
        lead = term[1]
    return Comparison.GREATER if lead > 0 else Comparison.LESS


class _Tally:
    """Comparison bookkeeping for the property suites."""

    def __init__(self, depth):
        self.depth = depth
        self.resolved = 0
        self.unresolved = 0
        self.violations = 0

    def compare(self, u, v):
        result = magnus_compare(u, v, self.depth)
        if result is Comparison.UNRESOLVED_AT_DEPTH:
            self.unresolved += 1
        else:
            self.resolved += 1
        return result

    def expect(self, actual, wanted):
        if actual is Comparison.UNRESOLVED_AT_DEPTH:
            return
        if actual is not wanted:
            self.violations += 1

    def report(self, trials):
        return {
            "trials": trials,
            "resolved": self.resolved,
            "unresolved": self.unresolved,
            "violations": self.violations,
            "depth": self.depth,
        }


def random_reduced_word(rng, rank, max_len=8):
    """A random reduced word over generators 1..rank.  Its length is uniform
    on 1..max_len; each letter is uniform on the 2*rank signed generators,
    and a letter that would cancel the one before it is redrawn.  rng is a
    random.Random, and the word consumes its stream exactly as
    rng.randint(1, max_len), then rng.randint(1, rank) and
    rng.choice((1, -1)) per letter drawn, would: each of those takes
    n.bit_length() bits from getrandbits and redraws while the value is >= n,
    for n = max_len, rank and 2.  A letter is redrawn when its generator is
    that of the letter before and its sign bit is not, compared as the two
    ints drawn, so the stream is that of the old tuple comparison."""
    if rank < 1 or max_len < 1:
        raise ValueError("rank and max_len must be at least 1")
    bits = rng.getrandbits
    k = max_len.bit_length()
    length = bits(k)
    while length >= max_len:
        length = bits(k)
    k = rank.bit_length()
    letters = []
    last = last_s = -1  # the letter before, as drawn: generator - 1, sign bit
    for _ in range(length + 1):
        while True:
            g = bits(k)
            while g >= rank:
                g = bits(k)
            s = bits(2)
            while s > 1:
                s = bits(2)
            if g != last or s == last_s:
                break
        letters.append((g + 1, -1) if s else (g + 1, 1))
        last, last_s = g, s
    return FreeWord._wrap(tuple(letters))


def lemma_comm_suite(rank, trials, depth=DEFAULT_DEPTH, seed=0):
    """Commutator inequalities of the bi-ordering, asserted on random words:
    (1) b > 1 implies [a,b] < b; (2) a > 1 implies [a,b] > a^-1;
    (3) [a,b] > 1 implies [a^n, b^m] > [a,b] for 2 <= n, m <= 4, together
    with the sandwich [a^N, b^N]^-1 < [a,b] < [a^N, b^N]."""
    rng = random.Random(seed)
    tally = _Tally(depth)
    one = FreeWord.empty()
    for _ in range(trials):
        a = random_reduced_word(rng, rank)
        b = random_reduced_word(rng, rank)
        comm = commutator(a, b)
        if tally.compare(b, one) is Comparison.GREATER:
            tally.expect(tally.compare(comm, b), Comparison.LESS)
        if tally.compare(a, one) is Comparison.GREATER:
            tally.expect(tally.compare(comm, a.inverse()), Comparison.GREATER)
        if tally.compare(comm, one) is Comparison.GREATER:
            # w^2, w^3, w^4, each one product from the last; the grid of
            # [a^n, b^m] is built once, and its diagonal serves the sandwich
            a_n, b_m = (list(accumulate([w] * 4, mul))[1:] for w in (a, b))
            grid = [[commutator(x, y) for y in b_m] for x in a_n]
            for row in grid:
                for big in row:
                    tally.expect(tally.compare(big, comm), Comparison.GREATER)
            for n, row in enumerate(grid):
                tally.expect(tally.compare(row[n].inverse(), comm), Comparison.LESS)
                tally.expect(tally.compare(comm, row[n]), Comparison.LESS)
    return tally.report(trials)


def bi_order_axiom_suite(rank, trials, depth=DEFAULT_DEPTH, seed=0):
    """Total bi-order axioms on random triples: antisymmetry, transitivity,
    invariance under multiplication on either side, closure of the positive
    cone, and convexity of the commutator subgroup (no word with a nonzero
    exponent sum may sit between two commutators)."""
    rng = random.Random(seed)
    tally = _Tally(depth)
    one = FreeWord.empty()
    opposite = {
        Comparison.LESS: Comparison.GREATER,
        Comparison.GREATER: Comparison.LESS,
        Comparison.EQUAL: Comparison.EQUAL,
    }
    for _ in range(trials):
        u = random_reduced_word(rng, rank)
        v = random_reduced_word(rng, rank)
        w = random_reduced_word(rng, rank)

        cuv = tally.compare(u, v)
        cvu = tally.compare(v, u)
        if cuv is not Comparison.UNRESOLVED_AT_DEPTH:
            tally.expect(cvu, opposite[cuv])
            tally.expect(tally.compare(w * u, w * v), cuv)
            tally.expect(tally.compare(u * w, v * w), cuv)

        cvw = tally.compare(v, w)
        if cuv is Comparison.GREATER and cvw is Comparison.GREATER:
            tally.expect(tally.compare(u, w), Comparison.GREATER)

        if (
            tally.compare(u, one) is Comparison.GREATER
            and tally.compare(v, one) is Comparison.GREATER
        ):
            product = tally.compare(u * v, one)
            if product is not Comparison.GREATER:
                tally.violations += 1

        if any(w.exponent_sum(g) for g in range(1, rank + 1)):
            low = commutator(u, v)
            high = commutator(v, u)
            if (
                tally.compare(low, w) is Comparison.LESS
                and tally.compare(w, high) is Comparison.LESS
            ):
                tally.violations += 1
    return tally.report(trials)


class OrderStatus(str, Enum):
    OBSTRUCTED = "obstructed_not_biorderable"
    BIORDERABLE = "biorderable_by_perron_rolfsen"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class OrderVerdict:
    status: OrderStatus
    positive_root_count: int

    @classmethod
    def from_counts(cls, positive, distinct):
        """The verdict of a classical Alexander polynomial with the given
        numbers of distinct roots in (0, oo) and in C: no positive real root
        obstructs a bi-ordering; all roots real and positive suffices for
        one."""
        if positive == 0:
            status = OrderStatus.OBSTRUCTED
        elif positive == distinct:
            status = OrderStatus.BIORDERABLE
        else:
            status = OrderStatus.INCONCLUSIVE
        return cls(status, positive)


def clay_rolfsen_verdict(p):
    """Bi-orderability verdict from a classical Alexander polynomial (see
    OrderVerdict.from_counts), from its roots.root_counts.  A torus keeps the
    counts of its own classical polynomial (AlexanderResult.root_counts)."""
    return OrderVerdict.from_counts(*root_counts(p))


def has_positive_real_eigenvalue(m):
    return sturm_positive_root_count(m.char_poly()) > 0


def theorem2_report(m, f):
    """Root-information comparison between the twisted polynomial of the
    regular representation of f and the classical polynomials of the base
    and of the cover.

    The regular representation contains the trivial one, so by lemma 5 the
    classical polynomial divides the twisted one, and a remainder raises
    ConsistencyError; a twisted obstruction thus implies the classical one.
    existence_equal: the twisted polynomial has a positive real root exactly
    when the cover polynomial does (they differ by t -> t^d, a positive-root
    bijection).  gain: the twisted polynomial, which has every positive root
    of the classical one, has more.  The classical polynomial and its root
    count are the torus's, computed at its first report and kept.
    """
    base = classical_alexander(m)
    classical = base.polynomial
    rep = regular_representation(f)
    twisted = twisted_alexander(m, rep).polynomial
    if not poly_divmod(twisted, classical)[1].is_zero:
        raise ConsistencyError(f"{format_polynomial(classical)} does not divide "
                               f"the regular twisted {format_polynomial(twisted)}")
    cover = build_cover(m, f)
    covered = cover_alexander(cover).polynomial

    classical_count = base.root_counts[0]  # one chain per torus
    twisted_count = sturm_positive_root_count(twisted)
    # equal polynomials (Shapiro) have equal counts; only a disagreement,
    # which existence_equal must catch, needs the cover's own chain
    cover_count = (twisted_count if covered == twisted
                   else sturm_positive_root_count(covered))

    return {
        "classical": format_polynomial(classical),
        "twisted": format_polynomial(twisted),
        "cover": format_polynomial(covered),
        "d": cover.d,
        "classical_positive_roots": classical_count,
        "twisted_positive_roots": twisted_count,
        "cover_positive_roots": cover_count,
        "existence_equal": (twisted_count > 0) == (cover_count > 0),
        "gain": twisted_count > classical_count,
        "twisted_obstructs": twisted_count == 0,
        "cover_obstructs": cover_count == 0,
    }
