"""Magnus-expansion bi-ordering on free groups, property suites for the
commutator inequalities it satisfies, and orderability verdicts from
Alexander polynomials.

The ordering: embed the free group into power series in non-commuting
variables X_1..X_n by x_i -> 1 + X_i, and compare elements by the first
nonzero coefficient of u * v^-1 - 1 in graded-lexicographic monomial order.
It lies in the first nonzero homogeneous degree, the lower-central-series
class of u * v^-1 (Magnus-Karrass-Solitar, MKS, 5.5-5.7).  The expansion
runs one recursion over the prefixes of the word, lazily, degree by degree,
and stopping at the first nonzero degree is exact.  A class above the depth
is reported unresolved, never guessed.

The expansion M is a ring homomorphism and M(v)^-1 is 1 plus higher
terms, so the lead of M(u v^-1) - 1 = (M(u) - M(v)) M(v)^-1 is the lead of
M(u) - M(v).  Degree 1 of a word is sum_a e_a X_a, e_a the exponent sum of
x_a, and degree 2 is c(a,b) X_a X_b off the diagonal, c(a,b) a pair sum of
Fox derivatives (Chen-Fox-Lyndon, "Free differential calculus IV", Ann.
Math. 68 (1958)).  These closed forms live only in the comparison, which
reads both from u and v; only a pair that agrees at both, u * v^-1 in the
third lower-central term, builds u * v^-1 and expands it."""

from __future__ import annotations

import random

from dataclasses import dataclass
from enum import Enum

from .covers import build_cover, cover_alexander
from .errors import ConsistencyError
from .finite import regular_representation
from .laurent import LaurentPolynomial, format_polynomial, poly_divmod
from .roots import all_roots_real_positive, sturm_positive_root_count
from .torus import classical_alexander, twisted_alexander
from .words import FreeWord, commutator

DEFAULT_DEPTH = 6


class Comparison(Enum):
    LESS = "Less"
    GREATER = "Greater"
    EQUAL = "Equal"
    UNRESOLVED_AT_DEPTH = "UnresolvedAtDepth"


class MagnusSeries:
    """Image of a word under x_i -> 1 + X_i, truncated at total degree
    depth, with integer coefficients on monomials stored as tuples of
    generator indices.  Its homogeneous components are computed lazily, in
    degree order, only as far as a query needs; the leading term lies in
    the first nonzero component of positive degree, so stopping there is
    exact."""

    __slots__ = ("depth", "_pending", "_components")

    def __init__(self, depth, components):
        self.depth = depth
        self._pending = components
        self._components = []

    def _component(self, k):
        while len(self._components) <= k:
            self._components.append(next(self._pending))
        return self._components[k]

    def coefficient(self, mono):
        mono = tuple(mono)
        if len(mono) > self.depth:
            return 0
        return self._component(len(mono)).get(mono, 0)

    @property
    def coefficients(self):
        """Every nonzero coefficient up to the depth, as a dict."""
        return {
            mono: coeff
            for k in range(self.depth + 1)
            for mono, coeff in self._component(k).items()
        }

    def leading_term(self):
        """Smallest non-constant monomial with nonzero coefficient in
        graded-lex order, as (monomial, coefficient), or None."""
        for k in range(1, self.depth + 1):
            component = self._component(k)
            if component:
                mono = min(component)
                return mono, component[mono]
        return None

    def __repr__(self):
        return f"MagnusSeries(depth={self.depth}, components={len(self._components)})"


def _pair_sums(letters, width):
    """Pair sums c(a,b) = sum of s_j E_a(j) over the letters x_b^s_j of the
    word, E_a(j) the exponent sum of x_a before letter j, for generators
    1 <= a < b < width, as a flat list with c(a,b) at a * width + b and
    zero elsewhere, so that list order is lexicographic order on (a, b)."""
    before = [0] * width
    sums = [0] * (width * width)
    for b, s in letters:
        for a in range(1, b):
            e = before[a]
            if e:
                sums[a * width + b] += s * e
        before[b] += s
    return sums


def _prefix_components(letters):
    """Yield the degree-k component of the image of the word, for k = 0,
    1, 2, ...  With p_j the image of the first j letters, a letter x_g
    gives p_j[k] = p_{j-1}[k] + p_{j-1}[k-1] X_g, and a letter x_g^-1
    (from p_j (1 + X_g) = p_{j-1}) gives p_j[k] = p_{j-1}[k] - p_j[k-1] X_g.
    Only degree k-1 of each prefix is kept."""
    prev = [{(): 1}] * (len(letters) + 1)
    yield prev[-1]
    while True:
        cur = [{}]
        for j, (g, s) in enumerate(letters):
            source = prev[j] if s > 0 else prev[j + 1]
            comp = cur[j]
            if source:
                comp = dict(comp)
                for mono, coeff in source.items():
                    key = mono + (g,)
                    acc = comp.get(key, 0) + s * coeff
                    if acc:
                        comp[key] = acc
                    else:
                        del comp[key]
            cur.append(comp)
        yield cur[-1]
        prev = cur


def magnus_expand(w, depth=DEFAULT_DEPTH):
    """Image of the word under x_i -> 1 + X_i, truncated at total degree
    depth; inverses expand through the geometric series.  Components are
    computed when a query on the series first needs them."""
    if depth < 1:
        raise ValueError("depth must be at least 1")
    return MagnusSeries(depth, _prefix_components(w.letters))


def magnus_compare(u, v, depth=DEFAULT_DEPTH):
    """Compare two words under the Magnus bi-ordering at the given depth:
    by exponent sums, then (depth >= 2) pair sums, as lists in monomial
    order, whose comparison is the sign of the lead of M(u) - M(v) (module
    docstring); where the e_a agree, so do the C(e_a, 2) on the diagonal,
    and c(b,a) = e_a e_b - c(a,b).  A pair that ties expands u * v^-1."""
    if depth < 1:
        raise ValueError("depth must be at least 1")
    if u == v:
        return Comparison.EQUAL
    left, right = u.letters, v.letters
    width = max(left + right)[0] + 1
    of_u, of_v = [0] * width, [0] * width
    for g, s in left:
        of_u[g] += s
    for g, s in right:
        of_v[g] += s
    if of_u == of_v and depth >= 2:
        of_u, of_v = _pair_sums(left, width), _pair_sums(right, width)
    if of_u != of_v:
        return Comparison.GREATER if of_u > of_v else Comparison.LESS
    lead = magnus_expand(u * v.inverse(), depth).leading_term()
    if lead is None:
        return Comparison.UNRESOLVED_AT_DEPTH
    return Comparison.GREATER if lead[1] > 0 else Comparison.LESS


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
    length = rng.randint(1, max_len)
    letters = []
    prev = None
    for _ in range(length):
        while True:
            g = rng.randint(1, rank)
            s = rng.choice((1, -1))
            if prev != (g, -s):
                break
        letters.append((g, s))
        prev = (g, s)
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
            powers = [(a ** n, b ** n) for n in range(2, 5)]
            for a_n, _ in powers:
                for _, b_m in powers:
                    big = commutator(a_n, b_m)
                    tally.expect(tally.compare(big, comm), Comparison.GREATER)
            for a_n, b_n in powers:
                big = commutator(a_n, b_n)
                tally.expect(tally.compare(big.inverse(), comm), Comparison.LESS)
                tally.expect(tally.compare(comm, big), Comparison.LESS)
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
    witness: LaurentPolynomial


def clay_rolfsen_verdict(p):
    """Bi-orderability verdict from a classical Alexander polynomial: no
    positive real root obstructs a bi-ordering; all roots real and positive
    suffices for one."""
    if p.is_zero:
        raise ValueError("the zero polynomial carries no verdict")
    canon = p.canonicalize()
    count = sturm_positive_root_count(canon)
    if count == 0:
        status = OrderStatus.OBSTRUCTED
    elif all_roots_real_positive(canon):
        status = OrderStatus.BIORDERABLE
    else:
        status = OrderStatus.INCONCLUSIVE
    return OrderVerdict(status, count, canon)


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
    of the classical one, has more.
    """
    classical = classical_alexander(m).polynomial
    rep = regular_representation(f)
    twisted = twisted_alexander(m, rep).polynomial
    if not poly_divmod(twisted, classical)[1].is_zero:
        raise ConsistencyError(f"{format_polynomial(classical)} does not divide "
                               f"the regular twisted {format_polynomial(twisted)}")
    cover = build_cover(m, f)
    covered = cover_alexander(cover).polynomial

    classical_count = sturm_positive_root_count(classical)
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
