"""Magnus-expansion bi-ordering on free groups, property suites for the
commutator inequalities it satisfies, and orderability verdicts from
Alexander polynomials.

The ordering: embed the free group into truncated power series in
non-commuting variables X_1..X_n by x_i -> 1 + X_i, and compare elements by
the first nonzero coefficient of u * v^-1 - 1 in graded-lexicographic
monomial order.  Truncation at a finite depth makes some comparisons
unresolvable; those are reported, never guessed.
"""

from __future__ import annotations

import random

from dataclasses import dataclass
from enum import Enum

from .covers import build_cover, cover_alexander
from .finite import regular_representation
from .laurent import LaurentPolynomial, format_polynomial
from .roots import (
    all_roots_real_positive,
    common_positive_root_count,
    sturm_positive_root_count,
)
from .torus import classical_alexander, twisted_alexander
from .words import FreeWord, commutator

DEFAULT_DEPTH = 6


class Comparison(Enum):
    LESS = "Less"
    GREATER = "Greater"
    EQUAL = "Equal"
    UNRESOLVED_AT_DEPTH = "UnresolvedAtDepth"


class MagnusSeries:
    """Truncated series with integer coefficients on monomials in
    non-commuting variables, stored as tuples of generator indices."""

    __slots__ = ("rank", "depth", "coefficients")

    def __init__(self, rank, depth, coefficients):
        self.rank = rank
        self.depth = depth
        self.coefficients = {m: c for m, c in coefficients.items() if c}

    @classmethod
    def one(cls, rank, depth):
        return cls(rank, depth, {(): 1})

    def coefficient(self, mono):
        return self.coefficients.get(tuple(mono), 0)

    def multiply(self, other):
        depth = self.depth
        out = {}
        for m1, c1 in self.coefficients.items():
            room = depth - len(m1)
            for m2, c2 in other.coefficients.items():
                if len(m2) > room:
                    continue
                key = m1 + m2
                acc = out.get(key, 0) + c1 * c2
                if acc:
                    out[key] = acc
                elif key in out:
                    del out[key]
        return MagnusSeries(self.rank, depth, out)

    def leading_term(self):
        """Smallest non-constant monomial with nonzero coefficient in
        graded-lex order, as (monomial, coefficient), or None."""
        best = None
        for mono, coeff in self.coefficients.items():
            if not mono:
                continue
            key = (len(mono), mono)
            if best is None or key < best[0]:
                best = (key, mono, coeff)
        if best is None:
            return None
        return best[1], best[2]

    def __repr__(self):
        return f"MagnusSeries(rank={self.rank}, depth={self.depth}, terms={len(self.coefficients)})"


_letter_cache = {}


def _letter_series(gen, sign, depth):
    key = (gen, sign, depth)
    cached = _letter_cache.get(key)
    if cached is None:
        if sign > 0:
            cached = {(): 1, (gen,): 1}
        else:
            cached = {(gen,) * k: (-1) ** k for k in range(depth + 1)}
        _letter_cache[key] = cached
    return cached


def magnus_expand(w, depth=DEFAULT_DEPTH, rank=None):
    """Image of the word under x_i -> 1 + X_i, truncated at total degree
    depth; inverses expand through the geometric series."""
    if depth < 1:
        raise ValueError("depth must be at least 1")
    if rank is None:
        rank = max(w.max_generator(), 1)
    series = MagnusSeries.one(rank, depth)
    for g, s in w.letters:
        series = series.multiply(
            MagnusSeries(rank, depth, _letter_series(g, s, depth))
        )
    return series


def magnus_compare(u, v, depth=DEFAULT_DEPTH):
    """Compare two words under the Magnus bi-ordering at the given depth."""
    if u == v:
        return Comparison.EQUAL
    series = magnus_expand(u * v.inverse(), depth)
    lead = series.leading_term()
    if lead is None:
        return Comparison.UNRESOLVED_AT_DEPTH
    return Comparison.GREATER if lead[1] > 0 else Comparison.LESS


class _Tally:
    """Comparison bookkeeping for the property suites.  Resolving a
    comparison at a shallow depth is sound (truncation only hides higher
    degrees), so cheap depths are tried first."""

    def __init__(self, depth):
        self.depth = depth
        self.resolved = 0
        self.unresolved = 0
        self.violations = 0
        ladder = [d for d in (2, 4) if d < depth]
        self.ladder = ladder + [depth]

    def compare(self, u, v):
        result = Comparison.UNRESOLVED_AT_DEPTH
        for d in self.ladder:
            result = magnus_compare(u, v, d)
            if result is not Comparison.UNRESOLVED_AT_DEPTH:
                break
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


def random_reduced_word(rng, rank, max_len=8, min_len=1):
    length = rng.randint(min_len, max_len)
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
    return FreeWord(letters)


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
            for n in range(2, 5):
                for m in range(2, 5):
                    big = commutator(a ** n, b ** m)
                    tally.expect(tally.compare(big, comm), Comparison.GREATER)
            for n in range(2, 5):
                big = commutator(a ** n, b ** n)
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

    existence_equal: the twisted polynomial has a positive real root exactly
    when the cover polynomial does (they differ by t -> t^d, a positive-root
    bijection).  gain: the twisted positive-root set strictly contains the
    classical one, i.e. the twisted polynomial would strengthen the verdict.
    """
    classical = classical_alexander(m).polynomial
    rep = regular_representation(f)
    twisted = twisted_alexander(m, rep).polynomial
    cover = build_cover(m, f)
    covered = cover_alexander(cover).polynomial

    classical_count = sturm_positive_root_count(classical)
    twisted_count = sturm_positive_root_count(twisted)
    cover_count = sturm_positive_root_count(covered)
    shared = common_positive_root_count(twisted, classical)

    return {
        "classical": format_polynomial(classical),
        "twisted": format_polynomial(twisted),
        "cover": format_polynomial(covered),
        "d": cover.d,
        "classical_positive_roots": classical_count,
        "twisted_positive_roots": twisted_count,
        "cover_positive_roots": cover_count,
        "existence_equal": (twisted_count > 0) == (cover_count > 0),
        "gain": shared == classical_count and twisted_count > classical_count,
        "twisted_obstructs": twisted_count == 0,
        "cover_obstructs": cover_count == 0,
    }
