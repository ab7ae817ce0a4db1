"""Acceptance battery: one test per shipped guarantee, each emitting a
single pass/fail line (replayed in the terminal summary).

Every check here runs on exact rational arithmetic; timing bounds are
wall-clock on the worked examples, generous enough for CI noise.

Acceptance 5 also compares every theorem2_report of the battery sweep with
the snapshot in data/battery_sweep.json.  After a deliberate change of that
output, rewrite the snapshot with

    PYTHONPATH=src python tests/test_acceptance.py
"""

import json
import pathlib
import random
import time
from collections import Counter
from fractions import Fraction
from itertools import combinations, islice

from _acceptance_log import LINES
from _laurent_literal import L, reference_det

from orderlex import finite
from orderlex.autos import figure_eight_monodromy, identity_automorphism, standard_battery
from orderlex.covers import verify_shapiro
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
from orderlex.laurent import (
    LaurentPolynomial,
    poly_divmod,
    poly_gcd,
)
from orderlex.linalg import PolynomialMatrix, RationalMatrix
from orderlex.ordering import (
    OrderStatus,
    bi_order_axiom_suite,
    clay_rolfsen_verdict,
    has_positive_real_eigenvalue,
    lemma_comm_suite,
    theorem2_report,
)
from orderlex.roots import sturm_positive_root_count
from orderlex.torus import MappingTorus, classical_alexander, lemma4_check, lemma5_check, twisted_alexander


SWEEP_SNAPSHOT = pathlib.Path(__file__).resolve().parent / "data" / "battery_sweep.json"


def _record(number, ok, detail):
    line = f"[acceptance {number}] {'PASS' if ok else 'FAIL'}: {detail}"
    LINES.append(line)
    print(line)
    assert ok, line


def _fig8():
    return MappingTorus(2, figure_eight_monodromy(), label="figure-eight")


def _id2():
    return MappingTorus(2, identity_automorphism(2), label="trivial-monodromy")


def _stable_cyclic_hom(torus, k, label=None):
    g = cyclic_group(k)
    f = TorusHomomorphism(
        g, (g.identity(),) * torus.fiber_rank, g.element(1), label=label or f"z{k}"
    )
    f.require_well_defined(torus.monodromy)
    return f


def _deduped_regular_reps(torus, groups):
    reps = [trivial_representation(torus.fiber_rank)]
    seen = set()
    for group in groups:
        for f in enumerate_homomorphisms(torus.monodromy, group):
            key = f.image_key()
            if key in seen:
                continue
            seen.add(key)
            reps.append(regular_representation(f))
    return reps


def test_acceptance_1_worked_example():
    start = time.perf_counter()
    torus = _fig8()
    abel = [[int(x) for x in row] for row in torus.monodromy.abelianization().to_lists()]

    classical = classical_alexander(torus).polynomial
    verdict = clay_rolfsen_verdict(classical)

    rep = regular_representation(_stable_cyclic_hom(torus, 2))
    twisted = twisted_alexander(torus, rep).polynomial
    expected_twisted = (L("t^2 + 3*t + 1") * L("t^2 - 3*t + 1")).canonicalize()

    shared = sturm_positive_root_count(poly_gcd(classical, twisted))
    elapsed = time.perf_counter() - start

    ok = (
        abel == [[2, 1], [1, 1]]
        and classical == L("t^2 - 3*t + 1")
        and sturm_positive_root_count(classical) == 2
        and verdict.status is OrderStatus.BIORDERABLE
        and twisted == expected_twisted
        and sturm_positive_root_count(twisted) == 2
        and shared == 2
        and elapsed < 1.0
    )
    _record(
        1,
        ok,
        "classical t^2 - 3*t + 1 with 2 positive roots, verdict "
        f"{verdict.status.value}, twisted (t^2+3*t+1)(t^2-3*t+1), "
        f"root sets coincide, {elapsed:.2f}s",
    )


def test_acceptance_2_shapiro_cross_check():
    start = time.perf_counter()
    checks = []

    fig8 = _fig8()
    for k in (2, 3, 4, 5):
        checks.append(verify_shapiro(fig8, _stable_cyclic_hom(fig8, k)))

    ident = _id2()
    g = cyclic_group(2)
    for stable in (0, 1):
        f = TorusHomomorphism(g, (g.element(1), g.identity()), g.element(stable))
        f.require_well_defined(ident.monodromy)
        checks.append(verify_shapiro(ident, f))

    mismatches = sum(1 for c in checks if not c["equal"])
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and elapsed < 5.0
    _record(
        2,
        ok,
        f"{len(checks)} twisted-vs-cover comparisons (fig8 Z2..Z5, "
        f"identity/Z2 with f(a) != 0), {mismatches} mismatches, {elapsed:.2f}s",
    )


def test_acceptance_3_rescaling():
    fig8 = _fig8()
    ident = _id2()
    battery = [
        (fig8, trivial_representation(2)),
        (fig8, regular_representation(_stable_cyclic_hom(fig8, 2))),
        (fig8, regular_representation(_stable_cyclic_hom(fig8, 3))),
        (fig8, regular_representation(_stable_cyclic_hom(fig8, 5))),
        (
            fig8,
            trivial_representation(2).direct_sum(
                regular_representation(_stable_cyclic_hom(fig8, 2)),
            ),
        ),
        (ident, trivial_representation(2)),
    ]
    g = cyclic_group(2)
    f = TorusHomomorphism(g, (g.element(1), g.identity()), g.element(1))
    f.require_well_defined(ident.monodromy)
    battery.append((ident, regular_representation(f)))

    failures = 0
    count = 0
    for torus, rep in battery:
        for report in lemma4_check(torus, rep, (2, 3)):
            count += 1
            if not report["equal"]:
                failures += 1
    ok = failures == 0
    _record(
        3,
        ok,
        f"Smith form of b2 built at t^d == twisted(m, rep, 1) at t^d for "
        f"d in (2, 3) on {len(battery)} representations ({count} checks, "
        f"{failures} failures)",
    )


def test_acceptance_4_direct_sum_multiplicativity():
    groups = [cyclic_group(2), cyclic_group(3), symmetric_group(3)]
    fig8 = _fig8()
    ident = _id2()
    pools = [(fig8, _deduped_regular_reps(fig8, groups)), (ident, _deduped_regular_reps(ident, groups))]

    rng = random.Random(20260815)
    pairs = 0
    failures = 0
    max_dim = 0
    for torus, pool in pools:
        pool = [rep for rep in pool if rep.dimension <= 6]
        sampled = [(rng.choice(pool), rng.choice(pool)) for _ in range(10)]
        # make sure the top dimension is always exercised
        largest = max(pool, key=lambda rep: rep.dimension)
        sampled.append((largest, rng.choice(pool)))
        for (a, b), equal in zip(sampled, lemma5_check(torus, sampled)):
            max_dim = max(max_dim, a.dimension, b.dimension)
            pairs += 1
            if not equal:
                failures += 1
    ok = pairs >= 20 and failures == 0 and max_dim == 6
    _record(
        4,
        ok,
        f"direct-sum multiplicativity on {pairs} randomized pairs over "
        f"Z2/Z3/S3 regular representations (max dim {max_dim}), "
        f"{failures} failures",
    )


def _battery_sweep():
    """Yield (battery label, image key, torus, f) for one homomorphism per
    image class of each battery map into the groups of order <= 6."""
    for label, auto in standard_battery():
        torus = MappingTorus(auto.rank, auto, label=label)
        for key, f in homomorphism_classes(torus.monodromy).items():
            yield label, json.dumps(key, separators=(",", ":")), torus, f


def test_acceptance_5_twisted_never_strengthens_cover_verdict():
    start = time.perf_counter()
    autos = standard_battery()
    snapshot = json.loads(SWEEP_SNAPSHOT.read_text())
    expected_classes = sum(len(classes) for classes in snapshot.values())
    total = existence_mismatches = strengthenings = snapshot_mismatches = 0
    for label, key, torus, f in _battery_sweep():
        report = theorem2_report(torus, f)
        total += 1
        if report != snapshot.get(label, {}).get(key):
            snapshot_mismatches += 1
        if not report["existence_equal"]:
            existence_mismatches += 1
        if report["twisted_obstructs"] and not report["cover_obstructs"]:
            strengthenings += 1
    elapsed = time.perf_counter() - start
    ok = (
        len(autos) >= 10
        and existence_mismatches == 0
        and strengthenings == 0
        and snapshot_mismatches == 0
        and total == expected_classes
    )
    _record(
        5,
        ok,
        f"{len(autos)} automorphisms x groups of order <= 6: {total} "
        f"homomorphism classes, positive-root existence twisted == cover in "
        f"all, 0 verdicts strengthened, {snapshot_mismatches} reports differ "
        f"from the {expected_classes}-class snapshot, {elapsed:.1f}s",
    )


def test_sweep_certifies_each_fact_once(monkeypatch):
    """Over every 16th acceptance-5 class: enumerate_homomorphisms checks no
    permutation (group elements are certified by FiniteGroup), and
    theorem2_report makes no relator check and no permutation check."""
    calls = Counter()
    enumerating = []

    def counting(owner, name, key):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[key(*args)] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    counting(finite, "_check_permutation",
             lambda *a: "permutation check" + (" in enumeration" if enumerating else ""))
    original_enumerate = finite.enumerate_homomorphisms

    def enumerate_marked(*args):
        enumerating.append(args)
        try:
            return original_enumerate(*args)
        finally:
            enumerating.pop()

    monkeypatch.setattr(finite, "enumerate_homomorphisms", enumerate_marked)
    classes = list(islice(_battery_sweep(), 0, None, 16))
    # the catalog's groups check their generators
    assert calls.pop("permutation check") > 0
    assert calls == {}

    counting(FiniteRepresentation, "satisfies_relations", lambda *a: "relator check")
    for _, _, torus, f in classes:
        theorem2_report(torus, f)
    assert len(classes) == 16 and calls == {}


def test_acceptance_6_bi_order_axioms():
    reports = [
        bi_order_axiom_suite(2, 500, depth=6, seed=601),
        bi_order_axiom_suite(3, 500, depth=6, seed=602),
    ]
    trials = sum(r["trials"] for r in reports)
    violations = sum(r["violations"] for r in reports)
    resolved = sum(r["resolved"] for r in reports)
    unresolved = sum(r["unresolved"] for r in reports)
    rate = unresolved / (resolved + unresolved)
    ok = trials == 1000 and violations == 0
    _record(
        6,
        ok,
        f"{trials} random triples (ranks 2-3, length <= 8, depth 6): "
        f"{violations} axiom violations, unresolved rate {rate:.4f}",
    )


def test_acceptance_7_commutator_inequalities():
    report = lemma_comm_suite(2, 500, depth=6, seed=701)
    ok = report["trials"] == 500 and report["violations"] == 0
    _record(
        7,
        ok,
        f"500 trials of parts (1)-(3) plus the N <= 4 sandwich: "
        f"{report['violations']} violations, {report['resolved']} resolved "
        f"comparisons, {report['unresolved']} unresolved",
    )


def test_acceptance_8_triangular_positive_diagonal():
    rng = random.Random(801)
    failures = 0
    for _ in range(100):
        n = rng.randint(2, 5)
        rows = [
            [
                Fraction(rng.randint(1, 9))
                if i == j
                else (Fraction(rng.randint(-9, 9)) if j > i else Fraction(0))
                for j in range(n)
            ]
            for i in range(n)
        ]
        if not has_positive_real_eigenvalue(RationalMatrix(rows)):
            failures += 1
    ok = failures == 0
    _record(
        8,
        ok,
        f"100 random triangular matrices (sizes 2-5, positive diagonal): "
        f"has_positive_real_eigenvalue true in all, {failures} failures",
    )


def _determinantal_factors(pm):
    n = pm.rows
    factors = []
    prev = LaurentPolynomial.one()
    for k in range(1, n + 1):
        acc = LaurentPolynomial.zero()
        for rs in combinations(range(n), k):
            for cs in combinations(range(n), k):
                minor = PolynomialMatrix([[pm.entry(i, j) for j in cs] for i in rs])
                acc = poly_gcd(acc, reference_det(minor))
        acc = acc.canonicalize()
        if acc.is_zero:
            factors.append(LaurentPolynomial.zero())
        else:
            quotient, remainder = poly_divmod(acc, prev)
            assert remainder.is_zero
            factors.append(quotient.canonicalize())
            prev = acc
    return factors


def test_acceptance_9_exact_algebra_oracles():
    rng = random.Random(901)
    snf_failures = 0
    for _ in range(50):
        entries = [
            [
                LaurentPolynomial(
                    {e: Fraction(rng.randint(-3, 3)) for e in range(3)}
                )
                for _ in range(4)
            ]
            for _ in range(4)
        ]
        pm = PolynomialMatrix(entries)
        got = [f.canonicalize() for f in pm.smith_normal_form()]
        if got != _determinantal_factors(pm):
            snf_failures += 1

    sturm_failures = 0
    for _ in range(100):
        count = rng.randint(1, 5)
        roots = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(count)]
        p = LaurentPolynomial.one()
        for r in roots:
            p = p * LaurentPolynomial({1: Fraction(1), 0: -r})
        truth = len({r for r in roots if r > 0})
        if p.is_zero or sturm_positive_root_count(p) != truth:
            sturm_failures += 1

    ok = snf_failures == 0 and sturm_failures == 0
    _record(
        9,
        ok,
        f"SNF == determinantal divisors on 50 random 4x4 matrices "
        f"({snf_failures} failures); Sturm counts == constructed root "
        f"ground truth on 100 linear-factor products ({sturm_failures} failures)",
    )


if __name__ == "__main__":
    doc = {}
    for label, key, torus, f in _battery_sweep():
        doc.setdefault(label, {})[key] = theorem2_report(torus, f)
    SWEEP_SNAPSHOT.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
