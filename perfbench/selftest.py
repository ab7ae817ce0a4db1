#!/usr/bin/env python3
"""Self-test of the benchmark itself.

Run from the root of a source checkout:

    python3 perfbench/selftest.py

It runs one tiny pass of every workload, untraced and traced, and checks
that the metric names and units match BENCHMARK.json, that every output
passed its checks, that after a traced run every wrapped binding is the
original object again, that no span's self time is negative, and that each
workload reaches the layers it exists to measure (and, for order_suites,
none of the polynomial layers).  It also checks the printed result line and
that the benchmark refuses to run without the library's sources.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys

import run
import tracer as tracing
import workloads

# Per-layer metrics that must be nonzero after a tiny traced pass.
REACHED = {
    "sweep": ("ordering.theorem2_s", "torus.twisted_calls", "torus.classical_s",
              "fox.specialize_calls", "linalg.snf_calls", "linalg.det_calls",
              "linalg.homology_s", "laurent.divmod_calls", "roots.sturm_calls",
              "covers.build_cover_s", "freegroup.apply_calls", "finite.regular_rep_s",
              "finite.enumerate_s", "finite.hom_yield_ratio"),
    "cover_ladder": ("covers.build_cover_s", "covers.cover_alexander_s",
                     "freegroup.power_s", "words.lifted_letters_max",
                     "covers.basis_rank_max", "torus.twisted_calls"),
    "order_suites": ("ordering.magnus_compare_calls", "ordering.resolved_ratio",
                     "ordering.magnus_expand_s"),
    "cli_report": ("manifest.load_calls", "cli.main_s", "cli.twisted_per_hom",
                   "torus.twisted_calls", "fox.rep_dim_max"),
}
# Per-layer metrics that must stay zero: the Magnus suites use no polynomial,
# matrix or endomorphism code.
UNREACHED = {
    "order_suites": ("torus.twisted_calls", "fox.specialize_calls", "linalg.snf_calls",
                     "freegroup.apply_calls", "laurent.divmod_calls"),
}


def check_run(workload, trace, units):
    problems = []
    args = run.parse_args(["--workload", workload, "--seconds", "0",
                           "--trace", str(trace), "--tiny"])
    doc, tr = run.measure(args)
    got = {name: m["unit"] for name, m in doc["metrics"].items()}
    if got != units:
        problems.append(f"metrics {sorted(got.items())} != BENCHMARK.json {sorted(units.items())}")
    bad = [n for n, m in doc["metrics"].items()
           if not isinstance(m["value"], (int, float)) or not math.isfinite(m["value"])
           or m["value"] < 0]
    if bad:
        problems.append(f"values not finite and nonnegative: {bad}")
    if doc["failed"] or doc["attempted"] < 1:
        problems.append(f"{doc['failed']} of {doc['attempted']} items failed: {doc['failures']}")
    if trace:
        if tr.missing:
            problems.append(f"targets not found: {tr.missing}")
        if not tr.patches:
            problems.append("nothing was wrapped")
        moved = [f"{getattr(o, '__name__', o)}.{n}" for o, n, orig in tr.patches
                 if vars(o).get(n) is not orig]
        if moved or tracing.leftover_wrappers():
            problems.append(f"not restored: {moved + tracing.leftover_wrappers()}")
        if tr.min_self_ns() < 0:
            problems.append("negative self time")
        values = {n: m["value"] for n, m in doc["metrics"].items()}
        problems += [f"{n} is 0" for n in REACHED[workload] if not values[n]]
        problems += [f"{n} is {values[n]}, expected 0"
                     for n in UNREACHED.get(workload, ()) if values[n]]
    return problems


def check_result_line():
    out = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", "order_suites",
         "--seconds", "0", "--tiny"],
        capture_output=True, text=True, timeout=120, cwd=run.ROOT,
    )
    last = json.loads(out.stdout.strip().splitlines()[-1])
    problems = [] if out.returncode == 0 else [f"exit code {out.returncode}"]
    if sorted(last) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"result keys {sorted(last)}")
    return problems


def check_refuses_without_sources():
    bare = run.WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(run.HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("work", "results", "__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        out = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            capture_output=True, text=True, timeout=120, cwd=bare,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if out.returncode == 0 or out.stdout.strip():
        return [f"ran without sources: exit {out.returncode}, stdout {out.stdout[-200:]!r}"]
    return []


def main():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    units = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    failures = 0
    if [w["name"] for w in spec["workloads"]] != list(workloads.WORKLOADS):
        print("FAIL workloads differ from BENCHMARK.json")
        failures += 1
    checks = [(f"{w} trace={t}", lambda w=w, t=t: check_run(w, t, units[t]))
              for w in workloads.WORKLOADS for t in (0, 1)]
    checks += [("result line", check_result_line),
               ("refuses without sources", check_refuses_without_sources)]
    for name, check in checks:
        problems = check()
        print(("FAIL " if problems else "ok   ") + name)
        for p in problems:
            print("     " + p)
        failures += bool(problems)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
