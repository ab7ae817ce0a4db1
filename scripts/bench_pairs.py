#!/usr/bin/env python3
"""Compare two checkouts on the benchmark by alternating pairs of runs.

Run from anywhere, with a checkout of the parent commit and one of the
change:

    python3 scripts/bench_pairs.py PARENT_DIR CHANGE_DIR --out BENCH_14.json \\
        --run cover_ladder 14001 14002 14003 --run sweep 14101 14102 \\
        --claim cover_ladder items_per_s

Both must be git work trees, so that the output names the parent commit:
make the parent with `git worktree add --detach PARENT_DIR PARENT_COMMIT`
or `git clone REPO PARENT_DIR` followed by a checkout of the commit, not
with `git archive`.  A directory that resolves no commit of its own exits 2
before any run.

Each seed of each --run makes one pair: one run of

    perfbench/run.py --workload W --seed S --seconds 16 --trace 0

in each checkout, one after the other, the parent first on even-numbered
pairs (0, 2, ...) of a workload and the change first on odd ones, so that
a slow stretch of the host does not always fall on the same side.  Each
run has PYTHONPYCACHEPREFIX set to a new, empty temporary directory, so
every run compiles the library afresh: __pycache__ left in one checkout
by earlier runs cannot shorten its import, which setup_s includes.  The
JSON object on the last line of each run's output gives its end-to-end
metrics, and the run's result document under perfbench/results/ gives its
machine fingerprint and source digest.  The output file holds, per
workload and metric, the quartiles of each side, the ratio of the medians
and the number of pairs the change won, in the schema of BENCH_13.json.
Quartiles are statistics.quantiles(..., n=4, method="inclusive").

--claim W M names the workload and end-to-end metric the change claims to
improve; a W with no --run or an M outside BENCHMARK.json's "end_to_end"
exits 2 before any run.  claim_met in the output is true when W ran at
least ten pairs, the change won at least nine tenths of them on M, ties
counting for neither, and its median beats the parent's by more than the
parent's q3 - q1; it is null without a claim.
"""

import argparse
import json
import os
import pathlib
import statistics
import subprocess
import sys
import tempfile

SIDES = ("parent", "change")
# the benchmark's run length, untraced
RUN_ARGS = ("--seconds", "16", "--trace", "0")


def commit_of(checkout):
    """The commit checked out at the top of the git work tree checkout, or
    None when checkout is not one (an export, or a directory inside another
    repository's tree)."""
    try:
        out = subprocess.run(["git", "-C", str(checkout), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True)
    except OSError:
        return None
    lines = out.stdout.split("\n")
    if out.returncode or pathlib.Path(lines[0]).resolve() != pathlib.Path(checkout).resolve():
        return None
    return lines[1]


def run_once(checkout, workload, seed):
    """(result line, result document) of one untraced run in checkout, with
    bytecode cached in a fresh directory."""
    with tempfile.TemporaryDirectory() as prefix:
        out = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
             *RUN_ARGS],
            cwd=checkout, capture_output=True, text=True,
            env=dict(os.environ, PYTHONPYCACHEPREFIX=prefix),
        )
    lines = out.stdout.strip().splitlines()
    try:
        line = json.loads(lines[-1])
    except (IndexError, ValueError):
        raise SystemExit(f"{checkout}: {workload} seed {seed}: exit {out.returncode}, "
                         f"no result line: {out.stderr.strip()[-300:]}")
    doc = json.loads((pathlib.Path(checkout) / "perfbench" / "results"
                      / f"{workload}-seed{seed}-trace0.json").read_text())
    return line, doc


def quartiles(values):
    q = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {name: round(x, 6) for name, x in zip(("q1", "median", "q3"), q)}


def summarize(seeds, pairs, spec):
    """The entry of one workload: seeds, pairs, failed items per side and,
    per end-to-end metric of spec (BENCHMARK.json's "end_to_end" list), the
    quartiles of each side, change median / parent median and the pairs in
    which the change did better.  pairs holds one {"parent": line,
    "change": line} per seed, each line the JSON object a run prints last."""
    entry = {
        "seeds": list(seeds),
        "pairs": len(pairs),
        "failed": {side: sum(p[side]["failed"] for p in pairs) for side in SIDES},
        "metrics": {},
    }
    for metric in spec:
        name = metric["name"]
        values = {side: [p[side]["metrics"][name]["value"] for p in pairs] for side in SIDES}
        sign = 1 if metric["better"] == "higher" else -1
        wins = sum(sign * (c - p) > 0 for p, c in zip(values["parent"], values["change"]))
        parent, change = quartiles(values["parent"]), quartiles(values["change"])
        entry["metrics"][name] = {
            "unit": metric["unit"],
            "better": metric["better"],
            "bound": metric["bound"],
            "parent": parent,
            "change": change,
            "change_over_parent": (round(change["median"] / parent["median"], 4)
                                   if parent["median"] else None),
            "change_wins": wins,
        }
    return entry


def claim_met(entry, metric):
    """Whether metric of one workload entry of summarize meets the claim
    rule: at least ten pairs, of which the change won at least nine tenths,
    and a median gap in the better direction wider than the parent's
    q3 - q1."""
    m = entry["metrics"][metric]
    parent, change = m["parent"], m["change"]
    sign = 1 if m["better"] == "higher" else -1
    gap = sign * (change["median"] - parent["median"])
    return (entry["pairs"] >= 10 and 10 * m["change_wins"] >= 9 * entry["pairs"]
            and gap > parent["q3"] - parent["q1"])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=pathlib.Path, help="checkout of the parent commit")
    parser.add_argument("change", type=pathlib.Path, help="checkout of the change")
    parser.add_argument("--out", type=pathlib.Path, required=True)
    parser.add_argument("--run", nargs="+", action="append", required=True,
                        metavar=("WORKLOAD", "SEED"), help="a workload and its seeds")
    parser.add_argument("--claim", nargs=2, metavar=("WORKLOAD", "METRIC"))
    args = parser.parse_args(argv)
    spec = json.loads((args.change / "BENCHMARK.json").read_text())["end_to_end"]
    if args.claim:
        workload, metric = args.claim
        if workload not in (run[0] for run in args.run):
            parser.error(f"--claim {workload} {metric}: no --run of workload {workload}")
        if metric not in (m["name"] for m in spec):
            parser.error(f"--claim {workload} {metric}: {metric} is not an end-to-end metric "
                         f"of BENCHMARK.json ({', '.join(m['name'] for m in spec)})")
    checkouts = {"parent": args.parent, "change": args.change}
    commits = {side: commit_of(checkouts[side]) for side in SIDES}
    for side in SIDES:
        if commits[side] is None:
            parser.error(f"{checkouts[side]}: the {side} checkout is not a git work tree "
                         "with a commit; make it with git worktree add --detach or git clone")
    workloads, fingerprints = {}, {}
    for workload, *seeds in args.run:
        seeds = [int(s) for s in seeds]
        if not seeds:
            parser.error(f"--run {workload} names no seed")
        pairs = []
        for k, seed in enumerate(seeds):
            pair = {}
            for side in SIDES if k % 2 == 0 else SIDES[::-1]:
                pair[side], doc = run_once(checkouts[side], workload, seed)
                fingerprints[side] = doc["fingerprint"]
                value = pair[side]["metrics"]["items_per_s"]["value"]
                print(f"{workload} seed {seed} {side}: {value:.1f} items/s, "
                      f"{pair[side]['failed']} failed", flush=True)
            pairs.append(pair)
        workloads[workload] = summarize(seeds, pairs, spec)
    machine = fingerprints["change"]
    out = {
        "what": "end-to-end metrics of the parent commit and of this change, "
                "from alternating pairs of runs",
        "command": "python3 perfbench/run.py --workload W --seed S " + " ".join(RUN_ARGS),
        "pairing": "one parent and one change run per seed, the parent first on "
                   "even-numbered pairs",
        "parent_commit": commits["parent"],
        "claimed": ({"workload": args.claim[0], "metric": args.claim[1]}
                    if args.claim else None),
        "claim_met": claim_met(workloads[args.claim[0]], args.claim[1]) if args.claim else None,
        "workloads": workloads,
        "machine": {k: machine[k] for k in ("cpu_model", "nproc", "python")},
        "source_digest": {side: fingerprints[side]["source_digest"] for side in SIDES},
    }
    args.out.write_text(json.dumps(out, indent=1) + "\n")
    if args.claim:
        print(f"claim {' '.join(args.claim)}: {'met' if out['claim_met'] else 'not met'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
