#!/usr/bin/env python3
"""Check every benchmark workload against its golden output digests.

Run from anywhere in a source checkout:

    python3 scripts/golden_check.py              # seeds 0 and 1
    python3 scripts/golden_check.py --seeds 0 5 11

For each workload in BENCHMARK.json and each seed it runs one pass of

    perfbench/run.py --workload W --seed S --seconds 0 --trace 0

and reads the JSON object on the last line of its output.  An item fails
when its output check fails or its output digest differs from the one in
perfbench/golden/W.json.  run.py exits 0 even when items fail, so this
script turns them into an exit code: 1 unless every run is correct, and
also 1 for a seed with no golden entry, since such a run compares no
digest.
"""

import argparse
import json
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def check(workload, seed):
    """None when the run is correct, else the problem."""
    golden = json.loads((ROOT / "perfbench" / "golden" / f"{workload}.json").read_text())
    if str(seed) not in golden["seeds"]:
        return "no golden digests for this seed"
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True,
    )
    lines = out.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return f"exit {out.returncode}, no result line: {out.stderr.strip()[-300:]}"
    if out.returncode or not result["correct"]:
        return f"exit {out.returncode}, {result['failed']} of {result['attempted']} items failed"
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 1])
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failed = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for seed in args.seeds:
            problem = check(workload, seed)
            print(f"{'FAIL' if problem else 'ok  '} {workload} seed {seed}"
                  + (f": {problem}" if problem else ""), flush=True)
            failed += problem is not None
    print(f"{failed} of {len(spec['workloads']) * len(args.seeds)} runs failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
