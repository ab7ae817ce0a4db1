#!/usr/bin/env python3
"""Check that the tests kill every mutant in tests/data/mutants.json.

Run from anywhere, with pytest and the test extras installed:

    python scripts/mutants.py

A mutant replaces one exact text of one file with another: a fault that a
check of the library or a test must catch.  Each catalogue entry names the
file, the old text, its replacement, the test ids that must fail, and why.
The script copies src/, tests/, the manifests the tests read,
pyproject.toml and, for the benchmark's self-test, perfbench/ and
BENCHMARK.json to a temporary directory, so that pytest's pythonpath =
["src"] imports the copy, and first runs every named test there unmutated:
they must pass.  Then it applies one mutant at a time and runs

    python -m pytest -q -x -p no:cacheprovider <its test ids>

in the copy, with no bytecode written, so each mutated file is compiled
afresh.  A mutant is killed when a test fails (pytest exits 1); a collection
or usage error kills nothing.  Exits 1, naming each, when a mutant is not
killed or its old text does not occur exactly once in its file, and when
the named tests fail unmutated; else 0.
"""

import json
import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
CATALOGUE = ROOT / "tests" / "data" / "mutants.json"
PYTEST = ("-m", "pytest", "-q", "-x", "-p", "no:cacheprovider")


def run_tests(copy, ids):
    """pytest's exit code and output for the tests ids, run in the copy."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    out = subprocess.run([sys.executable, *PYTEST, *ids], cwd=copy, env=env,
                         capture_output=True, text=True)
    return out.returncode, out.stdout


def main():
    mutants = json.loads(CATALOGUE.read_text())
    not_killed = []
    with tempfile.TemporaryDirectory() as tmp:
        copy = pathlib.Path(tmp)
        for name in ("src", "tests", "manifests", "perfbench"):
            shutil.copytree(ROOT / name, copy / name,
                            ignore=shutil.ignore_patterns("__pycache__", "results", "work"))
        for name in ("pyproject.toml", "BENCHMARK.json"):
            shutil.copy2(ROOT / name, copy)
        ids = list(dict.fromkeys(i for m in mutants for i in m["tests"]))
        code, output = run_tests(copy, ids)
        if code:
            print(output)
            print("the named tests fail unmutated; no mutant was run")
            return 1
        for k, m in enumerate(mutants):
            label = f"mutants[{k}] {m['file']}: {m['why']}"
            path = copy / m["file"]
            source = path.read_text()
            found = source.count(m["old"])
            if found != 1:
                print(f"old text found {found} times  {label}")
                not_killed.append(label)
                continue
            path.write_text(source.replace(m["old"], m["new"]))
            began = time.perf_counter()
            try:
                code = run_tests(copy, m["tests"])[0]
            finally:
                path.write_text(source)
            outcome = {0: "SURVIVED", 1: "killed"}.get(code, f"pytest exited {code}")
            print(f"{outcome} in {time.perf_counter() - began:.1f} s  {label}")
            if code != 1:
                not_killed.append(label)
    print(f"{len(mutants)} mutants, {len(not_killed)} not killed")
    for label in not_killed:
        print(f"  {label}")
    return 1 if not_killed else 0


if __name__ == "__main__":
    sys.exit(main())
