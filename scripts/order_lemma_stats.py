#!/usr/bin/env python3
"""Randomized statistics for the Magnus-ordering property suites.

Runs the commutator-inequality suite and the bi-order axiom suite at a
chosen rank/trial count and prints the tallies as JSON.  Violations should
always be zero; the interesting number is the unresolved rate at shallow
depths.  Exits 1 when either suite reports a violation or resolves no
comparison, so that it never passes vacuously, else 0.  A rank, trial count
or depth below 1, or a seed not written in ASCII digits, exits 2 with a
usage error.
"""

import argparse
import json
import sys

from orderlex.cli import _int, _positive_int
from orderlex.ordering import bi_order_axiom_suite, lemma_comm_suite


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rank", type=_positive_int, default=2)
    parser.add_argument("--trials", type=_positive_int, default=500)
    parser.add_argument("--depth", type=_positive_int, default=6)
    parser.add_argument("--seed", type=_int, default=0)
    args = parser.parse_args()

    doc = {
        "rank": args.rank,
        "seed": args.seed,
        "commutators": lemma_comm_suite(
            args.rank, args.trials, depth=args.depth, seed=args.seed
        ),
        "axioms": bi_order_axiom_suite(
            args.rank, args.trials, depth=args.depth, seed=args.seed
        ),
    }
    print(json.dumps(doc, sort_keys=True, indent=2))
    suites = (doc["commutators"], doc["axioms"])
    return 1 if any(s["violations"] or not s["resolved"] for s in suites) else 0


if __name__ == "__main__":
    sys.exit(main())
