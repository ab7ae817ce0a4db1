#!/usr/bin/env python3
"""Sweep the automorphism battery against every small finite group.

For each certified automorphism and each valid homomorphism to a group of
order <= 6 (deduplicated by the induced map onto its image), verify that
the twisted polynomial of the regular representation equals the classical
polynomial of the corresponding cover, and that the two agree on whether a
positive real root exists; print root-count summaries and the time spent
enumerating homomorphism classes.  A check fails when either comparison
does.  Exits 1 when any check fails or when no check ran, else 0.
"""

import argparse
import sys
import time

from orderlex.autos import standard_battery
from orderlex.finite import homomorphism_classes
from orderlex.ordering import theorem2_report
from orderlex.torus import MappingTorus


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--verbose", action="store_true", help="one line per check")
    args = parser.parse_args()

    start = time.perf_counter()
    enumeration = 0.0
    total = mismatches = 0
    for label, auto in standard_battery():
        torus = MappingTorus(auto.rank, auto, label=label)
        began = time.perf_counter()
        homs = homomorphism_classes(torus.monodromy)
        enumeration += time.perf_counter() - began
        rows = []
        for f in homs.values():
            report = theorem2_report(torus, f)
            ok = report["existence_equal"] and report["twisted"] == report["cover"]
            total += 1
            if not ok:
                mismatches += 1
            if args.verbose:
                rows.append(
                    f"    d={report['d']}  twisted={report['twisted']}"
                    f"  roots {report['twisted_positive_roots']}"
                    f"/{report['cover_positive_roots']}  ok={ok}"
                )
        print(f"{label:20s} {len(homs):3d} homomorphism classes")
        for row in rows:
            print(row)
    print()
    print(
        f"{total} checks, {mismatches} mismatches, {time.perf_counter() - start:.1f}s"
        f" (enumeration {enumeration:.2f}s)"
    )
    return 1 if mismatches or not total else 0


if __name__ == "__main__":
    sys.exit(main())
