#!/usr/bin/env python3
"""orderlex benchmark: seeded closed-loop workloads over the public API.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 16 --trace 0

One caller in one process issues one item at a time, each only after the
previous one has finished and been checked.  The seed fixes a *pass* (the
list of items).  A run makes a fixed number of passes, set by ``--seconds``
and the workload's nominal pass length, each after a fresh set-up; every
item's time is rescaled to a reference host speed (see ``REFERENCE_S``), and
the metrics use each item's median over the passes.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` first makes
half the passes untraced, then wraps the library's public calls and runs
again, and prints the per-layer metrics; the full result, with the tracing
overhead, goes to ``perfbench/results/``.  The last line of standard output
is always one JSON object with the keys correct, attempted, failed, metrics.

``--write-golden`` records the output digests of one pass per seed into
``perfbench/golden/<workload>.json`` instead of measuring.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
import types
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
GOLDEN = HERE / "golden"
WORK = HERE / "work"

import tracer as tracing  # noqa: E402  (sibling module; the script dir is on sys.path)
import workloads  # noqa: E402

MODULES = ("autos", "covers", "finite", "manifest", "ordering", "torus", "words", "cli")


def load_library():
    """Import orderlex from this checkout's src/, dropping any earlier
    import, so that every set-up pays for the import."""
    for name in [n for n in sys.modules if n == "orderlex" or n.startswith("orderlex.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    package = importlib.import_module("orderlex")
    if Path(package.__file__).resolve().parent != SRC / "orderlex":
        raise ImportError(f"orderlex imported from {package.__file__}, not from {SRC}")
    return types.SimpleNamespace(
        **{name: importlib.import_module(f"orderlex.{name}") for name in MODULES}
    )


# The host shares its cores with other work, which slows every process on
# it, by up to about 1.8x, for stretches from seconds to minutes.  Every timed
# stretch is therefore rescaled by the speed of a fixed reference loop timed
# just before and just after it: times are given as on a host where the loop
# takes REFERENCE_S (a 2-vCPU Xeon when nothing else runs on its cores).
REFERENCE_S = 0.9e-3


def reference_loop():
    """Fixed pure-Python work of the kinds the library does: rational
    arithmetic, tuple keys, dict updates and a sort."""
    counts = {}
    acc = Fraction(0)
    keys = []
    for i in range(400):
        key = (i % 97, i % 13)
        counts[key] = counts.get(key, 0) + i
        acc += Fraction(i % 7, 1 + i % 5)
        keys.append(key[0] ^ key[1])
    keys.sort()
    return acc, len(counts)


def reference_time():
    start = time.perf_counter()
    reference_loop()
    return time.perf_counter() - start


def rescale(wall, before, after):
    """Wall time as on the reference host, from the reference loop's times
    just before and just after."""
    return wall * 2 * REFERENCE_S / (before + after)


def set_up(workload, seed, tiny, workdir):
    """Import the library and build the seed's items; return (set-up time
    rescaled to the reference host, lib, items, inputs)."""
    before = reference_time()
    start = time.perf_counter()
    lib = load_library()
    items, inputs = workloads.build(workload, lib, seed, tiny, workdir)
    workloads.warm_up(workload, lib, workdir)
    wall = time.perf_counter() - start
    return rescale(wall, before, reference_time()), lib, items, inputs


def inputs_digest(items, inputs):
    return workloads.digest({"items": [it.key for it in items], "files": inputs})


def key_digest(item):
    return hashlib.sha256(item.key.encode()).hexdigest()[:16]


class Phase:
    """Outcome of a number of passes over one seed's items."""

    def __init__(self):
        self.keys = None  # item keys of the first pass
        self.times = None  # per pass item: rescaled times of its runs that passed
        self.attempted = 0
        self.failures = []
        self.elapsed = 0.0  # wall time of the passes, set-ups excluded
        self.references = []  # reference loop times taken between items
        self.passes = 0
        self.setups = []
        self.item_kinds = {}
        self.report_homs = 0

    def typical(self):
        """Median rescaled time of each pass item over the passes.  The
        median drops a run during which the host changed speed, so that
        the reference loop misjudged it."""
        return [statistics.median(t) for t in self.times if t]

    @property
    def items_per_s(self):
        typical = self.typical()
        return len(typical) / sum(typical) if typical else 0.0


def run_item(item, golden):
    """Call one item; return (wall seconds, output, problem or None)."""
    start = time.perf_counter()
    try:
        output, problem = item.call()
    except Exception as e:  # an item that raises is a failed item, not a crash
        wall = time.perf_counter() - start
        return wall, None, f"{type(e).__name__}: {e}\n{traceback.format_exc(limit=3)}"
    wall = time.perf_counter() - start
    if problem is None and golden is not None:
        want = golden.get(key_digest(item))
        if want != workloads.digest(output):
            problem = f"output digest {workloads.digest(output)} != golden {want}"
    return wall, output, problem


def run_pass(phase, items, golden, tracer=None):
    keys = [item.key for item in items]
    if phase.keys is None:
        phase.keys = keys
        phase.times = [[] for _ in items]
    elif keys != phase.keys:
        phase.failures.append({"item": "inputs",
                               "problem": "set-up built other items from the same seed"})
        return
    start = time.perf_counter()
    before = reference_time()
    for index, item in enumerate(items):
        if tracer is not None:
            tracer.item = phase.attempted
            phase.item_kinds[phase.attempted] = item.kind
        wall, output, problem = run_item(item, golden)
        if tracer is not None:
            tracer.item = tracing.SETUP
        after = reference_time()
        phase.references.append(after)
        phase.attempted += 1
        if problem is None:
            phase.times[index].append(rescale(wall, before, after))
            if item.kind == "report":
                phase.report_homs += len(output["homomorphisms"])
        else:
            phase.failures.append({"item": item.key, "problem": problem})
        before = after
    phase.elapsed += time.perf_counter() - start
    phase.passes += 1


def passes_in_run(workload, seconds):
    """Passes one run makes: set by --seconds and the workload's nominal
    pass length, never by how fast the code runs, so that two versions of
    the library are compared over the same number of runs of every item."""
    return max(1, round(seconds / workloads.PASS_SECONDS[workload]))


def tail(times):
    """Time of the pass item with ten pass items beyond it, and its
    percentile: both depend only on the seed's pass, not on how many passes
    a run made."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git_commit():
    """Commit of the checkout, read from .git without running git; None
    when the checkout is not a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "orderlex").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def fingerprint(args, n_items, tail_pct):
    return {
        "python": platform.python_version(),
        "cpu_model": _cpu_model(),
        "nproc": os.cpu_count(),
        "git_commit": _git_commit(),
        "source_digest": _source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "item_count": n_items,
        "tail_percentile": tail_pct,
    }


def load_golden(workload, seed):
    path = GOLDEN / f"{workload}.json"
    if not path.exists():
        return None
    return json.loads(path.read_text())["seeds"].get(str(seed))


def measure(args):
    """Run one benchmark invocation; return (result document, tracer or None)."""
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    passes = passes_in_run(args.workload, args.seconds)
    golden_entry = load_golden(args.workload, args.seed)
    golden = golden_entry["outputs"] if golden_entry else None
    tracer = None
    try:
        # Every untraced pass gets a set-up of its own: each pass starts from
        # the same freshly imported library, and the set-up times are spread
        # over the run like the item times.
        untraced = Phase()
        for _ in range(max(1, passes // 2) if args.trace else passes):
            seconds, lib, items, inputs = set_up(args.workload, args.seed, args.tiny, workdir)
            untraced.setups.append(seconds)
            run_pass(untraced, items, golden)
        digest_in = inputs_digest(items, inputs)
        phases = [untraced]
        if args.trace:
            tracer = tracing.Tracer()
            tracer.install()
            try:
                traced = Phase()
                items, inputs = workloads.build(args.workload, lib, args.seed, args.tiny, workdir)
                workloads.warm_up(args.workload, lib, workdir)
                for _ in range(max(1, passes - passes // 2)):
                    run_pass(traced, items, golden, tracer)
            finally:
                leftovers = tracer.restore()
            phases.append(traced)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    measured = phases[-1]
    attempted = sum(p.attempted for p in phases)
    failures = [f for p in phases for f in p.failures]
    if tracer is not None and leftovers:
        failures.append({"item": "tracer", "problem": f"not restored: {leftovers}"})
    typical = measured.typical() or [0.0]  # no item passed: correct is false anyway
    tail_ms, tail_pct = tail(typical)
    doc = {
        "fingerprint": fingerprint(args, len(typical), tail_pct),
        "inputs_digest": digest_in,
        # None when the seed has no golden entry
        "golden_inputs_match": golden_entry and golden_entry["inputs"] == digest_in,
        "pass_items": len(measured.keys),
        "passes": measured.passes,
        "attempted": attempted,
        "failed": len(failures),
        "failed_ratio": len(failures) / attempted,
        "failures": failures[:20],
        "setup_runs_s": untraced.setups,
        # items over the wall time of the passes, not rescaled
        "wall_items_per_s": measured.attempted / measured.elapsed,
        # how much slower than the reference host this host ran
        "host_slowdown": statistics.median(measured.references) / REFERENCE_S,
    }
    if not args.trace:
        doc["metrics"] = {
            "items_per_s": {"value": measured.items_per_s, "unit": "1/s"},
            "item_p50_ms": {"value": statistics.median(typical) * 1e3, "unit": "ms"},
            "item_tail_ms": {"value": tail_ms * 1e3, "unit": "ms"},
            "setup_s": {"value": statistics.median(untraced.setups), "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "unit": "MB",
            },
        }
    else:
        doc["metrics"] = tracing.layer_metrics(
            tracer, measured.item_kinds, measured.report_homs, 1 / doc["host_slowdown"])
        doc["tracing"] = {
            "untraced_items_per_s": untraced.items_per_s,
            "traced_items_per_s": measured.items_per_s,
            "overhead_ratio": (untraced.items_per_s / measured.items_per_s
                               if measured.items_per_s else None),
            "wrapped_bindings": len(tracer.patches),
            "missing_targets": tracer.missing,
            "not_restored": leftovers,
            "min_self_ns": tracer.min_self_ns(),
            "spans": [
                {"layer": layer, "item": item, "calls": agg[0], "wall_ns": agg[1],
                 "self_ns": agg[2]}
                for (layer, item), agg in sorted(tracer.spans.items(), key=str)
            ],
        }
    return doc, tracer


def write_golden(args):
    path = GOLDEN / f"{args.workload}.json"
    data = json.loads(path.read_text()) if path.exists() else {"seeds": {}}
    workdir = WORK / f"golden-{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        for seed in args.write_golden:
            _, _, items, inputs = set_up(args.workload, seed, False, workdir)
            outputs = {}
            for item in items:
                _, output, problem = run_item(item, None)
                if problem is not None:
                    raise SystemExit(f"seed {seed}: {item.key}: {problem}")
                outputs[key_digest(item)] = workloads.digest(output)
            data["seeds"][str(seed)] = {"inputs": inputs_digest(items, inputs),
                                        "outputs": outputs}
            print(f"{args.workload} seed {seed}: {len(outputs)} outputs", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    data["source_digest"] = _source_digest()
    data["seeds"] = dict(sorted(data["seeds"].items(), key=lambda kv: int(kv[0])))
    GOLDEN.mkdir(exist_ok=True)
    path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=16.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="a few cheap items per pass, for the self-test")
    parser.add_argument("--write-golden", type=int, nargs="+", metavar="SEED",
                        help="record golden output digests for these seeds")
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "orderlex" / "__init__.py").is_file():
        print(f"error: no orderlex sources under {SRC}", file=sys.stderr)
        return 2
    if args.write_golden:
        write_golden(args)
        return 0
    doc, _ = measure(args)
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    for name, m in doc["metrics"].items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    print(f"{args.workload}: {doc['attempted']} items, {doc['failed']} failed, "
          f"{doc['passes']} passes of {doc['pass_items']}; result in {out.relative_to(ROOT)}")
    print(json.dumps({
        "correct": doc["failed"] == 0,
        "attempted": doc["attempted"],
        "failed": doc["failed"],
        "metrics": doc["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
