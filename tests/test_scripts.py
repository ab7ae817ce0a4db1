"""The drivers under scripts/, run as a user runs them: in a subprocess
with the package on PYTHONPATH.  The exit codes of the sweep and of the
order statistics are tested in process, with their checks replaced, since
a real sweep takes seconds and a real suite cannot be made to fail."""

import importlib.util
import json
import os
import pathlib
import shutil
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )


def test_order_lemma_stats():
    out = run_script("order_lemma_stats.py", "--trials", "20")
    assert out.returncode == 0, out.stderr
    doc = json.loads(out.stdout)
    for suite in ("commutators", "axioms"):
        assert doc[suite]["trials"] == 20
        assert doc[suite]["resolved"] > 0
        assert doc[suite]["violations"] == 0


@pytest.mark.parametrize("flag", ["--rank", "--trials", "--depth"])
def test_order_lemma_stats_rejects_counts_below_one(flag):
    out = run_script("order_lemma_stats.py", flag, "0")
    assert out.returncode == 2
    assert flag in out.stderr and "must be at least 1" in out.stderr
    assert "Traceback" not in out.stderr


def test_order_lemma_stats_rejects_non_ascii_seed():
    """The seed is read as the CLI reads its own: int() would take the
    Arabic-Indic digit three as 3."""
    out = run_script("order_lemma_stats.py", "--seed", "\u0663", "--trials", "3")
    assert out.returncode == 2
    assert "--seed" in out.stderr and "ASCII digits" in out.stderr
    assert "Traceback" not in out.stderr


@pytest.mark.parametrize(
    "case, code",
    [("clean", 0), ("commutators-violation", 1), ("axioms-violation", 1),
     ("commutators-unresolved", 1), ("axioms-unresolved", 1)],
)
def test_order_lemma_stats_exit_code(monkeypatch, capsys, case, code):
    """The statistics exit 1 when either suite reports a violation or
    resolves no comparison, so they never pass vacuously."""
    stats = _load_script("order_lemma_stats")
    monkeypatch.setattr(sys, "argv", ["order_lemma_stats.py", "--trials", "3"])

    def suite(name):
        def run(rank, trials, depth, seed):
            return {"trials": trials, "depth": depth, "unresolved": 0,
                    "resolved": 0 if case == f"{name}-unresolved" else 5,
                    "violations": int(case == f"{name}-violation")}
        return run

    monkeypatch.setattr(stats, "lemma_comm_suite", suite("commutators"))
    monkeypatch.setattr(stats, "bi_order_axiom_suite", suite("axioms"))
    assert stats.main() == code
    doc = json.loads(capsys.readouterr().out)
    assert doc["commutators"]["trials"] == doc["axioms"]["trials"] == 3


SNAPSHOT = json.loads((ROOT / "tests" / "data" / "order_lemma_snapshot.json").read_text())


@pytest.mark.parametrize("run", SNAPSHOT, ids=lambda run: " ".join(run["args"]))
def test_order_lemma_stats_snapshot(monkeypatch, capsys, run):
    """Every tally of the Magnus-order suites is pinned: at rank 4, at rank 4
    with depth 2 (the expansion of u v^-1 comes out unresolved), at rank 5
    with depth 4 (degree-3 and degree-4 leads over ten generator pairs), at
    rank 1 (the random draw rejects half of its one-bit generator draws) and
    at rank 2 with the script's default 500 trials."""
    stats = _load_script("order_lemma_stats")
    monkeypatch.setattr(sys, "argv", ["order_lemma_stats.py", *run["args"]])
    assert stats.main() == 0
    assert json.loads(capsys.readouterr().out) == run["output"]


def test_figure_eight_demo():
    out = run_script("figure_eight_demo.py")
    assert out.returncode == 0, out.stderr
    fields = dict(
        (part.strip() for part in line.split(":", 1))
        for line in out.stdout.splitlines()
        if line.strip()
    )
    assert fields["classical polynomial"] == "t^2 - 3*t + 1"
    assert fields["verdict"] == "biorderable_by_perron_rolfsen"
    assert fields["cover degree d"] == "2"
    assert fields["twisted == cover"] == "True"


@pytest.mark.parametrize(
    "case, code",
    [("all-equal", 0), ("one-mismatch", 1), ("polynomials-differ", 1), ("no-checks", 1)],
)
def test_shapiro_sweep_exit_code(monkeypatch, capsys, case, code):
    """The sweep exits 1 on any existence mismatch, on a twisted polynomial
    that differs from the cover's while existence agrees, and when it ran no
    check, so it never passes vacuously."""
    spec = importlib.util.spec_from_file_location(
        "shapiro_sweep", ROOT / "scripts" / "shapiro_sweep.py"
    )
    sweep = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sweep)
    monkeypatch.setattr(sys, "argv", ["shapiro_sweep.py"])
    seen = []

    def report(torus, f):
        seen.append(f)
        first = len(seen) == 1
        cover = "t^2 - 3*t + 1"
        twisted = "t^2 - 4*t + 1" if case == "polynomials-differ" and first else cover
        equal = case != "one-mismatch" or not first
        return {"existence_equal": equal, "twisted": twisted, "cover": cover}

    monkeypatch.setattr(sweep, "theorem2_report", report)
    if case == "no-checks":
        monkeypatch.setattr(sweep, "homomorphism_classes", lambda monodromy: {})
    assert sweep.main() == code
    mismatches = int(case in ("one-mismatch", "polynomials-differ"))
    assert f"{len(seen)} checks, {mismatches} mismatches" in capsys.readouterr().out
    assert (len(seen) > 0) == (case != "no-checks")


@pytest.mark.parametrize(
    "case, code",
    [("all-correct", 0), ("one-failed", 1), ("no-result-line", 1), ("no-golden-seed", 1)],
)
def test_golden_check_exit_code(monkeypatch, capsys, case, code):
    """The golden check exits 1 when any run has a failed item, prints no
    result line, or has no golden digests to compare with; the runs are
    replaced, since a real check takes seconds per workload."""
    spec = importlib.util.spec_from_file_location(
        "golden_check", ROOT / "scripts" / "golden_check.py"
    )
    check = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(check)
    seed = "100000" if case == "no-golden-seed" else "1"
    monkeypatch.setattr(sys, "argv", ["golden_check.py", "--seeds", "0", seed])
    runs = []

    def fake_run(argv, **kwargs):
        runs.append(argv)
        failed = int(case == "one-failed" and len(runs) == 3)
        line = json.dumps({"correct": not failed, "attempted": 5, "failed": failed,
                           "metrics": {}})
        stdout = "" if case == "no-result-line" and len(runs) == 2 else f"summary\n{line}\n"
        return subprocess.CompletedProcess(argv, 0, stdout, "")

    monkeypatch.setattr(check.subprocess, "run", fake_run)
    assert check.main() == code
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = len(spec["workloads"])
    assert len(runs) == workloads * (1 if case == "no-golden-seed" else 2)
    assert all(argv[-4:] == ["--seconds", "0", "--trace", "0"] for argv in runs)
    failed = {"all-correct": 0, "no-golden-seed": workloads}.get(case, 1)
    assert f"{failed} of {2 * workloads} runs failed" in capsys.readouterr().out


def _load_script(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_pairs_fresh_bytecode_prefix(tmp_path, monkeypatch):
    """Each run gets its own PYTHONPYCACHEPREFIX, a directory that exists
    and is empty when the run starts, so no run reads bytecode that an
    earlier one compiled."""
    bench_pairs = _load_script("bench_pairs")
    results = tmp_path / "perfbench" / "results"
    results.mkdir(parents=True)
    for seed in (1, 2):
        (results / f"sweep-seed{seed}-trace0.json").write_text('{"fingerprint": {}}')
    prefixes = []

    def fake_run(argv, **kwargs):
        prefix = pathlib.Path(kwargs["env"]["PYTHONPYCACHEPREFIX"])
        assert prefix.is_dir() and not any(prefix.iterdir())
        (prefix / "stale.pyc").write_text("")
        prefixes.append(prefix)
        line = json.dumps({"failed": 0, "metrics": {}})
        return subprocess.CompletedProcess(argv, 0, f"{line}\n", "")

    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    for seed in (1, 2, 1):
        line, doc = bench_pairs.run_once(tmp_path, "sweep", seed)
        assert line == {"failed": 0, "metrics": {}} and doc == {"fingerprint": {}}
    assert len(set(prefixes)) == 3


def _result_line(failed, items_per_s, p50_ms):
    """The last line run.py prints, for two metrics."""
    return json.loads(json.dumps({
        "correct": failed == 0, "attempted": 100, "failed": failed,
        "metrics": {"items_per_s": {"value": items_per_s, "unit": "1/s"},
                    "item_p50_ms": {"value": p50_ms, "unit": "ms"}},
    }))


def test_bench_pairs_needs_a_commit_per_checkout(tmp_path, monkeypatch, capsys):
    """A parent exported without .git (as git archive leaves it) exits 2
    naming that checkout, before any benchmark run."""
    bench_pairs = _load_script("bench_pairs")
    export = tmp_path / "export"
    export.mkdir()

    def run_once(checkout, workload, seed):
        raise AssertionError(f"ran {workload} in {checkout}")

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    with pytest.raises(SystemExit) as excinfo:
        bench_pairs.main([str(export), str(ROOT), "--out", str(tmp_path / "out.json"),
                          "--run", "sweep", "1"])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert f"{export}: the parent checkout is not a git work tree" in err
    assert not (tmp_path / "out.json").exists()


@pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
def test_bench_pairs_commit_of(tmp_path):
    """The commit of a work tree's top directory; None for a directory
    inside it or outside any repository."""
    bench_pairs = _load_script("bench_pairs")
    tree = tmp_path / "tree"
    (tree / "sub").mkdir(parents=True)

    def git(*args):
        return subprocess.run(["git", "-C", str(tree), "-c", "user.name=t",
                               "-c", "user.email=t@example.org", *args],
                              capture_output=True, text=True, check=True).stdout.strip()

    git("init", "-q")
    git("commit", "-q", "--allow-empty", "-m", "empty")
    assert bench_pairs.commit_of(tree) == git("rev-parse", "HEAD")
    assert bench_pairs.commit_of(tree / "sub") is None
    assert bench_pairs.commit_of(tmp_path / "missing") is None


def test_bench_pairs_summary():
    """Quartiles per side, the ratio of the medians, the pairs the change
    won (higher is better for one metric, lower for the other) and the
    failed items per side, from canned result lines."""
    bench_pairs = _load_script("bench_pairs")
    spec = [
        {"name": "items_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
        {"name": "item_p50_ms", "unit": "ms", "better": "lower", "bound": 0.15},
    ]
    pairs = [
        {"parent": _result_line(0, 100.0, 10.0), "change": _result_line(0, 120.0, 8.0)},
        {"parent": _result_line(1, 110.0, 9.0), "change": _result_line(0, 105.0, 9.5)},
        {"parent": _result_line(0, 90.0, 11.0), "change": _result_line(2, 130.0, 7.0)},
        {"parent": _result_line(0, 100.0, 10.0), "change": _result_line(0, 125.0, 10.0)},
    ]
    entry = bench_pairs.summarize([1, 2, 3, 4], pairs, spec)
    assert entry["seeds"] == [1, 2, 3, 4]
    assert entry["pairs"] == 4
    assert entry["failed"] == {"parent": 1, "change": 2}
    rate = entry["metrics"]["items_per_s"]
    assert (rate["unit"], rate["better"], rate["bound"]) == ("1/s", "higher", 0.25)
    assert rate["parent"] == {"q1": 97.5, "median": 100.0, "q3": 102.5}
    assert rate["change"] == {"q1": 116.25, "median": 122.5, "q3": 126.25}
    assert rate["change_over_parent"] == 1.225
    assert rate["change_wins"] == 3
    p50 = entry["metrics"]["item_p50_ms"]
    assert p50["parent"]["median"] == 10.0
    assert p50["change"]["median"] == 8.75
    assert p50["change_over_parent"] == 0.875
    # a tie is no win
    assert p50["change_wins"] == 2
    single = bench_pairs.summarize([7], pairs[:1], spec)["metrics"]["items_per_s"]
    assert single["parent"] == {"q1": 100.0, "median": 100.0, "q3": 100.0}


@pytest.mark.parametrize(
    "claim, message",
    [(["cover_ladder", "items_per_s"], "no --run of workload cover_ladder"),
     (["sweep", "linalg.char_poly_s"], "linalg.char_poly_s is not an end-to-end metric")],
    ids=["workload-not-run", "metric-not-end-to-end"],
)
def test_bench_pairs_rejects_unchecked_claim(tmp_path, monkeypatch, capsys, claim, message):
    """A claim on a workload with no --run, or on a metric outside
    BENCHMARK.json's end-to-end list, exits 2 before any run."""
    bench_pairs = _load_script("bench_pairs")

    def run_once(checkout, workload, seed):
        raise AssertionError(f"ran {workload} in {checkout}")

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    with pytest.raises(SystemExit) as excinfo:
        bench_pairs.main([str(ROOT), str(ROOT), "--out", str(tmp_path / "out.json"),
                          "--run", "sweep", "1", "--claim", *claim])
    assert excinfo.value.code == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out.json").exists()


def _claim_entry(parent, change, better="higher"):
    """A summarize entry of one metric from per-pair values."""
    bench_pairs = _load_script("bench_pairs")
    spec = [{"name": "m", "unit": "u", "better": better, "bound": 0.25}]
    pairs = [{"parent": {"failed": 0, "metrics": {"m": {"value": p}}},
              "change": {"failed": 0, "metrics": {"m": {"value": c}}}}
             for p, c in zip(parent, change)]
    return bench_pairs, bench_pairs.summarize(range(len(pairs)), pairs, spec)


@pytest.mark.parametrize(
    "parent, change, better, met",
    [
        # ten wins, the medians 10 apart against a parent q3 - q1 of 1.5
        ([100, 101, 99, 102, 98, 100, 101, 99, 100, 100], [110] * 10, "higher", True),
        # nine wins and one tie still make nine tenths
        ([100] * 10, [100] + [110] * 9, "higher", True),
        # eight wins of ten
        ([100] * 10, [90, 90] + [110] * 8, "higher", False),
        # every pair won, but the gap is inside the parent's spread
        ([90, 110, 90, 110, 90, 110, 90, 110, 90, 110],
         [91, 111, 91, 111, 91, 111, 91, 111, 91, 111], "higher", False),
        # lower is better: ten lower values
        ([10.0] * 10, [9.0] * 10, "lower", True),
        ([10.0] * 10, [11.0] * 10, "lower", False),
        # fewer than ten pairs
        ([100] * 9, [110] * 9, "higher", False),
    ],
    ids=["clear-gain", "one-tie", "eight-wins", "within-spread", "lower-better",
         "lower-worse", "nine-pairs"],
)
def test_bench_pairs_claim_met(parent, change, better, met):
    """claim_met: at least ten pairs, nine tenths of them won (a tie wins
    for neither side), and a median gap beyond the parent's q3 - q1."""
    bench_pairs, entry = _claim_entry(parent, change, better)
    assert bench_pairs.claim_met(entry, "m") is met


def test_bench_pairs_writes_claim_met(tmp_path, monkeypatch):
    """The output records the claim and whether it was met, from canned
    runs of both checkouts."""
    bench_pairs = _load_script("bench_pairs")
    monkeypatch.setattr(bench_pairs, "commit_of", lambda checkout: "0" * 40)
    fingerprint = {"cpu_model": "cpu", "nproc": 2, "python": "3", "source_digest": "d"}

    def run_once(checkout, workload, seed):
        rate = 110.0 if checkout == tmp_path / "change" else 100.0
        line = {"failed": 0, "metrics": {m["name"]: {"value": rate} for m in spec}}
        return line, {"fingerprint": fingerprint}

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    (tmp_path / "change").mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "change")
    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    out = tmp_path / "out.json"
    seeds = [str(s) for s in range(10)]
    assert bench_pairs.main([str(tmp_path / "parent"), str(tmp_path / "change"),
                             "--out", str(out), "--run", "sweep", *seeds,
                             "--claim", "sweep", "items_per_s"]) == 0
    doc = json.loads(out.read_text())
    assert doc["claimed"] == {"workload": "sweep", "metric": "items_per_s"}
    assert doc["claim_met"] is True
    assert doc["workloads"]["sweep"]["metrics"]["items_per_s"]["change_wins"] == 10


def test_mutant_catalogue_matches_the_source():
    """Each catalogued old text occurs exactly once in its file, so an edit
    to the library that moves a mutant's text fails here, not only in the
    mutation run."""
    mutants = json.loads((ROOT / "tests" / "data" / "mutants.json").read_text())
    assert mutants
    for m in mutants:
        assert (ROOT / m["file"]).read_text().count(m["old"]) == 1, m["why"]
        assert m["new"] != m["old"] and m["tests"] and m["why"]


@pytest.mark.parametrize(
    "case, code",
    [("killed", 0), ("survived", 1), ("collection-error", 1), ("not-found", 1),
     ("fails-unmutated", 1)],
)
def test_mutants_exit_code(tmp_path, monkeypatch, capsys, case, code):
    """The mutation run exits 1 when a mutant survives, when its tests end
    in an error rather than a failure, when its old text is not in its
    file, and when the named tests fail unmutated.  pytest is replaced, and
    reads whether the copy it runs in holds the mutant."""
    mutants = _load_script("mutants")
    old = "return sum(a != b for a, b in zip(signs, signs[1:]))"
    entry = {"file": "src/orderlex/roots.py", "old": old + " # absent" * (case == "not-found"),
             "new": old.replace("!=", "=="), "tests": ["tests/test_roots.py::TestSturmCounts"],
             "why": "unequal neighbouring signs"}
    catalogue = tmp_path / "mutants.json"
    catalogue.write_text(json.dumps([entry]))
    monkeypatch.setattr(mutants, "CATALOGUE", catalogue)
    runs = []

    def run_tests(copy, ids):
        assert ids == entry["tests"]
        mutated = "a == b" in (copy / entry["file"]).read_text()
        runs.append(mutated)
        if not mutated:
            return int(case == "fails-unmutated"), ""
        return {"killed": 1, "survived": 0, "collection-error": 2}[case], ""

    monkeypatch.setattr(mutants, "run_tests", run_tests)
    assert mutants.main() == code
    assert runs == ([False] if case in ("not-found", "fails-unmutated") else [False, True])
    lines = capsys.readouterr().out.splitlines()
    if case == "fails-unmutated":
        assert "the named tests fail unmutated; no mutant was run" in lines
    else:
        assert f"1 mutants, {code} not killed" in lines
        named = "  mutants[0] src/orderlex/roots.py: unequal neighbouring signs" in lines
        assert named == bool(code)
