"""The drivers under scripts/, run as a user runs them: in a subprocess
with the package on PYTHONPATH."""

import json
import os
import pathlib
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
