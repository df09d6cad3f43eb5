"""Smoke runs of the example scripts: each exits 0 and prints its rows."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]]
                               if env.get("PYTHONPATH") else []))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *argv],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_rg_experiment():
    lines = run_script("rg_experiment.py", "--samples", "2e4",
                       "--batches", "10")
    rows = [line.split(":")[0].strip() for line in lines
            if not line.startswith(" ")]
    assert rows == ["fish", "dunce"]
    terms = [line.split()[0] for line in lines if line.startswith(" ")]
    # one counterterm subset on the fish, three on the dunce's cap
    assert len(terms) == 4 and all(t.startswith("K=") for t in terms)


def test_run_periods():
    lines = run_script("run_periods.py", "--samples", "2e4")
    labels = [line.split("=")[0].strip() for line in lines]
    assert labels == ["P(fish)", "P(K4)", "P(W4)", "P(Z5)",
                      "dunce leading coefficient", "two-sided bubble leading"]


def test_lattice_atlas():
    lines = run_script("lattice_atlas.py")
    header = lines[0].split()
    assert header[:5] == ["graph", "|D|", "|I(D)|", "pole", "oracle"]
    rows = [line.split() for line in lines[2:]]
    assert [r[0] for r in rows] == ["fish", "dunce", "bubble2", "bubble3",
                                    "ins2", "ins3", "nm11", "nm21", "k4"]
    assert all(r[4] == "agree" for r in rows)
