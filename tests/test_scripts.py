"""Smoke tests: the experiment scripts run end to end and report success."""

from __future__ import annotations

from pathlib import Path

from conftest import run_python

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _run_script(name, *args):
    return run_python(str(SCRIPTS / name), *args)


def test_lens_atlas_at_1():
    proc = _run_script("lens_atlas.py", "--max-entry", "1")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("gluing entries in [-1, 1]: 62 symmetry classes of gluings\n")
    assert "every row's homology and Euler characteristic agree" in proc.stdout


def test_surgery_sweep_small_box():
    proc = _run_script("surgery_sweep.py", "--max-p", "3", "--max-q", "3")
    assert proc.returncode == 0, proc.stderr
    assert "17 slopes, 4 distinct manifolds up to unoriented equivalence" in proc.stdout
    assert "all classifications agree with the homology computation" in proc.stdout
