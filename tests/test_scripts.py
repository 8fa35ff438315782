"""Smoke tests: the experiment scripts run end to end and report success."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )


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
