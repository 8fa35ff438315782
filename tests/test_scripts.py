"""The experiment scripts run end to end, and print the same bytes as
when their digests were recorded."""

from __future__ import annotations

import hashlib
from pathlib import Path

import pytest

from conftest import run_python

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"

# SHA-256 of each run's full stdout, recorded before the scripts grouped
# lens spaces by lens_class
STDOUT_DIGESTS = {
    ("lens_atlas.py", "--max-entry", "1"):
        "88acff1c45aff356ff4edb289404b0b5a5687486b2ac2b6e35aa176530a4ba02",
    ("lens_atlas.py", "--max-entry", "2"):
        "6f8304ef4f74695923e9fefa5b7b154435a5bdb4de8217afaeba84d099d1c1af",
    ("surgery_sweep.py",):
        "3d80d7105986a984ed1eebc771416f747084e2cac49f293b1f1703681970e444",
    ("surgery_sweep.py", "--max-p", "30", "--max-q", "30"):
        "90a42406cf80a54eb18acc2a708c11212627a65cddde945123edb9fc13b00835",
}


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


@pytest.mark.parametrize("argv", list(STDOUT_DIGESTS), ids=" ".join)
def test_full_stdout_digest(argv):
    proc = _run_script(*argv)
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == STDOUT_DIGESTS[argv]
