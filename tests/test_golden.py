"""Golden digests of the command line's machine-readable output.

Each digest is the SHA-256 of the exit code, stdout and stderr of a fixed
sequence of `main([...])` calls.  The digests were recorded before any
performance work on the code they cover; a change that alters a single
byte of user-visible output fails here.  One digest pins the text format of
every subcommand the same way, and one more pins the library's fibration
certificates, which the command line prints only in part.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import math
from pathlib import Path

from torusglue.cli import main
from torusglue.enumeration import enumerate_gluings, pieces_for_kinds
from torusglue.gluing import find_fibration
from torusglue.pieces import PieceKind

README_EXAMPLE = Path(__file__).parent / "data" / "readme_example.json"
# the README document with h1/inclusion declared on its second piece
HOMOLOGY_EXAMPLE = Path(__file__).parent / "data" / "homology_example.json"

ENUMERATE_AT_1_DIGEST = (
    "f2c6caa4e30aaef4b1d9c3c6d92bd1b02c837dd40be6fe9410dca6b964720121"
)
SURGERY_SLOPES_DIGEST = (
    "8c74acb93cfd8c2c8709f693dddc384fd14aac6885cdcf741dc5a108a2de1e15"
)
README_FIBRATION_DIGEST = (
    "89e8da819f3030a4a9518834c1a084204b2847dfb54cb9949fc5d0109abfe5bd"
)
README_HOMOLOGY_DIGEST = (
    "1dd3332e0e11f01ad576caebebd73d59afb796fc69927e8ca695f7314c0715de"
)
HOMOLOGY_EXAMPLE_DIGEST = (
    "18387a343fb1a2bc4ce02ce0822f0ddaf7b4ed2d9a6bc5f0c406e544b31d39ca"
)
# find_fibration on every N = 1 gluing of the nine kind pairs
CERTIFICATES_AT_1_DIGEST = (
    "2848908d8585054169e82a9b08770a083799f9077cccf503eb1a580be7d02b5e"
)
# _text_argvs() in the text format, recorded before SurgerySpec and
# FibrationResult each dropped their second copy of the gluing and the torus
TEXT_FORMAT_DIGEST = (
    "69edb3f869d704a5f9cc6e59f0b7c28c86228fced6d37bd831d29dd484c69dcd"
)


def _digest(argvs, fmt="machine-readable"):
    h = hashlib.sha256()
    for argv in argvs:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([*argv, "--format", fmt])
        h.update(f"exit {code}\n{out.getvalue()}{err.getvalue()}".encode())
    return h.hexdigest()


def _enumerate_at_1_argvs():
    for k1, k2 in itertools.product(PieceKind, repeat=2):
        yield ["enumerate", "--max-entry", "1", "--pieces", f"{k1.value},{k2.value}"]


def _surgery_slope_argvs():
    for q in range(31):
        for p in range(-30, 31):
            if math.gcd(p, q) == 1:
                yield ["surgery", str(p), str(q)]


def _text_argvs():
    """Every subcommand once or more: the N = 1 enumeration rows of the nine
    kind pairs, fibration and homology of both example documents, a few
    surgery slopes with and without --quiet, and the obstruction cases."""
    yield from _enumerate_at_1_argvs()
    for path in (README_EXAMPLE, HOMOLOGY_EXAMPLE):
        yield ["fibration", str(path)]
        yield ["homology", str(path)]
    for slope in (["2", "3"], ["0", "1"], ["1", "0"], ["-7", "5"], ["5", "-12"]):
        yield ["surgery", *slope]
        yield ["surgery", *slope, "--quiet"]
    yield ["surgery", "2", "3", "--completion-seed", "5"]
    yield ["surgery", "2", "4"]  # not coprime: exit 1 with the gcd
    for sigma in ("0", "unknown"):
        yield ["check-obstruction", "--chi", "0", "--sigma", sigma]
    yield ["check-obstruction", "--chi", "2", "--sigma", "0"]


def test_enumerate_at_1_all_kind_pairs():
    assert _digest(_enumerate_at_1_argvs()) == ENUMERATE_AT_1_DIGEST


def test_surgery_coprime_slopes_up_to_30():
    assert _digest(_surgery_slope_argvs()) == SURGERY_SLOPES_DIGEST


def test_readme_example_fibration():
    assert _digest([["fibration", str(README_EXAMPLE)]]) == README_FIBRATION_DIGEST


def test_readme_example_homology():
    assert _digest([["homology", str(README_EXAMPLE)]]) == README_HOMOLOGY_DIGEST


def test_homology_example():
    assert _digest([["homology", str(HOMOLOGY_EXAMPLE)]]) == HOMOLOGY_EXAMPLE_DIGEST


def test_text_format_of_every_subcommand():
    assert _digest(_text_argvs(), fmt="text") == TEXT_FORMAT_DIGEST


def _certificate_lines():
    """phi, torus, parallel_case and both (gamma, lambda, alpha) triples of
    every N = 1 gluing, with the pieces `enumerate` uses for each pair."""
    for k1, k2 in itertools.product(PieceKind, repeat=2):
        for x in enumerate_gluings(1, *pieces_for_kinds(k1, k2)):
            r = find_fibration(x)
            certs = [(c.gamma.v, c.lam.v, c.alpha.v) for c in (r.cert_w, r.cert_w_prime)]
            yield f"{r.phi.phi} {r.torus.n} {r.parallel_case} {certs}\n"


def test_certificates_at_1_all_kind_pairs():
    lines = list(_certificate_lines())
    assert len(lines) == 9 * 62
    digest = hashlib.sha256("".join(lines).encode()).hexdigest()
    assert digest == CERTIFICATES_AT_1_DIGEST
