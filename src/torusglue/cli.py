"""Command-line front end.

Subcommands:

    surgery <p> <q>        classify torus surgery along S^1 x (unknot) and
                           cross-check the lens parameters against an
                           independent homology computation
    fibration <file>       find a circle fibration of the manifold in a file
    homology <file>        first homology and Euler characteristic of a file
    enumerate              sweep all unimodular gluings with bounded entries
                           (up to framing symmetry) for a pair of piece kinds
    check-obstruction      the chi/sigma necessary conditions for carrying a
                           torus-fibered 2-torus knot

Exit codes: 0 success/consistent, 1 usage error, 2 file parse error,
3 internal inconsistency (a classification disagrees with an independent
check; this indicates a bug and is asserted against in the test suite).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Callable, Sequence

from .enumeration import (
    MAX_ENUMERATION_ENTRY,
    Verdict,
    check,
    enumerate_gluings,
    pieces_for_kinds,
)
from .gluing import GluedManifold, find_fibration, glue
from .invariants import MissingH1Data, euler_characteristic_glued, mayer_vietoris_h1
from .lattice import IntMatrix
from .manifold_files import ManifoldFileError, h1_to_obj, matrix_to_obj, parse_manifold_file
from .pieces import ExtensionCertificate, PieceKind
from .surgery import SURGERY_DISK_PAIR, NotCoprime, SurgerySpec

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_INCONSISTENT = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # exit 1 on usage problems, not 2
        raise _UsageError(message)


def _format_vec(v: Sequence[int]) -> str:
    return "(" + ",".join(str(x) for x in v) + ")"


def _format_matrix_rows(m: IntMatrix) -> list[str]:
    return ["[" + " ".join(f"{x:>3}" for x in m.row(i)) + "]" for i in range(m.rows)]


def _cert_obj(cert: ExtensionCertificate) -> dict[str, Any]:
    return {"gamma": list(cert.gamma.v), "lambda": list(cert.lam.v), "alpha": list(cert.alpha.v)}


def _cert_text(cert: ExtensionCertificate) -> str:
    return " ".join(f"{k}={_format_vec(v)}" for k, v in _cert_obj(cert).items())


def _verdict_obj(v: Verdict) -> dict[str, Any]:
    obj: dict[str, Any] = {"h1": h1_to_obj(v.h1), "chi": v.chi, "consistent": v.consistent}
    if v.lens is not None:
        obj["lens"] = {"q": v.lens.q, "p": v.lens.p}
    else:
        obj["phi"] = list(v.fibration.phi.phi)
        obj["parallel_case"] = v.fibration.parallel_case
    return obj


def _emit(args: argparse.Namespace, obj: dict[str, Any], text: Callable[[], list[str]]) -> None:
    """Print obj as one JSON line, or the lines text() formats (the first
    only with --quiet).

    Python converts no int past its limit (4300 digits) to a string.  The
    limit guards the JSON parser, so it stays; an answer that long is an
    input error, of the file if the command read one, else of the arguments.
    """
    try:
        if args.format == "machine-readable":
            lines = [json.dumps(obj, sort_keys=True)]
        else:
            lines = text()[: 1 if args.quiet else None]
    except ValueError as exc:
        limit = sys.get_int_max_str_digits()
        message = f"the answer has an integer of more than {limit} digits, too long to print"
        if "file" in args:
            raise ManifoldFileError("(document)", message) from exc
        raise _UsageError(message) from exc
    for line in lines:
        print(line)


def _read_manifold(path: str) -> GluedManifold:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ManifoldFileError("(document)", f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ManifoldFileError("(document)", f"{path} is not UTF-8 text: {exc}") from exc
    mf = parse_manifold_file(text)
    return glue(mf.pieces[0], mf.pieces[1], mf.gluing)


def cmd_surgery(args: argparse.Namespace) -> int:
    try:
        spec = SurgerySpec.from_slope(args.p, args.q, seed=args.completion_seed)
    except NotCoprime as exc:
        raise _UsageError(str(exc))
    x = glue(*SURGERY_DISK_PAIR, spec.gluing)
    v = check(x)
    gluing = {"matrix": matrix_to_obj(x.f.m), "orientation_note": f"det={x.f.m.det():+d}"}
    verdict = "CONSISTENT" if v.consistent else "INCONSISTENT"
    _emit(args, {**_verdict_obj(v), "gluing": gluing}, lambda: [
        f"{v.lens}; H1 = {v.h1}; chi = {v.chi}; {verdict}",
        "gluing matrix (columns are images of the glued piece's basis):",
        *("  " + r for r in _format_matrix_rows(x.f.m)),
    ])
    return EXIT_OK if v.consistent else EXIT_INCONSISTENT


def cmd_fibration(args: argparse.Namespace) -> int:
    result = find_fibration(_read_manifold(args.file))
    obj = {
        "phi": list(result.phi.phi),
        "torus": list(result.torus.n),
        "parallel_case": result.parallel_case,
        "certificate_w": _cert_obj(result.cert_w),
        "certificate_w_prime": _cert_obj(result.cert_w_prime),
    }
    _emit(args, obj, lambda: [
        f"phi = {_format_vec(result.phi.phi)}; torus = {_format_vec(result.torus.n)}; "
        f"parallel = {'true' if result.parallel_case else 'false'}",
        f"certificate W : {_cert_text(result.cert_w)}",
        f"certificate W': {_cert_text(result.cert_w_prime)}",
    ])
    return EXIT_OK


def cmd_homology(args: argparse.Namespace) -> int:
    manifold = _read_manifold(args.file)
    try:
        h1 = mayer_vietoris_h1(manifold)
    except MissingH1Data as exc:
        raise ManifoldFileError("pieces", str(exc)) from exc
    chi = euler_characteristic_glued(manifold)
    _emit(args, {"h1": h1_to_obj(h1), "chi": chi}, lambda: [f"H1 = {h1}; chi = {chi}"])
    return EXIT_OK


def _row_text(x: GluedManifold, v: Verdict, det: int) -> str:
    if v.lens is not None:
        summary = f"lens={v.lens}"
    else:
        parallel = "true" if v.fibration.parallel_case else "false"
        summary = f"phi={_format_vec(v.fibration.phi.phi)} parallel={parallel}"
    return (
        f"{json.dumps(matrix_to_obj(x.f.m))} det={det:+d} {summary} "
        f"H1={v.h1} chi={v.chi} {'ok' if v.consistent else 'INCONSISTENT'}"
    )


def cmd_enumerate(args: argparse.Namespace) -> int:
    if args.max_entry < 1 or args.max_entry > MAX_ENUMERATION_ENTRY:
        raise _UsageError(f"--max-entry must be between 1 and {MAX_ENUMERATION_ENTRY}")
    kinds = args.pieces.split(",")
    if len(kinds) != 2:
        raise _UsageError("--pieces needs two comma-separated kinds")
    try:
        pair = tuple(PieceKind(k.strip()) for k in kinds)
    except ValueError:
        valid = ", ".join(k.value for k in PieceKind)
        raise _UsageError(f"unknown piece kind; valid kinds: {valid}")

    rows = bad = 0
    for x in enumerate_gluings(args.max_entry, *pieces_for_kinds(*pair)):
        v = check(x)
        rows += 1
        bad += not v.consistent
        if args.format == "machine-readable" or not args.quiet:
            det = x.f.m.det()
            obj = {**_verdict_obj(v), "matrix": matrix_to_obj(x.f.m), "det": det}
            _emit(args, obj, lambda: [_row_text(x, v, det)])
    if args.format != "machine-readable":
        print(f"{rows} gluings, {bad} inconsistent")
    return EXIT_OK if bad == 0 else EXIT_INCONSISTENT


def cmd_check_obstruction(args: argparse.Namespace) -> int:
    if args.sigma.lower() == "unknown":
        sigma: int | None = None
    else:
        try:
            sigma = int(args.sigma)
        except ValueError:
            raise _UsageError(f"--sigma takes an integer or 'unknown', got {args.sigma!r}")
    passes = args.chi == 0 and sigma == 0  # necessary, not sufficient
    verdict = "PASSES" if passes else "FAILS"
    if sigma is None:
        verdict += " (sigma unknown)"
    obj = {"chi": args.chi, "sigma": sigma, "sigma_unknown": sigma is None, "passes": passes}
    sigma_text = "unknown" if sigma is None else sigma
    _emit(args, obj, lambda: [f"chi = {args.chi}; sigma = {sigma_text}; {verdict}"])
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="torusglue",
        description="Circle fibrations of glued 4-manifolds and lens-space "
        "classification of torus surgeries.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format",
        choices=["text", "machine-readable"],
        default="text",
        help="output format (default: text)",
    )
    common.add_argument(
        "--quiet", action="store_true", help="print only the essential line"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("surgery", parents=[common], help="classify an unknot torus surgery")
    p.add_argument("p", type=int, help="longitude coefficient of the surgery slope")
    p.add_argument("q", type=int, help="meridian coefficient of the surgery slope")
    p.add_argument(
        "--completion-seed",
        type=int,
        default=0,
        help="select among unimodular completions of the slope (result is unchanged)",
    )
    p.set_defaults(func=cmd_surgery)

    p = sub.add_parser("fibration", parents=[common], help="fiber a glued manifold over S^1")
    p.add_argument("file", help="manifold description (JSON)")
    p.set_defaults(func=cmd_fibration)

    p = sub.add_parser("homology", parents=[common], help="H1 and chi of a glued manifold")
    p.add_argument("file", help="manifold description (JSON)")
    p.set_defaults(func=cmd_homology)

    p = sub.add_parser(
        "enumerate", parents=[common], help="sweep bounded unimodular gluings"
    )
    p.add_argument("--max-entry", type=int, required=True, metavar="N")
    p.add_argument(
        "--pieces",
        default="torus_times_disk,torus_times_disk",
        help="comma-separated pair of piece kinds",
    )
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser(
        "check-obstruction",
        parents=[common],
        help="necessary chi/sigma conditions for a torus-fibered 2-torus knot",
    )
    p.add_argument("--chi", type=int, required=True)
    p.add_argument("--sigma", required=True, help="an integer or 'unknown'")
    p.set_defaults(func=cmd_check_obstruction)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ManifoldFileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
