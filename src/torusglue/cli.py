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
3 internal inconsistency (the classifier and the homology computation
disagree; this indicates a bug and is asserted against in the test suite).
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
from pathlib import Path
from typing import Any, Iterator, Sequence

from .gluing import FibrationResult, GluedManifold, GluingMap, find_fibration, glue
from .invariants import MissingH1Data, euler_characteristic_glued, mayer_vietoris_h1
from .lattice import AbelianGroup, IntMatrix, cross, is_primitive
from .manifold_files import ManifoldFile, ManifoldFileError, parse_manifold_file
from .pieces import ExtensionCertificate, Piece, PieceKind, sample_piece, torus_times_disk
from .surgery import (
    LensSpace,
    NotCoprime,
    SurgerySpec,
    classify_double_disk_gluing,
    obstruction_check,
    unknot_torus_surgery,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_INCONSISTENT = 3

# the number of unimodular matrices in the box grows about as N^6 (135k at
# N = 2, about 3M at N = 3), and every row is classified, so stay desk-scale
MAX_ENUMERATION_ENTRY = 2


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # exit 1 on usage problems, not 2
        raise _UsageError(message)


def expected_h1_for_lens(lens: LensSpace) -> AbelianGroup:
    """H_1(S^1 x L(q,p)): Z + Z/q, with the degenerate q read correctly."""
    if lens.q == 0:
        return AbelianGroup(2, ())
    return AbelianGroup(1, (lens.q,) if lens.q >= 2 else ())


def _format_vec(v: Sequence[int]) -> str:
    return "(" + ",".join(str(x) for x in v) + ")"


def _format_matrix_rows(m: IntMatrix) -> list[str]:
    return ["[" + " ".join(f"{x:>3}" for x in m.row(i)) + "]" for i in range(m.rows)]


def _matrix_obj(m: IntMatrix) -> list[list[int]]:
    return [list(r) for r in m.to_rows()]


def _cert_obj(cert: ExtensionCertificate) -> dict[str, Any]:
    return {
        "gamma": list(cert.gamma.v),
        "lambda": list(cert.lam.v),
        "alpha": list(cert.alpha.v),
    }


def _cert_text(cert: ExtensionCertificate) -> str:
    return (
        f"gamma={_format_vec(cert.gamma.v)} "
        f"lambda={_format_vec(cert.lam.v)} "
        f"alpha={_format_vec(cert.alpha.v)}"
    )


def _emit(args: argparse.Namespace, obj: dict[str, Any], text_lines: list[str]) -> None:
    if args.format == "machine-readable":
        print(json.dumps(obj, sort_keys=True))
    else:
        for line in text_lines[: 1 if args.quiet else None]:
            print(line)


def _read_file(path: str) -> ManifoldFile:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ManifoldFileError("(document)", f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ManifoldFileError("(document)", f"{path} is not UTF-8 text: {exc}") from exc
    return parse_manifold_file(text)


def cmd_surgery(args: argparse.Namespace) -> int:
    try:
        spec = SurgerySpec.from_slope(args.p, args.q, seed=args.completion_seed)
    except NotCoprime as exc:
        raise _UsageError(str(exc))
    manifold, lens = unknot_torus_surgery(spec)
    h1 = mayer_vietoris_h1(manifold)
    chi = euler_characteristic_glued(manifold)
    consistent = h1 == expected_h1_for_lens(lens) and chi == 0
    verdict = "CONSISTENT" if consistent else "INCONSISTENT"
    lines = [f"{lens}; H1 = {h1}; chi = {chi}; {verdict}"]
    lines.append("gluing matrix (columns are images of the glued piece's basis):")
    lines.extend("  " + r for r in _format_matrix_rows(manifold.f.m))
    obj = {
        "lens": {"q": lens.q, "p": lens.p},
        "h1": {"free_rank": h1.free_rank, "torsion": list(h1.torsion)},
        "chi": chi,
        "consistent": consistent,
        "gluing": {
            "matrix": _matrix_obj(manifold.f.m),
            "orientation_note": f"det={manifold.f.det_sign:+d}",
        },
    }
    _emit(args, obj, lines)
    return EXIT_OK if consistent else EXIT_INCONSISTENT


def _fibration_report(result: FibrationResult) -> tuple[dict[str, Any], list[str]]:
    obj = {
        "phi": list(result.phi.phi),
        "torus": list(result.torus.n),
        "parallel_case": result.parallel_case,
        "certificate_w": _cert_obj(result.cert_w),
        "certificate_w_prime": _cert_obj(result.cert_w_prime),
    }
    lines = [
        f"phi = {_format_vec(result.phi.phi)}; torus = {_format_vec(result.torus.n)}; "
        f"parallel = {'true' if result.parallel_case else 'false'}",
        f"certificate W : {_cert_text(result.cert_w)}",
        f"certificate W': {_cert_text(result.cert_w_prime)}",
    ]
    return obj, lines


def cmd_fibration(args: argparse.Namespace) -> int:
    mf = _read_file(args.file)
    manifold = glue(mf.pieces[0], mf.pieces[1], mf.gluing)
    result = find_fibration(manifold)
    obj, lines = _fibration_report(result)
    _emit(args, obj, lines)
    return EXIT_OK


def cmd_homology(args: argparse.Namespace) -> int:
    mf = _read_file(args.file)
    manifold = glue(mf.pieces[0], mf.pieces[1], mf.gluing)
    try:
        h1 = mayer_vietoris_h1(manifold)
    except MissingH1Data as exc:
        raise ManifoldFileError("pieces", str(exc)) from exc
    chi = euler_characteristic_glued(manifold)
    obj = {
        "h1": {"free_rank": h1.free_rank, "torsion": list(h1.torsion)},
        "chi": chi,
    }
    _emit(args, obj, [f"H1 = {h1}; chi = {chi}"])
    return EXIT_OK


def _signed_permutations_fixing(index: int) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """(perm, signs) pairs for the 16 signed permutation matrices that fix
    the given 0-based axis up to sign."""
    others = [i for i in range(3) if i != index]
    out = []
    for swapped in (False, True):
        perm = list(range(3))
        if swapped:
            perm[others[0]], perm[others[1]] = perm[others[1]], perm[others[0]]
        for signs in itertools.product((1, -1), repeat=3):
            out.append((tuple(perm), signs))
    return out


def _orbit_tree(left, right) -> dict:
    """The orbit of a 3x3 entry tuple e under signed row permutations (left)
    and signed column permutations (right), as a prefix tree of maps.

    Entry k of a member is sign * e[index] for the (index, sign) pair at
    depth k of its path; members that share their first k pairs share a
    path, so one comparison at a node covers all of them.
    """
    tree: dict = {}
    for perm_l, signs_l in left:
        for perm_r, signs_r in right:
            node = tree
            for i, j in itertools.product(range(3), repeat=2):
                pair = (3 * perm_l[i] + perm_r[j], signs_l[i] * signs_r[j])
                node = node.setdefault(pair, {})
    return tree


def _is_orbit_least(entries: tuple[int, ...], node: dict, k: int = 0) -> bool:
    """Whether no orbit member under node, all of which agree with entries
    before position k, is lexicographically smaller than entries."""
    for (index, sign), child in node.items():
        diff = sign * entries[index] - entries[k]
        if diff < 0 or (diff == 0 and not _is_orbit_least(entries, child, k + 1)):
            return False
    return True


def _leads_negative(v: Sequence[int]) -> bool:
    """Whether the first nonzero entry is negative (False for zero)."""
    for x in v:
        if x:
            return x < 0
    return False


def _rows_completing(c: Sequence[int], rng: range) -> Iterator[tuple[int, int, int]]:
    """Every row r in rng^3 with r . c = +-1, in lexicographic order."""
    c0, c1, c2 = c
    targets = (-1, 1) if c2 > 0 else (1, -1)  # ascending z when c2 != 0
    for x, y in itertools.product(rng, repeat=2):
        partial = x * c0 + y * c1
        if c2 == 0:
            if partial in (1, -1):
                for z in rng:
                    yield (x, y, z)
            continue
        for t in targets:
            z, rem = divmod(t - partial, c2)
            if rem == 0 and z in rng:
                yield (x, y, z)


def enumerate_gluings(
    max_entry: int, w: Piece, w_prime: Piece
) -> Iterator[GluedManifold]:
    """All gluings of the two pieces by unimodular matrices with entries in
    [-max_entry, max_entry], one representative per symmetry orbit.

    The symmetry quotients by signed permutations of each boundary framing
    that fix the piece's lambda axis up to sign (changes of framing induced
    by self-diffeomorphisms of the pieces, so orbit members give the same
    manifold).  Representatives are the lexicographically least orbit
    members, streamed in lexicographic order of their entries.

    Only unimodular matrices are generated, row by row: a primitive r1, an
    r2 whose cross product c = r1 x r2 is primitive, and every r3 in the box
    with r3 . c = +-1 (that dot product is the determinant).  Flipping the
    sign of one row or one column is a symmetry, so every row and column of
    a least member starts with a negative entry; that cheap filter runs
    before the full least-member test against the precomputed orbit.
    Nothing is remembered between matrices, so memory stays constant.
    """
    orbit = _orbit_tree(
        _signed_permutations_fixing(w.lambda_index - 1),
        _signed_permutations_fixing(w_prime.lambda_index - 1),
    )
    rng = range(-max_entry, max_entry + 1)
    rows = [r for r in itertools.product(rng, repeat=3) if is_primitive(r) and _leads_negative(r)]
    for r1, r2 in itertools.product(rows, repeat=2):
        c = cross(r1, r2)
        if not is_primitive(c):
            continue
        for r3 in _rows_completing(c, rng):
            entries = (*r1, *r2, *r3)
            if (
                _leads_negative(r3)
                and all(map(_leads_negative, zip(r1, r2, r3)))
                and _is_orbit_least(entries, orbit)
            ):
                yield glue(w, w_prime, GluingMap(IntMatrix(3, 3, entries)))


def cmd_enumerate(args: argparse.Namespace) -> int:
    if args.max_entry < 1 or args.max_entry > MAX_ENUMERATION_ENTRY:
        raise _UsageError(
            f"--max-entry must be between 1 and {MAX_ENUMERATION_ENTRY}"
        )
    kinds = args.pieces.split(",")
    if len(kinds) != 2:
        raise _UsageError("--pieces needs two comma-separated kinds")
    try:
        pair = tuple(PieceKind(k.strip()) for k in kinds)
    except ValueError:
        valid = ", ".join(k.value for k in PieceKind)
        raise _UsageError(f"unknown piece kind; valid kinds: {valid}")
    if pair == (PieceKind.TORUS_TIMES_DISK, PieceKind.TORUS_TIMES_DISK):
        # the surgery framings, so rows read as unknot surgeries
        w = torus_times_disk(framing=("mu", "lambda", "s"), lambda_index=2)
        w_prime = torus_times_disk(framing=("lambda", "mu", "s"), lambda_index=1)
        both_disks = True
    else:
        w, w_prime = sample_piece(pair[0]), sample_piece(pair[1])
        both_disks = False

    rows = 0
    bad = 0
    for manifold in enumerate_gluings(args.max_entry, w, w_prime):
        rows += 1
        chi = euler_characteristic_glued(manifold)
        h1 = mayer_vietoris_h1(manifold)
        obj: dict[str, Any] = {
            "matrix": _matrix_obj(manifold.f.m),
            "det": manifold.f.det_sign,
            "h1": {"free_rank": h1.free_rank, "torsion": list(h1.torsion)},
            "chi": chi,
        }
        if both_disks:
            lens = classify_double_disk_gluing(manifold)
            ok = h1 == expected_h1_for_lens(lens) and chi == 0
            obj["lens"] = {"q": lens.q, "p": lens.p}
            summary = f"lens={lens}"
        else:
            result = find_fibration(manifold)
            ok = chi == 0
            obj["phi"] = list(result.phi.phi)
            obj["parallel_case"] = result.parallel_case
            summary = (
                f"phi={_format_vec(result.phi.phi)} "
                f"parallel={'true' if result.parallel_case else 'false'}"
            )
        obj["consistent"] = ok
        if not ok:
            bad += 1
        if args.format == "machine-readable":
            print(json.dumps(obj, sort_keys=True))
        elif not args.quiet:
            flat = json.dumps(_matrix_obj(manifold.f.m))
            print(
                f"{flat} det={manifold.f.det_sign:+d} {summary} "
                f"H1={h1} chi={chi} {'ok' if ok else 'INCONSISTENT'}"
            )
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
    report = obstruction_check(args.chi, sigma)
    sigma_text = "unknown" if report.sigma_unknown else str(report.sigma)
    verdict = "PASSES" if report.passes else "FAILS"
    if report.sigma_unknown:
        verdict += " (sigma unknown)"
    obj = {
        "chi": report.chi,
        "sigma": report.sigma,
        "sigma_unknown": report.sigma_unknown,
        "passes": report.passes,
    }
    _emit(args, obj, [f"chi = {report.chi}; sigma = {sigma_text}; {verdict}"])
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


if __name__ == "__main__":
    raise SystemExit(main())
