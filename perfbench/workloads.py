"""Workloads of the torusglue benchmark: inputs, the timed op, output checks.

Each workload is a fixed canonical input set that a pass visits once, in an
order drawn from the seed.  Outputs are checked by arithmetic done here, not
by asking the library, and the canonical-order outputs of the first pass are
hashed and compared with a golden SHA-256 stored beside this file, so the
digest does not depend on the seed.

All three workloads are closed loops with one caller: the next op starts
when the previous one has returned.

Calls into torusglue go through module attributes (``surgery.X``, not a
name imported from it), so the traced run's wrappers see them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
import statistics
import sys
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

from torusglue import cli, gluing, invariants, manifold_files, surgery
from torusglue.lattice import AbelianGroup, IntMatrix
from torusglue.pieces import Piece, PieceKind

GOLDEN_FILE = Path(__file__).with_name("golden.json")

# tamper(op_index, output) -> output; lets the benchmark's tests feed a
# corrupted output to the checks
Tamper = Callable[[int, Any], Any]


def golden_digest(workload: str, size: str) -> str:
    return json.loads(GOLDEN_FILE.read_text())[workload][size]


def _sha256_lines(lines: list[str]) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()


def _det3(a: list[int], b: list[int], c: list[int]) -> int:
    """Determinant of the matrix with columns a, b, c."""
    return (
        a[0] * (b[1] * c[2] - b[2] * c[1])
        - b[0] * (a[1] * c[2] - a[2] * c[1])
        + c[0] * (a[1] * b[2] - a[2] * b[1])
    )


def _dot(a: list[int], b: list[int]) -> int:
    return sum(x * y for x, y in zip(a, b))


class _PassResult:
    def __init__(self) -> None:
        self.latencies: dict[Any, float] = {}  # input key -> seconds
        # key -> seconds of a call's work after its last op (an enumeration's
        # scan past its last row): timed, part of no op's latency
        self.tails: dict[Any, float] = {}
        self.failed = 0
        self.missing = 0  # ops that never produced an output, so have no latency
        self.digest = ""


def _report_error(where: str, exc: Exception) -> None:
    print(f"op failed in {where}: {type(exc).__name__}: {exc}", file=sys.stderr)


# ---------------------------------------------------------------------------
# surgery-slopes


def expected_surgery(p: int, q: int) -> dict[str, Any]:
    """S^1 x L(|q|, p mod |q|), normalized; H_1 = Z + Z/q, or Z^2 at q = 0."""
    q = abs(q)
    if q == 0:
        lens, h1 = [0, 1], [2, []]
    elif q == 1:
        lens, h1 = [1, 0], [1, []]
    else:
        lens, h1 = [q, p % q], [1, [q]]
    return {"lens": lens, "h1": h1, "chi": 0}


class SurgerySlopes:
    """Every coprime slope with |p| <= B and 0 <= q <= B; an op runs the
    library calls of ``torusglue surgery p q`` without the argument parser."""

    name = "surgery-slopes"
    SIZES = {"full": 30, "tiny": 3}

    def __init__(self, seed: int, size: str = "full", tamper: Tamper | None = None):
        bound = self.SIZES[size]
        self.slopes = [
            (p, q)
            for q in range(bound + 1)
            for p in range(-bound, bound + 1)
            if math.gcd(p, q) == 1
        ]
        self.expected = [expected_surgery(p, q) for p, q in self.slopes]
        self.order = list(range(len(self.slopes)))
        random.Random(seed).shuffle(self.order)
        self.tamper = tamper

    def run_pass(self, first: bool) -> _PassResult:
        res = _PassResult()
        lines = [""] * len(self.slopes)
        for i in self.order:
            p, q = self.slopes[i]
            t0 = perf_counter()
            try:
                spec = surgery.SurgerySpec.from_slope(p, q)
                x, lens = surgery.unknot_torus_surgery(spec)
                h1 = invariants.mayer_vietoris_h1(x)
                chi = invariants.euler_characteristic_glued(x)
            except Exception as exc:  # an op that raises is a failed op
                res.latencies[i] = perf_counter() - t0
                res.failed += 1
                _report_error(f"surgery {p} {q}", exc)
                lines[i] = f"{p} {q} error"
                continue
            res.latencies[i] = perf_counter() - t0
            out = {
                "lens": [lens.q, lens.p],
                "h1": [h1.free_rank, list(h1.torsion)],
                "chi": chi,
                "matrix": list(x.f.m.entries),
            }
            if self.tamper:
                out = self.tamper(i, out)
            exp = self.expected[i]
            if out["lens"] != exp["lens"] or out["h1"] != exp["h1"] or out["chi"] != 0:
                res.failed += 1
            if first:
                lines[i] = json.dumps([p, q, out], sort_keys=True)
        if first:
            res.digest = _sha256_lines(lines)
        return res


# ---------------------------------------------------------------------------
# enumerate-n2


class _RowClock(io.StringIO):
    """A stdout stand-in that timestamps every completed line as it is written."""

    def __init__(self) -> None:
        super().__init__()
        self.stamps: list[float] = []

    def write(self, s: str) -> int:
        n = super().write(s)
        if "\n" in s:
            now = perf_counter()
            self.stamps.extend([now] * s.count("\n"))
        return n


class EnumerateN2:
    """``torusglue enumerate --max-entry N`` in process, once for the disk
    pair (lens branch) and once for a mixed pair (fibration branch).  An op
    is one emitted row; its latency is the gap since the previous row, which
    is what a consumer of the stream waits."""

    name = "enumerate-n2"
    SIZES = {"full": 2, "tiny": 1}
    PAIRS = (
        "torus_times_disk,torus_times_disk",
        "knot_exterior_product,surface_bundle_over_torus",
    )
    # orbit representatives of unimodular matrices with entries in [-N, N]
    ROWS_PER_PAIR = {2: 1077, 1: 62}

    def __init__(self, seed: int, size: str = "full", tamper: Tamper | None = None):
        n = self.SIZES[size]
        self.rows_expected = self.ROWS_PER_PAIR[n]
        self.calls = [
            (pair, ["enumerate", "--max-entry", str(n), "--format", "machine-readable",
                    "--pieces", pair])
            for pair in self.PAIRS
        ]
        random.Random(seed).shuffle(self.calls)
        self.tamper = tamper

    @staticmethod
    def _row_ok(row: str) -> bool:
        try:
            obj = json.loads(row)
        except ValueError:
            return False
        return isinstance(obj, dict) and obj.get("consistent") is True

    def run_pass(self, first: bool) -> _PassResult:
        res = _PassResult()
        texts: dict[str, list[str]] = {}
        for pair, argv in self.calls:
            clock = _RowClock()
            t0 = perf_counter()
            try:
                with contextlib.redirect_stdout(clock):
                    rc = cli.main(argv)
            except Exception as exc:
                rc = None
                _report_error(f"enumerate {pair}", exc)
            end = perf_counter()
            prev = t0
            for k, stamp in enumerate(clock.stamps):
                res.latencies[pair, k] = stamp - prev
                prev = stamp
            res.tails[pair] = end - prev
            rows = clock.getvalue().splitlines()
            if self.tamper:
                rows = [self.tamper(k, row) for k, row in enumerate(rows)]
            res.failed += sum(not self._row_ok(row) for row in rows)
            res.failed += rc != 0
            res.missing += max(0, self.rows_expected - len(rows))
            res.failed += len(rows) != self.rows_expected
            texts[pair] = rows
        if first:
            res.digest = _sha256_lines(
                [line for pair in self.PAIRS for line in [pair, *texts[pair]]]
            )
        return res


# ---------------------------------------------------------------------------
# file-roundtrip

KINDS = (
    "torus_times_disk",
    "knot_exterior_product",
    "surface_bundle_over_torus",
)
KIND_PAIRS = [(a, b) for a in KINDS for b in KINDS]
_OTHER_NAMES = {
    "torus_times_disk": ("mu", "s"),
    "knot_exterior_product": ("mu", "s"),
    "surface_bundle_over_torus": ("t1", "t2"),
}
_KNOT_LABELS = ("trefoil", "figure-eight", "5_1", "cinquefoil in L(3,1)")
_BUNDLE_LABELS = ("trivial bundle", "Dehn twist", "hyperelliptic involution")


def _unimodular2(rng: random.Random) -> list[list[int]]:
    """A 2x2 integer matrix of determinant +-1 with small entries."""
    m = [[1, 0], [0, 1]]
    for _ in range(rng.randint(0, 4)):
        k = rng.choice((-2, -1, 1, 2))
        i = rng.randrange(2)
        m[i] = [m[i][j] + k * m[1 - i][j] for j in range(2)]
    if rng.random() < 0.5:
        m.reverse()
    return m


def _piece_doc(rng: random.Random, kind: str) -> dict[str, Any]:
    """A piece whose declared inclusion sends lambda to 0, as every piece's
    must: lambda bounds the fiber surface."""
    lam = rng.randint(1, 3)
    names = list(_OTHER_NAMES[kind])
    names.insert(lam - 1, "lambda")
    others = [j for j in range(3) if j != lam - 1]
    if kind == "torus_times_disk":
        genus, label, free_rank, torsion = 0, "", 2, []
        inclusion = []
        for row in _unimodular2(rng):
            full = [0, 0, 0]
            for j, v in zip(others, row):
                full[j] = v
            inclusion.append(full)
    else:
        if kind == "knot_exterior_product":
            genus, label = rng.randint(1, 3), rng.choice(_KNOT_LABELS)
            free_rank, torsion = 2, [rng.choice((2, 3, 5))]
        else:
            genus, label = rng.randint(1, 3), rng.choice(_BUNDLE_LABELS)
            free_rank, torsion = rng.randint(2, 3), rng.choice(([2], [3], [2, 4]))
        inclusion = []
        for _ in range(free_rank + len(torsion)):
            row = [rng.randint(-3, 3) for _ in range(3)]
            row[lam - 1] = 0
            inclusion.append(row)
    return {
        "kind": kind,
        "genus": genus,
        "monodromy_label": label,
        "framing": names,
        "lambda_index": lam,
        "h1": {"free_rank": free_rank, "torsion": torsion},
        "inclusion": inclusion,
    }


def _gluing_matrix(rng: random.Random, lam_w: int, lam_wp: int, parallel: bool) -> list[list[int]]:
    """Rows of a unimodular 3x3 matrix with entries of absolute value <= 12.

    With parallel set, the second piece's lambda goes to +-the first piece's
    lambda, so the fibration engine has to choose a torus."""
    if parallel:
        m = [[0] * 3 for _ in range(3)]
        m[lam_w - 1][lam_wp - 1] = rng.choice((1, -1))
        rows = [i for i in range(3) if i != lam_w - 1]
        cols = [j for j in range(3) if j != lam_wp - 1]
        block = _unimodular2(rng)
        for a, i in enumerate(rows):
            for b, j in enumerate(cols):
                m[i][j] = block[a][b]
        for j in cols:
            m[lam_w - 1][j] = rng.randint(-2, 2)
        return m
    while True:
        m = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
        for _ in range(rng.randint(2, 7)):
            i, j = rng.sample(range(3), 2)
            k = rng.choice((-2, -1, 1, 2))
            m[i] = [m[i][c] + k * m[j][c] for c in range(3)]
        if rng.random() < 0.5:
            i, j = rng.sample(range(3), 2)
            m[i], m[j] = m[j], m[i]
        if max(abs(v) for r in m for v in r) <= 12:
            return m


def make_document(rng: random.Random, index: int) -> dict[str, Any]:
    """Document ``index`` of the corpus; kind pairs rotate with the index."""
    kind_w, kind_wp = KIND_PAIRS[index % len(KIND_PAIRS)]
    w, wp = _piece_doc(rng, kind_w), _piece_doc(rng, kind_wp)
    parallel = rng.random() < 0.1
    matrix = _gluing_matrix(rng, w["lambda_index"], wp["lambda_index"], parallel)
    cols = list(zip(*matrix))
    det = _det3(list(cols[0]), list(cols[1]), list(cols[2]))
    return {
        "version": "1",
        "pieces": [w, wp],
        "gluing": {"matrix": matrix, "orientation_note": f"det={det:+d}"},
        "metadata": {"label": f"doc-{index}", "pair": f"{kind_w}+{kind_wp}"},
    }


def canonical_text(doc: dict[str, Any]) -> str:
    """The documented canonical form: sorted keys, 2-space indent, newline."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _piece_from_doc(d: dict[str, Any]) -> Piece:
    return Piece(
        kind=PieceKind(d["kind"]),
        genus=d["genus"],
        monodromy_label=d["monodromy_label"],
        framing=tuple(d["framing"]),
        lambda_index=d["lambda_index"],
        h1=AbelianGroup(d["h1"]["free_rank"], tuple(d["h1"]["torsion"])),
        inclusion=IntMatrix.from_rows(d["inclusion"]),
    )


def _doc_from_file(mf: Any) -> dict[str, Any]:
    """Read a parsed ManifoldFile back into document form, field by field."""
    pieces = []
    for p in mf.pieces:
        pieces.append({
            "kind": p.kind.value,
            "genus": p.genus,
            "monodromy_label": p.monodromy_label,
            "framing": list(p.framing),
            "lambda_index": p.lambda_index,
            "h1": {"free_rank": p.h1.free_rank, "torsion": list(p.h1.torsion)},
            "inclusion": [list(p.inclusion.row(i)) for i in range(p.inclusion.rows)],
        })
    m = mf.gluing.m
    return {
        "version": mf.version,
        "pieces": pieces,
        "gluing": {
            "matrix": [list(m.row(i)) for i in range(3)],
            "orientation_note": mf.orientation_note,
        },
        "metadata": mf.metadata,
    }


class FileRoundtrip:
    """A fixed corpus of manifold documents over all nine kind pairs; an op
    writes one file, reads it back, and runs the ``fibration`` and
    ``homology`` subcommands' library calls on it."""

    name = "file-roundtrip"
    SIZES = {"full": 1008, "tiny": 18}
    CORPUS_SEED = 20251217  # the corpus is fixed; the run seed picks the order

    def __init__(self, seed: int, size: str = "full", tamper: Tamper | None = None):
        rng = random.Random(self.CORPUS_SEED)
        self.docs = [make_document(rng, i) for i in range(self.SIZES[size])]
        self.texts = [canonical_text(d) for d in self.docs]
        self.files = [
            manifold_files.ManifoldFile(
                version=d["version"],
                pieces=(_piece_from_doc(d["pieces"][0]), _piece_from_doc(d["pieces"][1])),
                gluing=gluing.GluingMap(IntMatrix.from_rows(d["gluing"]["matrix"])),
                orientation_note=d["gluing"]["orientation_note"],
                metadata=dict(d["metadata"]),
            )
            for d in self.docs
        ]
        self.order = list(range(len(self.docs)))
        random.Random(seed).shuffle(self.order)
        self.tamper = tamper

    def _ok(self, i: int, out: dict[str, Any]) -> bool:
        doc = self.docs[i]
        if out["text"] != self.texts[i] or out["reread"] != self.texts[i]:
            return False
        phi = out["phi"]
        lam_w = [0, 0, 0]
        lam_w[doc["pieces"][0]["lambda_index"] - 1] = 1
        matrix = doc["gluing"]["matrix"]
        lam_wp = [row[doc["pieces"][1]["lambda_index"] - 1] for row in matrix]
        if math.gcd(*phi) != 1 or _dot(phi, lam_w) != 0 or _dot(phi, lam_wp) != 0:
            return False
        if any(abs(_det3(*triple)) != 1 for triple in out["certificates"]):
            return False
        return out["chi"] == 0

    def run_pass(self, first: bool) -> _PassResult:
        res = _PassResult()
        lines = [""] * len(self.docs)
        for i in self.order:
            t0 = perf_counter()
            try:
                text = manifold_files.serialize_manifold_file(self.files[i])
                parsed = manifold_files.parse_manifold_file(text)
                x = gluing.glue(parsed.pieces[0], parsed.pieces[1], parsed.gluing)
                fib = gluing.find_fibration(x)
                h1 = invariants.mayer_vietoris_h1(x)
                chi = invariants.euler_characteristic_glued(x)
            except Exception as exc:
                res.latencies[i] = perf_counter() - t0
                res.failed += 1
                _report_error(f"file-roundtrip doc-{i}", exc)
                lines[i] = f"{i} error"
                continue
            res.latencies[i] = perf_counter() - t0
            out = {
                "text": text,
                "reread": canonical_text(_doc_from_file(parsed)),
                "phi": list(fib.phi.phi),
                "torus": list(fib.torus.n),
                "parallel": fib.parallel_case,
                "certificates": [
                    [list(c.gamma.v), list(c.lam.v), list(c.alpha.v)]
                    for c in (fib.cert_w, fib.cert_w_prime)
                ],
                "h1": [h1.free_rank, list(h1.torsion)],
                "chi": chi,
            }
            if self.tamper:
                out = self.tamper(i, out)
            if not self._ok(i, out):
                res.failed += 1
            if first:
                summary = {k: v for k, v in out.items() if k not in ("text", "reread")}
                lines[i] = json.dumps([i, summary], sort_keys=True)
        if first:
            res.digest = _sha256_lines(lines)
        return res


WORKLOADS = {w.name: w for w in (SurgerySlopes, EnumerateN2, FileRoundtrip)}


def run(workload: Any, seconds: float, expected_digest: str) -> dict[str, Any]:
    """Run whole passes until ``seconds`` have elapsed (at least one pass).

    The golden digest is checked on the first pass; a mismatch counts as one
    failure.

    An input's latency is the median over the passes that ran it, and the
    percentiles are taken over inputs.  ``ops_per_s`` is the number of inputs
    over the sum of their median latencies (plus the median of each call's
    tail): the rate of one pass at every op's typical cost, with the checks
    between ops left out.  A stall of the host (on a shared VM, the
    hypervisor running another guest for a few milliseconds) lands on one
    sample of one input and the median drops it, so the rate and the tail
    belong to the program, not to the host; a mean over every sample counts
    the stalls and spreads wider from seed to seed.
    """
    per_input: dict[Any, list[float]] = {}
    per_tail: dict[Any, list[float]] = {}
    samples = 0
    failed = 0
    missing = 0
    passes = 0
    digest = ""
    start = perf_counter()
    while passes == 0 or perf_counter() - start < seconds:
        res = workload.run_pass(first=passes == 0)
        if passes == 0:
            digest = res.digest
            failed += digest != expected_digest
        for key, dt in res.latencies.items():
            per_input.setdefault(key, []).append(dt)
        for key, dt in res.tails.items():
            per_tail.setdefault(key, []).append(dt)
        samples += len(res.latencies)
        failed += res.failed
        missing += res.missing
        passes += 1
    if not samples:
        raise RuntimeError(f"{workload.name}: no op completed")
    medians = sorted(statistics.median(v) for v in per_input.values())
    pass_s = sum(medians) + sum(statistics.median(v) for v in per_tail.values())
    attempted = samples + missing
    return {
        "attempted": attempted,
        "failed": min(failed + missing, attempted),
        "passes": passes,
        "inputs": len(medians),
        "digest": digest,
        "ops_per_s": len(medians) / pass_s,
        "op_p50_ms": statistics.median(medians) * 1e3,
        # nearest rank: with >= 1000 inputs at least 10 lie above it
        "op_p99_ms": medians[math.ceil(0.99 * len(medians)) - 1] * 1e3,
    }
