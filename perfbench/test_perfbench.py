"""Tests of the benchmark itself: its checks pass on correct outputs, fail on
tampered ones, the traced run covers every declared per-layer metric, and
run.py refuses to run without the program's sources.

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
if importlib.util.find_spec("torusglue") is None:
    sys.path.insert(0, str(HERE.parent / "src"))

import tracing  # noqa: E402
import workloads  # noqa: E402
from run import END_TO_END_UNITS, WORKLOADS  # noqa: E402

import torusglue.lattice  # noqa: E402
import torusglue.pieces  # noqa: E402


def _run_tiny(name: str, tamper=None, expected: str | None = None) -> dict:
    workload = workloads.WORKLOADS[name](seed=5, size="tiny", tamper=tamper)
    golden = workloads.golden_digest(name, "tiny") if expected is None else expected
    return workloads.run(workload, 0, golden)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_workload_passes_its_checks(name):
    res = _run_tiny(name)
    assert res["attempted"] > 0
    assert res["failed"] == 0


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_wrong_digest_counts_as_failure(name):
    res = _run_tiny(name, expected="0" * 64)
    assert res["failed"] > 0


def test_flipped_lens_p_fails_surgery_check():
    def flip_p(i, out):
        if i == 0:
            q, p = out["lens"]
            out = dict(out, lens=[q, p + 1])
        return out

    # the op's lens check and the digest each count once
    assert _run_tiny("surgery-slopes", tamper=flip_p)["failed"] == 2


def test_flipped_lens_p_fails_enumerate_digest():
    def flip_p(k, row):
        obj = json.loads(row)
        if k == 0 and "lens" in obj:  # only the disk pair's rows carry a lens
            obj["lens"]["p"] += 1
            row = json.dumps(obj, sort_keys=True)
        return row

    # the row still says consistent, so only the digest catches it
    assert _run_tiny("enumerate-n2", tamper=flip_p)["failed"] == 1


def test_inconsistent_row_fails_enumerate_check():
    def mark(k, row):
        return row.replace('"consistent": true', '"consistent": false') if k == 3 else row

    # row 3 of each of the two calls, and the digest
    assert _run_tiny("enumerate-n2", tamper=mark)["failed"] == 3


def test_phi_not_killing_lambda_fails_file_check():
    def bump(i, out):
        return dict(out, phi=[x + 1 for x in out["phi"]]) if i == 0 else out

    assert _run_tiny("file-roundtrip", tamper=bump)["failed"] == 2


def test_corpus_satisfies_declared_data_invariants():
    corpus = workloads.FileRoundtrip(seed=0)
    pairs = set()
    for doc in corpus.docs:
        pairs.add(tuple(p["kind"] for p in doc["pieces"]))
        for piece in doc["pieces"]:
            lam = piece["lambda_index"] - 1
            assert all(row[lam] == 0 for row in piece["inclusion"])
            if piece["kind"] != "torus_times_disk":
                assert piece["h1"]["torsion"]
        cols = [list(c) for c in zip(*doc["gluing"]["matrix"])]
        assert abs(workloads._det3(*cols)) == 1
        assert max(abs(v) for row in doc["gluing"]["matrix"] for v in row) <= 12
    assert len(pairs) == 9


def test_traced_run_reports_every_layer_and_restores_wrappers():
    solve = torusglue.lattice.solve
    det = torusglue.lattice.IntMatrix.det
    tracer = tracing.Tracer()
    tracer.install()
    try:
        _run_tiny("surgery-slopes")
        _run_tiny("enumerate-n2")
        _run_tiny("file-roundtrip")
    finally:
        tracer.uninstall()
    assert torusglue.lattice.solve is solve and torusglue.pieces.solve is solve
    assert torusglue.lattice.IntMatrix.det is det
    values = tracer.metrics()
    assert list(values) == list(tracing.layer_metric_units())
    assert tracer.absent == []
    for base, _, _, kind in tracing.TARGETS:
        if kind != "count":
            assert values[f"{base}.calls"] > 0, base
            assert values[f"{base}.self_s"] > 0, base
    assert values["cli.enumerate_gluings.rows"] == 2 * 62
    assert values["cli.enumerate_gluings.candidates"] == 2 * 3**9
    assert values["lattice.smith_normal_form.verifier.4x3.calls"] > 0
    assert values["lattice.smith_normal_form.engine.3x2.calls"] > 0
    assert values["lattice.xgcd.calls"] > 0


def test_missing_layer_is_reported_absent():
    targets = tracing.TARGETS + [
        ("cli.gone", "cli", "gone", "span"),
        ("nowhere.f", "nowhere", "f", "span"),
    ]
    tracer = tracing.Tracer(targets)
    tracer.install()
    try:
        _run_tiny("surgery-slopes")
    finally:
        tracer.uninstall()
    assert tracer.absent == ["cli.gone", "nowhere.f"]
    assert tracer.metrics()["layers_absent"] == 2


def test_benchmark_json_matches_reported_metrics():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in bench["workloads"]} == set(WORKLOADS) == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == tracing.layer_metric_units()


def test_run_fails_without_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "surgery-slopes",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
