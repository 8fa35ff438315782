"""Run one workload of the torusglue benchmark and print its metrics.

    python3 perfbench/run.py --workload surgery-slopes --seed 1 --seconds 10 --trace 0

Run from the root of a checkout.  Nothing is built: the workload processes
import torusglue from the checkout's ``src``.  Every process is fresh and
they run one at a time:

- ``--trace 0``: SETUP_SAMPLES processes that only set up, half before and
  half after one timed process (whole passes for ``--seconds``, tracing
  off); prints the end-to-end metrics, with ``setup_s`` the median set-up.
- ``--trace 1``: the same timed process, then one traced process that runs
  exactly one pass with spans around each torusglue layer; prints the
  per-layer metrics and ``trace_overhead`` (traced over untraced ops/s).

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``failed / attempted`` is the share of ops whose
output check failed; it is printed as ``failed_share`` on the summary line.
The line before it records the environment (Python version, CPU count,
seed, and the seconds taken by a fixed integer loop); it is recorded only
and never used to rescale a metric.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from tracing import layer_metric_units

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("surgery-slopes", "enumerate-n2", "file-roundtrip")
SETUP_SAMPLES = 9
DEADLINE_S = 170  # the whole run, every process included

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "ops/s",
    "op_p50_ms": "ms",
    "op_p99_ms": "ms",
    "peak_rss_mb": "MB",
}


class BenchError(Exception):
    pass


def calibration_s() -> float:
    """Seconds for a fixed integer loop, recorded beside each result."""
    t0 = perf_counter()
    acc = 0
    for i in range(1_000_000):
        acc = (acc * 31 + i) % 1_000_003
    return perf_counter() - t0


def child(args: argparse.Namespace, mode: str, deadline: float) -> dict:
    """Run worker.py in a fresh process and return its JSON result."""
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--mode", mode,
    ]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    timeout = deadline - perf_counter()
    if timeout <= 0:
        raise BenchError(f"out of time before the {mode} process")
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} process did not finish within {timeout:.0f} s")
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise BenchError(f"{mode} process exited with {proc.returncode}")
    try:
        out = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        raise BenchError(f"{mode} process printed no result")
    if not Path(out["torusglue"]).resolve().is_relative_to(SRC):
        raise BenchError(f"torusglue was imported from {out['torusglue']}, not {SRC}")
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = perf_counter() + DEADLINE_S

    if not (SRC / "torusglue" / "__init__.py").is_file():
        print(f"error: no torusglue sources under {SRC}", file=sys.stderr)
        return 2
    env = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "seed": args.seed,
        "calibration_s": calibration_s(),
    }
    try:
        if args.trace:
            timed = child(args, "timed", deadline)
            traced = child(args, "traced", deadline)
        else:
            # set-up samples on both sides of the timed process, so their
            # median spans the run rather than one moment of the host
            setups = [child(args, "setup", deadline)["setup_s"] for _ in range(SETUP_SAMPLES // 2)]
            timed = child(args, "timed", deadline)
            setups += [child(args, "setup", deadline)["setup_s"]
                       for _ in range(SETUP_SAMPLES - SETUP_SAMPLES // 2)]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted, failed = timed["attempted"], timed["failed"]
    if args.trace:
        attempted += traced["attempted"]
        failed += traced["failed"]
        layers = dict(traced["layers"])
        layers["trace_overhead"] = traced["ops_per_s"] / timed["ops_per_s"]
        metrics = {
            name: {"value": layers[name], "unit": unit}
            for name, unit in layer_metric_units().items()
        }
        for name in traced["absent"]:
            print(f"absent layer: {name} is no longer in src; its metrics read 0")
        summary = (
            f"trace_overhead={layers['trace_overhead']:.3f} "
            f"({traced['ops_per_s']:.1f} traced vs {timed['ops_per_s']:.1f} untraced ops/s)"
        )
    else:
        values = {
            "setup_s": statistics.median(setups),
            "ops_per_s": timed["ops_per_s"],
            "op_p50_ms": timed["op_p50_ms"],
            "op_p99_ms": timed["op_p99_ms"],
            "peak_rss_mb": timed["peak_rss_mb"],
        }
        metrics = {
            name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END_UNITS.items()
        }
        summary = " ".join(
            f"{name}={m['value']:.4g} {m['unit']}" for name, m in metrics.items()
        ) + (
            f" ({timed['attempted']} ops over {timed['passes']} passes;"
            f" percentiles over {timed['inputs']} inputs)"
        )
    print(
        f"{args.workload} seed={args.seed}: {summary} "
        f"failed_share={failed / attempted:.4g} ratio ({failed}/{attempted})"
    )
    print("env " + json.dumps(env, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
