"""Per-layer spans for the benchmark's traced run.

The program is not edited: wrappers are installed around the public
functions of each torusglue module (the layers ``cli``, ``gluing``,
``torus3``, ``pieces``, ``surgery``, ``invariants``, ``lattice`` and
``manifold_files``) and removed afterwards.  A function imported into
several modules (``from .lattice import solve``) has one lookup site per
module, so its wrapper goes to every ``torusglue.*`` attribute bound to the
same object.

A span's self time is its duration minus the durations of its direct child
spans.  Spans live in memory; ``metrics`` turns them into the per-layer
metrics named in BENCHMARK.json.
"""

from __future__ import annotations

import importlib
import sys
from collections import defaultdict
from time import perf_counter
from typing import Any, Callable

# (metric base name, module, attribute path, kind); kind "span" records calls
# and self time, "gen" a span per resume of a generator, "count" calls only
TARGETS = [
    ("cli.enumerate_gluings", "cli", "enumerate_gluings", "gen"),
    ("cli.cmd_enumerate", "cli", "cmd_enumerate", "span"),
    ("gluing.glue", "gluing", "glue", "span"),
    ("gluing.find_fibration", "gluing", "find_fibration", "span"),
    ("torus3.torus_through", "torus3", "torus_through", "span"),
    ("torus3.canonical_torus_containing", "torus3", "canonical_torus_containing", "span"),
    ("torus3.fibration_from_torus", "torus3", "fibration_from_torus", "span"),
    ("torus3.FibrationOfT3", "torus3", "FibrationOfT3.__post_init__", "span"),
    ("torus3.dual_curve", "torus3", "dual_curve", "span"),
    ("pieces.extension_certificate", "pieces", "extension_certificate", "span"),
    ("surgery.SurgerySpec.from_slope", "surgery", "SurgerySpec.from_slope", "span"),
    ("surgery.unknot_torus_surgery", "surgery", "unknot_torus_surgery", "span"),
    ("surgery.classify_double_disk_gluing", "surgery", "classify_double_disk_gluing", "span"),
    ("invariants.mayer_vietoris_h1", "invariants", "mayer_vietoris_h1", "span"),
    ("invariants.h1_presentation", "invariants", "h1_presentation", "span"),
    ("lattice.cokernel", "lattice", "cokernel", "span"),
    ("lattice.unimodular_inverse", "lattice", "unimodular_inverse", "span"),
    ("lattice.solve", "lattice", "solve", "span"),
    ("lattice.kernel_basis", "lattice", "kernel_basis", "span"),
    ("lattice.smith_normal_form", "lattice", "smith_normal_form", "span"),
    ("lattice.IntMatrix.det", "lattice", "IntMatrix.det", "span"),
    ("lattice.IntMatrix.constructions", "lattice", "IntMatrix.__post_init__", "count"),
    ("lattice.xgcd.calls", "lattice", "xgcd", "count"),
    ("manifold_files.parse_manifold_file", "manifold_files", "parse_manifold_file", "span"),
    ("manifold_files.serialize_manifold_file", "manifold_files", "serialize_manifold_file", "span"),
]

# Smith normal forms split by the layer that asked for them (the verifier is
# anything under invariants.*) and by matrix shape; shapes the workloads do
# not produce at this commit land in "other"
SNF = "lattice.smith_normal_form"
ENGINE_SHAPES = ("1x3", "2x3", "3x2")
VERIFIER_SHAPES = (
    "4x3", "5x4", "6x3", "6x4", "6x5", "7x5", "7x6",
    "8x5", "8x6", "8x7", "9x6", "9x7", "10x7",
)

# extra per-layer counts and ratios, with their units
EXTRAS = [
    ("cli.enumerate_gluings.rows", "count"),
    ("cli.enumerate_gluings.candidates", "count"),
    ("cli.enumerate_gluings.yield_ratio", "ratio"),
    ("gluing.find_fibration.parallel_share", "ratio"),
    ("manifold_files.parse_manifold_file.bytes", "count"),
    ("manifold_files.serialize_manifold_file.bytes", "count"),
    ("trace_overhead", "ratio"),
    ("layers_absent", "count"),
]


def _snf_buckets() -> list[str]:
    return [f"{SNF}.engine.{s}" for s in (*ENGINE_SHAPES, "other")] + [
        f"{SNF}.verifier.{s}" for s in (*VERIFIER_SHAPES, "other")
    ]


def layer_metric_units() -> dict[str, str]:
    """Every per-layer metric name, in report order, with its unit."""
    units: dict[str, str] = {}
    for base, _, _, kind in TARGETS:
        if kind == "count":
            units[base] = "count"
        else:
            units[f"{base}.calls"] = "count"
            units[f"{base}.self_s"] = "s"
    for bucket in _snf_buckets():
        units[f"{bucket}.calls"] = "count"
        units[f"{bucket}.self_s"] = "s"
    units.update(EXTRAS)
    return units


class Tracer:
    """Installs span wrappers on torusglue, and restores the originals."""

    def __init__(self, targets: list[tuple[str, str, str, str]] = TARGETS):
        self.targets = targets
        self.stack: list[list[Any]] = []  # [name, time covered by child spans]
        self.calls: defaultdict[str, int] = defaultdict(int)
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.counts: defaultdict[str, int] = defaultdict(int)
        self.absent: list[str] = []
        self._restore: list[tuple[Any, str, Any]] = []

    # -- recording ---------------------------------------------------------

    def _close(self, frame: list[Any], t0: float) -> float:
        """Pop a span; charge its duration to its parent; return self time."""
        dt = perf_counter() - t0
        self.stack.pop()
        if self.stack:
            self.stack[-1][1] += dt
        self_time = dt - frame[1]
        self.self_s[frame[0]] += self_time
        return self_time

    def _span(self, name: str, fn: Callable, after: Callable | None) -> Callable:
        def wrapper(*args, **kwargs):
            frame = [name, 0.0]
            self.stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self_time = self._close(frame, t0)
                self.calls[name] += 1
            if after is not None:
                after(args, result, self_time)
            return result

        return wrapper

    def _gen_span(self, name: str, fn: Callable) -> Callable:
        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            self.counts[f"{name}.candidates"] += (2 * args[0] + 1) ** 9
            inner = fn(*args, **kwargs)
            try:
                while True:
                    frame = [name, 0.0]
                    self.stack.append(frame)
                    t0 = perf_counter()
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        self._close(frame, t0)
                    self.counts[f"{name}.rows"] += 1
                    yield item
            finally:
                inner.close()

        return wrapper

    def _count(self, name: str, fn: Callable) -> Callable:
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _after_snf(self, args: tuple, result: Any, self_time: float) -> None:
        a = args[0]
        shape = f"{a.rows}x{a.cols}"
        if any(frame[0].startswith("invariants.") for frame in self.stack):
            role, known = "verifier", VERIFIER_SHAPES
        else:
            role, known = "engine", ENGINE_SHAPES
        bucket = f"{SNF}.{role}.{shape if shape in known else 'other'}"
        self.calls[bucket] += 1
        self.self_s[bucket] += self_time

    def _after_fibration(self, args: tuple, result: Any, self_time: float) -> None:
        self.counts["gluing.find_fibration.parallel"] += bool(result.parallel_case)

    def _after_parse(self, args: tuple, result: Any, self_time: float) -> None:
        self.counts["manifold_files.parse_manifold_file.bytes"] += len(args[0].encode())

    def _after_serialize(self, args: tuple, result: Any, self_time: float) -> None:
        self.counts["manifold_files.serialize_manifold_file.bytes"] += len(result.encode())

    # -- installing ----------------------------------------------------------

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        after = {
            SNF: self._after_snf,
            "gluing.find_fibration": self._after_fibration,
            "manifold_files.parse_manifold_file": self._after_parse,
            "manifold_files.serialize_manifold_file": self._after_serialize,
        }
        for base, module_name, path, kind in self.targets:
            try:
                module = importlib.import_module(f"torusglue.{module_name}")
            except ImportError:
                self.absent.append(base)
                continue
            *owner_path, attr = path.split(".")
            owner: Any = module
            for part in owner_path:
                owner = getattr(owner, part, None)
            raw = getattr(owner, "__dict__", {}).get(attr)
            if raw is None:
                self.absent.append(base)
                continue
            is_classmethod = isinstance(raw, classmethod)
            fn = raw.__func__ if is_classmethod else raw
            if kind == "gen":
                wrapped = self._gen_span(base, fn)
            elif kind == "count":
                wrapped = self._count(base, fn)
            else:
                wrapped = self._span(base, fn, after.get(base))
            if owner_path:  # a method: the class is its only lookup site
                self._set(owner, attr, classmethod(wrapped) if is_classmethod else wrapped)
                continue
            for name, mod in list(sys.modules.items()):
                if name == "torusglue" or name.startswith("torusglue."):
                    for key, value in list(vars(mod).items()):
                        if value is fn:
                            self._set(mod, key, wrapped)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- reporting -----------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Every per-layer metric; absent layers, unused buckets and
        trace_overhead, which needs an untraced run, read 0."""
        counted = {base for base, _, _, kind in self.targets if kind == "count"}
        counted.update(name for name, _ in EXTRAS)
        values: dict[str, float] = {}
        for name in layer_metric_units():
            base = name.rpartition(".")[0]
            if name in counted:
                values[name] = self.counts.get(name, 0)
            elif name.endswith(".self_s"):
                values[name] = self.self_s.get(base, 0.0)
            else:
                values[name] = self.calls.get(base, 0)
        enum = "cli.enumerate_gluings"
        candidates = self.counts.get(f"{enum}.candidates", 0)
        values[f"{enum}.yield_ratio"] = (
            self.counts.get(f"{enum}.rows", 0) / candidates if candidates else 0.0
        )
        fibrations = self.calls.get("gluing.find_fibration", 0)
        values["gluing.find_fibration.parallel_share"] = (
            self.counts.get("gluing.find_fibration.parallel", 0) / fibrations
            if fibrations else 0.0
        )
        values["layers_absent"] = len(self.absent)
        return values
