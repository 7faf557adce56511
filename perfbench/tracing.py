"""Per-layer spans around gemmsim's public functions, recorded from outside.

The program carries no instrumentation, so the benchmark wraps the public
functions of each layer and patches the wrapper into every gemmsim module
that holds the function, including modules that imported it by name (for
example ``harness.validation.make_gemm`` and ``streamer.outer_product_schedule``)
and the ``Matrix`` class methods.  Each call becomes a span with a parent,
and each layer accumulates calls, errors, self time (span time minus the
time of the spans it caused) and a few work counters read off the call's
arguments and result.  Spans stay in memory and are written out once, as
Chrome trace-event JSON.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import os
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable


def _systolic(counters: dict, args: dict, result: Any) -> None:
    a, b, cfg = args["a"], args["b"], args["cfg"]
    counters["sim_clocks"] += result.cycles
    counters["tile_passes"] += math.ceil(a.cols / cfg.rows) * math.ceil(b.cols / cfg.cols)


def _oracle(counters: dict, args: dict, result: Any) -> None:
    a, b = args["a"], args["b"]
    counters["macs"] += a.rows * a.cols * b.cols


def _gemm_operands(counters: dict, args: dict, result: Any) -> None:
    counters["operands"] += sum(mat.rows * mat.cols for mat in result)


def _vector_operands(counters: dict, args: dict, result: Any) -> None:
    counters["operands"] += sum(len(vec) for vec in result)


def _cs_gemm(counters: dict, args: dict, result: Any) -> None:
    counters["macs"] += result.mac_ops_issued
    counters["transfers"] += sum((result.transfer_counts or {}).values())


def _mesh(counters: dict, args: dict, result: Any) -> None:
    counters["elements"] += args["n"]


def _report(counters: dict, args: dict, result: Any) -> None:
    counters["bytes"] += sum(os.path.getsize(path) for path in result)


@dataclass(frozen=True)
class Layer:
    """One layer: its targets as (module, attribute or Class.method, or "*")."""

    name: str
    targets: tuple[tuple[str, str], ...]
    observe: Callable[[dict, dict, Any], None] | None = None
    calls_only: bool = False


LAYERS = (
    Layer("systolic", (("gemmsim.systolic", "simulate_systolic_gemm"),), _systolic),
    Layer("workload.reference_matmul", (("gemmsim.workload", "reference_matmul"),), _oracle),
    Layer("workload.make_gemm", (("gemmsim.workload", "make_gemm"),), _gemm_operands),
    Layer("workload.make_vectors", (("gemmsim.workload", "make_vectors"),), _vector_operands),
    Layer(
        "workload.matrix_convert",
        (
            ("gemmsim.workload", "Matrix.from_numpy"),
            ("gemmsim.workload", "Matrix.to_numpy"),
            ("gemmsim.workload", "outer_product_schedule"),
        ),
    ),
    Layer("streamer.cs_gemm", (("gemmsim.streamer", "simulate_cs_gemm"),), _cs_gemm),
    Layer("streamer.tree_ip", (("gemmsim.streamer", "simulate_tree_inner_product"),)),
    Layer("meshflow.chain", (("gemmsim.meshflow", "simulate_chain_reduction"),), _mesh),
    Layer("meshflow.grid", (("gemmsim.meshflow", "simulate_grid_reduction"),), _mesh),
    Layer(
        "harness.config",
        (("gemmsim.harness.config", "load_config"), ("gemmsim.harness.config", "resolve_config")),
    ),
    Layer("harness.experiments", (("gemmsim.harness.experiments", "run_experiment"),)),
    Layer("harness.report", (("gemmsim.harness.report", "write_report"),), _report),
    Layer("harness.validation", (("gemmsim.harness.validation", "run_validation"),)),
    Layer("summa", (("gemmsim.summa", "*"),), calls_only=True),
    Layer("bounds", (("gemmsim.bounds", "*"),), calls_only=True),
    Layer("results", (("gemmsim.results", "*"),), calls_only=True),
)

LAYER_NAMES = tuple(layer.name for layer in LAYERS)

# Counters each layer's observer adds to, so every pass reports every key.
COUNTERS = {
    "systolic": ("sim_clocks", "tile_passes"),
    "workload.reference_matmul": ("macs",),
    "workload.make_gemm": ("operands",),
    "workload.make_vectors": ("operands",),
    "streamer.cs_gemm": ("macs", "transfers"),
    "meshflow.chain": ("elements",),
    "meshflow.grid": ("elements",),
    "harness.report": ("bytes",),
}


@dataclass
class LayerStats:
    calls: int = 0
    errors: int = 0
    self_s: float = 0.0
    incl_s: float = 0.0
    counters: dict[str, int] = field(default_factory=dict)

    def copy(self) -> "LayerStats":
        return LayerStats(self.calls, self.errors, self.self_s, self.incl_s, dict(self.counters))

    def scaled(self, factor: float) -> "LayerStats":
        return LayerStats(self.calls, self.errors, self.self_s * factor, self.incl_s * factor,
                          dict(self.counters))

    def minus(self, before: "LayerStats") -> "LayerStats":
        return LayerStats(
            self.calls - before.calls,
            self.errors - before.errors,
            self.self_s - before.self_s,
            self.incl_s - before.incl_s,
            {key: value - before.counters.get(key, 0) for key, value in self.counters.items()},
        )


class Tracer:
    """Span recorder; wrappers record only while ``active`` is set."""

    def __init__(self) -> None:
        # A span is [layer, name, start, end, parent index, child seconds].
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.stats = {
            name: LayerStats(counters=dict.fromkeys(COUNTERS.get(name, ()), 0))
            for name in LAYER_NAMES
        }
        self.active = False
        self.patched: list[tuple[Any, str, Any]] = []
        self.sites: dict[str, list[str]] = {}

    def wrap(self, layer: Layer, fn: Callable) -> Callable:
        tracer = self
        stats = self.stats[layer.name]
        signature = inspect.signature(fn) if layer.observe else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            parent = tracer.stack[-1] if tracer.stack else -1
            span = [layer.name, fn.__qualname__, time.perf_counter(), 0.0, parent, 0.0]
            tracer.stack.append(len(tracer.spans))
            tracer.spans.append(span)
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                end = time.perf_counter()
                tracer.stack.pop()
                span[3] = end
                duration = end - span[2]
                if parent >= 0:
                    tracer.spans[parent][5] += duration
                stats.calls += 1
                stats.self_s += duration - span[5]
                stats.incl_s += duration
                if not ok:
                    stats.errors += 1
            if signature is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                layer.observe(stats.counters, bound.arguments, result)
            return result

        return traced

    def install(self) -> None:
        """Patch every layer target into each gemmsim module that holds it."""
        modules = [
            mod
            for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == "gemmsim" or name.startswith("gemmsim."))
        ]
        for layer in LAYERS:
            for module_name, attr in layer.targets:
                home = sys.modules[module_name]
                if attr == "*":
                    names = [
                        name
                        for name, obj in vars(home).items()
                        if inspect.isfunction(obj)
                        and obj.__module__ == module_name
                        and not name.startswith("_")
                    ]
                    for name in names:
                        self._patch_function(layer, modules, getattr(home, name))
                elif "." in attr:
                    cls_name, method = attr.split(".")
                    self._patch_method(layer, getattr(home, cls_name), method)
                else:
                    self._patch_function(layer, modules, getattr(home, attr))

    def _patch_function(self, layer: Layer, modules: list, fn: Callable) -> None:
        wrapper = self.wrap(layer, fn)
        sites = self.sites.setdefault(f"{fn.__module__}.{fn.__qualname__}", [])
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self.patched.append((mod, attr, fn))
                    setattr(mod, attr, wrapper)
                    sites.append(f"{mod.__name__}.{attr}")

    def _patch_method(self, layer: Layer, cls: type, method: str) -> None:
        raw = cls.__dict__[method]
        if isinstance(raw, classmethod):
            replacement: Any = classmethod(self.wrap(layer, raw.__func__))
        else:
            replacement = self.wrap(layer, raw)
        self.patched.append((cls, method, raw))
        setattr(cls, method, replacement)
        self.sites[f"{cls.__module__}.{cls.__qualname__}.{method}"] = [
            f"{cls.__module__}.{cls.__qualname__}.{method}"
        ]

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self.patched):
            setattr(owner, attr, original)
        self.patched.clear()

    def snapshot(self) -> dict[str, LayerStats]:
        return {name: stats.copy() for name, stats in self.stats.items()}

    def write_chrome_trace(self, path: Path, meta: dict) -> None:
        """Spans as Chrome trace-event JSON (complete events, microseconds)."""
        t0 = self.spans[0][2] if self.spans else 0.0
        events = [
            {
                "name": name,
                "cat": layer,
                "ph": "X",
                "ts": round((start - t0) * 1e6, 3),
                "dur": round((end - start) * 1e6, 3),
                "pid": 1,
                "tid": 1,
                "args": {"id": index, "parent": parent},
            }
            for index, (layer, name, start, end, parent, _) in enumerate(self.spans)
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            json.dump({"traceEvents": events, "otherData": meta}, fh)
            fh.write("\n")


def _ratio(numerator: float, denominator: float, scale: float = 1.0) -> float:
    return numerator / denominator * scale if denominator else 0.0


def per_layer_metrics(passes: list[dict[str, LayerStats]], overhead_s: float) -> dict:
    """Median over traced passes of every per-layer metric, by name and unit."""
    per_pass: list[dict[str, tuple[float, str]]] = []
    for stats in passes:
        values: dict[str, tuple[float, str]] = {}
        for layer in LAYERS:
            s = stats[layer.name]
            values[f"{layer.name}.calls"] = (s.calls, "count")
            if not layer.calls_only:
                values[f"{layer.name}.self_s"] = (s.self_s, "s")
                values[f"{layer.name}.errors"] = (s.errors, "count")
        sy = stats["systolic"]
        values["systolic.host_us_per_clock"] = (_ratio(sy.incl_s, sy.counters["sim_clocks"], 1e6), "us")
        values["systolic.sim_clocks"] = (sy.counters["sim_clocks"], "count")
        values["systolic.tile_passes"] = (sy.counters["tile_passes"], "count")
        ref = stats["workload.reference_matmul"]
        values["workload.oracle_ns_per_mac"] = (_ratio(ref.self_s, ref.counters["macs"], 1e9), "ns")
        gen = [stats["workload.make_gemm"], stats["workload.make_vectors"]]
        values["workload.operands_per_s"] = (
            _ratio(sum(s.counters["operands"] for s in gen), sum(s.self_s for s in gen)),
            "1/s",
        )
        cs = stats["streamer.cs_gemm"]
        values["streamer.cs_gemm.host_ns_per_mac"] = (_ratio(cs.incl_s, cs.counters["macs"], 1e9), "ns")
        values["streamer.transfers"] = (cs.counters["transfers"], "count")
        mesh = [stats["meshflow.chain"], stats["meshflow.grid"]]
        values["meshflow.host_ns_per_element"] = (
            _ratio(sum(s.self_s for s in mesh), sum(s.counters["elements"] for s in mesh), 1e9),
            "ns",
        )
        values["harness.report.bytes"] = (stats["harness.report"].counters["bytes"], "B")
        per_pass.append(values)
    metrics = {
        name: {"value": statistics.median(p[name][0] for p in per_pass), "unit": unit}
        for name, (_, unit) in per_pass[0].items()
    }
    metrics["trace.overhead_s"] = {"value": overhead_s, "unit": "s"}
    return metrics
