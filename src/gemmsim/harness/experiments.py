"""Turn resolved experiment configs into report rows."""

from __future__ import annotations

from typing import Any

from .. import bounds as bounds_mod
from .. import summa
from .config import ARCHS, ConfigError, iter_sweep_points

REPORT_COLUMNS = [
    "schema_version",
    "experiment",
    "architecture",
    "arch_params",
    "workload",
    "m",
    "n",
    "k",
    "vector_n",
    "seed",
    "block_width",
    "cycles",
    "mac_ops",
    "num_units",
    "utilization",
    "steady_state_utilization",
    "load_cycles",
    "fill_cycles",
    "stream_cycles",
    "drain_cycles",
    "bound_value",
    "bound_ratio",
    "total_seconds",
    "comm_seconds",
    "comp_seconds",
    "comm_latency_seconds",
    "comm_bandwidth_seconds",
    "steps",
    "row_broadcasts",
    "col_broadcasts",
    "generation",
    "core_multiplier",
    "powered_fraction",
    "effective_multiplier",
    "checks",
    "failures",
]


def _arch_params(arch: dict) -> str:
    return " ".join(f"{key}={value}" for key, value in arch.items() if key != "type")


def _phase_columns(res) -> dict[str, int]:
    """Map a simulator's phase breakdown onto the stable report columns."""
    out: dict[str, int] = {}
    if not res.phases:
        return out
    named = {"load": "load_cycles", "fill": "fill_cycles", "drain": "drain_cycles"}
    stream = 0
    for phase, cyc in res.phases.items():
        if phase in named:
            out[named[phase]] = cyc
        else:
            stream += cyc
    if stream:
        out["stream_cycles"] = stream
    return out


def _base_row(kind: str, arch_name: str, arch_params: str, workload_name: str) -> dict[str, Any]:
    return {
        "schema_version": 1,
        "experiment": kind,
        "architecture": arch_name,
        "arch_params": arch_params,
        "workload": workload_name,
    }


def _point_row(kind: str, arch: dict, workload: dict) -> dict[str, Any]:
    spec = ARCHS[arch["type"]]
    row = _base_row(kind, arch["type"], _arch_params(arch), workload["kind"])
    if workload["kind"] == "gemm":
        row.update((key, workload[key]) for key in ("m", "n", "k", "seed", "block_width"))
    else:
        row.update(vector_n=workload["n"], seed=workload["seed"])

    res = spec.run(arch, workload)
    if isinstance(res, summa.SummaResult):
        # SUMMA is costed in seconds: each field is a column, *_time as *_seconds.
        row.update({name.replace("_time", "_seconds"): value for name, value in vars(res).items()})
        return row
    row.update(
        cycles=res.cycles,
        mac_ops=res.mac_ops_issued,
        num_units=res.num_units,
        utilization=res.utilization,
        steady_state_utilization=res.steady_state_utilization,
        **_phase_columns(res),
    )
    if spec.mesh_dimension:
        problem = bounds_mod.inner_product_bound_input(workload["n"], spec.mesh_dimension)
        bound = bounds_mod.fisher_bound(problem)
        row.update(bound_value=bound, bound_ratio=res.cycles / bound)
    return row


def run_experiment(resolved: dict) -> list[dict[str, Any]]:
    """Execute a resolved config and return report rows in deterministic order.

    Simulator precondition violations surface as ValueError and analytic
    models overflowing on their input as OverflowError, which the CLI maps to
    its own exit code; anything config-shaped raises ConfigError.
    """
    kind = resolved["kind"]
    if kind == "simulate":
        return [_point_row(kind, resolved["arch"], resolved["workload"])]
    if kind == "compare":
        return [_point_row(kind, arch, resolved["workload"]) for arch in resolved["archs"]]
    if kind == "sweep":
        return [
            _point_row(kind, point["arch"], point["workload"])
            for point, _ in iter_sweep_points(resolved)
        ]
    if kind == "bounds":
        rows = []
        for entry in resolved["entries"]:
            problem = bounds_mod.MeshBoundInput(
                entry["inputs"], entry["outputs"], entry["computations"], entry["dimension"]
            )
            params = " ".join(f"{key}={value}" for key, value in entry.items())
            row = _base_row(kind, "fisher_bound", params, "")
            row["bound_value"] = bounds_mod.fisher_bound(problem)
            rows.append(row)
        return rows
    if kind == "darksilicon":
        rows = []
        for generation in resolved["generations"]:
            point = bounds_mod.dark_silicon(generation)
            row = _base_row(kind, "dark_silicon", "", "")
            row.update(
                generation=generation,
                core_multiplier=point.core_multiplier,
                powered_fraction=point.powered_fraction,
                effective_multiplier=point.effective_multiplier,
            )
            rows.append(row)
        return rows
    if kind == "validate":
        from .validation import run_validation

        report = run_validation(resolved["seed"], resolved["corpus_size"])
        rows = []
        for prop in report.properties:
            row = _base_row(kind, prop.name, "", "")
            row.update(checks=prop.checks, failures=len(prop.failures))
            rows.append(row)
        return rows
    raise ConfigError(f"unhandled experiment kind {kind!r}")


def validation_failed(rows: list[dict[str, Any]]) -> bool:
    return any(row.get("failures") for row in rows)
