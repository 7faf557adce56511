"""Experiment configuration: loading, validation, and default resolution.

A config is one JSON document.  Resolution fills in every default the
harness would apply and returns a fully explicit dict, which is echoed into
the report sidecar so any report can be re-run from its own metadata.

Each machine is one entry of ARCHS and each experiment kind one entry of
KINDS; resolution and report rows both read those two tables.
"""

from __future__ import annotations

import copy
import itertools
import json
import os
import sys
from pathlib import Path
from typing import Any, Callable, NamedTuple

from .. import bounds, meshflow, streamer, summa, systolic
from .. import workload as workload_mod
from . import validation

SCHEMA_VERSION = 1
OUTPUT_DIR_ENV = "GEMMSIM_OUTPUT_DIR"

REQUIRED = object()  # default of an arch key that every spec of its type must give
WORKLOAD_KEYS = {"kind", "m", "n", "k", "seed", "block_width"}
BOUNDS_KEYS = ("inputs", "outputs", "computations", "dimension")


class ConfigError(Exception):
    """Invalid or unreadable experiment configuration."""


def load_config(path: str | Path) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    return raw


def _require(cfg: dict, key: str, where: str) -> Any:
    if key not in cfg:
        raise ConfigError(f"missing required key '{key}' in {where}")
    return cfg[key]


def _as_int(value: Any, key: str, minimum: int | None = None) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise ConfigError(f"key '{key}' must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(f"key '{key}' must be >= {minimum}, got {value}")
    return value


def _as_number(value: Any, key: str, minimum: float | None = None) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"key '{key}' must be a number, got {value!r}")
    if not abs(value) <= sys.float_info.max:  # NaN, infinities, ints beyond float range
        raise ConfigError(f"key '{key}' must be a finite number, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(f"key '{key}' must be >= {minimum}, got {value}")
    return float(value)


def _nonempty_list(raw: dict, key: str) -> list:
    value = _require(raw, key, "config")
    if not isinstance(value, list) or not value:
        raise ConfigError(f"key '{key}' must be a non-empty list")
    return value


def _check_known_keys(cfg: dict, allowed: set[str], where: str) -> None:
    unknown = set(cfg) - allowed
    if unknown:
        raise ConfigError(f"unknown key '{sorted(unknown)[0]}' in {where}")


def resolve_workload(raw: Any) -> dict:
    if not isinstance(raw, dict):
        raise ConfigError("key 'workload' must be an object")
    _check_known_keys(raw, WORKLOAD_KEYS, "workload")
    kind = raw.get("kind")
    if kind is None:
        kind = "gemm" if "m" in raw or "k" in raw else "inner_product"
    if kind == "gemm":
        out = {
            "kind": "gemm",
            "m": _as_int(_require(raw, "m", "workload"), "m", 1),
            "n": _as_int(_require(raw, "n", "workload"), "n", 1),
            "k": _as_int(_require(raw, "k", "workload"), "k", 1),
            "seed": _as_int(raw.get("seed", 0), "seed"),
            "block_width": _as_int(raw.get("block_width", 1), "block_width", 1),
        }
    elif kind == "inner_product":
        out = {
            "kind": "inner_product",
            "n": _as_int(_require(raw, "n", "workload"), "n", 1),
            "seed": _as_int(raw.get("seed", 0), "seed"),
        }
    else:
        raise ConfigError(f"workload kind must be 'gemm' or 'inner_product', got {kind!r}")
    return out


def _as_positive(value: Any, key: str, minimum: None = None) -> float:
    value = _as_number(value, key)
    if value <= 0:
        raise ConfigError(f"key '{key}' must be positive")
    return value


def resolve_arch(raw: Any, workload: dict) -> dict:
    if not isinstance(raw, dict):
        raise ConfigError("arch spec must be an object")
    _check_known_keys(raw, ARCH_KEYS, "arch")
    arch_type = _require(raw, "type", "arch")
    if not isinstance(arch_type, str) or arch_type not in ARCHS:
        raise ConfigError(f"arch type must be one of {tuple(ARCHS)}, got {arch_type!r}")
    spec = ARCHS[arch_type]
    if workload["kind"] != spec.workload:
        raise ConfigError(f"arch '{arch_type}' requires workload kind '{spec.workload}'")

    out: dict[str, Any] = {"type": arch_type}
    for key, default, minimum, convert in spec.keys:
        if callable(default):
            default = default(workload, out)
        value = _require(raw, key, "arch") if default is REQUIRED else raw.get(key, default)
        out[key] = convert(value, key, minimum)
    return out


def _resolve_output(raw: Any) -> dict:
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise ConfigError("key 'output' must be an object")
    _check_known_keys(raw, {"dir", "basename"}, "output")
    out_dir = raw.get("dir", ".")
    if not isinstance(out_dir, str):
        raise ConfigError("key 'dir' must be a string")
    basename = raw.get("basename", "report")
    if not isinstance(basename, str) or not basename:
        raise ConfigError("key 'basename' must be a non-empty string")
    if "/" in basename or os.sep in basename or basename in (".", ".."):
        raise ConfigError(f"key 'basename' must be a file name, not a path, got {basename!r}")
    env_dir = os.environ.get(OUTPUT_DIR_ENV)
    if env_dir:
        out_dir = env_dir
    # The report writer creates the directory; its nearest existing ancestor
    # must therefore be a directory.
    existing = Path(out_dir).absolute()
    while not existing.exists():
        existing = existing.parent
    if not existing.is_dir():
        raise ConfigError(
            f"key 'dir': cannot create output directory {out_dir!r}: {existing} is not a directory"
        )
    return {"dir": out_dir, "basename": basename}


def _resolve_grid(raw: Any) -> dict:
    if not isinstance(raw, dict) or not raw:
        raise ConfigError("sweep requires a non-empty 'grid' object")
    for key, values in raw.items():
        section, _, field = key.partition(".")
        if section not in ("workload", "arch") or not field:
            raise ConfigError(f"grid key '{key}' must look like 'workload.<field>' or 'arch.<field>'")
        allowed = WORKLOAD_KEYS if section == "workload" else ARCH_KEYS
        if field not in allowed:
            raise ConfigError(f"grid key '{key}' names an unknown {section} field")
        if not isinstance(values, list) or not values:
            raise ConfigError(f"grid key '{key}' must map to a non-empty list")
    return raw


def _sweep_points(resolved: dict) -> list[tuple[dict, dict]]:
    """Resolve every point of a sweep grid to a (workload, arch) pair.

    Points follow the declared grid order: axes iterate in key order with the
    last axis fastest, which fixes the report row order.
    """
    grid = resolved["grid"]
    points = []
    for combo in itertools.product(*grid.values()):
        point = copy.deepcopy({"workload": resolved["workload"], "arch": resolved["arch"]})
        for key, value in zip(grid, combo):
            section, _, field = key.partition(".")
            if isinstance(point[section], dict):  # otherwise its resolver rejects it below
                point[section][field] = value
        workload = resolve_workload(point["workload"])
        points.append((workload, resolve_arch(point["arch"], workload)))
    return points


def _resolve_simulate(raw: dict) -> dict:
    workload = resolve_workload(_require(raw, "workload", "config"))
    return {"workload": workload, "arch": resolve_arch(_require(raw, "arch", "config"), workload)}


def _resolve_compare(raw: dict) -> dict:
    workload = resolve_workload(_require(raw, "workload", "config"))
    archs = _nonempty_list(raw, "archs")
    return {"workload": workload, "archs": [resolve_arch(a, workload) for a in archs]}


def _resolve_sweep(raw: dict) -> dict:
    return {
        "workload": _require(raw, "workload", "config"),
        "arch": _require(raw, "arch", "config"),
        "grid": _resolve_grid(_require(raw, "grid", "config")),
    }


def _resolve_bounds(raw: dict) -> dict:
    entries = []
    for entry in _nonempty_list(raw, "entries"):
        if not isinstance(entry, dict):
            raise ConfigError("each bounds entry must be an object")
        _check_known_keys(entry, set(BOUNDS_KEYS), "bounds entry")
        out = {key: _as_int(_require(entry, key, "bounds entry"), key, 1) for key in BOUNDS_KEYS}
        if out["dimension"] > 3:
            raise ConfigError(f"key 'dimension' must be 1, 2 or 3, got {entry['dimension']}")
        entries.append(out)
    return {"entries": entries}


def _resolve_darksilicon(raw: dict) -> dict:
    generations = _nonempty_list(raw, "generations")
    return {"generations": [_as_int(g, "generations", 0) for g in generations]}


def _resolve_validate(raw: dict) -> dict:
    return {
        "seed": _as_int(raw.get("seed", 0), "seed"),
        "corpus_size": _as_int(raw.get("corpus_size", 200), "corpus_size", 1),
    }


def _params(spec: dict) -> str:
    return " ".join(f"{key}={value}" for key, value in spec.items() if key != "type")


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
        "schema_version": SCHEMA_VERSION,
        "experiment": kind,
        "architecture": arch_name,
        "arch_params": arch_params,
        "workload": workload_name,
    }


def _point_row(kind: str, arch: dict, workload: dict) -> dict[str, Any]:
    spec = ARCHS[arch["type"]]
    row = _base_row(kind, arch["type"], _params(arch), workload["kind"])
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
        problem = bounds.inner_product_bound_input(workload["n"], spec.mesh_dimension)
        bound = bounds.fisher_bound(problem)
        row.update(bound_value=bound, bound_ratio=res.cycles / bound)
    return row


def _check_feasible(points: list[tuple[dict, dict]]) -> None:
    """Reject the first point its machine cannot run, naming the key and the point."""
    for index, (workload, arch) in enumerate(points, 1):
        if ARCHS[arch["type"]].feasible is None:
            continue
        keys, requirement, holds = ARCHS[arch["type"]].feasible
        if not holds(arch, workload):
            raise ConfigError(
                f"point {index} of {len(points)} is infeasible: {keys} must satisfy {requirement} "
                f"({arch['type']} {_params(arch)}; workload {_params(workload)})"
            )


def _bounds_rows(resolved: dict) -> list[dict[str, Any]]:
    rows = []
    for entry in resolved["entries"]:
        row = _base_row(resolved["kind"], "fisher_bound", _params(entry), "")
        row["bound_value"] = bounds.fisher_bound(bounds.MeshBoundInput(**entry))
        rows.append(row)
    return rows


def _darksilicon_rows(resolved: dict) -> list[dict[str, Any]]:
    rows = []
    for generation in resolved["generations"]:
        point = bounds.dark_silicon(generation)
        row = _base_row(resolved["kind"], "dark_silicon", "", "")
        row.update(
            generation=generation,
            core_multiplier=point.core_multiplier,
            powered_fraction=point.powered_fraction,
            effective_multiplier=point.effective_multiplier,
        )
        rows.append(row)
    return rows


def _validate_rows(resolved: dict) -> list[dict[str, Any]]:
    report = validation.run_validation(resolved["seed"], resolved["corpus_size"])
    rows = []
    for prop in report.properties:
        row = _base_row(resolved["kind"], prop.name, "", "")
        row.update(checks=prop.checks, failures=len(prop.failures))
        rows.append(row)
    return rows


class Arch(NamedTuple):
    """One machine: its workload kind, its keys in resolution order, and its runner.

    A key's default is REQUIRED, a value, or a function of the workload and
    the keys before it.  Runners find simulators on their modules at call
    time, so patched simulators run.  Mesh machines report the mesh bound of
    their dimension beside their cycles.  feasible, where given, is the keys
    a point must fit, the requirement they must meet, and its predicate over
    the arch and the workload; every point is checked at resolution.
    """

    workload: str
    keys: tuple[tuple[str, Any, float | None, Callable[..., Any]], ...]
    run: Callable[[dict, dict], Any]
    mesh_dimension: int | None = None
    feasible: tuple[str, str, Callable[[dict, dict], bool]] | None = None


def _operands(w: dict) -> tuple:
    return workload_mod.make_gemm(workload_mod.GemmShape(w["m"], w["n"], w["k"]), w["seed"])


ARCHS = {
    "systolic": Arch(
        "gemm",
        (("rows", REQUIRED, 1, _as_int), ("cols", REQUIRED, 1, _as_int)),
        lambda arch, w: systolic.simulate_systolic_gemm(
            *_operands(w), systolic.SystolicConfig(arch["rows"], arch["cols"])
        ),
    ),
    "chain": Arch(
        "inner_product",
        (("extent", lambda w, _: w["n"], 1, _as_int), ("hop_latency", 1, 1, _as_int)),
        lambda arch, w: meshflow.simulate_chain_reduction(
            w["n"], meshflow.MeshConfig.chain(arch["extent"], arch["hop_latency"]), seed=w["seed"]
        ),
        mesh_dimension=1,
        feasible=("key 'extent'", "extent >= n", lambda arch, w: arch["extent"] >= w["n"]),
    ),
    "grid": Arch(
        "inner_product",
        (
            ("rows", lambda w, _: meshflow.covering_side(w["n"]), 1, _as_int),
            ("cols", lambda w, _: meshflow.covering_side(w["n"]), 1, _as_int),
            ("hop_latency", 1, 1, _as_int),
        ),
        lambda arch, w: meshflow.simulate_grid_reduction(
            w["n"],
            meshflow.MeshConfig.grid(arch["rows"], arch["cols"], arch["hop_latency"]),
            seed=w["seed"],
        ),
        mesh_dimension=2,
        feasible=(
            "keys 'rows' and 'cols'",
            "rows*cols >= n",
            lambda arch, w: arch["rows"] * arch["cols"] >= w["n"],
        ),
    ),
    "tree": Arch(
        "inner_product",
        (("fanout", 2, 2, _as_int), ("level_latency", 1, 1, _as_int)),
        lambda arch, w: streamer.simulate_tree_inner_product(
            w["n"], arch["fanout"], arch["level_latency"], seed=w["seed"]
        ),
    ),
    "streamer": Arch(
        "gemm",
        (
            ("pes", REQUIRED, 1, _as_int),
            ("fanout", 4, 2, _as_int),
            ("level_latency", 1, 1, _as_int),
            ("port_width", lambda _, out: out["fanout"], 1, _as_int),
        ),
        lambda arch, w: streamer.simulate_cs_gemm(
            *_operands(w),
            streamer.build_ce_tree(
                arch["pes"], arch["fanout"], arch["level_latency"], arch["port_width"]
            ),
            w["block_width"],
        ),
        feasible=("key 'pes'", "pes <= m*n", lambda arch, w: arch["pes"] <= w["m"] * w["n"]),
    ),
    "summa": Arch(
        "gemm",
        (
            ("p_rows", REQUIRED, 1, _as_int),
            ("p_cols", REQUIRED, 1, _as_int),
            ("alpha", 1e-6, 0.0, _as_number),
            ("beta", 1e-9, 0.0, _as_number),
            ("node_mac_rate", 1e9, None, _as_positive),
            ("element_bytes", 4, 1, _as_int),
        ),
        lambda arch, w: summa.simulate_summa(
            workload_mod.GemmShape(w["m"], w["n"], w["k"]),
            w["block_width"],
            summa.ClusterModel(
                arch["p_rows"],
                arch["p_cols"],
                bounds.CommModel(arch["alpha"], arch["beta"]),
                arch["node_mac_rate"],
                arch["element_bytes"],
            ),
        ),
    ),
}

# Union of keys any arch spec may carry.  Keys irrelevant to the selected
# type are tolerated so one base spec can be swept across types; anything
# outside this set is a config error.
ARCH_KEYS = {"type"} | {key[0] for arch in ARCHS.values() for key in arch.keys}


class Kind(NamedTuple):
    """One experiment kind: its top-level keys, resolver and row producer.

    resolve maps the raw config to the kind's resolved keys; rows maps the
    resolved config to report rows in deterministic order.  sweepable marks
    the kinds `gemmsim sweep` accepts.
    """

    keys: tuple[str, ...]
    resolve: Callable[[dict], dict]
    rows: Callable[[dict], list[dict[str, Any]]]
    sweepable: bool = False


def _point_kind(
    keys: tuple[str, ...],
    resolve: Callable[[dict], dict],
    points: Callable[[dict], list[tuple[dict, dict]]],
    sweepable: bool = False,
) -> Kind:
    """A kind that runs a list of (workload, arch) points.

    Resolution resolves every point and checks that its machine can run it,
    so a broken or infeasible point fails before any simulation starts.
    """

    def resolve_points(raw: dict) -> dict:
        resolved = resolve(raw)
        _check_feasible(points(resolved))
        return resolved

    def rows(resolved: dict) -> list[dict[str, Any]]:
        return [_point_row(resolved["kind"], arch, workload) for workload, arch in points(resolved)]

    return Kind(keys, resolve_points, rows, sweepable)


KINDS = {
    "simulate": _point_kind(
        ("workload", "arch"),
        _resolve_simulate,
        lambda resolved: [(resolved["workload"], resolved["arch"])],
    ),
    "sweep": _point_kind(
        ("workload", "arch", "grid"), _resolve_sweep, _sweep_points, sweepable=True
    ),
    "compare": _point_kind(
        ("workload", "archs"),
        _resolve_compare,
        lambda resolved: [(resolved["workload"], a) for a in resolved["archs"]],
    ),
    "bounds": Kind(("entries",), _resolve_bounds, _bounds_rows),
    "darksilicon": Kind(("generations",), _resolve_darksilicon, _darksilicon_rows, sweepable=True),
    "validate": Kind(("seed", "corpus_size"), _resolve_validate, _validate_rows),
}


def resolve_config(raw: dict) -> dict:
    """Validate a raw config and return it with every default made explicit."""
    raw = copy.deepcopy(raw)
    version = _require(raw, "schema_version", "config")
    if version != SCHEMA_VERSION:
        raise ConfigError(f"unsupported schema_version {version!r}; this build expects {SCHEMA_VERSION}")
    kind = _require(raw, "kind", "config")
    if not isinstance(kind, str) or kind not in KINDS:
        raise ConfigError(f"kind must be one of {tuple(KINDS)}, got {kind!r}")

    spec = KINDS[kind]
    resolved = {
        "schema_version": SCHEMA_VERSION,
        "kind": kind,
        "output": _resolve_output(raw.get("output")),
        **spec.resolve(raw),
    }
    _check_known_keys(raw, {"schema_version", "kind", "output", *spec.keys}, "config")
    return resolved
