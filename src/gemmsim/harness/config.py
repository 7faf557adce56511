"""Experiment configuration: loading, validation, and default resolution.

A config is one JSON document.  Resolution fills in every default the
harness would apply and returns a fully explicit dict, which is echoed into
the report sidecar so any report can be re-run from its own metadata.
"""

from __future__ import annotations

import copy
import json
import os
import sys
from pathlib import Path
from typing import Any, Callable, NamedTuple

from .. import bounds, meshflow, streamer, summa, systolic
from .. import workload as workload_mod

SCHEMA_VERSION = 1
OUTPUT_DIR_ENV = "GEMMSIM_OUTPUT_DIR"

KINDS = ("simulate", "sweep", "compare", "bounds", "darksilicon", "validate")
REQUIRED = object()  # default of an arch key that every spec of its type must give
WORKLOAD_KEYS = {"kind", "m", "n", "k", "seed", "block_width"}


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


class Arch(NamedTuple):
    """One machine: its workload kind, its keys in resolution order, and its runner.

    A key's default is REQUIRED, a value, or a function of the workload and
    the keys before it.  Runners find simulators on their modules at call
    time, so patched simulators run.  Mesh machines report the mesh bound of
    their dimension beside their cycles.
    """

    workload: str
    keys: tuple[tuple[str, Any, float | None, Callable[..., Any]], ...]
    run: Callable[[dict, dict], Any]
    mesh_dimension: int | None = None


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
    env_dir = os.environ.get(OUTPUT_DIR_ENV)
    if env_dir:
        out_dir = env_dir
    return {"dir": out_dir, "basename": basename}


def _resolve_grid(raw: Any, base: dict) -> dict:
    if not isinstance(raw, dict) or not raw:
        raise ConfigError("sweep requires a non-empty 'grid' object")
    grid: dict[str, list] = {}
    for key, values in raw.items():
        section, _, field = key.partition(".")
        if section not in ("workload", "arch") or not field:
            raise ConfigError(f"grid key '{key}' must look like 'workload.<field>' or 'arch.<field>'")
        allowed = WORKLOAD_KEYS if section == "workload" else ARCH_KEYS
        if field not in allowed:
            raise ConfigError(f"grid key '{key}' names an unknown {section} field")
        if section not in base:
            raise ConfigError(f"grid key '{key}' but config has no '{section}' section")
        if not isinstance(values, list) or not values:
            raise ConfigError(f"grid key '{key}' must map to a non-empty list")
        grid[key] = list(values)
    return grid


def resolve_config(raw: dict) -> dict:
    """Validate a raw config and return it with every default made explicit."""
    raw = copy.deepcopy(raw)
    version = _require(raw, "schema_version", "config")
    if version != SCHEMA_VERSION:
        raise ConfigError(f"unsupported schema_version {version!r}; this build expects {SCHEMA_VERSION}")
    kind = _require(raw, "kind", "config")
    if kind not in KINDS:
        raise ConfigError(f"kind must be one of {KINDS}, got {kind!r}")

    resolved: dict[str, Any] = {
        "schema_version": SCHEMA_VERSION,
        "kind": kind,
        "output": _resolve_output(raw.get("output")),
    }
    top_allowed = {"schema_version", "kind", "output"}

    if kind == "simulate":
        top_allowed |= {"workload", "arch"}
        workload = resolve_workload(_require(raw, "workload", "config"))
        resolved["workload"] = workload
        resolved["arch"] = resolve_arch(_require(raw, "arch", "config"), workload)
    elif kind == "compare":
        top_allowed |= {"workload", "archs"}
        workload = resolve_workload(_require(raw, "workload", "config"))
        resolved["workload"] = workload
        archs = _require(raw, "archs", "config")
        if not isinstance(archs, list) or not archs:
            raise ConfigError("key 'archs' must be a non-empty list")
        resolved["archs"] = [resolve_arch(a, workload) for a in archs]
    elif kind == "sweep":
        top_allowed |= {"workload", "arch", "grid"}
        base = {
            "workload": _require(raw, "workload", "config"),
            "arch": _require(raw, "arch", "config"),
        }
        grid = _resolve_grid(_require(raw, "grid", "config"), base)
        resolved["workload"] = base["workload"]
        resolved["arch"] = base["arch"]
        resolved["grid"] = grid
        # Every sweep point is validated on expansion; check the base now so
        # an entirely broken config fails before any simulation starts.
        for point in iter_sweep_points(resolved):
            pass
    elif kind == "bounds":
        top_allowed |= {"entries"}
        entries = _require(raw, "entries", "config")
        if not isinstance(entries, list) or not entries:
            raise ConfigError("key 'entries' must be a non-empty list")
        resolved_entries = []
        for entry in entries:
            if not isinstance(entry, dict):
                raise ConfigError("each bounds entry must be an object")
            _check_known_keys(entry, {"inputs", "outputs", "computations", "dimension"}, "bounds entry")
            resolved_entry = {
                "inputs": _as_int(_require(entry, "inputs", "bounds entry"), "inputs", 1),
                "outputs": _as_int(_require(entry, "outputs", "bounds entry"), "outputs", 1),
                "computations": _as_int(
                    _require(entry, "computations", "bounds entry"), "computations", 1
                ),
                "dimension": _as_int(_require(entry, "dimension", "bounds entry"), "dimension", 1),
            }
            if resolved_entry["dimension"] > 3:
                raise ConfigError(f"key 'dimension' must be 1, 2 or 3, got {entry['dimension']}")
            resolved_entries.append(resolved_entry)
        resolved["entries"] = resolved_entries
    elif kind == "darksilicon":
        top_allowed |= {"generations"}
        generations = _require(raw, "generations", "config")
        if not isinstance(generations, list) or not generations:
            raise ConfigError("key 'generations' must be a non-empty list")
        resolved["generations"] = [_as_int(g, "generations", 0) for g in generations]
    elif kind == "validate":
        top_allowed |= {"seed", "corpus_size"}
        resolved["seed"] = _as_int(raw.get("seed", 0), "seed")
        resolved["corpus_size"] = _as_int(raw.get("corpus_size", 200), "corpus_size", 1)

    _check_known_keys(raw, top_allowed, "config")
    return resolved


def _set_path(cfg: dict, dotted: str, value: Any) -> None:
    section, _, field = dotted.partition(".")
    cfg[section][field] = value


def iter_sweep_points(resolved: dict):
    """Expand a sweep config into fully resolved (point_config, axis_values) pairs.

    Points follow the declared grid order: axes iterate in key order with the
    last axis fastest, which fixes the report row order no matter how points
    are executed.
    """
    import itertools

    grid = resolved["grid"]
    axes = list(grid.items())
    for combo in itertools.product(*(values for _, values in axes)):
        point = {
            "workload": copy.deepcopy(resolved["workload"]),
            "arch": copy.deepcopy(resolved["arch"]),
        }
        for (key, _), value in zip(axes, combo):
            _set_path(point, key, value)
        workload = resolve_workload(point["workload"])
        arch = resolve_arch(point["arch"], workload)
        yield {"workload": workload, "arch": arch}, dict(zip((k for k, _ in axes), combo))
