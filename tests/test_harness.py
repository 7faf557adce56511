"""Harness: config validation, experiment execution, reports, CLI, validate."""

import csv
import dataclasses
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from gemmsim import Matrix
from gemmsim.harness import cli, config
from gemmsim.harness.config import ConfigError, resolve_config
from gemmsim.harness.experiments import REPORT_COLUMNS, run_experiment
from gemmsim.harness.report import write_report
from gemmsim.harness.validation import PropertyResult, ValidationReport, run_validation

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


def read_rows(csv_path):
    with open(csv_path, newline="") as fh:
        return list(csv.DictReader(fh))


def simulate_config(out_dir):
    return {
        "schema_version": 1,
        "kind": "simulate",
        "workload": {"m": 4, "n": 4, "k": 4, "seed": 0},
        "arch": {"type": "systolic", "rows": 4, "cols": 4},
        "output": {"dir": str(out_dir)},
    }


def test_minimal_simulate_run(tmp_path):
    cfg = write_config(tmp_path, simulate_config(tmp_path / "out"))
    assert cli.main(["run", str(cfg)]) == 0
    rows = read_rows(tmp_path / "out" / "report.csv")
    assert len(rows) == 1
    assert rows[0]["cycles"] == "14"
    assert rows[0]["architecture"] == "systolic"
    assert (tmp_path / "out" / "report.meta.json").exists()


def test_failed_report_write_leaves_no_file(tmp_path):
    class Unprintable:
        def __str__(self):
            raise RuntimeError("cell cannot be written")

    out = tmp_path / "out"
    resolved = resolve_config(simulate_config(out))
    rows = run_experiment(resolved)
    bad_rows = rows + [dict(rows[0], cycles=Unprintable())]
    with pytest.raises(RuntimeError):
        write_report(resolved, bad_rows, "test")
    assert list(out.iterdir()) == []

    # A failed rewrite keeps the earlier complete report as it was.
    csv_path, sidecar_path = write_report(resolved, rows, "test")
    before = csv_path.read_bytes(), sidecar_path.read_bytes()
    with pytest.raises(RuntimeError):
        write_report(resolved, bad_rows, "test")
    assert sorted(out.iterdir()) == sorted([csv_path, sidecar_path])
    assert (csv_path.read_bytes(), sidecar_path.read_bytes()) == before


def test_compare_streamer_vs_systolic(tmp_path):
    payload = {
        "schema_version": 1,
        "kind": "compare",
        "workload": {"m": 8, "n": 8, "k": 2, "seed": 0},
        "archs": [
            {"type": "systolic", "rows": 8, "cols": 8},
            {"type": "streamer", "pes": 64, "fanout": 2, "port_width": 16},
        ],
        "output": {"dir": str(tmp_path / "out")},
    }
    cfg = write_config(tmp_path, payload)
    assert cli.main(["run", str(cfg)]) == 0
    rows = read_rows(tmp_path / "out" / "report.csv")
    assert [r["architecture"] for r in rows] == ["systolic", "streamer"]
    assert float(rows[1]["utilization"]) > float(rows[0]["utilization"])


def test_missing_workload_is_config_error(tmp_path, capsys):
    payload = simulate_config(tmp_path)
    del payload["workload"]
    cfg = write_config(tmp_path, payload)
    assert cli.main(["run", str(cfg)]) == 2
    assert "workload" in capsys.readouterr().err


def test_missing_shape_field_is_config_error(tmp_path, capsys):
    payload = simulate_config(tmp_path)
    del payload["workload"]["m"]
    cfg = write_config(tmp_path, payload)
    assert cli.main(["run", str(cfg)]) == 2
    assert "'m'" in capsys.readouterr().err


def test_unknown_key_is_config_error(tmp_path, capsys):
    payload = simulate_config(tmp_path)
    payload["arch"]["rowz"] = 4
    cfg = write_config(tmp_path, payload)
    assert cli.main(["run", str(cfg)]) == 2
    assert "rowz" in capsys.readouterr().err


# A minimal valid config of each kind: validate both without and with its optional seed.
GEMM_2 = {"m": 2, "n": 2, "k": 2}
SYSTOLIC_2 = {"type": "systolic", "rows": 2, "cols": 2}
MINIMAL_CONFIGS = {
    "simulate": {"kind": "simulate", "workload": GEMM_2, "arch": SYSTOLIC_2},
    "sweep": {"kind": "sweep", "workload": GEMM_2, "arch": SYSTOLIC_2, "grid": {"workload.k": [1]}},
    "compare": {"kind": "compare", "workload": GEMM_2, "archs": [SYSTOLIC_2]},
    "bounds": {"kind": "bounds",
               "entries": [{"inputs": 4, "outputs": 1, "computations": 2, "dimension": 1}]},
    "darksilicon": {"kind": "darksilicon", "generations": [0]},
    "validate-no-seed": {"kind": "validate", "corpus_size": 1},
    "validate-seed": {"kind": "validate", "seed": 3, "corpus_size": 1},
}


def test_minimal_configs_cover_every_kind():
    assert {payload["kind"] for payload in MINIMAL_CONFIGS.values()} == set(config.KINDS)


@pytest.mark.parametrize("case", MINIMAL_CONFIGS)
def test_top_level_keys_are_the_resolved_keys(tmp_path, capsys, monkeypatch, case):
    """The unknown-key check accepts exactly the keys the kind's resolver returns."""
    monkeypatch.delenv(config.OUTPUT_DIR_ENV, raising=False)
    out = tmp_path / "out"
    payload = {"schema_version": 1, **MINIMAL_CONFIGS[case], "output": {"dir": str(out)}}
    resolved = resolve_config(payload)
    if payload["kind"] == "validate":
        assert resolved["seed"] == payload.get("seed", 0)  # echoed when omitted
    # Every resolved key, optional ones included, is a top-level key the kind accepts.
    assert resolve_config(resolved) == resolved
    others = {key for other in MINIMAL_CONFIGS.values() for key in other} | {"bogus"}
    for extra in sorted(others - set(resolved)):
        cfg = write_config(tmp_path, {**payload, extra: 1})
        assert cli.main(["run", str(cfg)]) == 2
        assert capsys.readouterr().err == f"gemmsim: config error: unknown key '{extra}' in config\n"
    assert not out.exists()


def test_unreadable_config(tmp_path):
    assert cli.main(["run", str(tmp_path / "missing.json")]) == 2


def test_non_utf8_config_is_config_error(tmp_path, capsys):
    cfg = tmp_path / "utf16.json"
    cfg.write_bytes(b"\xff\xfe" + json.dumps(simulate_config(tmp_path)).encode("utf-16-le"))
    assert cli.main(["run", str(cfg)]) == 2
    assert capsys.readouterr().err.startswith(f"gemmsim: config error: config {cfg} is not valid UTF-8")


def test_over_long_basename_is_config_error(tmp_path, capsys):
    name_max = os.pathconf(tmp_path, "PC_NAME_MAX")
    fits = "b" * (name_max - len(".meta.json"))
    payload = simulate_config(tmp_path / "out" / "sub")
    for basename in ("b" * (name_max + 45), fits + "b"):
        payload["output"]["basename"] = basename
        cfg = write_config(tmp_path, payload)
        assert cli.main(["run", str(cfg)]) == 2
        assert capsys.readouterr().err == (
            f"gemmsim: config error: key 'basename' is too long: {len(basename)} bytes, but "
            f"'<basename>.meta.json' must fit in the file system's {name_max}-byte file names\n"
        )
        assert list(tmp_path.iterdir()) == [cfg]

    # The longest basename that fits writes both reports.
    payload["output"]["basename"] = fits
    assert cli.main(["run", str(write_config(tmp_path, payload))]) == 0
    written = sorted(path.name for path in (tmp_path / "out" / "sub").iterdir())
    assert written == [f"{fits}.csv", f"{fits}.meta.json"]


def test_simulator_precondition_maps_to_exit_3(tmp_path, capsys, monkeypatch):
    # Resolution rejects this point as infeasible; without that check the
    # simulator's own rejection must still map to exit 3.
    spec = config.ARCHS["streamer"]
    unchecked = config.Arch(spec.workload, spec.keys, spec.run, spec.mesh_dimension, feasible=None)
    monkeypatch.setitem(config.ARCHS, "streamer", unchecked)
    payload = {
        "schema_version": 1,
        "kind": "simulate",
        "workload": {"m": 2, "n": 2, "k": 2, "seed": 0},
        "arch": {"type": "streamer", "pes": 16},  # 16 PEs > 4 outputs
        "output": {"dir": str(tmp_path / "out")},
    }
    cfg = write_config(tmp_path, payload)
    assert cli.main(["run", str(cfg)]) == 3
    assert "rejected" in capsys.readouterr().err


RUN_SYSTOLIC = ["run", str(CONFIGS / "simulate_systolic.json")]
VALIDATE_ONE = ["validate", "--corpus-size", "1"]


@pytest.mark.parametrize(
    "command, args, shown",
    [
        (RUN_SYSTOLIC, (), "out of memory"),
        (RUN_SYSTOLIC, ("Unable to allocate 8.00 TiB",), "out of memory (Unable to allocate 8.00 TiB)"),
        (VALIDATE_ONE, (), "out of memory"),
        (VALIDATE_ONE, ("Unable to allocate 8.00 TiB",), "out of memory (Unable to allocate 8.00 TiB)"),
    ],
    ids=["bare", "numpy", "validate-bare", "validate-numpy"],
)
def test_simulator_memory_error_maps_to_exit_3(tmp_path, capsys, monkeypatch, command, args, shown):
    """Every command shares one error boundary: validate's corpus runs the
    same systolic simulator as run, and out of memory exits 3 from both."""

    def exhausted(*_args, **_kwargs):
        raise MemoryError(*args)  # raised directly: the test allocates nothing

    monkeypatch.setattr(importlib.import_module("gemmsim.systolic"), "simulate_systolic_gemm", exhausted)
    monkeypatch.setenv("GEMMSIM_OUTPUT_DIR", str(tmp_path))
    assert cli.main(command) == 3
    assert capsys.readouterr().err == f"gemmsim: simulation input rejected: {shown}\n"
    assert list(tmp_path.iterdir()) == []


def test_workload_arch_mismatch(tmp_path):
    payload = {
        "schema_version": 1,
        "kind": "simulate",
        "workload": {"kind": "inner_product", "n": 64},
        "arch": {"type": "systolic", "rows": 4, "cols": 4},
    }
    with pytest.raises(ConfigError):
        resolve_config(payload)


@pytest.mark.parametrize(
    "workload, arch, message",
    [
        (
            {"kind": "inner_product", "n": 64},
            {"type": "systolic", "rows": 4, "cols": 4},
            "arch 'systolic' requires workload kind 'gemm'",
        ),
        (
            {"m": 4, "n": 4, "k": 4},
            {"type": "chain"},
            "arch 'chain' requires workload kind 'inner_product'",
        ),
    ],
)
def test_workload_arch_mismatch_message(tmp_path, capsys, workload, arch, message):
    payload = {"schema_version": 1, "kind": "simulate", "workload": workload, "arch": arch}
    cfg = write_config(tmp_path, payload)
    assert cli.main(["run", str(cfg)]) == 2
    assert message in capsys.readouterr().err


def test_darksilicon_sweep(tmp_path):
    payload = {
        "schema_version": 1,
        "kind": "darksilicon",
        "generations": [0, 1, 2, 3, 4, 5],
        "output": {"dir": str(tmp_path / "out")},
    }
    cfg = write_config(tmp_path, payload)
    assert cli.main(["sweep", str(cfg)]) == 0
    rows = read_rows(tmp_path / "out" / "report.csv")
    assert [r["effective_multiplier"] for r in rows] == ["1.0", "2.0", "2.0", "2.0", "2.0", "2.0"]


def test_sweep_rejects_non_sweep_config(tmp_path):
    cfg = write_config(tmp_path, simulate_config(tmp_path / "out"))
    assert cli.main(["sweep", str(cfg)]) == 2


def test_inner_product_sweep_shapes(tmp_path):
    payload = {
        "schema_version": 1,
        "kind": "sweep",
        "workload": {"kind": "inner_product", "n": 16, "seed": 0},
        "arch": {"type": "chain", "hop_latency": 1, "fanout": 2, "level_latency": 1},
        "grid": {
            "arch.type": ["chain", "grid", "tree"],
            "workload.n": [16, 64, 256, 1024],
        },
        "output": {"dir": str(tmp_path / "out")},
    }
    cfg = write_config(tmp_path, payload)
    assert cli.main(["sweep", str(cfg)]) == 0
    rows = read_rows(tmp_path / "out" / "report.csv")
    assert len(rows) == 12
    # Declared grid order: arch.type is the slow axis, workload.n the fast one.
    assert [r["architecture"] for r in rows[:4]] == ["chain"] * 4
    by_arch = {
        arch: [int(r["cycles"]) for r in rows if r["architecture"] == arch]
        for arch in ("chain", "grid", "tree")
    }
    for arch, cycles in by_arch.items():
        assert cycles == sorted(cycles), arch  # monotone in n
    assert by_arch["chain"][-1] > by_arch["grid"][-1] > by_arch["tree"][-1]
    # chain & grid rows carry their mesh bound; the ratio never drops below 1.
    for r in rows:
        if r["architecture"] in ("chain", "grid"):
            assert float(r["bound_ratio"]) >= 1.0


def test_systolic_k_sweep_utilization_trend(tmp_path):
    payload = {
        "schema_version": 1,
        "kind": "sweep",
        "workload": {"m": 64, "n": 64, "k": 1, "seed": 0},
        "arch": {"type": "systolic", "rows": 16, "cols": 16},
        "grid": {"workload.k": list(range(1, 17))},
        "output": {"dir": str(tmp_path / "out")},
    }
    cfg = write_config(tmp_path, payload)
    assert cli.main(["sweep", str(cfg)]) == 0
    rows = read_rows(tmp_path / "out" / "report.csv")
    utils = [float(r["utilization"]) for r in rows]
    assert utils == sorted(utils)
    for k, util in zip(range(1, 17), utils):
        assert util <= k / 16 + 1e-12


@pytest.mark.parametrize("depth", [600, 5000])  # past copy.deepcopy's, then json's, recursion limit
@pytest.mark.parametrize("command", ["run", "sweep"])
def test_deeply_nested_config_is_config_error(tmp_path, capsys, command, depth):
    payload = simulate_config(tmp_path / "out")
    if command == "sweep":  # a deep base value, which the grid would override
        payload.update(kind="sweep", grid={"workload.m": [4]})
        payload["workload"]["m"] = "NESTED"
    else:
        payload["workload"] = "NESTED"
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(payload).replace('"NESTED"', "[" * depth + "4" + "]" * depth))
    assert cli.main([command, str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "config error:" in err and "nests too deeply" in err
    assert not (tmp_path / "out").exists()


def test_empty_grid_rejected(tmp_path):
    payload = {
        "schema_version": 1,
        "kind": "sweep",
        "workload": {"m": 4, "n": 4, "k": 4},
        "arch": {"type": "systolic", "rows": 4, "cols": 4},
        "grid": {},
    }
    cfg = write_config(tmp_path, payload)
    assert cli.main(["sweep", str(cfg)]) == 2


def test_bounds_experiment(tmp_path):
    payload = {
        "schema_version": 1,
        "kind": "bounds",
        "entries": [
            {"inputs": 32, "outputs": 1, "computations": 16, "dimension": 1},
            {"inputs": 32, "outputs": 1, "computations": 16, "dimension": 2},
        ],
        "output": {"dir": str(tmp_path / "out")},
    }
    cfg = write_config(tmp_path, payload)
    assert cli.main(["run", str(cfg)]) == 0
    rows = read_rows(tmp_path / "out" / "report.csv")
    assert float(rows[0]["bound_value"]) == 32.0
    assert 5.65 < float(rows[1]["bound_value"]) < 5.66


def test_bounds_dimension_out_of_range_is_config_error(tmp_path, capsys):
    payload = {
        "schema_version": 1,
        "kind": "bounds",
        "entries": [{"inputs": 32, "outputs": 1, "computations": 16, "dimension": 4}],
        "output": {"dir": str(tmp_path / "out")},
    }
    cfg = write_config(tmp_path, payload)
    assert cli.main(["run", str(cfg)]) == 2
    assert "'dimension'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "key, value",
    [
        ("alpha", float("nan")),
        ("beta", float("inf")),
        ("node_mac_rate", float("-inf")),
        ("alpha", 10**400),  # an integer beyond float range
    ],
)
def test_non_finite_number_is_config_error(tmp_path, capsys, key, value):
    payload = {
        "schema_version": 1,
        "kind": "simulate",
        "workload": {"m": 4, "n": 4, "k": 4},
        "arch": {"type": "summa", "p_rows": 2, "p_cols": 2, key: value},
        "output": {"dir": str(tmp_path / "out")},
    }
    cfg = write_config(tmp_path, payload)  # json writes NaN / Infinity / -Infinity
    assert cli.main(["run", str(cfg)]) == 2
    assert f"'{key}'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_reports_are_byte_identical(tmp_path):
    cfg_a = write_config(tmp_path, simulate_config(tmp_path / "a"), "a.json")
    cfg_b = write_config(tmp_path, simulate_config(tmp_path / "b"), "b.json")
    assert cli.main(["run", str(cfg_a)]) == 0
    assert cli.main(["run", str(cfg_b)]) == 0
    body_a = (tmp_path / "a" / "report.csv").read_bytes()
    body_b = (tmp_path / "b" / "report.csv").read_bytes()
    assert body_a == body_b


def test_sidecar_echoes_resolved_defaults(tmp_path):
    payload = {
        "schema_version": 1,
        "kind": "simulate",
        "workload": {"m": 4, "n": 4, "k": 2},
        "arch": {"type": "streamer", "pes": 8},
        "output": {"dir": str(tmp_path / "out")},
    }
    cfg = write_config(tmp_path, payload)
    assert cli.main(["run", str(cfg)]) == 0
    sidecar = json.loads((tmp_path / "out" / "report.meta.json").read_text())
    arch = sidecar["resolved_config"]["arch"]
    assert arch["fanout"] == 4
    assert arch["level_latency"] == 1
    assert arch["port_width"] == 4
    workload = sidecar["resolved_config"]["workload"]
    assert workload["seed"] == 0
    assert workload["block_width"] == 1
    assert sidecar["row_count"] == 1


def test_output_dir_env_override(tmp_path, monkeypatch):
    override = tmp_path / "override"
    monkeypatch.setenv("GEMMSIM_OUTPUT_DIR", str(override))
    cfg = write_config(tmp_path, simulate_config(tmp_path / "ignored"))
    assert cli.main(["run", str(cfg)]) == 0
    assert (override / "ignored" / "report.csv").exists()
    assert not (tmp_path / "ignored").exists()


@pytest.mark.parametrize(
    "configured, subdir",
    [("reports/bounds/", "bounds"), (".", None), ("..", None), ("a/..", None), ("/", None)],
)
def test_output_dir_env_override_keeps_last_component(tmp_path, monkeypatch, configured, subdir):
    monkeypatch.setenv("GEMMSIM_OUTPUT_DIR", str(tmp_path))
    resolved = resolve_config(dict(simulate_config(""), output={"dir": configured}))
    assert resolved["output"]["dir"] == str(tmp_path / subdir if subdir else tmp_path)


def test_output_dir_env_override_keeps_configs_apart(tmp_path, monkeypatch):
    # Both shipped configs write report.csv, each to its own directory.
    monkeypatch.setenv("GEMMSIM_OUTPUT_DIR", str(tmp_path))
    for stem in ("simulate_systolic", "compare_low_k"):
        assert cli.main(["run", str(CONFIGS / f"{stem}.json")]) == 0
    systolic = read_rows(tmp_path / "simulate_systolic" / "report.csv")
    compare = read_rows(tmp_path / "compare_low_k" / "report.csv")
    assert [row["architecture"] for row in systolic] == ["systolic"]
    assert [row["architecture"] for row in compare] == ["systolic", "streamer"]


def test_output_dir_env_override_checks_the_final_dir(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("GEMMSIM_OUTPUT_DIR", str(tmp_path))
    (tmp_path / "taken").write_text("")
    cfg = write_config(tmp_path, simulate_config("reports/taken"))
    assert cli.main(["run", str(cfg)]) == 2
    assert "key 'dir': cannot create output directory" in capsys.readouterr().err


@pytest.mark.parametrize("basename", ["sub/r", ".", ".."])
def test_basename_that_is_a_path_is_config_error(tmp_path, capsys, basename):
    payload = simulate_config(tmp_path / "out")
    payload["output"]["basename"] = basename
    cfg = write_config(tmp_path, payload)
    assert cli.main(["run", str(cfg)]) == 2
    assert "key 'basename' must be a file name" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("subdir", ["", "sub"], ids=["file", "under-file"])
def test_output_dir_that_cannot_be_created_is_config_error(tmp_path, capsys, monkeypatch, subdir):
    monkeypatch.setattr(importlib.import_module("gemmsim.systolic"), "simulate_systolic_gemm", None)
    blocker = tmp_path / "taken"
    blocker.write_text("")
    cfg = write_config(tmp_path, simulate_config(blocker / subdir))
    assert cli.main(["run", str(cfg)]) == 2
    assert "config error: key 'dir': cannot create output directory" in capsys.readouterr().err
    assert sorted(tmp_path.iterdir()) == [cfg, blocker]


def test_report_writer_maps_directory_failure_to_config_error(tmp_path):
    out = tmp_path / "out"
    resolved = resolve_config(simulate_config(out))
    rows = run_experiment(resolved)
    out.write_text("")  # the directory became a file after resolution
    with pytest.raises(ConfigError, match="key 'dir'"):
        write_report(resolved, rows, "test")
    assert sorted(tmp_path.iterdir()) == [out]


def test_report_directory_failure_exits_2_naming_dir(tmp_path, capsys, monkeypatch):
    # Root ignores file modes, so the permission failure is injected.
    def refuse(self, *args, **kwargs):
        raise PermissionError(13, "Permission denied", str(self))

    cfg = write_config(tmp_path, simulate_config(tmp_path / "out"))
    monkeypatch.setattr(Path, "mkdir", refuse)
    assert cli.main(["run", str(cfg)]) == 2
    out = tmp_path / "out"
    assert capsys.readouterr().err == (
        f"gemmsim: config error: key 'dir': cannot create output directory '{out}': "
        f"[Errno 13] Permission denied: '{out}'\n"
    )
    assert sorted(tmp_path.iterdir()) == [cfg]


# (workload, a feasible arch, an infeasible one, the sweep axis between them,
#  the simulator, the complaint)
INFEASIBLE = {
    "streamer": (
        {"m": 3, "n": 2, "k": 2},
        {"type": "streamer", "pes": 6},
        {"type": "streamer", "pes": 7},
        {"arch.pes": [6, 7]},
        ("streamer", "simulate_cs_gemm"),
        "key 'pes' must satisfy pes <= m*n",
    ),
    "chain": (
        {"kind": "inner_product", "n": 9},
        {"type": "chain", "extent": 9},
        {"type": "chain", "extent": 8},
        {"arch.extent": [9, 8]},
        ("meshflow", "simulate_chain_reduction"),
        "key 'extent' must satisfy extent >= n",
    ),
    "grid": (
        {"kind": "inner_product", "n": 10},
        {"type": "grid", "rows": 4, "cols": 3},
        {"type": "grid", "rows": 3, "cols": 3},
        {"arch.rows": [4, 3]},
        ("meshflow", "simulate_grid_reduction"),
        "keys 'rows' and 'cols' must satisfy rows*cols >= n",
    ),
}


@pytest.mark.parametrize("arch_type", sorted(INFEASIBLE))
def test_infeasible_point_is_config_error_before_any_simulation(
    tmp_path, capsys, monkeypatch, arch_type
):
    workload, feasible, infeasible, axis, (module, attr), message = INFEASIBLE[arch_type]
    monkeypatch.setattr(importlib.import_module(f"gemmsim.{module}"), attr, None)
    configs = [
        ("run", "1 of 1", {"kind": "simulate", "arch": infeasible}),
        ("run", "2 of 2", {"kind": "compare", "archs": [feasible, infeasible]}),
        ("sweep", "2 of 2", {"kind": "sweep", "arch": feasible, "grid": axis}),
    ]
    for command, point, payload in configs:
        payload.update(schema_version=1, workload=workload, output={"dir": str(tmp_path / "out")})
        assert cli.main([command, str(write_config(tmp_path, payload))]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"gemmsim: config error: point {point} is infeasible: {message} (")
        assert not (tmp_path / "out").exists()


def test_each_sweep_point_is_resolved_once(tmp_path, monkeypatch):
    calls = {"resolve_workload": 0, "resolve_arch": 0}

    def counting(name):
        resolve = getattr(config, name)

        def counted(*args):
            calls[name] += 1
            return resolve(*args)

        return counted

    for name in calls:
        monkeypatch.setattr(config, name, counting(name))
    payload = dict(simulate_config(tmp_path / "out"), kind="sweep",
                   grid={"workload.m": [2, 4], "arch.rows": [1, 2, 4]})
    assert cli.main(["sweep", str(write_config(tmp_path, payload))]) == 0
    assert len(read_rows(tmp_path / "out" / "report.csv")) == 6
    assert calls == {"resolve_workload": 6, "resolve_arch": 6}


# A config with a point fault and one other fault names the other one.
@pytest.mark.parametrize(
    "payload, message",
    [
        (
            {"kind": "sweep", "workload": {"m": 4, "n": 4, "k": 4},
             "arch": {"type": "systolic", "rows": 4, "cols": 4},
             "grid": {"workload.m": [4, "x"]}, "bogus": 1},
            "unknown key 'bogus' in config",
        ),
        (
            {"kind": "compare", "workload": {"m": 2, "n": 2, "k": 2},
             "archs": [{"type": "streamer", "pes": 16}]},
            "the sweep command needs kind 'sweep' or 'darksilicon', got 'compare'",
        ),
    ],
    ids=["bad-axis-value-and-unknown-key", "infeasible-compare"],
)
def test_the_fault_beside_a_point_fault_is_named(tmp_path, capsys, payload, message):
    payload.update(schema_version=1, output={"dir": str(tmp_path / "out")})
    assert cli.main(["sweep", str(write_config(tmp_path, payload))]) == 2
    assert capsys.readouterr().err == f"gemmsim: config error: {message}\n"
    assert not (tmp_path / "out").exists()


def test_run_experiment_checks_the_points_resolve_config_accepts(monkeypatch):
    workload, feasible, _, axis, (module, attr), message = INFEASIBLE["streamer"]
    monkeypatch.setattr(importlib.import_module(f"gemmsim.{module}"), attr, None)
    resolved = resolve_config(
        {"schema_version": 1, "kind": "sweep", "workload": workload, "arch": feasible, "grid": axis}
    )
    with pytest.raises(ConfigError) as exc:
        run_experiment(resolved)
    assert str(exc.value).startswith(f"point 2 of 2 is infeasible: {message} (")


def test_report_columns_are_stable():
    resolved = resolve_config(
        {
            "schema_version": 1,
            "kind": "simulate",
            "workload": {"m": 2, "n": 2, "k": 2},
            "arch": {"type": "systolic", "rows": 2, "cols": 2},
        }
    )
    rows = run_experiment(resolved)
    assert set(rows[0]) <= set(REPORT_COLUMNS)


def test_validate_passes_on_fresh_build():
    report = run_validation(seed=0, corpus_size=12)
    assert report.ok, [line for p in report.properties for line in p.failures]


def test_validate_seed_insensitive():
    for seed in (1, 99):
        assert run_validation(seed=seed, corpus_size=8).ok


# simulator -> (module, function) that run_validation calls it through
VALIDATED_SIMULATORS = {
    "systolic": ("systolic", "simulate_systolic_gemm"),
    "streamer": ("streamer", "simulate_cs_gemm"),
    "chain": ("meshflow", "simulate_chain_reduction"),
    "grid": ("meshflow", "simulate_grid_reduction"),
    "tree": ("streamer", "simulate_tree_inner_product"),
}


def inject_fault(monkeypatch, simulator, fault):
    """Make run_validation's calls to a simulator return fault(its real result)."""
    from gemmsim.harness import validation as validation_mod

    module, name = VALIDATED_SIMULATORS[simulator]
    owner = getattr(validation_mod, module)
    real = getattr(owner, name)
    monkeypatch.setattr(owner, name, lambda *args, **kwargs: fault(real(*args, **kwargs)))


@pytest.mark.parametrize("simulator", VALIDATED_SIMULATORS)
def test_validate_detects_injected_fault(monkeypatch, simulator):
    """A wrong result from any simulator, reached through its public function, fails exactness."""

    def corrupted(res):
        broken = res.result.data.copy()
        broken[-1] += 1
        return dataclasses.replace(res, result=Matrix(res.result.rows, res.result.cols, broken))

    inject_fault(monkeypatch, simulator, corrupted)
    report = run_validation(seed=0, corpus_size=4)
    assert not report.ok
    exactness = next(p for p in report.properties if p.name == "simulator_exactness")
    assert exactness.failures
    assert all(line.startswith(f"{simulator} ") for line in exactness.failures)


# fault -> (simulator, the fault, the one property that must catch it)
FIELD_FAULTS = {
    "systolic-cycles": (
        "systolic",
        lambda res: dataclasses.replace(res, cycles=res.cycles + 1),
        "systolic_formula_agreement",
    ),
    "systolic-macs": (
        "systolic",
        lambda res: dataclasses.replace(res, mac_ops_issued=res.mac_ops_issued + 1),
        "mac_conservation",
    ),
    "streamer-macs": (
        "streamer",
        lambda res: dataclasses.replace(res, mac_ops_issued=res.mac_ops_issued + 1),
        "mac_conservation",
    ),
    "streamer-hop": (
        "streamer",
        lambda res: dataclasses.replace(res, transfer_counts={**res.transfer_counts, "pe_to_pe": 1}),
        "streamer_no_hop",
    ),
}


@pytest.mark.parametrize("fault", FIELD_FAULTS)
def test_validate_fault_fails_only_its_property(monkeypatch, fault):
    """A wrong cycle count, MAC count or PE-to-PE transfer fails the property that checks it, alone."""
    simulator, corrupt, prop = FIELD_FAULTS[fault]
    inject_fault(monkeypatch, simulator, corrupt)
    report = run_validation(seed=0, corpus_size=4)
    failed = {p.name: p.failures for p in report.properties if p.failures}
    assert list(failed) == [prop]
    assert len(failed[prop]) == 4  # once per corpus instance
    assert all(line.startswith(f"{simulator} ") for line in failed[prop])


def test_validate_reports_a_rejected_summa_block_width(monkeypatch):
    """A block width that SUMMA rejects fails summa_structure alone, in one line."""
    from gemmsim.harness import validation as validation_mod

    real = validation_mod.summa.simulate_summa

    def rejects_seven(shape, width, cluster):
        if width == 7:
            raise ValueError("no block width 7")
        return real(shape, width, cluster)

    monkeypatch.setattr(validation_mod.summa, "simulate_summa", rejects_seven)
    report = run_validation(seed=0, corpus_size=4)
    failed = {p.name: p.failures for p in report.properties if p.failures}
    assert failed == {"summa_structure": ["b=7 rejected: no block width 7"]}


def test_validate_cli_exit_codes(tmp_path, capsys):
    assert cli.main(["validate", "--seed", "3", "--corpus-size", "4"]) == 0
    err = capsys.readouterr().err
    assert "validation: PASS" in err
    assert "simulator_exactness" in err


def test_validate_config_kind(tmp_path):
    payload = {
        "schema_version": 1,
        "kind": "validate",
        "seed": 0,
        "corpus_size": 4,
        "output": {"dir": str(tmp_path / "out")},
    }
    cfg = write_config(tmp_path, payload)
    assert cli.main(["run", str(cfg)]) == 0
    rows = read_rows(tmp_path / "out" / "report.csv")
    assert any(r["architecture"] == "simulator_exactness" for r in rows)
    assert all(r["failures"] == "0" for r in rows)


def test_validate_cli_rejects_an_empty_corpus(capsys):
    assert cli.main(["validate", "--corpus-size", "0"]) == 2
    assert capsys.readouterr().err == "gemmsim: config error: --corpus-size must be >= 1\n"


def test_validate_config_with_a_fault_exits_1(tmp_path, capsys, monkeypatch):
    simulator, corrupt, prop = FIELD_FAULTS["systolic-cycles"]
    inject_fault(monkeypatch, simulator, corrupt)
    payload = {"schema_version": 1, "kind": "validate", "corpus_size": 4,
               "output": {"dir": str(tmp_path / "out")}}
    assert cli.main(["run", str(write_config(tmp_path, payload))]) == 1
    assert capsys.readouterr().err.endswith(" (12 rows)\ngemmsim: validation: FAIL\n")
    failed = {r["architecture"]: r["failures"] for r in read_rows(tmp_path / "out" / "report.csv")}
    assert failed[prop] == "4"


def test_validation_report_lists_five_failures_of_a_property():
    prop = PropertyResult("exactness")
    for i in range(8):
        prop.check(i == 0, f"case {i}")
    assert ValidationReport([prop, PropertyResult("empty")]).lines() == [
        "exactness: 8 checks, 7 failures [FAIL]",
        *(f"  - case {i}" for i in range(1, 6)),
        "  ... and 2 more",
        "empty: 0 checks, 0 failures [ok]",
        "validation: FAIL",
    ]


def test_version_command(capsys):
    assert cli.main(["version"]) == 0
    assert capsys.readouterr().out.startswith("gemmsim ")


@pytest.mark.parametrize(
    "payload",
    [
        {"kind": "darksilicon", "generations": [1024]},
        {
            "kind": "bounds",
            "entries": [{"inputs": 10**400, "outputs": 1, "computations": 1, "dimension": 1}],
        },
        {
            "kind": "simulate",
            "workload": {"m": 4, "n": 4, "k": 4},
            "arch": {"type": "summa", "p_rows": 2, "p_cols": 2, "alpha": 1e308, "beta": 1e308},
        },
        {  # every broadcast costs inf seconds, which used to be reported with exit 0
            "kind": "simulate",
            "workload": {"m": 4, "n": 4, "k": 4},
            "arch": {"type": "summa", "p_rows": 2, "p_cols": 2, "alpha": 0, "beta": 1e308},
        },
    ],
    ids=["darksilicon", "bounds", "summa", "summa-infinite-cost"],
)
def test_model_overflow_maps_to_exit_3(tmp_path, capsys, payload):
    payload = dict(payload, schema_version=1, output={"dir": str(tmp_path / "out")})
    cfg = write_config(tmp_path, payload)
    assert cli.main(["run", str(cfg)]) == 3
    assert "rejected" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_bounds_overflow_names_the_entry_and_key(tmp_path, capsys):
    entries = [{"inputs": 8, "outputs": 1, "computations": 1, "dimension": 1},
               {"inputs": 8, "outputs": 1, "computations": 10**400, "dimension": 2}]
    payload = {"kind": "bounds", "entries": entries, "schema_version": 1,
               "output": {"dir": str(tmp_path / "out")}}
    assert cli.main(["run", str(write_config(tmp_path, payload))]) == 3
    err = capsys.readouterr().err
    assert "bounds entry 1: key 'computations' is too large: int too large to convert" in err
    assert not (tmp_path / "out").exists()


def summa_payload(tmp_path, **workload):
    payload = json.loads((CONFIGS / "summa_cluster.json").read_text())
    payload["workload"].update(workload)
    payload["output"] = {"dir": str(tmp_path / "out")}
    return payload


@pytest.mark.parametrize("key", ["m", "n", "k"])
def test_summa_overflow_names_the_point_and_key(tmp_path, capsys, key):
    cfg = write_config(tmp_path, summa_payload(tmp_path, **{key: 10**400}))
    assert cli.main(["run", str(cfg)]) == 3
    err = capsys.readouterr().err
    assert f"rejected: point 1 of 1: key '{key}' is too large: " in err
    assert not (tmp_path / "out").exists()


def test_summa_sweep_overflow_names_the_point_and_the_largest_key(tmp_path, capsys):
    payload = summa_payload(tmp_path, m=10**100, n=10**100)
    payload.update(kind="sweep", grid={"workload.k": [1, 10**300]})
    assert cli.main(["sweep", str(write_config(tmp_path, payload))]) == 3
    # No size exceeds a float alone; m*n*k at the second point does.
    assert "rejected: point 2 of 2: key 'k' is too large: " in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_summa_cost_overflow_names_no_shape_key(tmp_path, capsys):
    payload = summa_payload(tmp_path)
    payload["arch"].update(alpha=1e308, beta=1e308)
    assert cli.main(["run", str(write_config(tmp_path, payload))]) == 3
    err = capsys.readouterr().err
    assert "rejected: " in err and "key" not in err


# A size beyond a float that a simulator rejects: workload, arch, sweep grid, the point and key.
OVERSIZE_POINTS = {
    "systolic-m": ({"m": 10**400, "n": 2, "k": 2}, {"type": "systolic", "rows": 2, "cols": 2},
                   None, "point 1 of 1: key 'm'"),
    "streamer-k": ({"m": 2, "n": 2, "k": 10**400}, {"type": "streamer", "pes": 4},
                   None, "point 1 of 1: key 'k'"),
    **{
        arch_type: ({"kind": "inner_product", "n": 10**400}, {"type": arch_type},
                    None, "point 1 of 1: key 'n'")
        for arch_type in ("chain", "grid", "tree")
    },
    "tree-sweep": ({"kind": "inner_product", "n": 4}, {"type": "tree"},
                   {"workload.n": [4, 10**400]}, "point 2 of 2: key 'n'"),
}


@pytest.mark.parametrize("case", sorted(OVERSIZE_POINTS))
def test_simulator_oversize_names_the_point_and_key(tmp_path, capsys, case):
    workload, arch, grid, named = OVERSIZE_POINTS[case]
    payload = {"schema_version": 1, "kind": "simulate", "workload": workload, "arch": arch,
               "output": {"dir": str(tmp_path / "out")}}
    if grid:
        payload.update(kind="sweep", grid=grid)
    assert cli.main(["sweep" if grid else "run", str(write_config(tmp_path, payload))]) == 3
    assert f"rejected: {named} is too large: " in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_parser_is_shared_between_calls(monkeypatch, capsys):
    seen = []

    def recording(seed, corpus_size):
        seen.append((seed, corpus_size))
        return ValidationReport([])

    monkeypatch.setattr(cli, "run_validation", recording)
    assert cli.main(["validate", "--seed", "3", "--corpus-size", "2"]) == 0
    assert cli.main(["version"]) == 0
    assert capsys.readouterr().out.startswith("gemmsim ")
    assert cli.main(["validate"]) == 0
    # Each call parses into its own namespace: the defaults come back.
    assert seen == [(3, 2), (0, 200)]


def test_importing_the_cli_builds_no_parser():
    code = (
        "import argparse\n"
        "built = []\n"
        "init = argparse.ArgumentParser.__init__\n"
        "def counting(self, *args, **kwargs):\n"
        "    built.append(kwargs.get('prog'))\n"
        "    init(self, *args, **kwargs)\n"
        "argparse.ArgumentParser.__init__ = counting\n"
        "from gemmsim.harness import cli\n"
        "assert built == [], built\n"
        "assert cli.main(['version']) == 0\n"
        "first = len(built)\n"
        "assert first and cli.main(['version']) == 0 and len(built) == first, built\n"
    )
    src = str(CONFIGS.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr


def test_non_string_arch_type_is_config_error(tmp_path, capsys):
    payload = simulate_config(tmp_path / "out")
    payload["arch"]["type"] = ["systolic"]
    assert cli.main(["run", str(write_config(tmp_path, payload, "simulate.json"))]) == 2
    assert "arch type" in capsys.readouterr().err

    payload = simulate_config(tmp_path / "out")
    payload.update(kind="sweep", grid={"arch.type": [["systolic"]]})
    assert cli.main(["sweep", str(write_config(tmp_path, payload, "sweep.json"))]) == 2
    assert "arch type" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "section, axis, message",
    [
        ("workload", "workload.k", "key 'workload' must be an object"),
        ("arch", "arch.rows", "arch spec must be an object"),
    ],
    ids=["workload", "arch"],
)
def test_sweep_axis_into_non_object_section_is_config_error(
    tmp_path, capsys, section, axis, message
):
    payload = simulate_config(tmp_path / "out")
    payload.update(kind="sweep", grid={axis: [1, 2]})
    payload[section] = [4]
    assert cli.main(["sweep", str(write_config(tmp_path, payload))]) == 2
    assert capsys.readouterr().err == f"gemmsim: config error: {message}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "section, key, bad, axis",
    [
        ("workload", "m", "not a number", [4]),
        ("workload", "seed", 1.5, [0]),
        ("workload", "kind", "matrix", ["gemm"]),
        ("arch", "rows", 0, [4]),
        ("arch", "type", ["systolic"], ["systolic"]),
        ("arch", "fanout", 1, [2]),  # a key of another arch type is checked too
    ],
)
def test_sweep_checks_base_values_an_axis_overrides(tmp_path, capsys, section, key, bad, axis):
    payload = simulate_config(tmp_path / "out")
    payload.update(kind="sweep", grid={f"{section}.{key}": axis})
    payload[section][key] = bad
    assert cli.main(["sweep", str(write_config(tmp_path, payload))]) == 2
    err = capsys.readouterr().err
    assert err.startswith("gemmsim: config error:") and key in err
    assert not (tmp_path / "out").exists()


def test_sweep_base_may_omit_keys_the_grid_supplies(tmp_path):
    payload = simulate_config(tmp_path / "out")
    del payload["workload"]["m"], payload["arch"]["rows"]
    payload.update(kind="sweep", grid={"workload.m": [4, 8], "arch.rows": [2]})
    assert cli.main(["sweep", str(write_config(tmp_path, payload))]) == 0
    rows = read_rows(tmp_path / "out" / "report.csv")
    assert [(r["m"], r["arch_params"]) for r in rows] == [
        ("4", "rows=2 cols=4"),
        ("8", "rows=2 cols=4"),
    ]


def test_constant_defaults_are_already_converted():
    # Resolution echoes defaults unconverted, so each must be its converter's
    # output: alpha stays 1e-06, element_bytes stays an int.
    sections = [(config.WORKLOAD_FIELDS, config.WORKLOAD_KINDS.values()),
                (config.ARCH_FIELDS, [arch.keys for arch in config.ARCHS.values()])]
    for fields, variants in sections:
        for defaults in variants:
            for key, default in defaults.items():
                if default is config.REQUIRED or callable(default):
                    continue
                minimum, convert = fields[key]
                converted = convert(default, key, minimum)
                assert (converted, type(converted)) == (default, type(default)), key
        assert set(fields) == {key for defaults in variants for key in defaults}


GEMM = {"m": 4, "n": 4, "k": 2}
INNER_PRODUCT = {"kind": "inner_product", "n": 10}

# type -> (workload, minimal arch spec, (module, simulator) the harness must call)
MINIMAL_SPECS = {
    "systolic": (GEMM, {"rows": 2, "cols": 3}, ("systolic", "simulate_systolic_gemm")),
    "chain": (INNER_PRODUCT, {}, ("meshflow", "simulate_chain_reduction")),
    "grid": (INNER_PRODUCT, {}, ("meshflow", "simulate_grid_reduction")),
    "tree": (INNER_PRODUCT, {}, ("streamer", "simulate_tree_inner_product")),
    "streamer": (GEMM, {"pes": 4}, ("streamer", "simulate_cs_gemm")),
    "summa": (GEMM, {"p_rows": 2, "p_cols": 2}, ("summa", "simulate_summa")),
}


def minimal_simulate(arch_type):
    workload, spec, _ = MINIMAL_SPECS[arch_type]
    return {
        "schema_version": 1,
        "kind": "simulate",
        "workload": dict(workload),
        "arch": dict(spec, type=arch_type),
    }


@pytest.mark.parametrize("arch_type", sorted(MINIMAL_SPECS))
def test_harness_calls_patched_simulators(monkeypatch, arch_type):
    module_name, attr = MINIMAL_SPECS[arch_type][2]
    calls = []
    for name, function in [(f"gemmsim.{module_name}", attr), ("gemmsim.workload", "make_gemm")]:
        module = importlib.import_module(name)

        def recording(*args, _real=getattr(module, function), _name=function, **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(module, function, recording)

    rows = run_experiment(resolve_config(minimal_simulate(arch_type)))
    assert rows[0]["architecture"] == arch_type
    operands = ["make_gemm"] if arch_type in ("systolic", "streamer") else []
    assert calls == operands + [attr]


@pytest.mark.parametrize(
    "arch_type, extra, items, arch_params",
    [
        ("systolic", {}, [("rows", 2), ("cols", 3)], "rows=2 cols=3"),
        ("chain", {}, [("extent", 10), ("hop_latency", 1)], "extent=10 hop_latency=1"),
        (
            "grid",
            {},
            [("rows", 4), ("cols", 4), ("hop_latency", 1)],
            "rows=4 cols=4 hop_latency=1",
        ),
        ("tree", {}, [("fanout", 2), ("level_latency", 1)], "fanout=2 level_latency=1"),
        (
            "streamer",
            {},
            [("pes", 4), ("fanout", 4), ("level_latency", 1), ("port_width", 4)],
            "pes=4 fanout=4 level_latency=1 port_width=4",
        ),
        (
            "streamer",
            {"fanout": 3, "level_latency": 2},
            [("pes", 4), ("fanout", 3), ("level_latency", 2), ("port_width", 3)],
            "pes=4 fanout=3 level_latency=2 port_width=3",
        ),
        (
            "summa",
            {},
            [
                ("p_rows", 2),
                ("p_cols", 2),
                ("alpha", 1e-6),
                ("beta", 1e-9),
                ("node_mac_rate", 1e9),
                ("element_bytes", 4),
            ],
            "p_rows=2 p_cols=2 alpha=1e-06 beta=1e-09 node_mac_rate=1000000000.0 element_bytes=4",
        ),
    ],
)
def test_arch_defaults_and_key_order(arch_type, extra, items, arch_params):
    payload = minimal_simulate(arch_type)
    payload["arch"].update(extra)
    resolved = resolve_config(payload)
    assert list(resolved["arch"].items()) == [("type", arch_type)] + items
    assert run_experiment(resolved)[0]["arch_params"] == arch_params
