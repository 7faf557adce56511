"""Harness: config validation, experiment execution, reports, CLI, validate."""

import csv
import dataclasses
import importlib
import json
import os
from pathlib import Path

import pytest

from gemmsim import Matrix
from gemmsim.harness import cli, config
from gemmsim.harness.config import ConfigError, resolve_config
from gemmsim.harness.experiments import REPORT_COLUMNS, run_experiment
from gemmsim.harness.report import write_report
from gemmsim.harness.validation import run_validation

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
    monkeypatch.setitem(config.ARCHS, "streamer", config.ARCHS["streamer"]._replace(feasible=None))
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


@pytest.mark.parametrize(
    "args, shown",
    [
        ((), "out of memory"),
        (("Unable to allocate 8.00 TiB",), "out of memory (Unable to allocate 8.00 TiB)"),
    ],
    ids=["bare", "numpy"],
)
def test_simulator_memory_error_maps_to_exit_3(tmp_path, capsys, monkeypatch, args, shown):
    def exhausted(*_args, **_kwargs):
        raise MemoryError(*args)  # raised directly: the test allocates nothing

    monkeypatch.setattr(importlib.import_module("gemmsim.systolic"), "simulate_systolic_gemm", exhausted)
    monkeypatch.setenv("GEMMSIM_OUTPUT_DIR", str(tmp_path))
    assert cli.main(["run", str(CONFIGS / "simulate_systolic.json")]) == 3
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
