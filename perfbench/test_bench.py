"""Self-test of the benchmark: injected faults must show up as failures.

Run from the root of a checkout:

    python3 -m pytest perfbench/test_bench.py -q
"""

from __future__ import annotations

import dataclasses

import pytest

import run
import workloads

SMALL_GEMM = {
    "systolic_points": (((9, 7, 11), (4, 4)),),
    "streamer_points": (((9, 7, 11), 8, 3),),
    "summa_point": ((16, 16, 16), 4, (2, 2)),
}


@pytest.fixture
def prog():
    return workloads.load_program(run.SRC)


def small_gemm(prog):
    return workloads.GemmLarge(prog, 5, **SMALL_GEMM)


def test_clean_program_passes(prog):
    result, report, _ = run.measure(small_gemm(prog), 0.0, trace=False)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == 3
    assert report["fail_ratio"] == 0.0


def test_wrong_result_counts_in_fail_ratio(prog, monkeypatch):
    original = prog.systolic.simulate_systolic_gemm

    def off_by_one(a, b, cfg, **kwargs):
        res = original(a, b, cfg, **kwargs)
        data = (res.result.data[0] + 1,) + tuple(res.result.data[1:])
        wrong = prog.workload.Matrix(res.result.rows, res.result.cols, data)
        return dataclasses.replace(res, result=wrong)

    monkeypatch.setattr(prog.systolic, "simulate_systolic_gemm", off_by_one)
    result, report, _ = run.measure(small_gemm(prog), 0.0, trace=False)
    assert not result["correct"]
    assert result["failed"] == 1
    assert report["fail_ratio"] == pytest.approx(1 / 3)
    assert any("reference_matmul" in failure for failure in report["failures"])


def test_wrong_cycles_count_in_fail_ratio(prog, monkeypatch):
    original = prog.streamer.simulate_cs_gemm
    monkeypatch.setattr(
        prog.streamer,
        "simulate_cs_gemm",
        lambda *args, **kwargs: dataclasses.replace(original(*args, **kwargs), cycles=1),
    )
    result, report, _ = run.measure(small_gemm(prog), 0.0, trace=False)
    assert result["failed"] == 1 and report["fail_ratio"] > 0


def test_inner_product_wrong_scalar_fails(prog, monkeypatch):
    original = prog.meshflow.simulate_chain_reduction

    def wrong(n, *args, **kwargs):
        res = original(n, *args, **kwargs)
        return dataclasses.replace(res, result=prog.workload.Matrix(1, 1, (res.scalar + 1,)))

    monkeypatch.setattr(prog.meshflow, "simulate_chain_reduction", wrong)
    result, _, _ = run.measure(workloads.InnerProduct(prog, 5, sizes=(64, 100)), 0.0, trace=False)
    assert result["attempted"] == 6 and result["failed"] == 2


def test_trace_counts_every_layer_call(prog):
    result, report, _ = run.measure(small_gemm(prog), 0.0, trace=True)
    metrics = result["metrics"]
    assert result["correct"], report["failures"]
    assert metrics["systolic.calls"]["value"] == 1
    assert metrics["streamer.cs_gemm.calls"]["value"] == 1
    assert metrics["workload.make_gemm.calls"]["value"] == 1
    assert metrics["workload.matrix_convert.calls"]["value"] > 0
    sites = report["patch_sites"]
    assert "gemmsim.harness.validation.make_gemm" in sites["gemmsim.workload.make_gemm"]
    assert "gemmsim.streamer.outer_product_schedule" in sites["gemmsim.workload.outer_product_schedule"]
    # Tracing is removed again once the traced passes end.
    assert not hasattr(prog.workload.make_gemm, "__wrapped__")


def test_missed_spans_fail_the_traced_run(prog, monkeypatch):
    workload = small_gemm(prog)
    make_gemm = prog.workload.make_gemm  # held before tracing patches the module
    monkeypatch.setattr(
        workload,
        "_operands",
        lambda: {dims: make_gemm(shape, seed) for dims, (shape, seed) in workload.shapes.items()},
    )
    result, report, _ = run.measure(workload, 0.0, trace=True)
    assert not result["correct"]
    assert any("workload.make_gemm has 0 spans" in failure for failure in report["failures"])
