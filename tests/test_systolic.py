"""Weight-stationary systolic array: exactness, cycle formula, occupancy."""

import random
import tracemalloc

import numpy as np
import pytest

from test_streamer import extreme_operands

from gemmsim import (
    GemmShape,
    Matrix,
    SystolicConfig,
    make_gemm,
    reference_matmul,
    simulate_systolic_gemm,
    systolic,
    systolic_cycle_formula,
)


def test_single_pe_pipeline():
    a, b = Matrix(1, 1, [3]), Matrix(1, 1, [-5])
    res = simulate_systolic_gemm(a, b, SystolicConfig(1, 1))
    assert res.result == Matrix(1, 1, [-15])
    assert res.cycles == 2  # one load clock, one streaming clock
    assert res.mac_ops_issued == 1


def test_identity_passthrough_with_pipeline_slack():
    b = Matrix(2, 2, [4, -7, 2, 9])
    identity = Matrix.from_numpy(np.eye(2, dtype=np.int64))
    res = simulate_systolic_gemm(identity, b, SystolicConfig(2, 2))
    assert res.result == b
    assert res.utilization < 1.0


def test_cycle_examples():
    assert systolic_cycle_formula(GemmShape(1, 1, 1), SystolicConfig(1, 1)) == 2
    assert systolic_cycle_formula(GemmShape(4, 4, 4), SystolicConfig(4, 4)) == 14
    assert systolic_cycle_formula(GemmShape(4, 8, 8), SystolicConfig(4, 4)) == 56


def test_cycle_formula_exact_beyond_float_precision():
    # ceil(k/R) must not round through a float: 2**53 + 1 and 3*10**17 + 1
    # have no exact double, and each pass here costs R + (1 + R + 1 - 2) = 2R.
    k = 2**53 + 1
    assert systolic_cycle_formula(GemmShape(1, 1, k), SystolicConfig(1, 1)) == 2 * k
    k = 3 * 10**17 + 1
    assert systolic_cycle_formula(GemmShape(1, 1, k), SystolicConfig(3, 1)) == 6 * (10**17 + 1)


def test_simulation_matches_formula_and_oracle():
    rng = random.Random(3)
    for _ in range(30):
        shape = GemmShape(rng.randint(1, 24), rng.randint(1, 24), rng.randint(1, 24))
        cfg = SystolicConfig(rng.randint(1, 6), rng.randint(1, 6))
        a, b = make_gemm(shape, rng.randrange(1 << 20))
        res = simulate_systolic_gemm(a, b, cfg)
        assert res.result == reference_matmul(a, b)
        assert res.cycles == systolic_cycle_formula(shape, cfg)
        assert res.mac_ops_issued == shape.macs


def test_ragged_tiles_stay_exact():
    shape = GemmShape(5, 7, 9)
    cfg = SystolicConfig(4, 3)
    a, b = make_gemm(shape, 13)
    res = simulate_systolic_gemm(a, b, cfg)
    assert res.result == reference_matmul(a, b)
    assert res.cycles == systolic_cycle_formula(shape, cfg)


def test_int32_exact_k_bounds_the_largest_sum():
    k = systolic.INT32_EXACT_K
    assert k == 2**17
    assert (k - 1) * 128**2 <= 2**31 - 1 < k * 128**2


@pytest.mark.parametrize("mixed", [False, True])
@pytest.mark.parametrize("rows, cols", [(64, 64), (1, 1)])
def test_int32_state_is_exact_at_extreme_operands(rows, cols, mixed, monkeypatch):
    k = 4096
    a, b = extreme_operands(3, 5, k, mixed)
    cfg = SystolicConfig(rows, cols)
    narrow = simulate_systolic_gemm(a, b, cfg, with_trace=True)
    assert narrow.result == reference_matmul(a, b)
    if not mixed:
        assert set(narrow.result.data.tolist()) == {k * 128 * 128}
    monkeypatch.setattr(systolic, "INT32_EXACT_K", k)
    assert simulate_systolic_gemm(a, b, cfg, with_trace=True) == narrow


@pytest.mark.parametrize("below", [1, 0])
def test_largest_sums_on_either_side_of_int32_exact_k(below):
    # k products of 128^2 sum to 2^31 - 2^14 just below the limit, the
    # largest int32 state must hold, and to 2^31 at it, which int32 cannot.
    k = systolic.INT32_EXACT_K - below
    a, b = Matrix(1, k, [-128] * k), Matrix(k, 2, [-128] * (2 * k))
    res = simulate_systolic_gemm(a, b, SystolicConfig(1, 1))
    assert res.result.data.tolist() == [k * 128 * 128] * 2
    assert res.result == reference_matmul(a, b)


def test_dimension_mismatch_rejected():
    a, _ = make_gemm(GemmShape(2, 2, 3), 0)
    _, b = make_gemm(GemmShape(2, 2, 4), 0)
    with pytest.raises(ValueError):
        simulate_systolic_gemm(a, b, SystolicConfig(2, 2))


@pytest.mark.parametrize("rows", [2.0, True], ids=["float", "bool"])
def test_array_extents_must_be_integers(rows):
    with pytest.raises(ValueError, match=f"array rows must be an integer, got {rows!r}"):
        SystolicConfig(rows, 2)


def test_operand_range_enforced():
    a = Matrix(1, 1, [300])
    b = Matrix(1, 1, [1])
    with pytest.raises(ValueError):
        simulate_systolic_gemm(a, b, SystolicConfig(1, 1))


def test_low_inner_dimension_occupancy():
    # Single k-tile pass with k < R: utilization can never exceed k/R.
    for k in (1, 2, 4, 8):
        shape = GemmShape(8, 8, k)
        a, b = make_gemm(shape, k)
        res = simulate_systolic_gemm(a, b, SystolicConfig(8, 8))
        assert res.utilization <= k / 8 + 1e-12


def test_occupancy_ceiling_at_full_inner_dimension():
    # k a multiple of R and large m: utilization approaches, but stays below,
    # m / (m + R + C - 2).
    shape = GemmShape(64, 4, 4)
    cfg = SystolicConfig(4, 4)
    a, b = make_gemm(shape, 5)
    res = simulate_systolic_gemm(a, b, cfg)
    ceiling = shape.m / (shape.m + cfg.rows + cfg.cols - 2)
    assert res.utilization <= ceiling
    assert res.utilization >= 0.9 * ceiling


def test_utilization_accounting():
    shape = GemmShape(4, 8, 8)
    cfg = SystolicConfig(4, 4)
    a, b = make_gemm(shape, 1)
    res = simulate_systolic_gemm(a, b, cfg)
    assert res.utilization == res.mac_ops_issued / (cfg.num_pes * res.cycles)
    assert res.phases["load"] + res.phases["stream"] == res.cycles


def test_trace_is_consistent():
    shape = GemmShape(6, 5, 7)
    cfg = SystolicConfig(3, 2)
    a, b = make_gemm(shape, 21)
    res = simulate_systolic_gemm(a, b, cfg, with_trace=True)
    assert len(res.activity_trace) == res.cycles
    assert sum(res.activity_trace) == res.mac_ops_issued
    assert max(res.activity_trace) <= cfg.num_pes


def test_deterministic_runs():
    shape = GemmShape(9, 9, 9)
    cfg = SystolicConfig(4, 4)
    a, b = make_gemm(shape, 2)
    assert simulate_systolic_gemm(a, b, cfg, with_trace=True) == simulate_systolic_gemm(
        a, b, cfg, with_trace=True
    )


def call_peak(shape, cfg):
    """tracemalloc's peak over one call, after a first call for imports and caches."""
    a, b = make_gemm(shape, 1)
    simulate_systolic_gemm(a, b, cfg)
    tracemalloc.start()
    try:
        simulate_systolic_gemm(a, b, cfg)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def clock_loop_bound(m, n, k, rows, cols):
    # The int32 state (schedule, weights, two A-register and two partial-sum
    # buffers, bottom rows) and the int64 result, plus 64 KiB for ufunc
    # buffers: no per-clock history and no per-call geometry beside them.
    kt, nt, span = -(-k // rows), -(-n // cols), m + rows + cols - 2
    state = span * rows * kt + 3 * rows * nt * kt * cols + 2 * rows * kt * cols + span * nt * cols
    return 4 * state + 8 * m * n + 2**16


@pytest.mark.parametrize("rows, cols", [(16, 16), (64, 64)])
def test_call_peaks_at_its_state_and_result(rows, cols, monkeypatch):
    monkeypatch.setattr(systolic, "ROW_LOOP_ELEMENTS", 0)  # the clock loop
    peak = call_peak(GemmShape(128, 128, 128), SystolicConfig(rows, cols))
    assert peak < clock_loop_bound(128, 128, 128, rows, cols)


@pytest.mark.parametrize("rows, cols", [(16, 16), (64, 64)])
def test_row_loop_peaks_at_its_state_and_result(rows, cols):
    # The int32 state (the schedule with its C leading zeros, weights, two
    # chunk buffers of whole n-tile series, bottom rows) and the int64
    # result, plus 64 KiB; and no more than the clock loop's bound.
    m = n = k = 128
    kt, nt, span = -(-k // rows), -(-n // cols), m + rows + cols - 2
    series = kt * cols * (span + 1)
    assert series <= systolic.ROW_LOOP_ELEMENTS  # the default runs the row loop
    chunk = min(nt, systolic.ROW_LOOP_ELEMENTS // series)
    schedule, weights, bottom = rows * kt * (span + cols), rows * nt * kt * cols, span * nt * cols
    state = schedule + weights + 2 * chunk * series + bottom
    peak = call_peak(GemmShape(m, n, k), SystolicConfig(rows, cols))
    assert peak < 4 * state + 8 * m * n + 2**16
    assert peak < clock_loop_bound(m, n, k, rows, cols)
