"""Analytic SUMMA model: step structure, cost components, scaling."""

import math
import random
import time

import pytest

from gemmsim import (
    ClusterModel,
    CollectiveKind,
    CommModel,
    GemmShape,
    collective_cost,
    simulate_summa,
)


def test_single_node_has_no_communication():
    cluster = ClusterModel(1, 1, CommModel(1e-6, 1e-9), 1e9)
    res = simulate_summa(GemmShape(128, 128, 128), 16, cluster)
    assert res.comm_time == 0.0
    assert res.total_time == res.comp_time
    assert res.comp_time == 128**3 / 1e9


def test_reference_workload_step_structure():
    cluster = ClusterModel(4, 4, CommModel(1e-6, 1e-9), 1e9)
    res = simulate_summa(GemmShape(256, 256, 256), 32, cluster)
    assert res.steps == 8
    assert res.row_broadcasts == 8
    assert res.col_broadcasts == 8
    # Per step: one broadcast of a 64x32 panel along each process row and one
    # of a 32x64 panel along each process column, four participants each.
    per_step = collective_cost(
        CollectiveKind.BROADCAST, 4, 64 * 32 * 4, cluster.comm
    ) + collective_cost(CollectiveKind.BROADCAST, 4, 32 * 64 * 4, cluster.comm)
    assert res.comm_time == pytest.approx(8 * per_step, rel=1e-12)


def test_latency_only_cost_is_exact():
    alpha = 1e-6
    cluster = ClusterModel(4, 4, CommModel(alpha, 0.0), 1e9)
    res = simulate_summa(GemmShape(256, 256, 256), 32, cluster)
    assert res.comm_time == 8 * (2 + 2) * alpha
    assert res.comm_latency_time == res.comm_time
    assert res.comm_bandwidth_time == 0.0


def test_latency_only_cost_dyadic_alpha():
    cluster = ClusterModel(8, 2, CommModel(0.5, 0.0), 1e9)
    res = simulate_summa(GemmShape(64, 64, 64), 16, cluster)
    # ceil(log2 p_cols) = 1 and ceil(log2 p_rows) = 3 rounds per step.
    assert res.comm_time == 4 * (1 + 3) * 0.5


def test_block_width_free_choice():
    cluster = ClusterModel(4, 4, CommModel(1e-6, 1e-9), 1e9)
    shape = GemmShape(256, 256, 256)
    for width in (1, 7, 32, 256):
        res = simulate_summa(shape, width, cluster)
        assert res.steps == -(-256 // width)
        assert res.mac_ops == shape.macs
    for width in (0, 1.0, True):
        with pytest.raises(ValueError, match="block width must be"):
            simulate_summa(shape, width, cluster)


def test_alpha_dominated_regime_prefers_wide_blocks():
    cluster = ClusterModel(4, 4, CommModel(1e-3, 0.0), 1e9)
    shape = GemmShape(256, 256, 256)
    wide = simulate_summa(shape, 32, cluster)
    narrow = simulate_summa(shape, 16, cluster)
    assert narrow.steps == 2 * wide.steps
    assert narrow.comm_time == pytest.approx(2 * wide.comm_time, rel=1e-12)


def test_beta_dominated_regime_is_volume_insensitive():
    cluster = ClusterModel(4, 4, CommModel(0.0, 1e-9), 1e9)
    shape = GemmShape(256, 256, 256)
    wide = simulate_summa(shape, 32, cluster)
    narrow = simulate_summa(shape, 16, cluster)
    assert narrow.comm_time == pytest.approx(wide.comm_time, rel=1e-12)


def test_ragged_blocks_use_actual_bytes():
    cluster = ClusterModel(3, 2, CommModel(2e-6, 3e-9), 1e9, element_bytes=4)
    shape = GemmShape(10, 6, 5)
    res = simulate_summa(shape, 2, cluster)
    assert res.steps == 3  # widths 2, 2, 1
    expected = 0.0
    for width in (2, 2, 1):
        expected += collective_cost(CollectiveKind.BROADCAST, 2, 4 * width * 4, cluster.comm)
        expected += collective_cost(CollectiveKind.BROADCAST, 3, width * 3 * 4, cluster.comm)
    assert res.comm_time == pytest.approx(expected, rel=1e-12)


def test_monotonicity():
    shape = GemmShape(128, 128, 128)
    slow = simulate_summa(shape, 16, ClusterModel(4, 4, CommModel(1e-6, 1e-9), 1e8))
    fast = simulate_summa(shape, 16, ClusterModel(4, 4, CommModel(1e-6, 1e-9), 1e10))
    assert fast.total_time < slow.total_time

    base = simulate_summa(shape, 16, ClusterModel(4, 4, CommModel(1e-6, 1e-9), 1e9))
    more_alpha = simulate_summa(shape, 16, ClusterModel(4, 4, CommModel(2e-6, 1e-9), 1e9))
    more_beta = simulate_summa(shape, 16, ClusterModel(4, 4, CommModel(1e-6, 2e-9), 1e9))
    assert more_alpha.comm_time > base.comm_time
    assert more_beta.comm_time > base.comm_time


def weak_scaling_point(q, alpha):
    """A (64q) x (64q) x 64 GEMM on a q x q grid: fixed work per node."""
    cluster = ClusterModel(q, q, CommModel(alpha, 0.0), 1e9)
    return simulate_summa(GemmShape(64 * q, 64 * q, 64), 16, cluster)


def test_weak_scaling_single_node():
    cluster = ClusterModel(1, 1, CommModel(1e-6, 1e-9), 1e9)
    assert simulate_summa(GemmShape(64, 64, 64), 64, cluster).comm_time == 0.0


def test_weak_scaling_latency_ratios():
    points = [weak_scaling_point(q, 1e-6) for q in (2, 4, 8)]
    latencies = [p.comm_latency_time for p in points]
    assert latencies[1] / latencies[0] == pytest.approx(2.0, rel=1e-12)
    assert latencies[2] / latencies[0] == pytest.approx(3.0, rel=1e-12)
    assert len({p.comp_time for p in points}) == 1


def test_weak_scaling_latency_closed_form():
    alpha = 0.5
    for q, rounds in ((2, 1), (4, 2), (8, 3)):
        res = weak_scaling_point(q, alpha)
        assert res.steps == 4  # k = 64, block 16
        assert res.comm_time == res.steps * (2 * rounds) * alpha


def test_cluster_validation():
    with pytest.raises(ValueError):
        ClusterModel(0, 4, CommModel(0, 0), 1e9)
    with pytest.raises(ValueError):
        ClusterModel(4, 4, CommModel(0, 0), 0.0)
    # A nan rate used to give simulate_summa a total_time of nan.
    for rate in (math.nan, math.inf):
        with pytest.raises(ValueError, match="^node MAC rate must be finite"):
            ClusterModel(2, 2, CommModel(0, 0), rate)
    with pytest.raises(ValueError):
        ClusterModel(4, 4, CommModel(0, 0), 1e9, element_bytes=0)


def fsum_reference(shape, block_width, cluster):
    """The step-by-step pricing SUMMA used before: one fsum over every step's broadcasts."""
    rows_per_node = math.ceil(shape.m / cluster.p_rows)
    cols_per_node = math.ceil(shape.n / cluster.p_cols)
    eb = cluster.element_bytes
    b = min(block_width, shape.k)
    widths = [min(b, shape.k - lo) for lo in range(0, shape.k, b)]

    def comm(model):
        return math.fsum(
            collective_cost(CollectiveKind.BROADCAST, participants, nbytes, model)
            for width in widths
            for participants, nbytes in (
                (cluster.p_cols, rows_per_node * width * eb),
                (cluster.p_rows, width * cols_per_node * eb),
            )
        )

    return (
        len(widths),
        comm(cluster.comm),
        comm(CommModel(cluster.comm.alpha, 0.0)),
        comm(CommModel(0.0, cluster.comm.beta)),
    )


def random_cases(count, seed):
    rng = random.Random(seed)
    alphas = (0.0, 1e-6, 2.5e-6, 0.1, 3.0)
    betas = (0.0, 1e-9, 7.3e-10, 1e-3, 0.3)
    for _ in range(count):
        k = rng.randint(1, 300)
        # Exact k, ragged k and block widths beyond k all occur.
        block_width = rng.choice((1, rng.randint(1, k), k, k + rng.randint(1, 5), 7, 16))
        shape = GemmShape(rng.randint(1, 90), rng.randint(1, 90), k)
        cluster = ClusterModel(
            rng.randint(1, 9),
            rng.randint(1, 9),
            CommModel(rng.choice(alphas) * rng.random(), rng.choice(betas) * rng.random()),
            1e9,
            element_bytes=rng.choice((1, 2, 4, 8)),
        )
        yield shape, block_width, cluster


def test_step_count_pricing_matches_fsum_reference_bit_for_bit():
    cases = list(random_cases(600, seed=2024))
    assert any(c[0].k % min(c[1], c[0].k) for c in cases)  # ragged k
    assert any(c[0].k % min(c[1], c[0].k) == 0 for c in cases)  # exact k
    assert any(c[2].comm.alpha == 0.0 for c in cases) and any(c[2].comm.beta == 0.0 for c in cases)
    for shape, block_width, cluster in cases:
        res = simulate_summa(shape, block_width, cluster)
        got = (res.steps, res.comm_time, res.comm_latency_time, res.comm_bandwidth_time)
        assert got == fsum_reference(shape, block_width, cluster), (shape, block_width, cluster)
        assert res.row_broadcasts == res.col_broadcasts == res.steps


def test_long_k_prices_in_constant_time():
    cluster = ClusterModel(2, 2, CommModel(1e-6, 1e-9), 1e9)
    start = time.perf_counter()
    res = simulate_summa(GemmShape(4, 4, 10**6), 1, cluster)
    assert time.perf_counter() - start < 0.5  # pricing step by step took ~3 s
    assert res.steps == 10**6
    per_step = 2 * collective_cost(CollectiveKind.BROADCAST, 2, 2 * 1 * 4, cluster.comm)
    assert res.comm_time == pytest.approx(10**6 * per_step, rel=1e-12)
