"""Collective-streaming tree: construction, latency, inner products, GEMM."""

import random
import re

import numpy as np
import pytest

from gemmsim import (
    CETree,
    GemmShape,
    Matrix,
    SystolicConfig,
    build_ce_tree,
    make_gemm,
    make_vectors,
    outer_product_schedule,
    reference_matmul,
    simulate_cs_gemm,
    simulate_systolic_gemm,
    simulate_tree_inner_product,
)
from gemmsim import streamer

ALLOWED_LINKS = {
    "mem_to_ce",
    "ce_to_ce",
    "ce_to_pe",
    "pe_to_ce",
    "ce_to_mem",
    "mem_to_pe",
    "pe_to_mem",
    "pe_to_pe",
}


def dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def test_build_tree_levels():
    assert build_ce_tree(1, 2).levels == 0
    assert build_ce_tree(16, 4).levels == 2
    assert build_ce_tree(10, 2).levels == 4


def test_build_tree_defaults_and_validation():
    tree = build_ce_tree(64)
    assert tree.fanout == 4
    assert tree.level_latency == 1
    assert tree.root_port_width == 4  # defaults to the fanout
    assert tree.fanout**tree.levels >= tree.num_pes
    with pytest.raises(ValueError):
        build_ce_tree(8, 1)
    assert CETree(8, 2, 1, 4).levels == 3  # derived from PEs and fanout
    with pytest.raises(ValueError, match="level latency must be an integer, got 1.5"):
        build_ce_tree(4, 2, 1.5)  # priced a 2x2x2 GEMM at 12.0 cycles
    tree = CETree(300, np.uint8(2), 1, 1)
    # Checked before .levels: a uint8 fanout wrapped to 0 and never reached 300.
    assert type(tree.fanout) is int
    assert tree.levels == 9


def test_collective_latency():
    # One traversal of the hierarchy prices the fill and the drain's gather.
    a, b = make_gemm(GemmShape(16, 16, 2), 0)
    for tree, clocks in (
        (build_ce_tree(1, 2), 0),
        (build_ce_tree(256, 2, 1), 8),
        (build_ce_tree(256, 4, 2), 8),
        (build_ce_tree(64, 2, 3), 18),
    ):
        phases = simulate_cs_gemm(a, b, tree).phases
        assert phases["fill"] == clocks
        owned = -(-256 // tree.num_pes)
        assert phases["drain"] == clocks + max(-(-256 // tree.root_port_width), owned)


def test_tree_inner_product_cycles():
    assert simulate_tree_inner_product(1).cycles == 1
    res8 = simulate_tree_inner_product(8, 2, 1)
    assert res8.cycles == 4  # one MAC clock + 3 pairwise levels
    a, b = make_vectors(8, 0)
    assert res8.scalar == dot(a, b)
    assert simulate_tree_inner_product(1024, 2, 1).cycles == 11


def test_tree_inner_product_no_hops_and_exact():
    rng = random.Random(2)
    for _ in range(20):
        n = rng.randint(1, 300)
        fanout = rng.choice((2, 3, 4))
        a, b = make_vectors(n, rng.randrange(1 << 20))
        res = simulate_tree_inner_product(n, fanout, operands=(a, b))
        assert res.scalar == dot(a, b)
        assert res.transfer_counts["pe_to_pe"] == 0
        assert set(res.transfer_counts) <= ALLOWED_LINKS


def test_tree_inner_product_transfers():
    # Level l of CEs receives ceil(n / fanout**l) partial sums: 10, then 4, 2.
    assert simulate_tree_inner_product(10, 3).transfer_counts == {
        "pe_to_pe": 0,
        "pe_to_ce": 10,
        "ce_to_ce": 4 + 2,
        "ce_to_mem": 1,
    }
    assert simulate_tree_inner_product(3, 4).transfer_counts == {
        "pe_to_pe": 0,
        "pe_to_ce": 3,
        "ce_to_mem": 1,
    }
    assert simulate_tree_inner_product(1).transfer_counts == {"pe_to_pe": 0, "pe_to_mem": 1}


@pytest.mark.parametrize("latency", [0, -1])
def test_tree_inner_product_rejects_bad_level_latency(latency):
    with pytest.raises(ValueError, match=f"level latency must be >= 1, got {latency}"):
        simulate_tree_inner_product(16, 2, latency)


@pytest.mark.parametrize(
    "n, fanout, latency, message",
    [
        (2**20, 2.5, 1, "fanout must be an integer, got 2.5"),
        (2**20, True, 1, "fanout must be an integer, got True"),
        (2**20, 2, 1.5, "level latency must be an integer, got 1.5"),
        (2**20, 2, np.True_, "level latency must be an integer, got np.True_"),
        (2**20, 2, 0, "level latency must be >= 1, got 0"),
        (2**20, 1, 1, "fanout must be >= 2, got 1"),
        (True, 2, 1, "inner product length must be an integer, got True"),
        (16.0, 2, 1, "inner product length must be an integer, got 16.0"),
    ],
    ids=[
        "float-fanout",
        "bool-fanout",
        "float-latency",
        "numpy-bool-latency",
        "zero-latency",
        "unary-fanout",
        "bool-length",
        "float-length",
    ],
)
def test_tree_inner_product_checks_parameters_before_drawing(monkeypatch, n, fanout, latency, message):
    """Bad tree parameters fail before any operand is drawn, and floats and bools are not priced."""

    def no_draw(*args):
        raise AssertionError("operands drawn before the tree parameters were checked")

    monkeypatch.setattr(streamer, "resolve_vector_operands", no_draw)
    with pytest.raises(ValueError, match=re.escape(message)):
        simulate_tree_inner_product(n, fanout, latency)


def test_tree_inner_product_accepts_numpy_integers():
    res = simulate_tree_inner_product(8, np.int64(2), np.int32(3))
    assert res == simulate_tree_inner_product(8, 2, 3)
    assert type(res.cycles) is int


def test_cs_gemm_trivial():
    shape = GemmShape(1, 1, 1)
    a, b = make_gemm(shape, 0)
    res = simulate_cs_gemm(a, b, build_ce_tree(1), 1)
    assert res.result == reference_matmul(a, b)
    assert res.cycles <= 4


def test_cs_gemm_exactness_random():
    rng = random.Random(8)
    for _ in range(30):
        shape = GemmShape(rng.randint(1, 32), rng.randint(1, 32), rng.randint(1, 32))
        a, b = make_gemm(shape, rng.randrange(1 << 20))
        pes = rng.randint(1, shape.m * shape.n)
        tree = build_ce_tree(pes, rng.choice((2, 3, 4)), rng.choice((1, 2)), rng.choice((1, 4, 8)))
        res = simulate_cs_gemm(a, b, tree, rng.randint(1, shape.k))
        assert res.result == reference_matmul(a, b)
        assert res.mac_ops_issued == shape.macs


def extreme_operands(m, n, k, mixed):
    """Every operand -128, or -128 and 127 with the largest sums.

    In the mixed case A[i][l] and B[l][j] for even j share one value per l,
    so those outputs add k products of 127^2 or 128^2, all positive.
    """
    rng = random.Random(k)
    pick = [rng.choice((-128, 127)) if mixed else -128 for _ in range(k)]
    b = [pick[l] if j % 2 == 0 else rng.choice(pick) for l in range(k) for j in range(n)]
    return Matrix(m, k, pick * m), Matrix(k, n, b)


@pytest.mark.parametrize("mixed", [False, True])
@pytest.mark.parametrize("k", [4096, 10_000])
def test_cs_gemm_float64_product_is_exact_at_extreme_operands(k, mixed):
    assert k < streamer.FLOAT64_EXACT_K == 2**39
    a, b = extreme_operands(3, 5, k, mixed)
    res = simulate_cs_gemm(a, b, build_ce_tree(15), 256)
    assert res.result == reference_matmul(a, b)
    if not mixed:
        assert set(res.result.data.tolist()) == {k * 128 * 128}


@pytest.mark.parametrize("mixed", [False, True])
def test_cs_gemm_int64_fallback_beyond_float64_exact_k(monkeypatch, mixed):
    k = 4096
    a, b = extreme_operands(3, 5, k, mixed)
    tree = build_ce_tree(15)
    as_float = simulate_cs_gemm(a, b, tree, 256)
    monkeypatch.setattr(streamer, "FLOAT64_EXACT_K", k)
    as_int = simulate_cs_gemm(a, b, tree, 256)
    assert as_int.result == as_float.result == reference_matmul(a, b)
    assert as_int == as_float


def test_cs_gemm_pe_overcommit_rejected():
    shape = GemmShape(3, 3, 3)
    a, b = make_gemm(shape, 0)
    with pytest.raises(ValueError, match="10 PEs cannot each own an output of a 3x3 result"):
        simulate_cs_gemm(a, b, build_ce_tree(10), 1)


def test_cs_gemm_beats_systolic_on_low_inner_dimension():
    # Same workload on an 8x8 systolic array and a 64-PE tree.
    shape = GemmShape(8, 8, 2)
    a, b = make_gemm(shape, 4)
    sys_res = simulate_systolic_gemm(a, b, SystolicConfig(8, 8))
    tree = build_ce_tree(64, 2, 1, 16)
    cs_res = simulate_cs_gemm(a, b, tree, 1)
    assert cs_res.result == sys_res.result
    assert cs_res.cycles == 18  # fill 6 + stream 2 + drain (6 + 4)
    assert cs_res.steady_state_utilization == 1.0
    assert cs_res.utilization > sys_res.utilization


def test_cs_gemm_steady_utilization_independent_of_k():
    # Fixed m, n, P, W: streaming-phase occupancy does not change with the
    # inner dimension, unlike the systolic k/R cliff.
    values = []
    for k in (1, 4, 16, 64):
        shape = GemmShape(16, 16, k)
        a, b = make_gemm(shape, k)
        res = simulate_cs_gemm(a, b, build_ce_tree(64, 2, 1, 8), 1)
        values.append(res.steady_state_utilization)
    assert len(set(values)) == 1


def test_cs_gemm_more_pes_fewer_cycles():
    shape = GemmShape(16, 16, 16)
    a, b = make_gemm(shape, 6)
    res64 = simulate_cs_gemm(a, b, build_ce_tree(64, 4, 1, 16), 1)
    res256 = simulate_cs_gemm(a, b, build_ce_tree(256, 4, 1, 16), 1)
    assert res64.result == res256.result
    assert res256.cycles < res64.cycles
    # Latency overhead grows only with the level count.
    assert res64.phases["fill"] == 3
    assert res256.phases["fill"] == 4


def test_cs_gemm_overhead_tracks_levels():
    shape = GemmShape(32, 32, 4)
    a, b = make_gemm(shape, 10)
    for pes, levels in ((64, 6), (256, 8), (1024, 10)):
        res = simulate_cs_gemm(a, b, build_ce_tree(pes, 2, 1, 2), 1)
        gather = max(-(-32 * 32 // 2), -(-32 * 32 // pes))
        assert res.phases["fill"] == levels
        assert res.phases["drain"] == levels + gather
        assert res.phases["fill"] + res.phases["stream"] + res.phases["drain"] == res.cycles


def test_cs_gemm_no_pe_hops_and_multicast_root_traffic():
    shape = GemmShape(12, 10, 7)
    a, b = make_gemm(shape, 3)
    tree = build_ce_tree(24, 2, 1, 4)
    res = simulate_cs_gemm(a, b, tree, 2)
    counts = res.transfer_counts
    assert counts["pe_to_pe"] == 0
    assert set(counts) <= ALLOWED_LINKS
    # Each distinct operand element crosses the memory port exactly once.
    assert counts["mem_to_ce"] == shape.k * (shape.m + shape.n)
    assert counts["ce_to_mem"] == shape.m * shape.n
    assert counts["pe_to_ce"] == shape.m * shape.n


def test_cs_gemm_single_pe_uses_direct_memory_link():
    shape = GemmShape(2, 3, 4)
    a, b = make_gemm(shape, 1)
    res = simulate_cs_gemm(a, b, build_ce_tree(1), 1)
    counts = res.transfer_counts
    assert counts["pe_to_pe"] == 0
    assert counts["mem_to_pe"] == shape.k * (shape.m + shape.n)
    assert counts["pe_to_mem"] == shape.m * shape.n


def test_cs_gemm_trace_totals():
    shape = GemmShape(6, 9, 5)
    a, b = make_gemm(shape, 12)
    tree = build_ce_tree(9, 3, 1, 2)
    res = simulate_cs_gemm(a, b, tree, 2, with_trace=True)
    assert len(res.activity_trace) == res.cycles
    assert sum(res.activity_trace) == shape.macs
    assert max(res.activity_trace) <= tree.num_pes


def test_cs_gemm_utilization_bounded():
    # PE-bound regime: one PE, wide port; cycles grow so occupancy stays <= 1.
    shape = GemmShape(8, 8, 1)
    a, b = make_gemm(shape, 0)
    res = simulate_cs_gemm(a, b, build_ce_tree(1, 4, 1, 16), 1)
    assert res.result == reference_matmul(a, b)
    assert res.utilization <= 1.0
    assert res.steady_state_utilization <= 1.0


def test_cs_gemm_block_width_validation():
    shape = GemmShape(4, 4, 4)
    a, b = make_gemm(shape, 0)
    for width in (0, 1.0, True):
        with pytest.raises(ValueError, match="block width must be"):
            simulate_cs_gemm(a, b, build_ce_tree(4), width)


def step_by_step_stream(a, b, tree, block_width):
    """The stream phase and its activity trace, one step of the public
    schedule at a time: each step spreads its MACs evenly over its span."""
    m, n = a.rows, b.cols
    owned_max = -(-m * n // tree.num_pes)
    stream, trace = 0, []
    for col, _ in outer_product_schedule(a, b, min(block_width, a.cols)):
        bw = col.cols
        clocks = max(-(-(m + n) * bw // tree.root_port_width), owned_max * bw)
        base, extra = divmod(m * n * bw, clocks)
        stream += clocks
        trace += [base + 1] * extra + [base] * (clocks - extra)
    return stream, trace


@pytest.mark.parametrize(
    "k, width",
    [(12, 1), (12, 3), (12, 12), (13, 3), (13, 5), (1, 1), (7, 20), (1, 4)],
    ids=["w1", "divides", "one-step", "ragged-1", "ragged-3", "k1", "w-above-k", "k1-w-above-k"],
)
def test_cs_gemm_stream_matches_step_by_step_schedule(k, width):
    # The streamer prices q full steps and one ragged step in closed form.
    a, b = make_gemm(GemmShape(5, 7, k), k)
    for tree in (build_ce_tree(1, 2), build_ce_tree(6, 2, 1, 3), build_ce_tree(35, 4, 2, 2)):
        res = simulate_cs_gemm(a, b, tree, width, with_trace=True)
        stream, trace = step_by_step_stream(a, b, tree, width)
        fill, drain = res.phases["fill"], res.phases["drain"]
        assert res.phases["stream"] == stream
        assert res.steady_state_utilization == res.mac_ops_issued / (tree.num_pes * stream)
        assert res.activity_trace == tuple([0] * fill + trace + [0] * drain)


def test_cs_gemm_builds_no_matrix_per_step(monkeypatch):
    # Pricing the steps must not copy A and B into a Matrix pair per step.
    built = []
    from_numpy = Matrix.from_numpy

    def counted(arr):
        built.append(arr.shape)
        return from_numpy(arr)

    monkeypatch.setattr(Matrix, "from_numpy", staticmethod(counted))
    counts = []
    for k in (1, 512):
        a, b = make_gemm(GemmShape(4, 4, k), 0)
        built.clear()
        simulate_cs_gemm(a, b, build_ce_tree(4), 1, with_trace=True)
        counts.append(len(built))
    assert counts[0] == counts[1]
