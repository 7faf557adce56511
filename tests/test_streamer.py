"""Collective-streaming tree: construction, latency, inner products, GEMM."""

import random

import pytest

from gemmsim import (
    CETree,
    CollectiveKind,
    GemmShape,
    PEAssignment,
    SystolicConfig,
    build_ce_tree,
    make_gemm,
    make_vectors,
    reference_matmul,
    simulate_cs_gemm,
    simulate_systolic_gemm,
    simulate_tree_inner_product,
    tree_collective_latency,
)

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
    with pytest.raises(ValueError):
        CETree(8, 2, 2, 1, 4)  # wrong level count for 8 PEs at fanout 2


def test_collective_latency():
    assert tree_collective_latency(build_ce_tree(1, 2), CollectiveKind.BROADCAST) == 0
    assert tree_collective_latency(build_ce_tree(256, 2, 1), CollectiveKind.REDUCE) == 8
    assert tree_collective_latency(build_ce_tree(256, 4, 2), CollectiveKind.GATHER) == 8
    for kind in CollectiveKind:
        assert tree_collective_latency(build_ce_tree(64, 2, 3), kind) == 18


def test_pe_assignment_partition():
    # Row-major ranges that tile all 24 outputs; sizes differ by at most one.
    assign = PEAssignment.balanced(4, 6, 5)
    assert assign.starts == (0, 5, 10, 15, 20, 24)
    assert assign.num_pes == 5
    assert assign.max_outputs == 5
    with pytest.raises(ValueError):
        PEAssignment.balanced(2, 2, 5)


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


def test_cs_gemm_pe_overcommit_rejected():
    shape = GemmShape(3, 3, 3)
    a, b = make_gemm(shape, 0)
    with pytest.raises(ValueError):
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
    with pytest.raises(ValueError):
        simulate_cs_gemm(a, b, build_ce_tree(4), 0)
