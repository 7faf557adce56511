"""Metamorphic relations: how runs of one simulator relate, with no cycle formula.

Every other cycle check compares a simulator with a closed form written
from the same account of the machine, so the two can be wrong together.
A relation between two runs of one simulator needs no formula (Chen,
Cheung and Yiu, "Metamorphic testing", HKUST-CS98-01, 1998).
"""

from collections import Counter
from fractions import Fraction

import numpy as np
from hypothesis import given
from hypothesis import strategies as st
from test_simulator_properties import SETTINGS, SIDE, streamer_cases

from gemmsim import (
    CETree,
    GemmShape,
    Matrix,
    MeshConfig,
    SystolicConfig,
    make_gemm,
    simulate_chain_reduction,
    simulate_cs_gemm,
    simulate_grid_reduction,
    simulate_systolic_gemm,
    simulate_tree_inner_product,
)

N = st.integers(1, 39)
HOPS = range(1, 5)
FANOUTS = range(2, 12)
EXTENT = st.integers(1, 8)  # systolic array rows R and cols C
LATENCIES = range(1, 4)
PORT_WIDTHS = range(1, 17)


def cycles_over_one_plus_hop(cycles_by_hop):
    """The set of cycles / (1 + h) over (h, cycles) runs: one value when h only scales them."""
    return {Fraction(cycles, 1 + h) for h, cycles in cycles_by_hop}


@SETTINGS
@given(N, st.integers(0, 3))
def test_chain_cycles_scale_with_one_plus_hop_latency(n, spare):
    """Every clock of a chain is a MAC or a hop, one of each per stage, so
    cycles / (1 + hop_latency) does not depend on hop_latency."""
    runs = [(h, simulate_chain_reduction(n, MeshConfig.chain(n + spare, h)).cycles) for h in HOPS]
    assert len(cycles_over_one_plus_hop(runs)) == 1, runs


@SETTINGS
@given(N, st.integers(1, 39), st.integers(0, 3))
def test_grid_cycles_scale_with_one_plus_hop_latency(n, cols, spare_rows):
    """The same holds on a grid, whose row and column phases are both stages."""
    rows = -(-n // cols) + spare_rows
    runs = [(h, simulate_grid_reduction(n, MeshConfig.grid(rows, cols, h)).cycles) for h in HOPS]
    assert len(cycles_over_one_plus_hop(runs)) == 1, runs


@SETTINGS
@given(N, st.integers(1, 3))
def test_tree_cycles_never_rise_with_fanout(n, level_latency):
    """A wider CE tree is no deeper, and a level costs the same at any fanout."""
    cycles = [simulate_tree_inner_product(n, f, level_latency).cycles for f in FANOUTS]
    assert cycles == sorted(cycles, reverse=True), cycles


def systolic_runs(cfg, *pairs):
    """One traced systolic run per (A, B) pair of numpy operands."""
    return [
        simulate_systolic_gemm(Matrix.from_numpy(a), Matrix.from_numpy(b), cfg, with_trace=True)
        for a, b in pairs
    ]


@SETTINGS
@given(SIDE, SIDE, EXTENT, EXTENT, st.integers(1, 2), SIDE)
def test_systolic_runs_add_over_a_split_of_b_columns(m, k, rows, cols, tiles, rest):
    """A split of B's columns at n1, a multiple of C, splits the n-tiles in
    two: cycles, phases and busy PE-clocks add, and the results concatenate."""
    n1 = tiles * cols
    a, b = (x.to_numpy() for x in make_gemm(GemmShape(m, n1 + rest, k), m * 100 + k))
    whole, left, right = systolic_runs(
        SystolicConfig(rows, cols), (a, b), (a, b[:, :n1]), (a, b[:, n1:])
    )
    assert whole.cycles == left.cycles + right.cycles
    assert Counter(whole.phases) == Counter(left.phases) + Counter(right.phases)
    assert sum(whole.activity_trace) == sum(left.activity_trace) + sum(right.activity_trace)
    assert np.array_equal(
        whole.result.to_numpy(), np.hstack([left.result.to_numpy(), right.result.to_numpy()])
    )


@SETTINGS
@given(SIDE, SIDE, EXTENT, EXTENT, st.integers(1, 2), SIDE)
def test_systolic_runs_add_over_a_split_of_the_inner_dimension(m, n, rows, cols, tiles, rest):
    """A split of A's columns and B's rows at k1, a multiple of R, splits the
    k-tiles in two: cycles and phases add, and the results sum."""
    k1 = tiles * rows
    a, b = (x.to_numpy() for x in make_gemm(GemmShape(m, n, k1 + rest), m * 100 + n))
    whole, head, tail = systolic_runs(
        SystolicConfig(rows, cols), (a, b), (a[:, :k1], b[:k1]), (a[:, k1:], b[k1:])
    )
    assert whole.cycles == head.cycles + tail.cycles
    assert Counter(whole.phases) == Counter(head.phases) + Counter(tail.phases)
    assert np.array_equal(whole.result.to_numpy(), head.result.to_numpy() + tail.result.to_numpy())


def streamer_operands(case):
    """A, B and the CE tree's parameters of one ``streamer_cases`` draw."""
    m, n, k, tree, block_width, _ = case
    return (*make_gemm(GemmShape(m, n, k), m * 10_000 + n * 100 + k), tree, block_width)


@SETTINGS
@given(streamer_cases())
def test_streamer_transposed_operands_give_the_transposed_result(case):
    """C^T = B^T A^T in the same cycles: a step streams m + n elements and
    the busiest PE owns ceil(m*n/P) outputs either way.  Transfer counts are
    not compared: outputs are owned in row-major ranges, so they differ."""
    a, b, tree, block_width = streamer_operands(case)
    tree = CETree(*tree)
    straight = simulate_cs_gemm(a, b, tree, block_width)
    flipped = simulate_cs_gemm(
        Matrix.from_numpy(b.to_numpy().T), Matrix.from_numpy(a.to_numpy().T), tree, block_width
    )
    assert flipped.cycles == straight.cycles
    assert np.array_equal(flipped.result.to_numpy(), straight.result.to_numpy().T)


@SETTINGS
@given(streamer_cases())
def test_streamer_cycles_follow_latency_up_and_port_width_down(case):
    """A slower CE level never saves a clock; a wider root port never costs one."""
    a, b, (pes, fanout, latency, width), block_width = streamer_operands(case)
    by_latency = [
        simulate_cs_gemm(a, b, CETree(pes, fanout, level, width), block_width).cycles
        for level in LATENCIES
    ]
    by_width = [
        simulate_cs_gemm(a, b, CETree(pes, fanout, latency, w), block_width).cycles
        for w in PORT_WIDTHS
    ]
    assert by_latency == sorted(by_latency), by_latency
    assert by_width == sorted(by_width, reverse=True), by_width
