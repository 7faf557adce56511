"""Properties every on-chip simulator must keep, over shapes, arrays, trees and meshes.

Each simulator runs on derandomized hypothesis draws and must return the
oracle's result, its documented closed-form cycle count, the MAC count of
its workload, a utilization in [0, 1], phases that sum to its cycles, and,
when traced, a trace of length ``cycles`` that sums to ``mac_ops_issued``.
The cycle formulas below are written out here, independent of the code
under test.
"""

import operator
from itertools import count

from hypothesis import example, given, settings
from hypothesis import strategies as st

from gemmsim import (
    GemmShape,
    MeshConfig,
    SystolicConfig,
    build_ce_tree,
    make_gemm,
    make_vectors,
    reference_matmul,
    simulate_chain_reduction,
    simulate_cs_gemm,
    simulate_grid_reduction,
    simulate_systolic_gemm,
    simulate_tree_inner_product,
    systolic_cycle_formula,
)

SIDE = st.integers(1, 24)
SETTINGS = settings(derandomize=True, max_examples=80, deadline=None, database=None)


def ceil_div(a, b):
    return -(-a // b)


def depth(n, fanout):
    """Smallest e with fanout**e >= n."""
    return next(e for e in count() if fanout**e >= n)


def dot(a, b):
    return sum(map(operator.mul, a.tolist(), b.tolist()))


def check_accounting(res, cycles, macs, with_trace):
    assert res.cycles == cycles
    assert res.mac_ops_issued == macs
    assert 0.0 <= res.utilization <= 1.0
    assert res.steady_state_utilization is None or 0.0 <= res.steady_state_utilization <= 1.0
    assert sum(res.phases.values()) == res.cycles
    if with_trace:
        assert len(res.activity_trace) == res.cycles
        assert sum(res.activity_trace) == res.mac_ops_issued
    else:
        assert res.activity_trace is None


@SETTINGS
@given(SIDE, SIDE, SIDE, st.integers(1, 24), st.integers(1, 24), st.booleans())
def test_systolic(m, n, k, rows, cols, with_trace):
    shape, cfg = GemmShape(m, n, k), SystolicConfig(rows, cols)
    a, b = make_gemm(shape, m * 10_000 + n * 100 + k)
    res = simulate_systolic_gemm(a, b, cfg, with_trace=with_trace)
    assert res.result == reference_matmul(a, b)
    check_accounting(res, systolic_cycle_formula(shape, cfg), m * n * k, with_trace)


@st.composite
def streamer_cases(draw):
    m, n, k = draw(SIDE), draw(SIDE), draw(SIDE)
    pes = draw(st.integers(1, m * n))
    tree = (pes, draw(st.integers(2, 5)), draw(st.integers(1, 3)), draw(st.integers(1, 16)))
    return m, n, k, tree, draw(st.integers(1, k + 2)), draw(st.booleans())


@SETTINGS
@given(streamer_cases())
@example((4, 6, 3, (5, 2, 1, 64), 1, True))  # ranges of 5, 5, 5, 5, 4: spans of 5 clocks
def test_streamer(case):
    m, n, k, (pes, fanout, latency, width), block_width, with_trace = case
    a, b = make_gemm(GemmShape(m, n, k), m * 10_000 + n * 100 + k)
    tree = build_ce_tree(pes, fanout, latency, width)
    res = simulate_cs_gemm(a, b, tree, block_width, with_trace=with_trace)
    assert res.result == reference_matmul(a, b)

    # Fill and drain are one tree traversal each; every step streams its
    # block through the root port while the busiest PE (ceil(m*n/P) outputs)
    # does its MACs, and the drain also gathers every output through the port.
    owned = ceil_div(m * n, pes)
    step = min(block_width, k)
    widths = [step] * (k // step) + ([k % step] if k % step else [])
    spans = [max(ceil_div((m + n) * w, width), owned * w) for w in widths]
    latency_total = depth(pes, fanout) * latency
    cycles = latency_total + sum(spans) + latency_total + max(ceil_div(m * n, width), owned)
    check_accounting(res, cycles, m * n * k, with_trace)
    assert res.transfer_counts["pe_to_pe"] == 0
    if with_trace:
        check_streamer_trace(res.activity_trace, latency_total, spans, widths, m * n)


def check_streamer_trace(trace, fill, spans, widths, outputs):
    """No MACs in the fill or drain; each step's m*n*w MACs spread evenly over its window.

    Within a window the per-clock count never rises and varies by at most
    one, so any remainder MACs fall on the window's first clocks.
    """
    assert not any(trace[:fill])
    pos = fill
    for span, w in zip(spans, widths):
        window = trace[pos : pos + span]
        assert sum(window) == outputs * w
        assert all(x >= y for x, y in zip(window, window[1:]))
        assert window[0] - window[-1] <= 1
        pos += span
    assert not any(trace[pos:])


@SETTINGS
@given(SIDE, st.integers(0, 3), st.integers(1, 3), st.booleans())
def test_chain(n, spare, hop, with_trace):
    a, b = make_vectors(n, n)
    cfg = MeshConfig.chain(n + spare, hop)
    res = simulate_chain_reduction(n, cfg, seed=n, with_trace=with_trace)
    assert res.scalar == dot(a, b)
    check_accounting(res, n * (1 + hop), n, with_trace)


@SETTINGS
@given(SIDE, st.integers(1, 24), st.integers(0, 3), st.integers(1, 3), st.booleans())
def test_grid(n, cols, spare_rows, hop, with_trace):
    occupied = ceil_div(n, cols)
    cfg = MeshConfig.grid(occupied + spare_rows, cols, hop)
    a, b = make_vectors(n, n)
    res = simulate_grid_reduction(n, cfg, seed=n, with_trace=with_trace)
    assert res.scalar == dot(a, b)
    # Rows reduce in parallel along the longest row, then the row sums
    # combine down the occupied rows; each stage is a hop plus a MAC clock.
    stages = (min(n, cols) - 1) + (occupied - 1)
    check_accounting(res, 1 + stages * (hop + 1) + hop, n + occupied - 1, with_trace)


@SETTINGS
@given(SIDE, st.integers(0, 3), st.integers(1, 3))
def test_chain_is_the_one_row_grid(n, spare, hop):
    """A chain of extent e runs exactly as a 1 x e grid, whose column phase is empty."""
    chain = simulate_chain_reduction(n, MeshConfig.chain(n + spare, hop), seed=n, with_trace=True)
    grid = simulate_grid_reduction(n, MeshConfig.grid(1, n + spare, hop), seed=n, with_trace=True)
    for field in ("cycles", "result", "mac_ops_issued", "num_units", "transfer_counts", "activity_trace"):
        assert getattr(chain, field) == getattr(grid, field), field
    assert chain.phases == {"reduce": grid.phases["row_reduce"], "drain": grid.phases["drain"]}
    assert grid.phases["col_reduce"] == 0


@SETTINGS
@given(SIDE, st.integers(2, 9), st.integers(1, 3), st.booleans())
def test_tree(n, fanout, latency, with_trace):
    a, b = make_vectors(n, n)
    res = simulate_tree_inner_product(n, fanout, latency, seed=n, with_trace=with_trace)
    assert res.scalar == dot(a, b)
    check_accounting(res, 1 + depth(n, fanout) * latency, n, with_trace)
    assert res.transfer_counts["pe_to_pe"] == 0
