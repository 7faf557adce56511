"""Differential test: numpy inner-product reductions against the Python loops.

The chain, grid and tree inner products reduce int8 or int64 operand arrays
exactly with numpy and count cycles and hops in closed form.  The references
below are the pure-Python loops they replaced, run on operands drawn element
by element with ``randint``.  Both must return equal ``SimResult`` objects, activity
trace included, and traces must hold Python ints.
"""

import random

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gemmsim import (
    MeshConfig,
    Matrix,
    simulate_chain_reduction,
    simulate_grid_reduction,
    simulate_tree_inner_product,
    tree_time,
)
from gemmsim.meshflow import covering_side
from gemmsim.results import build_result


def randint_vectors(n, seed):
    rng = random.Random(seed)
    a = [rng.randint(-128, 127) for _ in range(n)]
    b = [rng.randint(-128, 127) for _ in range(n)]
    return a, b


def loop_chain(n, cfg, a, b, with_trace):
    h = cfg.hop_latency
    trace = []
    cycle = 0
    acc = 0
    hops = 0
    for i in range(n):
        if i > 0:
            cycle += h
            hops += 1
            if with_trace:
                trace.extend([0] * h)
        acc = a[i] * b[i] + acc
        cycle += 1
        if with_trace:
            trace.append(1)
    cycle += h
    if with_trace:
        trace.extend([0] * h)
    return build_result(
        cycle,
        Matrix(1, 1, (acc,)),
        n,
        cfg.num_pes,
        phases={"reduce": cycle - h, "drain": h},
        transfer_counts={"pe_to_pe": hops, "pe_to_mem": 1},
        activity_trace=tuple(trace) if with_trace else None,
    )


def loop_grid(n, cfg, a, b, with_trace):
    rows, cols = cfg.extents
    h = cfg.hop_latency
    row_lengths = [min(cols, n - r * cols) for r in range(rows) if n - r * cols > 0]
    occupied_rows = len(row_lengths)
    max_len = max(row_lengths)

    row_sums = []
    pos = 0
    for length in row_lengths:
        s = 0
        for i in range(pos, pos + length):
            s = a[i] * b[i] + s
        row_sums.append(s)
        pos += length
    total = 0
    for s in row_sums:
        total += s

    stage = h + 1
    row_phase = 1 + (max_len - 1) * stage
    col_phase = (occupied_rows - 1) * stage
    cycles = row_phase + col_phase + h
    hops = sum(length - 1 for length in row_lengths) + (occupied_rows - 1)

    trace = None
    if with_trace:
        t = [0] * cycles
        for length in row_lengths:
            for j in range(length):
                t[j * stage] += 1
        for step in range(1, occupied_rows):
            t[row_phase + step * stage - 1] += 1
        trace = tuple(t)
    return build_result(
        cycles,
        Matrix(1, 1, (total,)),
        n + (occupied_rows - 1),
        cfg.num_pes,
        phases={"row_reduce": row_phase, "col_reduce": col_phase, "drain": h},
        transfer_counts={"pe_to_pe": hops, "pe_to_mem": 1},
        activity_trace=trace,
    )


def loop_tree(n, fanout, level_latency, a, b, with_trace):
    levels = tree_time(n, fanout)
    values = [x * y for x, y in zip(a, b)]
    transfers = {"pe_to_pe": 0}
    if levels == 0:
        transfers["pe_to_mem"] = 1
    for level in range(levels):
        key = "pe_to_ce" if level == 0 else "ce_to_ce"
        transfers[key] = transfers.get(key, 0) + len(values)
        values = [sum(values[i : i + fanout]) for i in range(0, len(values), fanout)]
    if levels > 0:
        transfers["ce_to_mem"] = 1
    return build_result(
        1 + levels * level_latency,
        Matrix(1, 1, (values[0],)),
        n,
        n,
        phases={"multiply": 1, "reduce": levels * level_latency},
        transfer_counts=transfers,
        activity_trace=tuple([n] + [0] * (levels * level_latency)) if with_trace else None,
    )


CONTAINERS = (tuple, list, np.array)


@st.composite
def instances(draw):
    top = draw(st.sampled_from((4, 40, 400, 4000)))
    n = draw(st.integers(max(1, top // 10 - 3), top))
    hop = draw(st.integers(1, 4))
    cols = draw(st.one_of(st.none(), st.integers(1, n + 3)))
    spare_rows = draw(st.integers(0, 2))
    fanout = draw(st.integers(2, 9))
    level_latency = draw(st.integers(1, 4))
    seed = draw(st.integers(0, 2**30))
    container = draw(st.one_of(st.none(), st.sampled_from(CONTAINERS)))
    return n, hop, cols, spare_rows, fanout, level_latency, seed, container


def assert_same(got, want):
    assert got == want
    if got.activity_trace is not None:
        assert all(type(x) is int for x in got.activity_trace)


@settings(derandomize=True, max_examples=120, deadline=None, database=None)
@given(instances())
@example((1, 1, None, 0, 2, 1, 0, None))  # one PE: no hop, no tree level
@example((1, 3, 1, 2, 5, 2, 4, tuple))  # explicit operands, grid taller than needed
@example((7, 2, 3, 0, 3, 1, 5, None))  # ragged last grid row and tree group
@example((16, 1, 4, 0, 4, 3, 6, list))  # exact square grid and full tree
@example((12, 1, 12, 0, 2, 1, 7, np.array))  # a single grid row
@example((12, 2, 1, 0, 13, 1, 8, None))  # a single grid column; fanout > n
def test_reductions_match_python_loops(inst):
    n, hop, cols, spare_rows, fanout, level_latency, seed, container = inst
    a, b = randint_vectors(n, seed)
    if container is None:
        kwargs = {"seed": seed}
    else:
        kwargs = {"operands": (container(a), container(b))}
    chain = MeshConfig.chain(n, hop)
    if cols is None:
        side = covering_side(n)
        grid = MeshConfig.grid(side, side, hop)
    else:
        grid = MeshConfig.grid(-(-n // cols) + spare_rows, cols, hop)
    grid_arg = None if cols is None and hop == 1 else grid  # None: the default square
    for with_trace in (False, True):
        assert_same(
            simulate_chain_reduction(n, chain, with_trace=with_trace, **kwargs),
            loop_chain(n, chain, a, b, with_trace),
        )
        assert_same(
            simulate_grid_reduction(n, grid_arg, with_trace=with_trace, **kwargs),
            loop_grid(n, grid, a, b, with_trace),
        )
        assert_same(
            simulate_tree_inner_product(n, fanout, level_latency, with_trace=with_trace, **kwargs),
            loop_tree(n, fanout, level_latency, a, b, with_trace),
        )


def test_extreme_operands_stay_exact():
    """|sum| reaches n * 2**14; int64 holds it exactly."""
    n = 5000
    a, b = [-128] * n, [-128] * n
    want = n * 128 * 128
    assert simulate_chain_reduction(n, operands=(a, b)).scalar == want
    assert simulate_grid_reduction(n, operands=(a, b)).scalar == want
    assert simulate_tree_inner_product(n, 3, operands=(a, b)).scalar == want
    assert simulate_tree_inner_product(n, 3, operands=(a, [127] * n)).scalar == -n * 128 * 127
