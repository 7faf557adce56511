"""Differential tests: streamer transfer counts against two references.

``_cs_transfer_counts`` counts the CE subtrees that need each operand slice
from the owner-group starts of each tree level, read as strided slices of one
array of every PE's range start (``starts[g::g]`` and their predecessors
``starts[:-g:g]``).  The first reference enumerates the need sets output by
output, with one ``owner_of`` bisect per output over the partition's range
starts and a set of group ids per column.  The second is the counting it
replaced: an m*n owner grid per level, whose changes along rows and down
columns are counted with ``np.diff``.  It is cheap enough to reach 512x512
outputs, which the first is not.  Shifting the predecessors by one start,
or counting the in-row starts of every PE past the first group instead of
the group starts alone, fails both tests.
"""

from bisect import bisect_right

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gemmsim import (
    GemmShape,
    build_ce_tree,
    make_gemm,
    reference_matmul,
    simulate_cs_gemm,
)
from gemmsim.streamer import _cs_transfer_counts


def range_starts(outputs, pes):
    """Row-major balanced partition: PE q owns outputs starts[q] .. starts[q+1] - 1."""
    base, extra = divmod(outputs, pes)  # the first `extra` PEs own one more
    return [q * base + min(q, extra) for q in range(pes + 1)]


def test_range_starts_example():
    # 24 outputs over 5 PEs: sizes 5, 5, 5, 5, 4 tile the output.
    assert range_starts(4 * 6, 5) == [0, 5, 10, 15, 20, 24]


def need_set_transfer_counts(tree, m, n, k):
    levels, fanout = tree.levels, tree.fanout
    if levels == 0:
        return {"mem_to_pe": k * (m + n), "pe_to_mem": m * n, "pe_to_pe": 0}

    starts = range_starts(m * n, tree.num_pes)

    def owner_of(i, j):
        return bisect_right(starts, i * n + j) - 1

    row_intervals = [(owner_of(i, 0), owner_of(i, n - 1)) for i in range(m)]
    col_sets = [sorted({owner_of(i, j) for i in range(m)}) for j in range(n)]

    ce_to_pe = sum(hi - lo + 1 for lo, hi in row_intervals)
    ce_to_pe += sum(len(s) for s in col_sets)

    ce_to_ce_down = 0
    for level in range(2, levels + 1):
        group = fanout ** (levels - level)
        ce_to_ce_down += sum(hi // group - lo // group + 1 for lo, hi in row_intervals)
        ce_to_ce_down += sum(len({q // group for q in s}) for s in col_sets)

    outputs = m * n
    return {
        "mem_to_ce": k * (m + n),
        "ce_to_ce": k * ce_to_ce_down + outputs * (levels - 1),
        "ce_to_pe": k * ce_to_pe,
        "pe_to_ce": outputs,
        "ce_to_mem": outputs,
        "pe_to_pe": 0,
    }


@st.composite
def instances(draw):
    m = draw(st.integers(1, 12))
    n = draw(st.integers(1, 12))
    pes = draw(st.one_of(st.just(m * n), st.integers(1, m * n)))
    fanout = draw(st.integers(2, 5))
    k = draw(st.integers(1, 6))
    block_width = draw(st.integers(1, k))
    return m, n, k, pes, fanout, block_width


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(instances())
@example((1, 1, 3, 1, 2, 1))  # single PE: levels == 0
@example((5, 7, 2, 1, 4, 2))  # levels == 0 with every output on one PE
@example((6, 7, 2, 42, 2, 1))  # P == m*n at each fanout
@example((6, 7, 2, 42, 3, 1))
@example((6, 7, 2, 42, 4, 2))
@example((12, 12, 1, 144, 5, 1))
@example((12, 1, 3, 7, 2, 2))  # a single output column
@example((1, 12, 3, 7, 3, 1))  # a single output row
@example((4, 6, 3, 5, 2, 1))  # 24 outputs over 5 PEs: ranges of 5, 5, 5, 5, 4
def test_transfer_counts_match_need_set_enumeration(inst):
    m, n, k, pes, fanout, block_width = inst
    tree = build_ce_tree(pes, fanout)
    expected = need_set_transfer_counts(tree, m, n, k)
    assert _cs_transfer_counts(tree, m, n, k) == expected

    a, b = make_gemm(GemmShape(m, n, k), m * 1000 + n * 10 + k)
    res = simulate_cs_gemm(a, b, tree, block_width)
    assert res.transfer_counts == expected
    assert res.result == reference_matmul(a, b)


def owner_grid_transfer_counts(tree, m, n, k):
    levels, fanout = tree.levels, tree.fanout
    if levels == 0:
        return {"mem_to_pe": k * (m + n), "pe_to_mem": m * n, "pe_to_pe": 0}

    base, extra = divmod(m * n, tree.num_pes)
    owner = np.arange(-extra, m * n - extra) // base  # (i - extra) // base
    owner = np.maximum(owner, np.arange(m * n) // (base + 1), out=owner).reshape(m, n)

    def subtrees(group):
        g = owner // group
        changes = np.count_nonzero(np.diff(g, axis=1)) + np.count_nonzero(np.diff(g, axis=0))
        return m + n + int(changes)

    ce_to_pe = subtrees(1)
    ce_to_ce_down = sum(subtrees(fanout**e) for e in range(levels - 1))

    outputs = m * n
    return {
        "mem_to_ce": k * (m + n),
        "ce_to_ce": k * ce_to_ce_down + outputs * (levels - 1),
        "ce_to_pe": k * ce_to_pe,
        "pe_to_ce": outputs,
        "ce_to_mem": outputs,
        "pe_to_pe": 0,
    }


@pytest.mark.parametrize("fanout", [2, 3, 4, 5])
@pytest.mark.parametrize("m, n", [(256, 256), (512, 512)])
def test_transfer_counts_match_owner_grid_at_large_shapes(m, n, fanout):
    # One PE, one output per PE, and PE counts that leave ragged ranges.
    for pes in (1, m * n, 1000, m * n - 1, 3 * n + 7):
        assert (m * n) % pes != 0 or pes in (1, m * n)
        tree = build_ce_tree(pes, fanout)
        assert _cs_transfer_counts(tree, m, n, 64) == owner_grid_transfer_counts(tree, m, n, 64)
