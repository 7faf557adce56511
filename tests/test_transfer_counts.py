"""Differential test: streamer transfer counts against per-output need sets.

``_cs_transfer_counts`` counts the CE subtrees that need each operand slice
from the changes of the owner grid along rows and columns.  The reference
below enumerates the need sets output by output, with one ``owner_of``
bisect per output and a set of group ids per column, and the two must agree
exactly.
"""

from bisect import bisect_right

from hypothesis import example, given, settings
from hypothesis import strategies as st

from gemmsim import (
    GemmShape,
    PEAssignment,
    build_ce_tree,
    make_gemm,
    reference_matmul,
    simulate_cs_gemm,
)
from gemmsim.streamer import _cs_transfer_counts


def owner_of(assign, i, j):
    return bisect_right(assign.starts, i * assign.out_cols + j) - 1


def need_set_transfer_counts(tree, assign, k):
    m, n = assign.out_rows, assign.out_cols
    levels, fanout = tree.levels, tree.fanout
    if levels == 0:
        return {"mem_to_pe": k * (m + n), "pe_to_mem": m * n, "pe_to_pe": 0}

    row_intervals = [(owner_of(assign, i, 0), owner_of(assign, i, n - 1)) for i in range(m)]
    col_sets = [sorted({owner_of(assign, i, j) for i in range(m)}) for j in range(n)]

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
def test_transfer_counts_match_need_set_enumeration(inst):
    m, n, k, pes, fanout, block_width = inst
    tree = build_ce_tree(pes, fanout)
    assign = PEAssignment.balanced(m, n, pes)
    expected = need_set_transfer_counts(tree, assign, k)
    assert _cs_transfer_counts(tree, assign, k) == expected

    a, b = make_gemm(GemmShape(m, n, k), m * 1000 + n * 10 + k)
    res = simulate_cs_gemm(a, b, tree, block_width)
    assert res.transfer_counts == expected
    assert res.result == reference_matmul(a, b)
