"""Collective-streaming fabric: a tree of CEs between memory and MAC-only PEs.

CEs replicate operands downward (broadcast/scatter) and concatenate or
combine results upward (gather/reduce), so no data ever hops PE-to-PE.  GEMM
runs as streamed outer products: each step's block column of A and block row
of B is multicast down the tree, every PE accumulates its owned outputs in
place, and the finished outputs are gathered up the tree once at the end.
Steps are pipelined through the hierarchy, so the tree fill and the gather
drain are paid once per GEMM, not once per step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .bounds import tree_time
from .results import SimResult, build_result
from .workload import (
    PRODUCT_MAX,
    Matrix,
    as_count,
    outer_product_schedule,  # unused: kept as perfbench's patch-site pin (ROADMAP item 1 part A)
    require_operand_range,
    resolve_vector_operands,
)

DEFAULT_FANOUT = 4
DEFAULT_LEVEL_LATENCY = 1

# In-range products are at most 2^14 in magnitude, so every partial sum of a
# dot product shorter than these is an integer of at most 2^24 or below 2^53:
# float32 or float64 holds it exactly, in whatever order BLAS adds.
FLOAT32_EXACT_K = 2**24 // PRODUCT_MAX
FLOAT64_EXACT_K = 2**53 // PRODUCT_MAX


@dataclass(frozen=True)
class CETree:
    """Fan-out hierarchy over num_pes MAC units.

    level_latency is the clocks one CE level adds in either direction (long
    wires are assumed pipelineable, so this is a constant).  root_port_width
    is the operand elements the memory interface moves per clock, in each
    direction.
    """

    num_pes: int
    fanout: int
    level_latency: int
    root_port_width: int

    def __post_init__(self) -> None:
        for name, label, minimum in (
            ("num_pes", "PE count", 1),
            ("fanout", "fanout", 2),
            ("level_latency", "level latency", 1),
            ("root_port_width", "root port width", 1),
        ):
            object.__setattr__(self, name, as_count(getattr(self, name), label, minimum))

    @property
    def levels(self) -> int:
        """CE depth between the memory port and every PE: ceil(log_fanout(num_pes))."""
        return tree_time(self.num_pes, self.fanout)


def build_ce_tree(
    num_pes: int,
    fanout: int = DEFAULT_FANOUT,
    level_latency: int = DEFAULT_LEVEL_LATENCY,
    root_port_width: int | None = None,
) -> CETree:
    """Smallest tree of the given fanout covering num_pes leaves.

    root_port_width defaults to the fanout.
    """
    if root_port_width is None:
        root_port_width = fanout
    return CETree(num_pes, fanout, level_latency, root_port_width)


def _cs_transfer_counts(tree: CETree, m: int, n: int, k: int) -> dict[str, int]:
    """Aggregate per-link-kind transfer counts for one full GEMM.

    Downward counts follow multicast semantics: an element crosses the root
    port once per step it is streamed in, and is replicated by CEs only at
    branch points whose subtrees need it.  Every A row slice A[i, *] is
    needed by the PEs owning something in row i; every B column slice
    B[*, j] by the PEs owning something in column j.  The same need sets
    apply to each of the k inner-dimension slices.

    Outputs are linearized row-major and split into num_pes contiguous,
    balanced ranges: with base, extra = divmod(m*n, num_pes), PE q owns the
    outputs from s_q = q*base + min(q, extra) up to s_(q+1).  Owners never
    decrease along a row or down a column, so the subtrees of g leaves needing
    row or column slices number m + n plus the changes of owner // g along
    the rows and down the columns.  Those changes sit at the group starts s_q
    for q = g, 2g, ... < num_pes.  The starts of all num_pes PEs, and which
    of them fall inside a row, are built once per call; each level reads its
    group starts and their predecessors as strided slices of that one array,
    so it costs O(num_pes / g).
    """
    levels, fanout = tree.levels, tree.fanout
    if levels == 0:
        return {
            "mem_to_pe": k * (m + n),
            "pe_to_mem": m * n,
            "pe_to_pe": 0,
        }

    outputs = m * n
    base, extra = divmod(outputs, tree.num_pes)
    q = np.arange(tree.num_pes, dtype=np.int64)
    starts = q * base + np.minimum(q, extra)
    along = starts % n != 0  # a start inside a row splits that row once

    def subtrees(group: int) -> int:
        # Owner groups change at the starts of PEs group, 2*group, ...
        at, prev = starts[group::group], starts[:-group:group]
        # Outputs u and u + n differ iff a start lies in (u, u + n]; count each
        # such u < outputs - n once, at the first start that covers it.
        down_cols = np.maximum(np.minimum(at, outputs - n) - np.maximum(prev, at - n), 0)
        return m + n + int(np.count_nonzero(along[group::group])) + int(down_cols.sum())

    ce_to_pe = subtrees(1)
    ce_to_ce_down = sum(subtrees(fanout**e) for e in range(levels - 1))

    return {
        "mem_to_ce": k * (m + n),
        "ce_to_ce": k * ce_to_ce_down + outputs * (levels - 1),
        "ce_to_pe": k * ce_to_pe,
        "pe_to_ce": outputs,
        "ce_to_mem": outputs,
        "pe_to_pe": 0,
    }


def simulate_tree_inner_product(
    n: int,
    fanout: int = 2,
    level_latency: int = 1,
    *,
    operands: tuple[Sequence[int], Sequence[int]] | None = None,
    seed: int = 0,
    with_trace: bool = False,
) -> SimResult:
    """Inner product with one MAC clock at n PEs and an in-tree reduction.

    Operand pairs are resident at the PEs; all n products fire in a single
    clock, then CEs combine them in groups of `fanout` per level, one level
    per level_latency clocks: cycles = 1 + ceil(log_fanout(n)) * L.  There is
    no PE-to-PE hop anywhere, which is what beats the mesh bound.
    """
    n = as_count(n, "inner product length", 1)
    fanout = as_count(fanout, "fanout", 2)
    level_latency = as_count(level_latency, "level latency", 1)
    levels = tree_time(n, fanout)
    a, b = resolve_vector_operands(n, operands, seed)
    cycles = 1 + levels * level_latency

    # Level l of CEs receives ceil(n / fanout**l) partial sums.
    transfers = {"pe_to_pe": 0}
    if levels == 0:
        transfers["pe_to_mem"] = 1
    else:
        transfers["pe_to_ce"] = n
        if levels > 1:
            transfers["ce_to_ce"] = sum(-(-n // fanout**level) for level in range(1, levels))
        transfers["ce_to_mem"] = 1

    trace = None
    if with_trace:
        trace = tuple([n] + [0] * (levels * level_latency))

    phases = {"multiply": 1, "reduce": levels * level_latency}
    return build_result(
        cycles,
        Matrix(1, 1, (int(np.dot(a, b)),)),
        n,
        n,
        phases=phases,
        transfer_counts=transfers,
        activity_trace=trace,
    )


def simulate_cs_gemm(
    a: Matrix,
    b: Matrix,
    tree: CETree,
    block_width: int = 1,
    *,
    with_trace: bool = False,
) -> SimResult:
    """GEMM as pipelined outer-product steps through the CE tree.

    Per step, the distinct operand elements (m*b for the A block column plus
    b*n for the B block row) cross the root port once each; CEs replicate
    them toward the PEs that own covered outputs, and each PE accumulates
    its outputs in place.  With steps pipelined, one step occupies the
    machine for max(root-port clocks, slowest PE's MAC clocks); the tree
    fill and the single final gather are paid once:

        cycles = levels*L  +  q*span(w) + span(r)
                 +  levels*L + max(ceil(m*n/W), owned_max)

    with w = min(block_width, k), q, r = divmod(k, w) and a step of width b
    spanning span(b) = max(ceil((m+n)*b/W), owned_max*b) clocks.

    steady_state_utilization divides by the streaming span only, which makes
    it independent of the inner dimension for a fixed (m, n, P, W): there is
    no occupancy cliff at low k.

    The steps fix the timing only; C itself is one BLAS product, exact
    because require_operand_range bounds every partial sum by k*2^14: in
    float32 while k < FLOAT32_EXACT_K = 2^10 (sums of at most 2^24), in
    float64 while k < FLOAT64_EXACT_K = 2^39 (below 2^53), and in int64
    beyond.
    """
    if a.cols != b.rows:
        raise ValueError(f"dimension mismatch: {a.rows}x{a.cols} . {b.rows}x{b.cols}")
    require_operand_range(a, b)
    m, k, n = a.rows, a.cols, b.cols
    block_width = as_count(block_width, "block width", 1)
    if tree.num_pes > m * n:
        raise ValueError(f"{tree.num_pes} PEs cannot each own an output of a {m}x{n} result")
    w = min(block_width, k)
    q, r = divmod(k, w)  # q full steps of width w, then one ragged step of width r
    owned_max = -(-m * n // tree.num_pes)  # PE 0 owns the largest range
    width = tree.root_port_width

    def span(bw: int) -> int:
        """Clocks a step of width bw holds the machine: root port or busiest PE."""
        return max(-(-(m + n) * bw // width), owned_max * bw)

    dtype = np.float32 if k < FLOAT32_EXACT_K else np.float64 if k < FLOAT64_EXACT_K else np.int64
    c = a.to_numpy().astype(dtype, copy=False) @ b.to_numpy().astype(dtype, copy=False)
    c = c.astype(np.int64, copy=False)
    stream_cycles = q * span(w) + span(r)

    fill = tree.levels * tree.level_latency  # one traversal of the hierarchy
    drain = fill + max(-(-m * n // width), owned_max)
    cycles = fill + stream_cycles + drain
    mac_ops = m * n * k

    trace = None
    if with_trace:
        # Each step spreads its m*n*bw MACs evenly over its span, the
        # remainder one per clock from the start.
        def step(bw: int) -> list[int]:
            clocks = span(bw)
            base, extra = divmod(m * n * bw, clocks)
            return [base + 1] * extra + [base] * (clocks - extra)

        trace = tuple([0] * fill + step(w) * q + (step(r) if r else []) + [0] * drain)

    phases = {"fill": fill, "stream": stream_cycles, "drain": drain}
    return build_result(
        cycles,
        Matrix.from_numpy(c),
        mac_ops,
        tree.num_pes,
        steady_cycles=stream_cycles,
        phases=phases,
        transfer_counts=_cs_transfer_counts(tree, m, n, k),
        activity_trace=trace,
    )
