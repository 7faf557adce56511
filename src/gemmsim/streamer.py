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

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .bounds import CollectiveKind, tree_time
from .results import SimResult, build_result
from .workload import (
    Matrix,
    outer_product_schedule,
    require_operand_range,
    resolve_vector_operands,
)

DEFAULT_FANOUT = 4
DEFAULT_LEVEL_LATENCY = 1


@dataclass(frozen=True)
class CETree:
    """Fan-out hierarchy over num_pes MAC units.

    levels is the CE depth between the memory port and any PE; every PE is
    reachable from the root in exactly that many CE hops.  level_latency is
    the clocks one CE level adds in either direction (long wires are assumed
    pipelineable, so this is a constant).  root_port_width is the operand
    elements the memory interface moves per clock, in each direction.
    """

    num_pes: int
    fanout: int
    levels: int
    level_latency: int
    root_port_width: int

    def __post_init__(self) -> None:
        if self.num_pes < 1:
            raise ValueError(f"PE count must be >= 1, got {self.num_pes}")
        if self.fanout < 2:
            raise ValueError(f"fanout must be >= 2, got {self.fanout}")
        if self.level_latency < 1:
            raise ValueError(f"level latency must be >= 1, got {self.level_latency}")
        if self.root_port_width < 1:
            raise ValueError(f"root port width must be >= 1, got {self.root_port_width}")
        if self.levels != tree_time(self.num_pes, self.fanout):
            raise ValueError(
                f"levels={self.levels} inconsistent with {self.num_pes} PEs at fanout {self.fanout}"
            )


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
    levels = tree_time(num_pes, fanout)  # validates num_pes and fanout
    return CETree(num_pes, fanout, levels, level_latency, root_port_width)


def tree_collective_latency(tree: CETree, kind: CollectiveKind) -> int:
    """Clocks for one traversal of the hierarchy; identical for all four kinds."""
    if not isinstance(kind, CollectiveKind):
        raise ValueError(f"expected a CollectiveKind, got {kind!r}")
    return tree.levels * tree.level_latency


@dataclass(frozen=True)
class PEAssignment:
    """Partition of the m x n output space into per-PE contiguous ranges.

    Outputs are linearized row-major and split into num_pes balanced chunks
    (sizes differ by at most one), so every PE owns at least one output
    whenever num_pes <= m * n.  A PE's accumulator count equals the size of
    its range.
    """

    out_rows: int
    out_cols: int
    starts: tuple[int, ...]  # starts[q] .. starts[q+1] is PE q's range

    @classmethod
    def balanced(cls, out_rows: int, out_cols: int, num_pes: int) -> "PEAssignment":
        total = out_rows * out_cols
        if num_pes < 1:
            raise ValueError(f"PE count must be >= 1, got {num_pes}")
        if num_pes > total:
            raise ValueError(
                f"{num_pes} PEs cannot each own an output of a {out_rows}x{out_cols} result"
            )
        base, extra = divmod(total, num_pes)  # the first `extra` PEs own one more
        starts = tuple(q * base + min(q, extra) for q in range(num_pes + 1))
        return cls(out_rows, out_cols, starts)

    @property
    def num_pes(self) -> int:
        return len(self.starts) - 1

    @property
    def max_outputs(self) -> int:
        return max(self.starts[q + 1] - self.starts[q] for q in range(self.num_pes))


def _cs_transfer_counts(tree: CETree, assign: PEAssignment, k: int) -> dict[str, int]:
    """Aggregate per-link-kind transfer counts for one full GEMM.

    Downward counts follow multicast semantics: an element crosses the root
    port once per step it is streamed in, and is replicated by CEs only at
    branch points whose subtrees need it.  Every A row slice A[i, *] is
    needed by the PEs owning something in row i; every B column slice
    B[*, j] by the PEs owning something in column j.  The same need sets
    apply to each of the k inner-dimension slices.

    Owners never decrease along a row or down a column, so the subtrees of
    g leaves needing row or column slices number m + n plus the changes of
    owner // g along the rows and down the columns.
    """
    m, n = assign.out_rows, assign.out_cols
    levels, fanout = tree.levels, tree.fanout
    if levels == 0:
        return {
            "mem_to_pe": k * (m + n),
            "pe_to_mem": m * n,
            "pe_to_pe": 0,
        }

    owner = np.searchsorted(assign.starts, np.arange(m * n), side="right").reshape(m, n) - 1

    def subtrees(group: int) -> int:
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
    a, b = resolve_vector_operands(n, operands, seed)
    levels = tree_time(n, fanout)
    cycles = 1 + levels * level_latency

    values = a * b
    transfers = {"pe_to_pe": 0}
    if levels == 0:
        transfers["pe_to_mem"] = 1
    for level in range(levels):
        key = "pe_to_ce" if level == 0 else "ce_to_ce"
        transfers[key] = transfers.get(key, 0) + len(values)
        # Each CE sums one group of `fanout`; the last group is zero-padded.
        values = np.pad(values, (0, -len(values) % fanout)).reshape(-1, fanout).sum(axis=1)
    if levels > 0:
        transfers["ce_to_mem"] = 1

    trace = None
    if with_trace:
        trace = tuple([n] + [0] * (levels * level_latency))

    phases = {"multiply": 1, "reduce": levels * level_latency}
    return build_result(
        cycles,
        Matrix(1, 1, values),
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

        cycles = levels*L  +  sum_t max(ceil(E_t/W), owned_max*b_t)
                 +  levels*L + max(ceil(m*n/W), owned_max)

    steady_state_utilization divides by the streaming span only, which makes
    it independent of the inner dimension for a fixed (m, n, P, W): there is
    no occupancy cliff at low k.
    """
    if a.cols != b.rows:
        raise ValueError(f"dimension mismatch: {a.rows}x{a.cols} . {b.rows}x{b.cols}")
    require_operand_range(a, b)
    m, k, n = a.rows, a.cols, b.cols
    if block_width < 1:
        raise ValueError(f"block width must be >= 1, got {block_width}")
    assign = PEAssignment.balanced(m, n, tree.num_pes)
    steps = outer_product_schedule(a, b, min(block_width, k))
    owned_max = assign.max_outputs
    width = tree.root_port_width

    c_acc = np.zeros((m, n), dtype=np.int64)
    stream_cycles = 0
    span_per_step: list[int] = []
    for step in steps:
        bw = step.width
        root_clocks = math.ceil((m * bw + bw * n) / width)
        pe_clocks = owned_max * bw
        span = max(root_clocks, pe_clocks)
        span_per_step.append(span)
        stream_cycles += span
        c_acc += step.col_block.to_numpy() @ step.row_block.to_numpy()

    fill = tree_collective_latency(tree, CollectiveKind.BROADCAST)
    drain = tree_collective_latency(tree, CollectiveKind.GATHER)
    drain += max(math.ceil(m * n / width), owned_max)
    cycles = fill + stream_cycles + drain
    mac_ops = m * n * k

    trace = None
    if with_trace:
        t = [0] * cycles
        pos = fill
        for step, span in zip(steps, span_per_step):
            macs = m * n * step.width
            base, extra = divmod(macs, span)
            for c in range(span):
                t[pos + c] = base + (1 if c < extra else 0)
            pos += span
        trace = tuple(t)

    phases = {"fill": fill, "stream": stream_cycles, "drain": drain}
    return build_result(
        cycles,
        Matrix.from_numpy(c_acc),
        mac_ops,
        tree.num_pes,
        steady_cycles=stream_cycles,
        phases=phases,
        transfer_counts=_cs_transfer_counts(tree, assign, k),
        activity_trace=trace,
    )
