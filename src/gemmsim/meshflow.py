"""Store-and-forward mesh simulator for inner products.

The mesh obeys two rules: data advances one neighbor hop per hop_latency
clocks, and partial results reach memory only by traversing PEs in spatial
order.  Operand pairs are preloaded into the PEs at no modeled cost; the
cycles counted are the MAC-and-forward sweep plus the final hop that
delivers the scalar into memory on the far side.  Each reduction stage costs
one MAC clock at the receiving PE plus hop_latency transfer clocks, so a
length-n chain takes n * (1 + hop_latency) cycles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .bounds import fisher_bound, inner_product_bound_input
from .results import SimResult, build_result
from .workload import Matrix, resolve_vector_operands


@dataclass(frozen=True)
class MeshConfig:
    """A 1-D chain or 2-D grid of PEs with a fixed per-hop transfer latency."""

    extents: tuple[int, ...]
    hop_latency: int = 1

    def __post_init__(self) -> None:
        if not isinstance(self.extents, tuple):
            object.__setattr__(self, "extents", tuple(self.extents))
        if self.dimension not in (1, 2):
            raise ValueError(f"mesh dimension must be 1 or 2, got {self.dimension}")
        if any(e < 1 for e in self.extents):
            raise ValueError(f"extents must be >= 1, got {self.extents}")
        if self.hop_latency < 1:
            raise ValueError(f"hop latency must be >= 1, got {self.hop_latency}")

    @classmethod
    def chain(cls, extent: int, hop_latency: int = 1) -> "MeshConfig":
        return cls((extent,), hop_latency)

    @classmethod
    def grid(cls, rows: int, cols: int, hop_latency: int = 1) -> "MeshConfig":
        return cls((rows, cols), hop_latency)

    @property
    def dimension(self) -> int:
        return len(self.extents)

    @property
    def num_pes(self) -> int:
        return math.prod(self.extents)


def covering_side(n: int) -> int:
    """Side of the smallest square grid with at least n PEs."""
    side = math.isqrt(n)
    return side if side * side >= n else side + 1


def simulate_chain_reduction(
    n: int,
    cfg: MeshConfig | None = None,
    *,
    operands: tuple[Sequence[int], Sequence[int]] | None = None,
    seed: int = 0,
    with_trace: bool = False,
) -> SimResult:
    """Inner product on a 1-D chain.

    The running sum starts at the memory-side PE and visits every PE in
    order; each visit is one MAC clock (a_i * b_i + incoming) after
    hop_latency transfer clocks, and the final scalar pays one more hop into
    the collecting memory at the far end.
    """
    if cfg is None:
        cfg = MeshConfig.chain(n)
    if cfg.dimension != 1:
        raise ValueError("chain reduction needs a 1-D mesh config")
    if cfg.extents[0] < n:
        raise ValueError(f"chain extent {cfg.extents[0]} too small for n={n}")
    a, b = resolve_vector_operands(n, operands, seed)
    h = cfg.hop_latency

    # n MAC clocks, a hop between consecutive PEs, and the exit hop.
    acc = int(np.dot(a, b))
    hops = n - 1
    cycle = n * (1 + h)
    trace = tuple(([1] + [0] * h) * n) if with_trace else None

    transfers = {"pe_to_pe": hops, "pe_to_mem": 1}
    phases = {"reduce": cycle - h, "drain": h}
    return build_result(
        cycle,
        Matrix(1, 1, (acc,)),
        n,
        cfg.num_pes,
        phases=phases,
        transfer_counts=transfers,
        activity_trace=trace,
    )


def simulate_grid_reduction(
    n: int,
    cfg: MeshConfig | None = None,
    *,
    operands: tuple[Sequence[int], Sequence[int]] | None = None,
    seed: int = 0,
    with_trace: bool = False,
) -> SimResult:
    """Inner product on a 2-D grid: rows reduce in parallel, then the result column.

    Operand pairs sit row-major in the grid.  Every row runs a chain-style
    MAC sweep toward column 0 simultaneously; the column phase then combines
    the row sums southward (each combine is one MAC-unit clock plus a hop),
    and the scalar exits the grid with one final hop.  The row phase waits
    for the longest row, keeping the schedule deterministic.
    """
    if cfg is None:
        side = covering_side(n)
        cfg = MeshConfig.grid(side, side)
    if cfg.dimension != 2:
        raise ValueError("grid reduction needs a 2-D mesh config")
    rows, cols = cfg.extents
    if rows * cols < n:
        raise ValueError(f"grid {rows}x{cols} too small for n={n}")
    a, b = resolve_vector_operands(n, operands, seed)
    h = cfg.hop_latency

    # Row-major occupancy: full rows of `cols` pairs, the last possibly partial.
    occupied_rows = -(-n // cols)
    max_len = min(cols, n)
    last_len = n - (occupied_rows - 1) * cols

    total = int(np.dot(a, b))

    stage = h + 1  # hop + MAC clock per reduction stage
    row_phase = 1 + (max_len - 1) * stage  # first MAC clock, then stages
    col_phase = (occupied_rows - 1) * stage
    cycles = row_phase + col_phase + h

    # Rows hop n - occupied_rows times in all, then the column occupied_rows - 1.
    hops = n - 1
    mac_ops = n + (occupied_rows - 1)  # column combines occupy MAC units too

    trace: tuple[int, ...] | None = None
    if with_trace:
        t = [0] * cycles
        for j in range(max_len):
            t[j * stage] = occupied_rows - (j >= last_len)  # rows MACing at stage j
        for step in range(1, occupied_rows):
            t[row_phase + step * stage - 1] += 1
        trace = tuple(t)

    transfers = {"pe_to_pe": hops, "pe_to_mem": 1}
    phases = {"row_reduce": row_phase, "col_reduce": col_phase, "drain": h}
    return build_result(
        cycles,
        Matrix(1, 1, (total,)),
        mac_ops,
        cfg.num_pes,
        phases=phases,
        transfer_counts=transfers,
        activity_trace=trace,
    )


def empirical_bound_ratio(n: int, dimension: int, hop_latency: int = 1) -> float:
    """Simulated cycles over the analytic mesh bound for a length-n inner product.

    Uses the documented I = 2n, K = 1, T = n accounting.  With hop_latency 1
    the ratio is >= 1 for every n: the mesh never beats its own bound.
    """
    if dimension == 1:
        sim = simulate_chain_reduction(n, MeshConfig.chain(n, hop_latency))
    elif dimension == 2:
        side = covering_side(n)
        sim = simulate_grid_reduction(n, MeshConfig.grid(side, side, hop_latency))
    else:
        raise ValueError(f"mesh dimension must be 1 or 2, got {dimension}")
    return sim.cycles / fisher_bound(inner_product_bound_input(n, dimension))
