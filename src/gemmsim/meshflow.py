"""Store-and-forward mesh simulator for inner products.

The mesh obeys two rules: data advances one neighbor hop per hop_latency
clocks, and partial results reach memory only by traversing PEs in spatial
order.  Operand pairs are preloaded into the PEs at no modeled cost; the
cycles counted are the MAC-and-forward sweep plus the final hop that
delivers the scalar into memory on the far side.  Each reduction stage costs
one MAC clock at the receiving PE plus hop_latency transfer clocks, so a
length-n chain takes n * (1 + hop_latency) cycles.  The chain and the grid
run one sweep: a chain of extent e is the grid's one-row case, a 1 x e mesh
with an empty column phase.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .bounds import fisher_bound, inner_product_bound_input
from .results import SimResult, build_result
from .workload import Matrix, Record, as_count, resolve_vector_operands


class MeshConfig(Record):
    """A 1-D chain or 2-D grid of PEs with a fixed per-hop transfer latency."""

    _fields = ("extents", "hop_latency")

    def __init__(self, extents: tuple[int, ...], hop_latency: int = 1) -> None:
        extents = tuple(as_count(e, "extent", 1) for e in extents)
        self._set(extents, as_count(hop_latency, "hop latency", 1))
        if self.dimension not in (1, 2):
            raise ValueError(f"mesh dimension must be 1 or 2, got {self.dimension}")

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


def _sweep(
    n: int,
    cfg: MeshConfig,
    operands: tuple[Sequence[int], Sequence[int]] | None,
    seed: int,
    with_trace: bool,
    stage_names: tuple[str, ...],
) -> SimResult:
    """Row-major MAC-and-forward sweep on rows of extents[-1] PEs.

    stage_names names the row phase and, for a grid, the column phase; a
    chain is the one-row case, whose column phase is empty.  With no config
    the sweep runs on the smallest chain or square grid that holds n pairs.
    """
    n = as_count(n, "inner product length", 1)
    dimension = len(stage_names)
    if cfg is None:
        side = n if dimension == 1 else covering_side(n)
        cfg = MeshConfig((side,) * dimension)
    if cfg.dimension != dimension:
        name = "chain" if dimension == 1 else "grid"
        raise ValueError(f"{name} reduction needs a {dimension}-D mesh config")
    if cfg.num_pes < n:
        raise ValueError(f"mesh extents {cfg.extents} too small for n={n}")
    a, b = resolve_vector_operands(n, operands, seed)
    h = cfg.hop_latency

    # Row-major occupancy: full rows of `cols` pairs, the last possibly partial.
    cols = cfg.extents[-1]
    occupied_rows = -(-n // cols)
    max_len = min(cols, n)
    last_len = n - (occupied_rows - 1) * cols

    stage = h + 1  # hop + MAC clock per reduction stage
    row_phase = 1 + (max_len - 1) * stage  # first MAC clock, then stages
    col_phase = (occupied_rows - 1) * stage
    cycles = row_phase + col_phase + h

    trace: tuple[int, ...] | None = None
    if with_trace:
        # Each stage's MAC clock, then its hop: every row MACs while the last
        # has pairs, the full rows after it, then one combine down the column.
        t = ([occupied_rows] + [0] * h) * last_len
        t += ([occupied_rows - 1] + [0] * h) * (max_len - last_len)
        t += ([1] + [0] * h) * (occupied_rows - 1)
        trace = tuple(t)

    return build_result(
        cycles,
        Matrix(1, 1, (int(np.dot(a, b)),)),
        n + (occupied_rows - 1),  # column combines occupy MAC units too
        cfg.num_pes,
        phases={**dict(zip(stage_names, (row_phase, col_phase))), "drain": h},
        # Rows hop n - occupied_rows times in all, then the column occupied_rows - 1.
        transfer_counts={"pe_to_pe": n - 1, "pe_to_mem": 1},
        activity_trace=trace,
    )


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
    return _sweep(n, cfg, operands, seed, with_trace, ("reduce",))


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
    return _sweep(n, cfg, operands, seed, with_trace, ("row_reduce", "col_reduce"))


def empirical_bound_ratio(n: int, dimension: int) -> float:
    """Simulated cycles over the analytic mesh bound for a length-n inner product.

    Runs the default chain or square grid (hop latency 1) and uses the
    documented I = 2n, K = 1, T = n accounting; the ratio is >= 1 for every
    n: the mesh never beats its own bound.
    """
    if dimension not in (1, 2):
        raise ValueError(f"mesh dimension must be 1 or 2, got {dimension}")
    simulate = simulate_chain_reduction if dimension == 1 else simulate_grid_reduction
    return simulate(n).cycles / fisher_bound(inner_product_bound_input(n, dimension))
