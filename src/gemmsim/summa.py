"""Analytic SUMMA on a process grid with the alpha-beta collective model.

Closed-form evaluation, not an event loop: per outer-product step, the owner
of the current block column broadcasts an (m/p_rows) x b panel along each
process row and the owner of the block row broadcasts a b x (n/p_cols)
panel along each process column; reduction is in place at every node, so no
step pays a reduce or gather.  Block width is a free parameter: nothing
couples it to the grid shape.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .bounds import CollectiveKind, CommModel, collective_cost
from .workload import GemmShape


@dataclass(frozen=True)
class ClusterModel:
    """Process grid, link cost model, and per-node compute rate."""

    p_rows: int
    p_cols: int
    comm: CommModel
    node_mac_rate: float
    element_bytes: int = 4

    def __post_init__(self) -> None:
        if self.p_rows < 1 or self.p_cols < 1:
            raise ValueError(f"grid must be at least 1x1, got {self.p_rows}x{self.p_cols}")
        if self.node_mac_rate <= 0:
            raise ValueError(f"node MAC rate must be positive, got {self.node_mac_rate}")
        if self.element_bytes < 1:
            raise ValueError(f"element width must be >= 1 byte, got {self.element_bytes}")

    @property
    def num_nodes(self) -> int:
        return self.p_rows * self.p_cols


@dataclass(frozen=True)
class SummaResult:
    total_time: float
    comm_time: float
    comp_time: float
    steps: int
    row_broadcasts: int
    col_broadcasts: int
    comm_latency_time: float  # alpha-only part; equals comm_time when beta = 0
    comm_bandwidth_time: float  # beta-only part; equals comm_time when alpha = 0
    mac_ops: int


def simulate_summa(shape: GemmShape, block_width: int, cluster: ClusterModel) -> SummaResult:
    """Cost one SUMMA run: ceil(k/b) steps of two broadcasts each.

    Block heights/widths use ceiling partitioning when the matrix does not
    divide the grid, and each step's cost uses the actual bytes of its
    (possibly ragged) blocks.  Computation and communication do not overlap:
    total_time = comp_time + comm_time.  Pricing takes O(1) time in k; an
    infinite cost raises OverflowError.
    """
    from fractions import Fraction  # imported here: no other model needs it

    if block_width < 1:
        raise ValueError(f"block width must be >= 1, got {block_width}")
    m, n, k = shape.m, shape.n, shape.k
    rows_per_node = math.ceil(m / cluster.p_rows)
    cols_per_node = math.ceil(n / cluster.p_cols)
    eb = cluster.element_bytes
    b = min(block_width, k)
    full, ragged = divmod(k, b)
    steps = full + (ragged > 0)

    def step(width: int, model: CommModel) -> Fraction:
        """Exact cost of one step's two broadcasts, for blocks of the given width."""
        return sum(
            Fraction(collective_cost(CollectiveKind.BROADCAST, participants, nbytes, model))
            for participants, nbytes in (
                (cluster.p_cols, rows_per_node * width * eb),
                (cluster.p_rows, width * cols_per_node * eb),
            )
        )

    def comm(model: CommModel) -> float:
        """Every step's cost, summed exactly and rounded once, as math.fsum would.

        Full-width steps all cost the same.  A width-0 step would still pay
        alpha, so the ragged step is added only if there is one.
        """
        return float(full * step(b, model) + (step(ragged, model) if ragged else 0))

    comm_time = comm(cluster.comm)
    comp_time = shape.macs / (cluster.num_nodes * cluster.node_mac_rate)
    return SummaResult(
        total_time=comp_time + comm_time,
        comm_time=comm_time,
        comp_time=comp_time,
        steps=steps,
        row_broadcasts=steps,
        col_broadcasts=steps,
        comm_latency_time=comm(CommModel(cluster.comm.alpha, 0.0)),
        comm_bandwidth_time=comm(CommModel(0.0, cluster.comm.beta)),
        mac_ops=shape.macs,
    )
