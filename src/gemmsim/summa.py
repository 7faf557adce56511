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

from .bounds import CollectiveKind, CommModel, collective_cost
from .workload import GemmShape, Record, as_count, as_real


class ClusterModel(Record):
    """Process grid, link cost model, and per-node compute rate."""

    _fields = ("p_rows", "p_cols", "comm", "node_mac_rate", "element_bytes")

    def __init__(
        self, p_rows: int, p_cols: int, comm: CommModel, node_mac_rate: float, element_bytes: int = 4
    ) -> None:
        if not isinstance(comm, CommModel):
            raise ValueError(f"comm must be a CommModel, got {comm!r}")
        super().__init__(
            as_count(p_rows, "grid rows", 1),
            as_count(p_cols, "grid cols", 1),
            comm,
            as_real(node_mac_rate, "node MAC rate"),
            as_count(element_bytes, "element bytes", 1),
        )
        if not 0 < self.node_mac_rate < math.inf:
            raise ValueError(f"node MAC rate must be finite and > 0, got {self.node_mac_rate}")

    @property
    def num_nodes(self) -> int:
        return self.p_rows * self.p_cols


class SummaResult(Record):
    """Costs in seconds and counts of one SUMMA run.

    comm_latency_time is the alpha-only part of comm_time (equal to it when
    beta = 0), comm_bandwidth_time the beta-only part (equal when alpha = 0).
    """

    _fields = (
        "total_time", "comm_time", "comp_time", "steps", "row_broadcasts", "col_broadcasts",
        "comm_latency_time", "comm_bandwidth_time", "mac_ops",
    )


def simulate_summa(shape: GemmShape, block_width: int, cluster: ClusterModel) -> SummaResult:
    """Cost one SUMMA run: ceil(k/b) steps of two broadcasts each.

    Block heights/widths use ceiling partitioning when the matrix does not
    divide the grid, and each step's cost uses the actual bytes of its
    (possibly ragged) blocks.  Computation and communication do not overlap:
    total_time = comp_time + comm_time.  Pricing takes O(1) time in k; a
    broadcast that costs more seconds than a float holds raises OverflowError.
    """
    from fractions import Fraction  # imported here: no other model needs it

    block_width = as_count(block_width, "block width", 1)
    m, n, k = shape.m, shape.n, shape.k
    rows_per_node = math.ceil(m / cluster.p_rows)
    cols_per_node = math.ceil(n / cluster.p_cols)
    eb = cluster.element_bytes
    b = min(block_width, k)
    full, ragged = divmod(k, b)
    steps = full + (ragged > 0)

    def broadcast(participants: int, nbytes: int, model: CommModel) -> Fraction:
        cost = collective_cost(CollectiveKind.BROADCAST, participants, nbytes, model)
        if cost == math.inf:
            raise OverflowError(
                f"a broadcast of {nbytes} bytes among {participants} nodes costs more seconds "
                f"than a float holds (alpha {model.alpha}, beta {model.beta})"
            )
        return Fraction(cost)

    def step(width: int, model: CommModel) -> Fraction:
        """Exact cost of one step's two broadcasts, for blocks of the given width."""
        row_panel = broadcast(cluster.p_cols, rows_per_node * width * eb, model)
        return row_panel + broadcast(cluster.p_rows, width * cols_per_node * eb, model)

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
