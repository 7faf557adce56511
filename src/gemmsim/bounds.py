"""Analytic models: mesh lower bound, tree depth, dark silicon, collective costs.

No event simulation lives here; everything is a closed-form evaluation that
the simulators and the validation suite compare themselves against.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


@dataclass(frozen=True)
class MeshBoundInput:
    """Problem accounting for the mesh running-time lower bound.

    inputs/outputs/computations count the I/O elements and the elementary
    operations of the problem; dimension is the mesh dimensionality.
    """

    inputs: int
    outputs: int
    computations: int
    dimension: int

    def __post_init__(self) -> None:
        if self.inputs < 1 or self.outputs < 1 or self.computations < 1:
            raise ValueError("inputs, outputs and computations must all be >= 1")
        if self.dimension not in (1, 2, 3):
            raise ValueError(f"mesh dimension must be 1, 2 or 3, got {self.dimension}")


class CollectiveKind(enum.Enum):
    """The four basic collective operations."""

    BROADCAST = "broadcast"
    SCATTER = "scatter"
    REDUCE = "reduce"
    GATHER = "gather"


@dataclass(frozen=True)
class CommModel:
    """Per-message latency (alpha, seconds) and per-byte time (beta, s/byte)."""

    alpha: float
    beta: float

    def __post_init__(self) -> None:
        if self.alpha < 0 or self.beta < 0:
            raise ValueError("alpha and beta must be non-negative")


@dataclass(frozen=True)
class DarkSiliconPoint:
    core_multiplier: float
    powered_fraction: float
    effective_multiplier: float


def fisher_bound(problem: MeshBoundInput) -> float:
    """Running-time lower bound max(I^(1/d), K^(1/d), T^(1/(d+1))).

    The asymptotic constant is taken as 1, so simulator comparisons against
    this value are meaningful as ratios and trends, never as cycle equality.
    """
    d = problem.dimension
    return max(
        problem.inputs ** (1.0 / d),
        problem.outputs ** (1.0 / d),
        problem.computations ** (1.0 / (d + 1)),
    )


def inner_product_bound_input(n: int, dimension: int) -> MeshBoundInput:
    """Accounting convention for a length-n inner product.

    I = 2n (two operand vectors), K = 1 (one scalar out), T = n (one MAC per
    element pair).  The mesh simulators' bound-respect checks use exactly
    this convention.
    """
    if n < 1:
        raise ValueError(f"inner product length must be >= 1, got {n}")
    return MeshBoundInput(inputs=2 * n, outputs=1, computations=n, dimension=dimension)


def tree_time(n: int, fanout: int) -> int:
    """Reduction levels of an f-ary tree over n items: ceil(log_fanout(n)).

    Computed with integer arithmetic so no floating-point log rounding can
    change the level count.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if fanout < 2:
        raise ValueError(f"fanout must be >= 2, got {fanout}")
    levels = 0
    reach = 1
    while reach < n:
        reach *= fanout
        levels += 1
    return levels


def dark_silicon(generation: int) -> DarkSiliconPoint:
    """Effective compute gain after `generation` transistor shrinks.

    Core count doubles each generation while the powered fraction halves
    from generation 1 on (min(1, 2^(1-g))), so the effective multiplier
    saturates at 2: more cores stop paying off.
    """
    if generation < 0:
        raise ValueError(f"generation must be >= 0, got {generation}")
    cores = float(2**generation)
    powered = min(1.0, 2.0 ** (1 - generation))
    return DarkSiliconPoint(cores, powered, cores * powered)


def ceil_log2(p: int) -> int:
    return tree_time(p, 2)


def collective_cost(kind: CollectiveKind, p: int, nbytes: int, model: CommModel) -> float:
    """Seconds to run one collective among p participants.

    Binomial-tree / recursive-doubling cost model:
      broadcast, reduce:  ceil(log2 p) * (alpha + beta * nbytes)
      scatter, gather:    ceil(log2 p) * alpha + ((p-1)/p) * beta * nbytes
    where nbytes is the full payload size.  p = 1 costs nothing.
    """
    if p < 1:
        raise ValueError(f"participant count must be >= 1, got {p}")
    if nbytes < 0:
        raise ValueError(f"byte count must be >= 0, got {nbytes}")
    if p == 1:
        return 0.0
    rounds = tree_time(p, 2)
    if kind in (CollectiveKind.BROADCAST, CollectiveKind.REDUCE):
        return rounds * (model.alpha + model.beta * nbytes)
    if kind in (CollectiveKind.SCATTER, CollectiveKind.GATHER):
        return rounds * model.alpha + ((p - 1) / p) * model.beta * nbytes
    raise ValueError(f"unknown collective kind {kind!r}")
