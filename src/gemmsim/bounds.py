"""Analytic models: mesh lower bound, tree depth, dark silicon, collective costs.

No event simulation lives here; everything is a closed-form evaluation that
the simulators and the validation suite compare themselves against.
"""

from __future__ import annotations

import enum
import math

from .workload import Record, as_count, as_real


class MeshBoundInput(Record):
    """Problem accounting for the mesh running-time lower bound.

    inputs/outputs/computations count the I/O elements and the elementary
    operations of the problem; dimension is the mesh dimensionality.
    """

    _fields = ("inputs", "outputs", "computations", "dimension")

    def __init__(self, inputs: int, outputs: int, computations: int, dimension: int) -> None:
        values = zip(self._fields, (inputs, outputs, computations, dimension))
        super().__init__(*(as_count(value, name, 1) for name, value in values))
        if self.dimension > 3:
            raise ValueError(f"mesh dimension must be 1, 2 or 3, got {self.dimension}")


class CollectiveKind(enum.Enum):
    """The four basic collective operations."""

    BROADCAST = "broadcast"
    SCATTER = "scatter"
    REDUCE = "reduce"
    GATHER = "gather"


class CommModel(Record):
    """Per-message latency (alpha, seconds) and per-byte time (beta, s/byte)."""

    _fields = ("alpha", "beta")

    def __init__(self, alpha: float, beta: float) -> None:
        super().__init__(as_real(alpha, "alpha"), as_real(beta, "beta"))
        if not (0 <= self.alpha < math.inf and 0 <= self.beta < math.inf):
            raise ValueError(f"alpha and beta must be finite and >= 0, got {self!r}")


class DarkSiliconPoint(Record):
    _fields = ("core_multiplier", "powered_fraction", "effective_multiplier")


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
    n = as_count(n, "inner product length", 1)
    return MeshBoundInput(inputs=2 * n, outputs=1, computations=n, dimension=dimension)


def tree_time(n: int, fanout: int) -> int:
    """Reduction levels of an f-ary tree over n items: ceil(log_fanout(n)).

    Computed with integer arithmetic so no floating-point log rounding can
    change the level count.
    """
    n, fanout = as_count(n, "n", 1), as_count(fanout, "fanout", 2)
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
    generation = as_count(generation, "generation", 0)
    cores = math.ldexp(1.0, generation)  # OverflowError at once from 1024 on
    powered = min(1.0, 2.0 ** (1 - generation))
    return DarkSiliconPoint(cores, powered, cores * powered)


def collective_cost(kind: CollectiveKind, p: int, nbytes: int, model: CommModel) -> float:
    """Seconds to run one collective among p participants.

    Binomial-tree / recursive-doubling cost model:
      broadcast, reduce:  ceil(log2 p) * (alpha + beta * nbytes)
      scatter, gather:    ceil(log2 p) * alpha + ((p-1)/p) * beta * nbytes
    where nbytes is the full payload size.  p = 1 costs nothing.
    """
    p, nbytes = as_count(p, "participant count", 1), as_count(nbytes, "byte count", 0)
    if not isinstance(kind, CollectiveKind):
        raise ValueError(f"unknown collective kind {kind!r}")
    if p == 1:
        return 0.0
    rounds = tree_time(p, 2)
    if kind in (CollectiveKind.BROADCAST, CollectiveKind.REDUCE):
        return rounds * (model.alpha + model.beta * nbytes)
    return rounds * model.alpha + ((p - 1) / p) * model.beta * nbytes  # scatter, gather
