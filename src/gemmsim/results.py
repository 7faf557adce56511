"""Common output contract of the cycle-level simulators."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .workload import Matrix


@dataclass(frozen=True)
class SimResult:
    """Outcome of one simulation run.

    utilization is always mac_ops_issued / (num_units * cycles).  Simulators
    with distinct execution phases also report steady_state_utilization,
    which divides only by the cycles of the phase that performs MACs, and a
    ``phases`` breakdown (phase name -> cycles, summing to ``cycles``).
    transfer_counts aggregates data movements by link kind (e.g. "pe_to_pe",
    "ce_to_pe") where the simulator models them.
    """

    cycles: int
    result: Matrix
    mac_ops_issued: int
    num_units: int
    utilization: float
    steady_state_utilization: float | None = None
    phases: Mapping[str, int] | None = None
    transfer_counts: Mapping[str, int] | None = None
    activity_trace: tuple[int, ...] | None = None

    @property
    def scalar(self) -> int:
        """The single element of a 1x1 result (inner-product runs)."""
        if self.result.rows != 1 or self.result.cols != 1:
            raise ValueError("result is not 1x1")
        return self.result.at(0, 0)


def build_result(
    cycles: int,
    result: Matrix,
    mac_ops: int,
    num_units: int,
    *,
    steady_cycles: int | None = None,
    phases: dict[str, int] | None = None,
    transfer_counts: dict[str, int] | None = None,
    activity_trace: tuple[int, ...] | None = None,
) -> SimResult:
    if cycles < 1:
        raise ValueError(f"simulation produced {cycles} cycles")
    utilization = mac_ops / (num_units * cycles)
    if not 0.0 <= utilization <= 1.0:
        raise ValueError(f"utilization {utilization} out of [0, 1]; accounting bug")
    steady = None
    if steady_cycles is not None:
        steady = mac_ops / (num_units * steady_cycles)
        if steady > 1.0:
            raise ValueError(f"steady-state utilization {steady} above 1; accounting bug")
    if phases is not None and sum(phases.values()) != cycles:
        raise ValueError(f"phase cycles {phases} do not sum to total {cycles}")
    return SimResult(
        cycles=cycles,
        result=result,
        mac_ops_issued=mac_ops,
        num_units=num_units,
        utilization=utilization,
        steady_state_utilization=steady,
        phases=phases,
        transfer_counts=transfer_counts,
        activity_trace=activity_trace,
    )
