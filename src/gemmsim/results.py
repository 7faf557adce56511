"""Common output contract of the cycle-level simulators."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .workload import Matrix, Record


# This decorator generates no method; it only records the fields, so that
# dataclasses.fields and dataclasses.replace work.  Record supplies the rest.
@dataclass(init=False, repr=False, eq=False)
class SimResult(Record):
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
    steady_state_utilization: float | None
    phases: Mapping[str, int] | None
    transfer_counts: Mapping[str, int] | None
    activity_trace: tuple[int, ...] | None

    _fields = tuple(__annotations__)

    def __init__(
        self,
        cycles: int,
        result: Matrix,
        mac_ops_issued: int,
        num_units: int,
        utilization: float,
        steady_state_utilization: float | None = None,
        phases: Mapping[str, int] | None = None,
        transfer_counts: Mapping[str, int] | None = None,
        activity_trace: tuple[int, ...] | None = None,
    ) -> None:
        # Set one by one: Record.__init__'s binding would double build_result's
        # cost, and filling __dict__ would give each result a dict of its own,
        # nearly twice the memory of the values it otherwise holds inline.
        set_field = object.__setattr__
        set_field(self, "cycles", cycles)
        set_field(self, "result", result)
        set_field(self, "mac_ops_issued", mac_ops_issued)
        set_field(self, "num_units", num_units)
        set_field(self, "utilization", utilization)
        set_field(self, "steady_state_utilization", steady_state_utilization)
        set_field(self, "phases", phases)
        set_field(self, "transfer_counts", transfer_counts)
        set_field(self, "activity_trace", activity_trace)

    @property
    def scalar(self) -> int:
        """The single element of a 1x1 result (inner-product runs)."""
        if self.result.rows != 1 or self.result.cols != 1:
            raise ValueError("result is not 1x1")
        return int(self.result.data[0])


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
    return SimResult(cycles, result, mac_ops, num_units, utilization,
                     steady, phases, transfer_counts, activity_trace)
