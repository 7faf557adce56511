"""Turn resolved experiment configs into report rows."""

from __future__ import annotations

from typing import Any

from .config import KINDS

REPORT_COLUMNS = [
    "schema_version",
    "experiment",
    "architecture",
    "arch_params",
    "workload",
    "m",
    "n",
    "k",
    "vector_n",
    "seed",
    "block_width",
    "cycles",
    "mac_ops",
    "num_units",
    "utilization",
    "steady_state_utilization",
    "load_cycles",
    "fill_cycles",
    "stream_cycles",
    "drain_cycles",
    "bound_value",
    "bound_ratio",
    "total_seconds",
    "comm_seconds",
    "comp_seconds",
    "comm_latency_seconds",
    "comm_bandwidth_seconds",
    "steps",
    "row_broadcasts",
    "col_broadcasts",
    "generation",
    "core_multiplier",
    "powered_fraction",
    "effective_multiplier",
    "checks",
    "failures",
]


def run_experiment(resolved: dict) -> list[dict[str, Any]]:
    """Execute a resolved config and return report rows in deterministic order.

    A sweep point that does not resolve, or any point its machine cannot run,
    raises ConfigError before any point runs.  Simulator precondition
    violations surface as ValueError and analytic models overflowing on their
    input as OverflowError, which the CLI maps to its own exit code.
    """
    return KINDS[resolved["kind"]].rows(resolved)
