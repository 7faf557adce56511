"""Metamorphic relations: how runs of one simulator relate, with no cycle formula.

Every other cycle check compares a simulator with a closed form written
from the same account of the machine, so the two can be wrong together.
A relation between two runs of one simulator needs no formula (Chen,
Cheung and Yiu, "Metamorphic testing", HKUST-CS98-01, 1998).
"""

from fractions import Fraction

from hypothesis import given
from hypothesis import strategies as st
from test_simulator_properties import SETTINGS

from gemmsim import (
    MeshConfig,
    simulate_chain_reduction,
    simulate_grid_reduction,
    simulate_tree_inner_product,
)

N = st.integers(1, 39)
HOPS = range(1, 5)
FANOUTS = range(2, 12)


def cycles_over_one_plus_hop(cycles_by_hop):
    """The set of cycles / (1 + h) over (h, cycles) runs: one value when h only scales them."""
    return {Fraction(cycles, 1 + h) for h, cycles in cycles_by_hop}


@SETTINGS
@given(N, st.integers(0, 3))
def test_chain_cycles_scale_with_one_plus_hop_latency(n, spare):
    """Every clock of a chain is a MAC or a hop, one of each per stage, so
    cycles / (1 + hop_latency) does not depend on hop_latency."""
    runs = [(h, simulate_chain_reduction(n, MeshConfig.chain(n + spare, h)).cycles) for h in HOPS]
    assert len(cycles_over_one_plus_hop(runs)) == 1, runs


@SETTINGS
@given(N, st.integers(1, 39), st.integers(0, 3))
def test_grid_cycles_scale_with_one_plus_hop_latency(n, cols, spare_rows):
    """The same holds on a grid, whose row and column phases are both stages."""
    rows = -(-n // cols) + spare_rows
    runs = [(h, simulate_grid_reduction(n, MeshConfig.grid(rows, cols, h)).cycles) for h in HOPS]
    assert len(cycles_over_one_plus_hop(runs)) == 1, runs


@SETTINGS
@given(N, st.integers(1, 3))
def test_tree_cycles_never_rise_with_fanout(n, level_latency):
    """A wider CE tree is no deeper, and a level costs the same at any fanout."""
    cycles = [simulate_tree_inner_product(n, f, level_latency).cycles for f in FANOUTS]
    assert cycles == sorted(cycles, reverse=True), cycles
