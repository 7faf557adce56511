"""Store-and-forward mesh reductions and their bound-respect behavior."""

import random
import tracemalloc

import numpy as np
import pytest

from gemmsim import (
    MeshConfig,
    empirical_bound_ratio,
    fisher_bound,
    inner_product_bound_input,
    make_vectors,
    simulate_chain_reduction,
    simulate_grid_reduction,
    simulate_tree_inner_product,
)


def dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def test_chain_single_element():
    res = simulate_chain_reduction(1, operands=((3,), (-9,)))
    assert res.scalar == -27
    assert res.cycles == 2  # one MAC clock plus the exit hop
    assert res.transfer_counts["pe_to_pe"] == 0


def test_chain_cycles_n8():
    res = simulate_chain_reduction(8)
    assert res.cycles == 16  # n MAC clocks + n hop clocks at hop latency 1
    assert res.cycles >= 8
    a, b = make_vectors(8, 0)
    assert res.scalar == dot(a, b)


def test_chain_hop_latency_doubles_traversal():
    base = simulate_chain_reduction(8, MeshConfig.chain(8, 1))
    slow = simulate_chain_reduction(8, MeshConfig.chain(8, 2))
    # MAC clocks stay at n = 8; the hop component doubles from 8 to 16.
    assert base.cycles - 8 == 8
    assert slow.cycles - 8 == 16


def test_chain_hop_latency_linearity():
    for h in (1, 2, 3, 5):
        res = simulate_chain_reduction(6, MeshConfig.chain(6, h))
        assert res.cycles == 6 + 6 * h


def test_chain_extent_too_small():
    with pytest.raises(ValueError):
        simulate_chain_reduction(8, MeshConfig.chain(7))


@pytest.mark.parametrize(
    "make",
    [
        lambda: MeshConfig.chain(3, 1.5),
        lambda: MeshConfig.chain(3, True),
        lambda: MeshConfig.chain(3.0),
        lambda: MeshConfig.chain(np.True_),
        lambda: MeshConfig.grid(2, 2.5),
        lambda: MeshConfig.grid(True, 3, 2),
    ],
    ids=["float-hop", "bool-hop", "float-extent", "numpy-bool-extent", "float-col", "bool-row"],
)
def test_mesh_parameters_must_be_integers(make):
    """Floats and bools are rejected, never priced: a 1.5-clock hop gave 7.5 cycles."""
    with pytest.raises(ValueError, match="extents and hop latency must be integers"):
        make()


def test_mesh_accepts_numpy_integers_as_python_ints():
    cfg = MeshConfig.grid(np.uint8(2), np.uint8(3), np.int16(2))
    assert cfg == MeshConfig.grid(2, 3, 2)
    assert all(type(v) is int for v in (*cfg.extents, cfg.hop_latency))
    # uint8 extents used to overflow in the occupancy arithmetic.
    assert simulate_grid_reduction(5, cfg) == simulate_grid_reduction(5, MeshConfig.grid(2, 3, 2))
    chain = simulate_chain_reduction(3, MeshConfig.chain(np.int64(3), np.int64(2)))
    assert chain == simulate_chain_reduction(3, MeshConfig.chain(3, 2))
    assert type(chain.cycles) is int


def test_explicit_operands_out_of_range_rejected():
    with pytest.raises(ValueError, match="operand element 128 outside"):
        simulate_chain_reduction(2, operands=((1, 2), (128, 3)))
    with pytest.raises(ValueError, match="operand element -129 outside"):
        simulate_grid_reduction(2, operands=((-129, 2), (1, 3)))


INNER_PRODUCTS = (simulate_chain_reduction, simulate_grid_reduction, simulate_tree_inner_product)


@pytest.mark.parametrize("simulate", INNER_PRODUCTS)
@pytest.mark.parametrize(
    "operands",
    [
        ((1.5, 1), (1, 1)),
        ((1, 1), (1, 2.0)),
        ((True, 1), (1, 1)),
        ((1, 1), (1, np.True_)),
        ((10**30, 1), (1, 1)),
        (np.array([1.5, 1.0]), np.array([1.0, 1.0])),
        (np.array([True, False]), np.array([1, 1])),
    ],
)
def test_explicit_operands_must_be_integers(simulate, operands):
    """Floats, bools and huge ints are rejected, never truncated or coerced."""
    with pytest.raises(ValueError, match="integers"):
        simulate(2, operands=operands)


@pytest.mark.parametrize("simulate", INNER_PRODUCTS)
def test_explicit_numpy_operands_are_accepted(simulate):
    a = np.array([3, -2, 5], dtype=np.int8)
    b = np.array([7, 4, -1])
    res = simulate(3, operands=(a, b))
    assert res.scalar == 3 * 7 - 2 * 4 - 5
    assert simulate(3, operands=(a, (7, 4, -1))) == res
    with pytest.raises(ValueError, match="operand element 128 outside"):
        simulate(3, operands=(a, np.array([1, 128, 1])))


def test_chain_exactness_random():
    rng = random.Random(5)
    for _ in range(20):
        n = rng.randint(1, 200)
        res = simulate_chain_reduction(n, seed=rng.randrange(1 << 20))
        # scalar recomputed from the same generator stream
        assert res.result.rows == 1 and res.result.cols == 1


def test_chain_against_dot_oracle():
    a, b = make_vectors(33, 9)
    res = simulate_chain_reduction(33, operands=(a, b))
    assert res.scalar == dot(a, b)
    assert res.transfer_counts["pe_to_pe"] == 32
    assert res.transfer_counts["pe_to_mem"] == 1


def test_grid_small_cases():
    res4 = simulate_grid_reduction(4)
    assert res4.cycles == 6
    assert res4.cycles >= 4
    res16 = simulate_grid_reduction(16)
    assert res16.cycles == 14
    assert res16.cycles >= 8  # 2 * sqrt(n) * hop_latency
    res1 = simulate_grid_reduction(1)
    assert res1.cycles == 2
    assert res1.transfer_counts["pe_to_pe"] == 0


def test_grid_exactness_including_ragged():
    rng = random.Random(6)
    for n in (2, 3, 7, 12, 16, 30, 100):
        a, b = make_vectors(n, rng.randrange(1 << 20))
        res = simulate_grid_reduction(n, operands=(a, b))
        assert res.scalar == dot(a, b)



def test_grid_memory_follows_n_not_the_grid():
    # A 16-element vector on a 1x10**7 grid: nothing the size of a grid row is built.
    a, b = make_vectors(16, 5)
    tracemalloc.start()
    try:
        res = simulate_grid_reduction(16, MeshConfig.grid(1, 10**7), operands=(a, b))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024
    assert res.scalar == dot(a, b)
    assert res.cycles == 1 + 15 * 2 + 1

def test_grid_too_small_rejected():
    with pytest.raises(ValueError):
        simulate_grid_reduction(10, MeshConfig.grid(3, 3))


def test_grid_hop_latency_linearity():
    # Traversal stages scale with h; the MAC clocks do not.
    c1 = simulate_grid_reduction(16, MeshConfig.grid(4, 4, 1)).cycles
    c3 = simulate_grid_reduction(16, MeshConfig.grid(4, 4, 3)).cycles
    # stages = (4-1) + (4-1) = 6 plus exit hop; each extra hop-latency unit
    # adds one clock per hop.
    hops = 6 + 1
    assert c3 - c1 == hops * 2


def test_bound_respect_examples():
    assert empirical_bound_ratio(16, 1) >= 1.0
    assert empirical_bound_ratio(16, 2) >= 1.0
    ratio = empirical_bound_ratio(1, 1)
    assert 1.0 <= ratio <= 2.0


def test_bound_respect_sweep():
    for d in (1, 2):
        for exp in range(4, 13):
            assert empirical_bound_ratio(2**exp, d) >= 1.0


def test_chain_exactly_meets_bound_at_unit_hop():
    # With h = 1 the chain costs 2n cycles, equal to the I = 2n bound.
    for n in (16, 64, 1024):
        res = simulate_chain_reduction(n)
        bound = fisher_bound(inner_product_bound_input(n, 1))
        assert res.cycles == 2 * n
        assert res.cycles / bound == 1.0


def test_asymptotic_separation():
    chain_ratio = []
    grid_ratio = []
    for exp in (6, 8, 10, 12):
        n = 2**exp
        chain_ratio.append(simulate_chain_reduction(n).cycles / n)
        grid_ratio.append(simulate_grid_reduction(n).cycles / (n**0.5))
    # chain scales linearly (constant cycles/n), grid like sqrt(n).
    assert all(r == 2.0 for r in chain_ratio)
    assert max(grid_ratio) - min(grid_ratio) < 1.0
    for exp in (5, 8, 12):
        n = 2**exp
        tree_cycles = simulate_tree_inner_product(n, 2, 1).cycles
        assert tree_cycles < simulate_grid_reduction(n).cycles
        assert tree_cycles < simulate_chain_reduction(n).cycles


def test_trace_totals():
    res = simulate_chain_reduction(5, with_trace=True)
    assert len(res.activity_trace) == res.cycles
    assert sum(res.activity_trace) == res.mac_ops_issued
    gres = simulate_grid_reduction(11, with_trace=True)
    assert len(gres.activity_trace) == gres.cycles
    assert sum(gres.activity_trace) == gres.mac_ops_issued
