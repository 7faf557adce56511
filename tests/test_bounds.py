"""Closed-form bound, tree depth, dark silicon, and collective cost models."""

import math
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gemmsim
from gemmsim import (
    CollectiveKind,
    CommModel,
    MeshBoundInput,
    collective_cost,
    dark_silicon,
    fisher_bound,
    inner_product_bound_input,
    tree_time,
)


def test_bound_input_validation():
    with pytest.raises(ValueError):
        MeshBoundInput(0, 1, 1, 1)
    with pytest.raises(ValueError):
        MeshBoundInput(1, 1, 1, 4)
    for fields, name in (
        ((2.5, 1, 1, 1), "inputs"),
        ((2, 1.0, 1, 1), "outputs"),
        ((2, 1, 1.5, 1), "computations"),
        ((2, 1, 1, True), "dimension"),
        ((2, 1, 1, 2.0), "dimension"),
    ):
        with pytest.raises(ValueError, match=f"^{name} must be an integer"):
            MeshBoundInput(*fields)
    # 2.5 used to price inputs=5.0 and computations=2.5.
    with pytest.raises(ValueError, match="^inner product length must be an integer"):
        inner_product_bound_input(2.5, 1)
    problem = MeshBoundInput(np.int64(32), np.uint8(1), np.int32(16), np.int64(1))
    assert all(type(value) is int for value in vars(problem).values())
    assert type(fisher_bound(problem)) is float


def test_fisher_bound_inner_product_1d():
    # n = 16 inner product: I = 32, K = 1, T = 16.
    assert fisher_bound(inner_product_bound_input(16, 1)) == 32.0


def test_fisher_bound_inner_product_2d():
    value = fisher_bound(inner_product_bound_input(16, 2))
    assert value == pytest.approx(math.sqrt(32), rel=1e-12)


def test_fisher_bound_unit_problem():
    assert fisher_bound(MeshBoundInput(1, 1, 1, 1)) == 1.0


def test_inner_product_family_growth():
    # d=1 bound grows linearly (2n), d=2 as sqrt(2n); the pairwise tree depth
    # stays logarithmic and dips below the d=2 bound from n = 32 on.
    for n in (32, 64, 512, 1024, 4096):
        assert fisher_bound(inner_product_bound_input(n, 1)) == 2.0 * n
        assert fisher_bound(inner_product_bound_input(n, 2)) == pytest.approx(
            math.sqrt(2 * n), rel=1e-12
        )
        assert tree_time(n, 2) < fisher_bound(inner_product_bound_input(n, 2))


def test_fisher_bound_monotone_in_dimension():
    rng = random.Random(0)
    for _ in range(100):
        i, k, t = (rng.randint(1, 10**6) for _ in range(3))
        values = [fisher_bound(MeshBoundInput(i, k, t, d)) for d in (1, 2, 3)]
        assert values[0] >= values[1] >= values[2]


def test_tree_time_examples():
    assert tree_time(8, 2) == 3
    assert tree_time(1, 2) == 0
    assert tree_time(9, 2) == 4
    assert tree_time(16, 4) == 2
    assert tree_time(10, 2) == 4
    # A uint8 fanout used to wrap to 0 and loop forever.
    assert tree_time(300, np.uint8(2)) == 9


def test_tree_time_is_minimal_cover():
    rng = random.Random(1)
    for _ in range(200):
        n = rng.randint(1, 1 << 16)
        fanout = rng.randint(2, 9)
        levels = tree_time(n, fanout)
        assert fanout**levels >= n
        if levels > 0:
            assert fanout ** (levels - 1) < n


def test_tree_time_rejects_bad_fanout():
    with pytest.raises(ValueError):
        tree_time(8, 1)
    with pytest.raises(ValueError):
        tree_time(0, 2)


def test_dark_silicon_baseline():
    point = dark_silicon(0)
    assert (point.core_multiplier, point.powered_fraction, point.effective_multiplier) == (
        1.0,
        1.0,
        1.0,
    )


def test_dark_silicon_reported_generations():
    g2 = dark_silicon(2)
    assert (g2.core_multiplier, g2.powered_fraction, g2.effective_multiplier) == (4.0, 0.5, 2.0)
    g3 = dark_silicon(3)
    assert (g3.core_multiplier, g3.powered_fraction, g3.effective_multiplier) == (8.0, 0.25, 2.0)


def test_dark_silicon_effective_multiplier_saturates():
    for g in range(1, 12):
        assert dark_silicon(g).effective_multiplier == 2.0
    with pytest.raises(ValueError):
        dark_silicon(-1)
    # A uint8 generation used to wrap 2**200 to 0 and give multipliers of 0.0.
    assert dark_silicon(np.uint8(200)) == dark_silicon(200)
    assert dark_silicon(np.uint8(200)).effective_multiplier == 2.0
    for generation in (2.5, True):
        with pytest.raises(ValueError, match="^generation must be an integer"):
            dark_silicon(generation)


def test_dark_silicon_huge_generation_overflows_at_once():
    # 2**generation as a Python int grew to gigabytes before it overflowed a
    # float; under a 1 GB address-space limit it ended in MemoryError after
    # ~16 s.
    code = (
        "import resource\n"
        "from gemmsim import dark_silicon\n"
        "resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))\n"
        "try:\n"
        "    dark_silicon(10**12)\n"
        "except OverflowError:\n"
        "    raise SystemExit(0)\n"
        "raise SystemExit('no OverflowError')\n"
    )
    src = str(Path(gemmsim.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=5
    )
    assert proc.returncode == 0, proc.stderr


def test_ceil_log2():
    assert [tree_time(p, 2) for p in (1, 2, 3, 4, 5, 8, 9)] == [0, 1, 2, 2, 3, 3, 4]


def test_collective_cost_single_node_free():
    model = CommModel(1e-6, 1e-9)
    for kind in CollectiveKind:
        assert collective_cost(kind, 1, 123456, model) == 0.0


def test_collective_cost_broadcast_example():
    cost = collective_cost(CollectiveKind.BROADCAST, 4, 1000, CommModel(1e-6, 1e-9))
    assert cost == pytest.approx(4e-6, rel=1e-12)


def test_collective_cost_gather_example():
    cost = collective_cost(CollectiveKind.GATHER, 8, 800, CommModel(0.0, 1e-9))
    assert cost == pytest.approx(7e-7, rel=1e-12)


def test_collective_cost_reduce_matches_broadcast():
    model = CommModel(2e-6, 3e-9)
    assert collective_cost(CollectiveKind.REDUCE, 16, 4096, model) == collective_cost(
        CollectiveKind.BROADCAST, 16, 4096, model
    )


def test_collective_cost_log_overhead():
    # bcast cost divided by ceil(log2 p) is constant in p for a fixed payload.
    model = CommModel(5e-6, 2e-9)
    per_round = [
        collective_cost(CollectiveKind.BROADCAST, p, 1 << 13, model) / tree_time(p, 2)
        for p in (2, 4, 16, 256, 1024)
    ]
    assert all(x == pytest.approx(per_round[0], rel=1e-12) for x in per_round)


def test_collective_cost_validation():
    model = CommModel(0.0, 0.0)
    with pytest.raises(ValueError):
        collective_cost(CollectiveKind.BROADCAST, 0, 10, model)
    with pytest.raises(ValueError):
        collective_cost(CollectiveKind.BROADCAST, 2, -1, model)
    with pytest.raises(ValueError):
        CommModel(-1e-9, 0.0)
    # p = True used to cost 0.0; p = 2.5 was rejected as an `n`.
    with pytest.raises(ValueError, match="^participant count must be an integer"):
        collective_cost(CollectiveKind.BROADCAST, True, 10, model)
    with pytest.raises(ValueError, match="^participant count must be an integer"):
        collective_cost(CollectiveKind.BROADCAST, 2.5, 10, model)
    with pytest.raises(ValueError, match="^byte count must be an integer"):
        collective_cost(CollectiveKind.BROADCAST, 2, 2.5, model)
    for alpha, beta in ((math.nan, 0.0), (0.0, math.nan), (math.inf, 0.0), (0.0, math.inf)):
        with pytest.raises(ValueError, match="^alpha and beta must be finite"):
            CommModel(alpha, beta)
