"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Every expected value is recomputed here from live runs or from the
documented closed forms; nothing is pasted from previous simulator output.
"""

import time

import pytest

from gemmsim import (
    CommModel,
    GemmShape,
    build_ce_tree,
    dark_silicon,
    empirical_bound_ratio,
    make_gemm,
    simulate_chain_reduction,
    simulate_cs_gemm,
    simulate_grid_reduction,
    simulate_summa,
    simulate_systolic_gemm,
    simulate_tree_inner_product,
    tree_time,
)
from gemmsim import ClusterModel, SystolicConfig
from gemmsim.harness import cli
from gemmsim.harness.validation import corpus_instances, run_corpus_checks


CORPUS_SIZE = 200
_corpus_cache: dict = {}


def corpus_results():
    """Run the 200-instance corpus once and reuse it across criteria."""
    if not _corpus_cache:
        start = time.perf_counter()
        properties = run_corpus_checks(0, CORPUS_SIZE)
        _corpus_cache["elapsed"] = time.perf_counter() - start
        _corpus_cache["properties"] = {p.name: p for p in properties}
    return _corpus_cache


def report(criterion: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS")


def test_c1_oracle_exactness_on_randomized_corpus():
    instances = corpus_instances(0, CORPUS_SIZE)
    assert len(instances) == CORPUS_SIZE
    assert len({inst.seed for inst in instances}) >= 5
    assert all(
        inst.shape.m <= 64 and inst.shape.n <= 64 and inst.shape.k <= 64 for inst in instances
    )

    results = corpus_results()
    exact = results["properties"]["simulator_exactness"]
    assert exact.checks >= 5 * CORPUS_SIZE  # systolic, streamer, chain, grid, tree per instance
    assert exact.failures == []
    assert results["elapsed"] < 60.0, f"corpus took {results['elapsed']:.1f}s"
    report("1 (oracle exactness, zero tolerance)")


def test_c2_systolic_formula_agreement():
    formula = corpus_results()["properties"]["systolic_formula_agreement"]
    assert formula.checks == CORPUS_SIZE
    assert formula.failures == []
    report("2 (simulated cycles == closed form)")


def test_c3_dark_silicon_reproduction():
    g2 = dark_silicon(2)
    assert (g2.core_multiplier, g2.powered_fraction, g2.effective_multiplier) == (4.0, 0.5, 2.0)
    g3 = dark_silicon(3)
    assert (g3.core_multiplier, g3.powered_fraction, g3.effective_multiplier) == (8.0, 0.25, 2.0)
    for generation in range(1, 7):
        assert dark_silicon(generation).effective_multiplier == 2.0
    report("3 (dark-silicon points and flat effective multiplier)")


def test_c4_mesh_bound_respect():
    violations = []
    for dimension in (1, 2):
        for exp in range(4, 13):
            n = 2**exp
            ratio = empirical_bound_ratio(n, dimension)
            if ratio < 1.0:
                violations.append((n, dimension, ratio))
    assert violations == []
    report("4 (chain and grid never beat the mesh bound)")


def test_c5_log_vs_mesh_separation():
    for exp in range(5, 13):
        n = 2**exp
        tree_cycles = simulate_tree_inner_product(n, 2, 1).cycles
        assert tree_cycles <= 2 * (1 + tree_time(n, 2))
        assert tree_cycles < simulate_grid_reduction(n).cycles
    chain_4096 = simulate_chain_reduction(4096).cycles
    tree_4096 = simulate_tree_inner_product(4096, 2, 1).cycles
    assert chain_4096 / tree_4096 >= 100.0
    report("5 (logarithmic tree vs linear/sqrt mesh)")


def test_c6_low_inner_dimension_occupancy():
    shape = GemmShape(64, 64, 4)
    a, b = make_gemm(shape, 0)
    systolic_res = simulate_systolic_gemm(a, b, SystolicConfig(16, 16))
    assert systolic_res.utilization <= 0.25

    streamer_res = simulate_cs_gemm(a, b, build_ce_tree(256), 1)  # default tree
    assert streamer_res.result == systolic_res.result
    assert streamer_res.steady_state_utilization >= 2 * systolic_res.utilization
    report("6 (streamer occupancy at least twice systolic at k=4)")


def test_c7_log_latency_scaling_from_trace():
    shape = GemmShape(32, 32, 8)
    a, b = make_gemm(shape, 1)
    port_width = 2
    gather_stream = -(-shape.m * shape.n // port_width)
    for pes, levels in ((64, 6), (256, 8), (1024, 10)):
        res = simulate_cs_gemm(a, b, build_ce_tree(pes, 2, 1, port_width), 1)
        overhead = res.phases["fill"] + res.phases["drain"]
        assert overhead == 2 * levels * 1 + gather_stream
    report("7 (fill+drain overhead = 2*levels*L + gather streaming)")


def test_c8_summa_structure():
    shape = GemmShape(256, 256, 256)
    alpha = 1e-6

    res = simulate_summa(shape, 32, ClusterModel(4, 4, CommModel(alpha, 0.0), 1e9))
    assert res.steps == 8
    assert res.row_broadcasts == 8
    assert res.col_broadcasts == 8
    assert res.comm_time == 8 * (2 + 2) * alpha  # beta = 0, exact

    full_model = ClusterModel(4, 4, CommModel(alpha, 1e-9), 1e9)
    for width in (1, 7, 32, 256):
        out = simulate_summa(shape, width, full_model)
        assert out.steps == -(-shape.k // width)
    report("8 (SUMMA step structure and free block width)")


def test_c9_run_determinism(tmp_path):
    import json

    payload = {
        "schema_version": 1,
        "kind": "compare",
        "workload": {"m": 16, "n": 16, "k": 8, "seed": 5},
        "archs": [
            {"type": "systolic", "rows": 8, "cols": 8},
            {"type": "streamer", "pes": 64, "fanout": 2, "port_width": 8},
        ],
    }
    bodies = []
    for name in ("first", "second"):
        out = tmp_path / name
        payload["output"] = {"dir": str(out)}
        cfg = tmp_path / f"{name}.json"
        cfg.write_text(json.dumps(payload))
        assert cli.main(["run", str(cfg)]) == 0
        bodies.append((out / "report.csv").read_bytes())
    assert bodies[0] == bodies[1]
    report("9 (byte-identical CSV bodies)")


@pytest.fixture(scope="module", autouse=True)
def overall_budget():
    start = time.perf_counter()
    yield
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0, f"acceptance criteria must finish in under 5 minutes, took {elapsed:.0f}s"
