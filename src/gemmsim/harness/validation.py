"""Cross-simulator oracle suite.

Every property here is recomputed from live simulator runs; nothing is
hard-coded from previous runs.  The suite is what the CLI `validate`
subcommand executes, and the acceptance tests call into the same functions.
Simulators are resolved through their modules at call time so a fault
injected by monkeypatching a simulator function is caught as a failure.
"""

from __future__ import annotations

import random

from .. import bounds as bounds_mod
from .. import meshflow, streamer, summa, systolic
from ..bounds import CommModel, dark_silicon, fisher_bound, inner_product_bound_input, tree_time
from ..workload import GemmShape, Record, as_count, make_gemm, reference_matmul

STREAMER_TRANSFER_KINDS = {
    "mem_to_ce",
    "ce_to_ce",
    "ce_to_pe",
    "pe_to_ce",
    "ce_to_mem",
    "mem_to_pe",
    "pe_to_mem",
    "pe_to_pe",
}


class PropertyResult:
    def __init__(self, name: str) -> None:
        self.name = name
        self.checks = 0
        self.failures: list[str] = []

    def check(self, ok: bool, detail: str) -> None:
        self.checks += 1
        if not ok:
            self.failures.append(detail)

    @property
    def ok(self) -> bool:
        return not self.failures


class ValidationReport:
    def __init__(self, properties: list[PropertyResult]) -> None:
        self.properties = properties

    @property
    def ok(self) -> bool:
        return all(p.ok for p in self.properties)

    def lines(self) -> list[str]:
        out = []
        for p in self.properties:
            status = "ok" if p.ok else "FAIL"
            out.append(f"{p.name}: {p.checks} checks, {len(p.failures)} failures [{status}]")
            for detail in p.failures[:5]:
                out.append(f"  - {detail}")
            if len(p.failures) > 5:
                out.append(f"  ... and {len(p.failures) - 5} more")
        out.append(f"validation: {'PASS' if self.ok else 'FAIL'}")
        return out


class CorpusInstance(Record):
    _fields = (
        "shape", "seed", "array_rows", "array_cols", "pes", "fanout", "level_latency",
        "port_width", "block_width",
    )

    def __init__(
        self, shape: GemmShape, seed: int, array_rows: int, array_cols: int, pes: int,
        fanout: int, level_latency: int, port_width: int, block_width: int,
    ) -> None:
        self._set(
            shape, seed, array_rows, array_cols, pes, fanout, level_latency, port_width,
            block_width,
        )


def corpus_instances(seed: int, size: int) -> list[CorpusInstance]:
    """Randomized desk-scale GEMM corpus; reproducible from the suite seed."""
    rng = random.Random(as_count(seed, "seed"))
    instances = []
    for _ in range(as_count(size, "corpus size", 1)):
        shape = GemmShape(rng.randint(1, 64), rng.randint(1, 64), rng.randint(1, 64))
        instances.append(
            CorpusInstance(
                shape=shape,
                seed=rng.randrange(1 << 30),
                array_rows=rng.choice((4, 8, 16)),
                array_cols=rng.choice((4, 8, 16)),
                pes=rng.randint(1, min(shape.m * shape.n, 256)),
                fanout=rng.choice((2, 3, 4)),
                level_latency=rng.choice((1, 2)),
                port_width=rng.choice((1, 2, 4, 8, 16)),
                block_width=rng.randint(1, shape.k),
            )
        )
    return instances


def run_corpus_checks(seed: int = 0, corpus_size: int = 200) -> list[PropertyResult]:
    """Exactness, formula agreement, MAC conservation and no-hop over the corpus."""
    p_exact = PropertyResult("simulator_exactness")
    p_formula = PropertyResult("systolic_formula_agreement")
    p_macs = PropertyResult("mac_conservation")
    p_nohop = PropertyResult("streamer_no_hop")

    for inst in corpus_instances(seed, corpus_size):
        shape = inst.shape
        tag = f"m={shape.m} n={shape.n} k={shape.k} seed={inst.seed}"
        a, b = make_gemm(shape, inst.seed)
        oracle = reference_matmul(a, b)

        cfg = systolic.SystolicConfig(inst.array_rows, inst.array_cols)
        sys_res = systolic.simulate_systolic_gemm(a, b, cfg)
        p_exact.check(sys_res.result == oracle, f"systolic result mismatch ({tag})")
        p_formula.check(
            sys_res.cycles == systolic.systolic_cycle_formula(shape, cfg),
            f"systolic cycles != formula ({tag}, array {cfg.rows}x{cfg.cols})",
        )
        p_macs.check(sys_res.mac_ops_issued == shape.macs, f"systolic MAC count ({tag})")

        tree = streamer.build_ce_tree(
            inst.pes, inst.fanout, inst.level_latency, inst.port_width
        )
        cs_res = streamer.simulate_cs_gemm(a, b, tree, inst.block_width)
        p_exact.check(cs_res.result == oracle, f"streamer result mismatch ({tag})")
        p_macs.check(cs_res.mac_ops_issued == shape.macs, f"streamer MAC count ({tag})")
        transfers = cs_res.transfer_counts or {}
        p_nohop.check(
            transfers.get("pe_to_pe", 1) == 0 and set(transfers) <= STREAMER_TRANSFER_KINDS,
            f"streamer trace shows PE-to-PE or unknown links ({tag})",
        )
        root_key = "mem_to_ce" if tree.levels > 0 else "mem_to_pe"
        p_nohop.check(
            transfers.get(root_key, -1) == shape.k * (shape.m + shape.n),
            f"root traffic is not one crossing per distinct element ({tag})",
        )

        # Mesh reductions on the first row of A against the first column of
        # B, whose dot product is the oracle's top-left element.
        vecs = (a.to_numpy()[0], b.to_numpy()[:, 0])
        expected = int(oracle.data[0])
        chain_res = meshflow.simulate_chain_reduction(shape.k, operands=vecs)
        p_exact.check(chain_res.scalar == expected, f"chain result mismatch ({tag})")
        grid_res = meshflow.simulate_grid_reduction(shape.k, operands=vecs)
        p_exact.check(grid_res.scalar == expected, f"grid result mismatch ({tag})")
        tree_res = streamer.simulate_tree_inner_product(
            shape.k, inst.fanout, inst.level_latency, operands=vecs
        )
        p_exact.check(tree_res.scalar == expected, f"tree inner product mismatch ({tag})")

    return [p_exact, p_formula, p_macs, p_nohop]


def check_bound_respect() -> PropertyResult:
    p = PropertyResult("mesh_bound_respect")
    for dimension in (1, 2):
        for exp in range(4, 13):
            n = 2**exp
            ratio = meshflow.empirical_bound_ratio(n, dimension)
            p.check(ratio >= 1.0, f"n={n} d={dimension}: cycles/bound = {ratio} < 1")
    return p


def check_dark_silicon() -> PropertyResult:
    p = PropertyResult("dark_silicon_reproduction")
    g2 = dark_silicon(2)
    p.check(
        (g2.core_multiplier, g2.powered_fraction, g2.effective_multiplier) == (4.0, 0.5, 2.0),
        f"generation 2 gave {g2}",
    )
    g3 = dark_silicon(3)
    p.check(
        (g3.core_multiplier, g3.powered_fraction, g3.effective_multiplier) == (8.0, 0.25, 2.0),
        f"generation 3 gave {g3}",
    )
    for g in range(1, 7):
        p.check(
            dark_silicon(g).effective_multiplier == 2.0,
            f"generation {g} effective multiplier != 2",
        )
    return p


def check_log_separation() -> PropertyResult:
    p = PropertyResult("log_vs_mesh_separation")
    for exp in range(5, 13):
        n = 2**exp
        tree_res = streamer.simulate_tree_inner_product(n, 2, 1)
        p.check(
            tree_res.cycles <= 2 * (1 + tree_time(n, 2)),
            f"n={n}: tree cycles {tree_res.cycles} above 2*(1+log2(n))",
        )
        grid_res = meshflow.simulate_grid_reduction(n)
        p.check(
            tree_res.cycles < grid_res.cycles,
            f"n={n}: tree {tree_res.cycles} not below grid {grid_res.cycles}",
        )
        chain_res = meshflow.simulate_chain_reduction(n)
        p.check(
            grid_res.cycles < chain_res.cycles,
            f"n={n}: grid {grid_res.cycles} not below chain {chain_res.cycles}",
        )
        if n == 4096:
            ratio = chain_res.cycles / tree_res.cycles
            p.check(ratio >= 100.0, f"n=4096 chain/tree ratio {ratio} < 100")
    return p


def check_low_k_occupancy() -> PropertyResult:
    """16x16 array on m=n=64, k=4 versus a 256-PE default tree, recomputed live."""
    p = PropertyResult("low_k_occupancy")
    shape = GemmShape(64, 64, 4)
    a, b = make_gemm(shape, 7)
    sys_res = systolic.simulate_systolic_gemm(a, b, systolic.SystolicConfig(16, 16))
    p.check(
        sys_res.utilization <= shape.k / 16,
        f"systolic utilization {sys_res.utilization} above k/R = {shape.k / 16}",
    )
    cs_res = streamer.simulate_cs_gemm(a, b, streamer.build_ce_tree(256), 1)
    p.check(
        cs_res.steady_state_utilization >= 2 * sys_res.utilization,
        f"streamer steady-state {cs_res.steady_state_utilization} below "
        f"2x systolic {sys_res.utilization}",
    )
    p.check(cs_res.result == sys_res.result, "streamer and systolic disagree on the result")
    return p


def check_log_latency_scaling() -> PropertyResult:
    """Fill+drain overhead must be exactly 2*levels*L plus the gather stream."""
    p = PropertyResult("streamer_log_latency")
    shape = GemmShape(32, 32, 8)
    a, b = make_gemm(shape, 11)
    port_width = 2
    for pes in (64, 256, 1024):
        tree = streamer.build_ce_tree(pes, 2, 1, port_width)
        res = streamer.simulate_cs_gemm(a, b, tree, 1)
        levels = tree_time(pes, 2)
        gather_stream = max(-(-shape.m * shape.n // port_width), -(-shape.m * shape.n // pes))
        p.check(res.phases["fill"] == levels, f"P={pes}: fill {res.phases['fill']} != {levels}")
        p.check(
            res.phases["drain"] == levels + gather_stream,
            f"P={pes}: drain {res.phases['drain']} != {levels} + {gather_stream}",
        )
        overhead = res.phases["fill"] + res.phases["drain"]
        p.check(
            overhead == 2 * levels + gather_stream,
            f"P={pes}: fill+drain {overhead} != 2*{levels} + {gather_stream}",
        )
    return p


def check_summa_structure() -> PropertyResult:
    p = PropertyResult("summa_structure")
    shape = GemmShape(256, 256, 256)
    alpha = 1e-6

    latency_only = summa.ClusterModel(4, 4, CommModel(alpha, 0.0), 1e9)
    res = summa.simulate_summa(shape, 32, latency_only)
    p.check(res.steps == 8, f"steps {res.steps} != 8")
    p.check(res.row_broadcasts == 8, f"row broadcasts {res.row_broadcasts} != 8")
    p.check(res.col_broadcasts == 8, f"col broadcasts {res.col_broadcasts} != 8")
    expected_comm = res.steps * (2 + 2) * alpha
    p.check(
        res.comm_time == expected_comm,
        f"beta=0 comm_time {res.comm_time} != {expected_comm}",
    )
    p.check(
        res.comm_time == res.comm_latency_time,
        "beta=0 comm_time differs from its latency component",
    )

    full = summa.ClusterModel(4, 4, CommModel(alpha, 1e-9), 1e9)
    for width in (1, 7, 32, 256):
        try:
            r = summa.simulate_summa(shape, width, full)
        except ValueError as exc:
            p.check(False, f"b={width} rejected: {exc}")
            continue
        p.check(r.steps == -(-shape.k // min(width, shape.k)), f"b={width}: wrong step count")
    return p


def check_determinism(seed: int = 0) -> PropertyResult:
    p = PropertyResult("determinism")
    shape = GemmShape(12, 9, 17)
    pair_a = make_gemm(shape, seed + 3)
    pair_b = make_gemm(shape, seed + 3)
    p.check(pair_a == pair_b, "make_gemm is not a pure function of (shape, seed)")

    a, b = pair_a
    cfg = systolic.SystolicConfig(4, 8)
    first = systolic.simulate_systolic_gemm(a, b, cfg, with_trace=True)
    second = systolic.simulate_systolic_gemm(a, b, cfg, with_trace=True)
    p.check(first == second, "systolic runs differ on identical inputs")

    tree = streamer.build_ce_tree(16, 2, 1, 4)
    p.check(
        streamer.simulate_cs_gemm(a, b, tree, 2) == streamer.simulate_cs_gemm(a, b, tree, 2),
        "streamer runs differ on identical inputs",
    )
    return p


def run_validation(seed: int = 0, corpus_size: int = 200) -> ValidationReport:
    seed = as_count(seed, "seed")  # corpus_instances checks corpus_size first
    properties = run_corpus_checks(seed, corpus_size)
    properties.append(check_bound_respect())
    properties.append(check_dark_silicon())
    properties.append(check_log_separation())
    properties.append(check_low_k_occupancy())
    properties.append(check_log_latency_scaling())
    properties.append(check_summa_structure())
    properties.append(check_determinism(seed))
    # Analytic sanity: the bound itself must not increase with dimension.
    p_bound = PropertyResult("bound_monotonic_in_dimension")
    rng = random.Random(seed + 1)
    for _ in range(50):
        problem = [rng.randint(1, 10**6) for _ in range(3)]
        values = [
            fisher_bound(bounds_mod.MeshBoundInput(*problem, dimension=d)) for d in (1, 2, 3)
        ]
        p_bound.check(
            values[0] >= values[1] >= values[2],
            f"bound not non-increasing in d for I,K,T={problem}: {values}",
        )
    prod_check = fisher_bound(inner_product_bound_input(16, 1))
    p_bound.check(prod_check == 32.0, f"inner-product accounting off: {prod_check}")
    properties.append(p_bound)
    return ValidationReport(properties)
