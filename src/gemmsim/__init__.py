"""gemmsim: simulators and analytic models for matrix-multiply architectures.

Four machines over one workload model: a weight-stationary systolic array
(cycle-level), a store-and-forward mesh (chain and grid inner products), a
collective-streaming CE tree (pipelined outer-product GEMM), and an analytic
SUMMA cluster model, plus the closed-form bounds they are all compared
against.  All on-chip simulators compute in exact integer arithmetic and are
validated bit-exactly against a pure-Python reference multiply.
"""

from .bounds import (
    CollectiveKind,
    CommModel,
    DarkSiliconPoint,
    MeshBoundInput,
    collective_cost,
    dark_silicon,
    fisher_bound,
    inner_product_bound_input,
    tree_time,
)
from .meshflow import (
    MeshConfig,
    empirical_bound_ratio,
    simulate_chain_reduction,
    simulate_grid_reduction,
)
from .results import SimResult
from .streamer import (
    CETree,
    PEAssignment,
    build_ce_tree,
    simulate_cs_gemm,
    simulate_tree_inner_product,
    tree_collective_latency,
)
from .summa import (
    ClusterModel,
    SummaResult,
    WeakScalingPoint,
    simulate_summa,
    weak_scaling_overhead,
)
from .systolic import SystolicConfig, simulate_systolic_gemm, systolic_cycle_formula
from .workload import (
    OPERAND_MAX,
    OPERAND_MIN,
    GemmShape,
    Matrix,
    OuterProductStep,
    make_gemm,
    make_vectors,
    outer_product_schedule,
    reference_matmul,
)

__version__ = "0.1.0"

__all__ = [
    "CETree",
    "ClusterModel",
    "CollectiveKind",
    "CommModel",
    "DarkSiliconPoint",
    "GemmShape",
    "Matrix",
    "MeshBoundInput",
    "MeshConfig",
    "OPERAND_MAX",
    "OPERAND_MIN",
    "OuterProductStep",
    "PEAssignment",
    "SimResult",
    "SummaResult",
    "SystolicConfig",
    "WeakScalingPoint",
    "build_ce_tree",
    "collective_cost",
    "dark_silicon",
    "empirical_bound_ratio",
    "fisher_bound",
    "inner_product_bound_input",
    "make_gemm",
    "make_vectors",
    "outer_product_schedule",
    "reference_matmul",
    "simulate_chain_reduction",
    "simulate_cs_gemm",
    "simulate_grid_reduction",
    "simulate_summa",
    "simulate_systolic_gemm",
    "simulate_tree_inner_product",
    "systolic_cycle_formula",
    "tree_collective_latency",
    "tree_time",
    "weak_scaling_overhead",
]
