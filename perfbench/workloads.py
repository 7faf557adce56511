"""The benchmark's workloads, their closed-form checks and result digests.

Why these workloads:

* ``routine`` runs every config in ``configs/`` through the CLI entry point,
  the 200-instance oracle corpus of ``validate.json`` included.  It is what
  users and the test suite run: many GEMMs of at most 64^3, so per-call
  fixed costs (systolic set-up, the pure-Python oracle, operand generation)
  dominate.
* ``gemm-large`` calls the simulators directly on large shapes, with no
  oracle inside the timed pass.  It isolates the per-clock systolic loop and
  the streamer's ``Matrix`` and transfer-count work at scale.
* ``inner-product`` runs chain, grid and tree inner products up to n = 2^20.
  It exercises the pure-Python mesh and tree loops and ``make_vectors`` and
  bypasses systolic, ``Matrix`` and the oracle, so a GEMM-only change should
  leave it unchanged.

Each workload builds its instance list from the seed (set-up), runs one pass
of operations (timed), checks each pass against closed forms and earlier
passes (untimed) and checks the first pass against the oracle once at the
end (untimed).  Every operation outcome either passes or carries a reason.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import importlib
import io
import json
import math
import random
import sys
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Callable

import numpy as np

PROGRAM_MODULES = {
    "gemmsim": "gemmsim",
    "workload": "gemmsim.workload",
    "systolic": "gemmsim.systolic",
    "streamer": "gemmsim.streamer",
    "meshflow": "gemmsim.meshflow",
    "summa": "gemmsim.summa",
    "bounds": "gemmsim.bounds",
    "cli": "gemmsim.harness.cli",
}


def load_program(src: Path) -> SimpleNamespace:
    """Import gemmsim afresh from ``src`` and return its modules by short name.

    Modules are dropped from ``sys.modules`` first, so repeated calls re-run
    the program's import-time code; third-party modules stay loaded.
    """
    for name in [n for n in sys.modules if n == "gemmsim" or n.startswith("gemmsim.")]:
        del sys.modules[name]
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    modules = {key: importlib.import_module(name) for key, name in PROGRAM_MODULES.items()}
    origin = Path(modules["gemmsim"].__file__).resolve()
    if src.resolve() not in origin.parents:
        raise ImportError(f"gemmsim was imported from {origin}, not from {src}")
    return SimpleNamespace(**modules)


# ---------------------------------------------------------------- closed forms


def tree_depth(n: int, fanout: int) -> int:
    """ceil(log_fanout(n)) in integers: levels of a fanout-ary tree over n leaves."""
    levels, reach = 0, 1
    while reach < n:
        reach *= fanout
        levels += 1
    return levels


def streamer_phases(m: int, n: int, k: int, pes: int, fanout: int, level_latency: int,
                    port_width: int, block_width: int) -> dict[str, int]:
    """The documented fill + stream + drain cycle form of ``simulate_cs_gemm``."""
    lat = tree_depth(pes, fanout) * level_latency
    owned_max = -(-m * n // pes)
    width = min(block_width, k)
    stream = 0
    for lo in range(0, k, width):
        bt = min(width, k - lo)
        stream += max(-(-(m * bt + bt * n) // port_width), owned_max * bt)
    drain = lat + max(-(-m * n // port_width), owned_max)
    return {"fill": lat, "stream": stream, "drain": drain}


def chain_cycles(n: int, hop_latency: int) -> int:
    return n * (1 + hop_latency)


def grid_cycles_and_macs(n: int, cols: int, hop_latency: int) -> tuple[int, int]:
    """Row sweeps toward column 0, then the column combine, then one exit hop."""
    stage = hop_latency + 1
    max_len = min(cols, n)
    occupied_rows = -(-n // cols)
    cycles = 1 + (max_len - 1) * stage + (occupied_rows - 1) * stage + hop_latency
    return cycles, n + occupied_rows - 1


def tree_ip_cycles(n: int, fanout: int, level_latency: int) -> int:
    return 1 + tree_depth(n, fanout) * level_latency


def square_side(n: int) -> int:
    side = math.isqrt(n)
    return side if side * side >= n else side + 1


def _expect(errors: list[str], what: str, got: Any, want: Any) -> None:
    if got != want:
        errors.append(f"{what}: got {got!r}, expected {want!r}")


# ---------------------------------------------------------------- digests


def matrix_values(mat: Any) -> np.ndarray:
    return np.asarray(mat.data, dtype=np.int64).reshape(mat.rows, mat.cols)


def sim_record(res: Any) -> bytes:
    """Digest of a SimResult's simulated statistics and exact result."""
    h = hashlib.sha256()
    stats = (
        res.cycles,
        res.mac_ops_issued,
        res.num_units,
        sorted((res.phases or {}).items()),
        sorted((res.transfer_counts or {}).items()),
        res.result.rows,
        res.result.cols,
    )
    h.update(repr(stats).encode())
    h.update(matrix_values(res.result).tobytes())
    return h.digest()


def summa_record(res: Any) -> bytes:
    fields = (
        res.steps, res.row_broadcasts, res.col_broadcasts, res.mac_ops,
        res.total_time, res.comm_time, res.comp_time,
        res.comm_latency_time, res.comm_bandwidth_time,
    )
    return hashlib.sha256(repr(fields).encode()).digest()


def describe(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


@dataclass
class Check:
    """Outcome of one operation in one pass: its digest record, or why it failed."""

    record: bytes | None
    errors: list[str]


def _checked(record: Callable[[], bytes], verify: Callable[[list[str]], None]) -> Check:
    errors: list[str] = []
    try:
        verify(errors)
        return Check(record(), errors)
    except Exception as exc:  # a malformed result is a failed operation
        return Check(None, errors + [describe(exc)])


# ---------------------------------------------------------------- routine


@dataclass(frozen=True)
class ConfigRun:
    label: str
    command: str
    config: Path
    out_dir: Path
    basename: str

    @property
    def csv_path(self) -> Path:
        return self.out_dir / f"{self.basename}.csv"


class Routine:
    """Every shipped config through ``gemmsim.harness.cli.main``, in name order."""

    name = "routine"

    def __init__(self, prog: SimpleNamespace, seed: int, workdir: Path, config_dir: Path):
        self.prog = prog
        self.ops: list[ConfigRun] = []
        self.corpus_size = 0
        for path in sorted(config_dir.glob("*.json")):
            cfg = json.loads(path.read_text())
            if "seed" in cfg:
                cfg["seed"] = seed
            if isinstance(cfg.get("workload"), dict) and "seed" in cfg["workload"]:
                cfg["workload"]["seed"] = seed
            if cfg.get("kind") == "validate":
                self.corpus_size += cfg.get("corpus_size", 200)
            # Each copy writes to its own directory under its own basename,
            # so no two configs share a report and nothing lands in reports/.
            out_dir = workdir / path.stem
            cfg["output"] = {"dir": str(out_dir), "basename": path.stem}
            copy = workdir / path.name
            copy.write_text(json.dumps(cfg, indent=2))
            command = "sweep" if cfg.get("kind") in ("sweep", "darksilicon") else "run"
            self.ops.append(ConfigRun(path.stem, command, copy, out_dir, path.stem))
        if not self.ops:
            raise FileNotFoundError(f"no configs in {config_dir}")

    def prepare(self) -> None:
        for op in self.ops:
            for suffix in (".csv", ".meta.json"):
                (op.out_dir / f"{op.basename}{suffix}").unlink(missing_ok=True)

    def run_pass(self) -> list[Any]:
        outputs: list[Any] = []
        for op in self.ops:
            stderr = io.StringIO()
            try:
                with contextlib.redirect_stderr(stderr):
                    code = self.prog.cli.main([op.command, str(op.config)])
                outputs.append((code, stderr.getvalue()))
            except Exception as exc:  # one config failing must not stop the pass
                outputs.append(exc)
        return outputs

    def check_pass(self, outputs: list[Any]) -> list[Check]:
        checks = []
        for op, out in zip(self.ops, outputs):
            if isinstance(out, BaseException):
                checks.append(Check(None, [describe(out)]))
                continue
            code, stderr = out

            def verify(errors: list[str], op=op, code=code, stderr=stderr) -> None:
                _expect(errors, f"{op.label} exit code", code, 0)
                if "validation: FAIL" in stderr:
                    errors.append(f"{op.label}: validation: FAIL")
                with op.csv_path.open(newline="") as fh:
                    rows = list(csv.DictReader(fh))
                if not rows:
                    errors.append(f"{op.label}: empty report")
                for row in rows:
                    self.check_row(row, errors)

            checks.append(_checked(lambda op=op: hashlib.sha256(op.csv_path.read_bytes()).digest(), verify))
        return checks

    def check_row(self, row: dict[str, str], errors: list[str]) -> None:
        """Closed-form checks on one report row; ``validate`` rows must be clean."""
        arch = row["architecture"]
        params = dict(item.split("=", 1) for item in row["arch_params"].split())
        p = {key: int(value) for key, value in params.items() if value.lstrip("-").isdigit()}
        where = f"{row['experiment']} {arch} {row['arch_params']}"
        if row["experiment"] == "validate":
            if int(row["checks"]) < 1 or int(row["failures"]) != 0:
                errors.append(f"validation property {arch}: {row['checks']} checks, "
                              f"{row['failures']} failures")
            return
        cycles = int(row["cycles"]) if row["cycles"] else None
        macs = int(row["mac_ops"]) if row["mac_ops"] else None
        if row["workload"] == "gemm":
            m, n, k = int(row["m"]), int(row["n"]), int(row["k"])
            _expect(errors, f"{where} MACs", macs, m * n * k)
            if arch == "systolic":
                want = self.prog.systolic.systolic_cycle_formula(
                    self.prog.workload.GemmShape(m, n, k),
                    self.prog.systolic.SystolicConfig(p["rows"], p["cols"]),
                )
                _expect(errors, f"{where} cycles", cycles, want)
            elif arch == "streamer":
                phases = streamer_phases(m, n, k, p["pes"], p["fanout"], p["level_latency"],
                                         p["port_width"], int(row["block_width"]))
                _expect(errors, f"{where} cycles", cycles, sum(phases.values()))
                got = {phase: int(row[f"{phase}_cycles"]) for phase in phases}
                _expect(errors, f"{where} phases", got, phases)
            elif arch == "summa":
                steps = -(-k // min(int(row["block_width"]), k))
                _expect(errors, f"{where} steps", int(row["steps"]), steps)
        elif row["workload"] == "inner_product":
            n = int(row["vector_n"])
            if arch == "chain":
                _expect(errors, f"{where} cycles", cycles, chain_cycles(n, p["hop_latency"]))
                _expect(errors, f"{where} MACs", macs, n)
            elif arch == "grid":
                want = grid_cycles_and_macs(n, p["cols"], p["hop_latency"])
                _expect(errors, f"{where} cycles and MACs", (cycles, macs), want)
            elif arch == "tree":
                _expect(errors, f"{where} cycles", cycles,
                        tree_ip_cycles(n, p["fanout"], p["level_latency"]))
                _expect(errors, f"{where} MACs", macs, n)

    def check_final(self, outputs: list[Any]) -> list[list[str]]:
        return [[] for _ in self.ops]

    def expected_calls(self) -> dict[str, tuple[str, int]]:
        configs = len(self.ops)
        corpus = self.corpus_size
        return {
            "harness.experiments": ("==", configs),
            "harness.report": ("==", configs),
            "harness.config": (">=", configs),
            "harness.validation": (">=", 1 if corpus else 0),
            "systolic": (">=", corpus),
            "streamer.cs_gemm": (">=", corpus),
            "workload.make_gemm": (">=", corpus),
            "workload.reference_matmul": (">=", corpus),
        }


# ---------------------------------------------------------------- gemm-large

# (m, n, k) on an (R, C) array.
SYSTOLIC_POINTS = (
    ((64, 64, 64), (16, 16)),
    ((64, 64, 64), (64, 64)),
    ((256, 256, 256), (16, 16)),
    ((256, 256, 256), (64, 64)),
    ((256, 256, 8), (16, 16)),
)
# (m, n, k), PEs, block width; trees use the default fanout and port width.
STREAMER_POINTS = (
    ((256, 256, 256), 256, 1),
    ((256, 256, 256), 256, 32),
    ((512, 512, 64), 1024, 1),
)
# (m, n, k), block width, (p_rows, p_cols).
SUMMA_POINT = ((256, 256, 256), 32, (4, 4))


@dataclass(frozen=True)
class GemmOp:
    label: str
    kind: str
    shape: tuple[int, int, int] | None
    run: Callable[[Any, Any], Any]
    verify: Callable[[Any, list[str]], None]


class GemmLarge:
    """``make_gemm`` and direct simulator calls on large shapes."""

    name = "gemm-large"

    def __init__(self, prog: SimpleNamespace, seed: int, workdir: Path | None = None,
                 config_dir: Path | None = None, *, systolic_points=SYSTOLIC_POINTS,
                 streamer_points=STREAMER_POINTS, summa_point=SUMMA_POINT):
        self.prog = prog
        rng = random.Random(seed)
        shapes = [shape for shape, _ in systolic_points] + [shape for shape, _, _ in streamer_points]
        self.shapes = {
            dims: (prog.workload.GemmShape(*dims), rng.randrange(1 << 30))
            for dims in dict.fromkeys(shapes)
        }
        self.ops: list[GemmOp] = []
        for dims, (rows, cols) in systolic_points:
            self.ops.append(self._systolic_op(dims, prog.systolic.SystolicConfig(rows, cols)))
        for dims, pes, width in streamer_points:
            self.ops.append(self._streamer_op(dims, prog.streamer.build_ce_tree(pes), width))
        if summa_point is not None:
            dims, width, (p_rows, p_cols) = summa_point
            cluster = prog.summa.ClusterModel(
                p_rows, p_cols, prog.bounds.CommModel(1e-6, 1e-9), 1e9
            )
            self.ops.append(self._summa_op(prog.workload.GemmShape(*dims), width, cluster))

    def _systolic_op(self, dims, cfg) -> GemmOp:
        shape = self.shapes[dims][0]
        prog = self.prog

        def verify(res: Any, errors: list[str]) -> None:
            _expect(errors, "cycles", res.cycles, prog.systolic.systolic_cycle_formula(shape, cfg))
            _expect(errors, "MACs", res.mac_ops_issued, shape.macs)

        return GemmOp(
            f"systolic {dims} on {cfg.rows}x{cfg.cols}", "systolic", dims,
            lambda a, b: prog.systolic.simulate_systolic_gemm(a, b, cfg), verify,
        )

    def _streamer_op(self, dims, tree, width) -> GemmOp:
        m, n, k = dims
        prog = self.prog
        phases = streamer_phases(m, n, k, tree.num_pes, tree.fanout, tree.level_latency,
                                 tree.root_port_width, width)

        def verify(res: Any, errors: list[str]) -> None:
            _expect(errors, "cycles", res.cycles, sum(phases.values()))
            _expect(errors, "phases", dict(res.phases), phases)
            _expect(errors, "MACs", res.mac_ops_issued, m * n * k)
            _expect(errors, "PE-to-PE transfers", res.transfer_counts.get("pe_to_pe"), 0)

        return GemmOp(
            f"streamer {dims} on {tree.num_pes} PEs, block width {width}", "streamer", dims,
            lambda a, b: prog.streamer.simulate_cs_gemm(a, b, tree, width), verify,
        )

    def _summa_op(self, shape, width, cluster) -> GemmOp:
        prog = self.prog

        def verify(res: Any, errors: list[str]) -> None:
            _expect(errors, "steps", res.steps, -(-shape.k // min(width, shape.k)))
            _expect(errors, "MACs", res.mac_ops, shape.macs)

        return GemmOp(
            f"summa {shape.m}x{shape.n}x{shape.k} on {cluster.p_rows}x{cluster.p_cols}", "summa",
            None,
            lambda a, b: prog.summa.simulate_summa(shape, width, cluster), verify,
        )

    def prepare(self) -> None:
        pass

    def _operands(self) -> dict:
        operands: dict = {}
        for dims, (shape, seed) in self.shapes.items():
            try:
                operands[dims] = self.prog.workload.make_gemm(shape, seed)
            except Exception as exc:  # fails every operation on this shape
                operands[dims] = exc
        return operands

    def run_pass(self) -> list[Any]:
        operands = self._operands()
        outputs: list[Any] = []
        for op in self.ops:
            pair = operands.get(op.shape, (None, None))
            try:
                if isinstance(pair, BaseException):
                    raise pair
                outputs.append(op.run(*pair))
            except Exception as exc:  # recorded as a failed operation
                outputs.append(exc)
        return outputs

    def check_pass(self, outputs: list[Any]) -> list[Check]:
        checks = []
        for op, res in zip(self.ops, outputs):
            if isinstance(res, BaseException):
                checks.append(Check(None, [f"{op.label}: {describe(res)}"]))
                continue
            record = summa_record if op.kind == "summa" else sim_record
            check = _checked(lambda res=res, record=record: record(res),
                             lambda errors, op=op, res=res: op.verify(res, errors))
            check.errors = [f"{op.label}: {e}" for e in check.errors]
            checks.append(check)
        return checks

    def check_final(self, outputs: list[Any]) -> list[list[str]]:
        """Every simulated product against ``reference_matmul``, off the clock."""
        oracles = {}
        for dims, (shape, seed) in self.shapes.items():
            a, b = self.prog.workload.make_gemm(shape, seed)
            oracles[dims] = matrix_values(self.prog.workload.reference_matmul(a, b))
        errors = []
        for op, res in zip(self.ops, outputs):
            if op.kind == "summa" or isinstance(res, BaseException):
                errors.append([])
                continue
            same = np.array_equal(matrix_values(res.result), oracles[op.shape])
            errors.append([] if same else [f"{op.label}: result differs from reference_matmul"])
        return errors

    def expected_calls(self) -> dict[str, tuple[str, int]]:
        kinds = [op.kind for op in self.ops]
        return {
            "systolic": ("==", kinds.count("systolic")),
            "streamer.cs_gemm": ("==", kinds.count("streamer")),
            "summa": (">=", kinds.count("summa")),
            "workload.make_gemm": ("==", len(self.shapes)),
            "workload.reference_matmul": ("==", 0),
            "workload.matrix_convert": (">=", kinds.count("systolic") + kinds.count("streamer")),
        }


# ---------------------------------------------------------------- inner-product

INNER_PRODUCT_SIZES = (4096, 65536, 1 << 20)


class InnerProduct:
    """Seeded chain, grid and tree inner products; each regenerates its vectors."""

    name = "inner-product"

    def __init__(self, prog: SimpleNamespace, seed: int, workdir: Path | None = None,
                 config_dir: Path | None = None, *, sizes=INNER_PRODUCT_SIZES):
        self.prog = prog
        rng = random.Random(seed)
        self.points = [(n, rng.randrange(1 << 30)) for n in sizes]
        self.ops = [(kind, n, s) for n, s in self.points for kind in ("chain", "grid", "tree")]

    def prepare(self) -> None:
        pass

    def run_pass(self) -> list[Any]:
        meshflow, streamer = self.prog.meshflow, self.prog.streamer
        outputs: list[Any] = []
        for kind, n, seed in self.ops:
            try:
                if kind == "chain":
                    outputs.append(meshflow.simulate_chain_reduction(n, seed=seed))
                elif kind == "grid":
                    outputs.append(meshflow.simulate_grid_reduction(n, seed=seed))
                else:
                    outputs.append(streamer.simulate_tree_inner_product(n, seed=seed))
            except Exception as exc:  # recorded as a failed operation
                outputs.append(exc)
        return outputs

    @staticmethod
    def verify(kind: str, n: int, res: Any, errors: list[str]) -> None:
        """Default configs: chain of n PEs, square grid, binary tree; unit latencies."""
        if kind == "chain":
            _expect(errors, "cycles", res.cycles, chain_cycles(n, 1))
            _expect(errors, "MACs", res.mac_ops_issued, n)
        elif kind == "grid":
            want = grid_cycles_and_macs(n, square_side(n), 1)
            _expect(errors, "cycles and MACs", (res.cycles, res.mac_ops_issued), want)
        else:
            _expect(errors, "cycles", res.cycles, tree_ip_cycles(n, 2, 1))
            _expect(errors, "MACs", res.mac_ops_issued, n)

    def check_pass(self, outputs: list[Any]) -> list[Check]:
        checks = []
        for (kind, n, _), res in zip(self.ops, outputs):
            label = f"{kind} n={n}"
            if isinstance(res, BaseException):
                checks.append(Check(None, [f"{label}: {describe(res)}"]))
                continue
            check = _checked(lambda res=res: sim_record(res),
                             lambda errors, kind=kind, n=n, res=res: self.verify(kind, n, res, errors))
            check.errors = [f"{label}: {e}" for e in check.errors]
            checks.append(check)
        return checks

    def check_final(self, outputs: list[Any]) -> list[list[str]]:
        """Each scalar against a plain-integer dot product of the seeded vectors."""
        expected = {}
        for n, seed in self.points:
            a, b = self.prog.workload.make_vectors(n, seed)
            expected[n] = sum(x * y for x, y in zip(a, b))
        errors = []
        for (kind, n, _), res in zip(self.ops, outputs):
            if isinstance(res, BaseException) or res.scalar == expected[n]:
                errors.append([])
            else:
                errors.append([f"{kind} n={n}: scalar {res.scalar} != {expected[n]}"])
        return errors

    def expected_calls(self) -> dict[str, tuple[str, int]]:
        per_kind = len(self.points)
        return {
            "meshflow.chain": ("==", per_kind),
            "meshflow.grid": ("==", per_kind),
            "streamer.tree_ip": ("==", per_kind),
            "workload.make_vectors": (">=", per_kind),
            "systolic": ("==", 0),
            "workload.reference_matmul": ("==", 0),
        }


WORKLOADS = {cls.name: cls for cls in (Routine, GemmLarge, InnerProduct)}
