"""Host-time benchmark of gemmsim.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload routine --seed 1 --seconds 20 --trace 0

One workload runs in this single process, one thread, as a closed loop of
one caller: passes run back to back until ``--seconds`` have elapsed.  Every
timing is host wall time (``perf_counter``) or process CPU time, scaled to a
reference host speed by ``speed.SpeedProbe``; the unscaled times and the
probe's readings are kept in the report.  Simulated cycles are only
checked, never timed.

With ``--trace 0`` the last stdout line carries the end-to-end metrics:
``pass_s`` (median seconds per pass), ``cpu_s`` (median process CPU seconds
per pass), ``setup_s`` (median of several import + instance-building
rounds) and ``peak_rss_mb``.  ``failed / attempted`` on the same line is the
failure ratio.  With ``--trace 1`` half the time runs untraced and half
traced, and the line carries the per-layer metrics of the traced passes.
The line before it is a report: environment, pass samples, the digest of
simulated statistics, and every failure.  Reports and Chrome trace-event
files are also written to ``.perfbench_out/``.
"""

from __future__ import annotations

import os

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
# Pinned before numpy is imported, so no thread pool starts wider than one.
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import tracing  # noqa: E402
from speed import SpeedProbe  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_ROUNDS = 15
OUTPUT_DIR_ENV = "GEMMSIM_OUTPUT_DIR"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit(root: Path) -> str:
    """HEAD of the checkout, read from its own .git directory if it has one."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "platform": platform.platform(),
        "seed": seed,
        "commit": git_commit(ROOT),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def cpu_seconds() -> float:
    """CPU time of this process and of any child processes it has waited for."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def set_up(name: str, seed: int, workdir: Path):
    """Import the program and build the workload's instances, SETUP_ROUNDS times.

    Returns the last round's program and workload and every round's time,
    scaled to the reference host speed.
    """
    times = []
    with SpeedProbe() as probe:
        for _ in range(SETUP_ROUNDS):
            handler_before = probe.handler_s
            start = time.perf_counter()
            prog = workloads.load_program(SRC)
            workload = workloads.WORKLOADS[name](prog, seed, workdir, ROOT / "configs")
            times.append(time.perf_counter() - start - (probe.handler_s - handler_before))
    return prog, workload, [t * probe.factor for t in times]


class Runner:
    """Times passes of one workload and keeps every operation's outcome."""

    def __init__(self, workload) -> None:
        self.workload = workload
        self.wall: list[float] = []
        self.cpu: list[float] = []
        self.raw: list[dict] = []  # unscaled times and the probe's reading, per pass
        self.first_outputs: list | None = None
        self.first_records: list[bytes | None] | None = None
        self.outcomes: list[list[list[str]]] = []  # [pass][op] -> errors

    def run(self, budget_s: float, tracer=None, on_pass=None) -> None:
        """Run passes until budget_s has elapsed, at least one."""
        start = time.perf_counter()
        while True:
            self.workload.prepare()
            gc.collect()
            if tracer is not None:
                before = tracer.snapshot()
                tracer.active = True
            with SpeedProbe() as probe:
                c0 = cpu_seconds()
                t0 = time.perf_counter()
                outputs = self.workload.run_pass()
                t1 = time.perf_counter()
                c1 = cpu_seconds()
            if tracer is not None:
                tracer.active = False
                on_pass({
                    name: s.minus(before[name]).scaled(probe.factor)
                    for name, s in tracer.snapshot().items()
                })
            self.wall.append(probe.scale(t1 - t0))
            self.cpu.append(probe.scale(c1 - c0))
            self.raw.append({"wall_s": t1 - t0, "cpu_s": c1 - c0, "speed_factor": probe.factor,
                             "probe_samples": len(probe.samples), "probe_s": probe.handler_s})
            self.record(outputs)
            if time.perf_counter() - start >= budget_s:
                return

    def record(self, outputs: list) -> None:
        checks = self.workload.check_pass(outputs)
        if self.first_records is None:
            self.first_outputs = outputs
            self.first_records = [c.record for c in checks]
        for check, first in zip(checks, self.first_records):
            if check.record != first and not check.errors:
                check.errors.append("simulated statistics differ from the first pass")
        self.outcomes.append([c.errors for c in checks])

    def finish(self) -> None:
        """Oracle checks on the first pass; a wrong operation failed in every pass."""
        final = self.workload.check_final(self.first_outputs)
        for i, errors in enumerate(final):
            if errors:
                for outcome in self.outcomes:
                    outcome[i] = outcome[i] + errors

    @property
    def attempted(self) -> int:
        return sum(len(outcome) for outcome in self.outcomes)

    @property
    def failures(self) -> list[str]:
        return [e for outcome in self.outcomes for errors in outcome for e in errors[:1]]

    @property
    def failed(self) -> int:
        return sum(1 for outcome in self.outcomes for errors in outcome if errors)

    def digest(self) -> str:
        h = hashlib.sha256()
        for record in self.first_records or []:
            h.update(record or b"-")
        return h.hexdigest()


def check_calls(expected: dict, passes: list[dict]) -> list[str]:
    """Trace completeness: every traced pass shows the expected span counts."""
    problems = []
    for index, stats in enumerate(passes):
        for layer, (op, count) in expected.items():
            calls = stats[layer].calls
            if (op == "==" and calls != count) or (op == ">=" and calls < count):
                problems.append(f"traced pass {index}: {layer} has {calls} spans, expected {op} {count}")
        for layer, s in stats.items():
            if s.errors:
                problems.append(f"traced pass {index}: {layer} raised {s.errors} times")
    return problems


def measure(workload, seconds: float, trace: bool):
    """Run the workload; return the result line (without setup_s), a report and the tracer."""
    runner = Runner(workload)
    report: dict = {}
    problems: list[str] = []
    tracer = None
    if not trace:
        runner.run(seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = {
            "pass_s": {"value": statistics.median(runner.wall), "unit": "s"},
            "cpu_s": {"value": statistics.median(runner.cpu), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    else:
        runner.run(seconds / 2)
        untraced = len(runner.wall)
        tracer = tracing.Tracer()
        tracer.install()
        layer_passes: list[dict] = []
        try:
            runner.run(seconds / 2, tracer, layer_passes.append)
        finally:
            tracer.uninstall()
        overhead = statistics.median(runner.wall[untraced:]) - statistics.median(runner.wall[:untraced])
        metrics = tracing.per_layer_metrics(layer_passes, overhead)
        problems = check_calls(workload.expected_calls(), layer_passes)
        report["patch_sites"] = tracer.sites
    runner.finish()
    failures = runner.failures + problems
    report.update(
        {
            "pass_s": {
                "median": statistics.median(runner.wall),
                "samples": len(runner.wall),
                "all": runner.wall,
                "cpu_all": runner.cpu,
                "raw": runner.raw,
            },
            "digest": runner.digest(),
            "failures": failures,
            "fail_ratio": runner.failed / runner.attempted,
        }
    )
    result = {
        "correct": not failures,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }
    return result, report, tracer


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "gemmsim" / "__init__.py").is_file() or not (ROOT / "configs").is_dir():
        print(f"perfbench: no gemmsim sources under {ROOT}", file=sys.stderr)
        return 2
    # The program must only write where the benchmark tells it to.
    os.environ.pop(OUTPUT_DIR_ENV, None)
    workdir = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        _, workload, setup_times = set_up(args.workload, args.seed, workdir)
        result, report, tracer = measure(workload, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if not args.trace:
        result["metrics"]["setup_s"] = {"value": statistics.median(setup_times), "unit": "s"}
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    report = {
        "workload": args.workload,
        "seconds": args.seconds,
        "environment": environment(args.seed),
        "setup_s": setup_times,
        **report,
        "result": result,
    }
    if tracer is not None:
        trace_path = OUT / f"trace-{tag}.json"
        tracer.write_chrome_trace(trace_path, {"workload": args.workload, "seed": args.seed})
        report["chrome_trace"] = str(trace_path.relative_to(ROOT))
    (OUT / f"report-{tag}.json").write_text(json.dumps(report, indent=2) + "\n")
    for failure in report["failures"][:20]:
        print(f"perfbench: FAIL {failure}", file=sys.stderr)
    summary = {key: report[key] for key in ("workload", "environment", "pass_s", "digest", "fail_ratio")}
    print(json.dumps({"report": summary}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
