"""Summarise paired perfbench runs of a parent and a change as BENCH_<pr>.json.

Usage, from the root of a checkout:

    python3 tools/bench_json.py --pr 8 --parent PARENT/.perfbench_out \
        --change CHANGE/.perfbench_out

Each directory holds the ``report-*.json`` files that ``perfbench/run.py``
wrote in one checkout.  Untraced runs (``--trace 0``) pair up by workload
and seed, and unpaired runs are left out.  For every workload the
output records, per side, the median and quartiles of each end-to-end
metric over the paired runs, with the seeds, their count, the side's commit
and the environment perfbench reported.  Per metric it also counts the
pairs each side won, lower being better; a tie counts for neither.  Under
``claim`` it records per metric the parent's IQR (q3 - q1), the median gap
(parent median - change median, positive when the change is lower) and
whether a gain may be claimed: the change won at least nine tenths of the
pairs and the gap exceeds the parent's IQR.  Under ``regression`` it records
per metric the no-regression verdict: the metric's bound from the
repository's ``BENCHMARK.json`` (a fraction of the parent's median), the
median change relative to the parent's median, the parent's IQR relative to
its median, and a verdict.  The verdict is ``within`` when every run of the
change is lower than every run of the parent, else ``unresolved`` when the
parent's relative IQR exceeds the bound (the spread is too wide to tell),
else ``worse`` when the relative change exceeds the bound and ``within``
otherwise.  It also counts the pairs whose two runs simulated the same
statistics (equal perfbench ``digest``), as ``digests_equal``.

The same directories may hold one ``perfbench/run.py --trace 1`` report per
workload and side.  Where both sides ran the same seed traced, the
``traced`` section records for that workload the seed, the run length and,
per side, the commit, digest, failed operations, median ``pass_s`` and every
per-layer metric but the ``*.errors`` counts (a run with errors has
failures).  A metric in unit ``count`` whose value is a whole number is
written as an int: perfbench's median over an even number of passes reads
5.0 for five calls.  A report with failures, a second traced report of one
workload on one side, or reports of more than one commit on one side, is an
error: the summary would mix unlike runs or time wrong results.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

METRICS = ("pass_s", "cpu_s", "setup_s", "peak_rss_mb")  # lower is better for each
BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"  # read, never written


class BenchError(Exception):
    pass


def load_side(directory: Path) -> tuple[str, dict[str, dict[int, dict]], dict[str, dict]]:
    """The side's commit, its untraced reports by workload and seed, and its
    traced report by workload."""
    runs: dict[str, dict[int, dict]] = {}
    traced: dict[str, dict] = {}
    commits = set()
    for path in sorted(directory.glob("report-*.json")):
        report = json.loads(path.read_text())
        if report["failures"]:
            raise BenchError(f"{path}: {len(report['failures'])} failures: {report['failures'][0]}")
        env, workload = report["environment"], report["workload"]
        commits.add(env["commit"])
        if "patch_sites" not in report:
            runs.setdefault(workload, {})[env["seed"]] = report
        elif traced.setdefault(workload, report) is not report:
            raise BenchError(f"{path}: a second traced report of {workload}")
    if not commits:
        raise BenchError(f"{directory}: no report-*.json files")
    if len(commits) > 1:
        raise BenchError(f"{directory}: reports of several commits: {sorted(commits)}")
    return commits.pop(), runs, traced


def traced_side(report: dict) -> dict:
    """One side of a traced pair: its pass time and per-layer metrics."""
    metrics = report["result"]["metrics"]
    return {
        "commit": report["environment"]["commit"],
        "digest": report["digest"],
        "failed": report["result"]["failed"],
        "pass_s_median": report["pass_s"]["median"],
    } | {key: layer_value(m) for key, m in metrics.items() if not key.endswith(".errors")}


def layer_value(metric: dict) -> float:
    value = metric["value"]
    return int(value) if metric["unit"] == "count" and float(value).is_integer() else value


def spread(values: list[float]) -> dict[str, float]:
    q1, median, q3 = (
        statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    )
    return {"median": median, "q1": q1, "q3": q3}


def regression(parent: list[float], change: list[float], bound: float) -> dict:
    """The no-regression verdict of one metric, lower being better."""
    quartiles = spread(parent)
    base = quartiles["median"]
    change_rel = (spread(change)["median"] - base) / base
    iqr_rel = (quartiles["q3"] - quartiles["q1"]) / base
    if max(change) < min(parent):
        verdict = "within"
    elif iqr_rel > bound:
        verdict = "unresolved"
    else:
        verdict = "worse" if change_rel > bound else "within"
    return {
        "bound": bound,
        "median_change": change_rel,
        "parent_relative_iqr": iqr_rel,
        "verdict": verdict,
    }


def summarise(parent_dir: Path, change_dir: Path, pr: int) -> dict:
    sides = {"parent": load_side(parent_dir), "change": load_side(change_dir)}
    bounds = {m["name"]: m["bound"] for m in json.loads(BENCHMARK.read_text())["end_to_end"]}
    workloads = {}
    for name in sorted(sides["change"][1]):
        seeds = sorted(set(sides["parent"][1].get(name, {})) & set(sides["change"][1][name]))
        if not seeds:
            continue
        parent_runs, change_runs = sides["parent"][1][name], sides["change"][1][name]
        entry: dict = {
            "pairs": len(seeds),
            "seeds": seeds,
            "digests_equal": sum(parent_runs[s]["digest"] == change_runs[s]["digest"] for s in seeds),
        }
        values = {}
        for side, (commit, runs, _) in sides.items():
            metrics = [runs[name][seed]["result"]["metrics"] for seed in seeds]
            values[side] = {key: [m[key]["value"] for m in metrics] for key in METRICS}
            entry[side] = {"commit": commit} | {key: spread(values[side][key]) for key in METRICS}
        entry["wins"], entry["claim"], entry["regression"] = {}, {}, {}
        for key in METRICS:
            pairs = list(zip(values["parent"][key], values["change"][key]))
            wins = entry["wins"][key] = {
                "change": sum(c < p for p, c in pairs),
                "parent": sum(p < c for p, c in pairs),
            }
            parent, change = entry["parent"][key], entry["change"][key]
            iqr, gap = parent["q3"] - parent["q1"], parent["median"] - change["median"]
            entry["claim"][key] = {
                "parent_iqr": iqr,
                "median_gap": gap,
                "holds": 10 * wins["change"] >= 9 * len(pairs) and gap > iqr,
            }
            entry["regression"][key] = regression(
                values["parent"][key], values["change"][key], bounds[key]
            )
        env = dict(sides["change"][1][name][seeds[0]]["environment"])
        del env["seed"], env["commit"]
        entry["environment"] = env
        workloads[name] = entry
    if not workloads:
        raise BenchError("no workload has a seed run on both sides")
    traced = {}
    for name, change in sorted(sides["change"][2].items()):
        parent = sides["parent"][2].get(name)
        seed = change["environment"]["seed"]
        if parent is None or parent["environment"]["seed"] != seed:
            continue
        traced[name] = {
            "seed": seed,
            "seconds": change["seconds"],
            "parent": traced_side(parent),
            "change": traced_side(change),
        }
    return {"pr": pr, "metrics": list(METRICS), "workloads": workloads, "traced": traced}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pr", type=int, required=True)
    parser.add_argument("--parent", type=Path, required=True, help="parent's report directory")
    parser.add_argument("--change", type=Path, required=True, help="change's report directory")
    parser.add_argument("--out", type=Path, help="output file (default BENCH_<pr>.json)")
    args = parser.parse_args(argv)
    try:
        summary = summarise(args.parent, args.change, args.pr)
    except BenchError as exc:
        print(f"bench_json: {exc}", file=sys.stderr)
        return 1
    out = args.out or Path(f"BENCH_{args.pr}.json")
    out.write_text(json.dumps(summary, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
