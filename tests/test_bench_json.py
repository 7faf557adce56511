"""tools/bench_json.py on synthetic perfbench reports."""

import importlib.util
import json
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "bench_json", Path(__file__).resolve().parents[1] / "tools" / "bench_json.py"
)
bench_json = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_json)


# Per-layer metrics of a traced report, as perfbench/tracing.py names them.
LAYER_METRICS = ("systolic.calls", "systolic.self_s", "systolic.errors", "workload.oracle_ns_per_mac")


def write_report(
    directory, workload, seed, commit, value, traced=False, digest="d0", failures=(), units=None
):
    directory.mkdir(exist_ok=True)
    keys = LAYER_METRICS if traced else bench_json.METRICS
    metrics = {key: {"value": value, "unit": (units or {}).get(key, "s")} for key in keys}
    report = {
        "workload": workload,
        "seconds": 30,
        "environment": {"python": "3.11", "nproc": 2, "seed": seed, "commit": commit},
        "pass_s": {"median": value, "samples": 3},
        "digest": digest,
        "failures": list(failures),
        "result": {"correct": not failures, "failed": len(failures), "metrics": metrics},
    }
    if traced:
        report["patch_sites"] = {}
    path = directory / f"report-{workload}-seed{seed}-trace{int(traced)}.json"
    path.write_text(json.dumps(report))


def args(pr, parent, change, out):
    return ["--pr", str(pr), "--parent", str(parent), "--change", str(change), "--out", str(out)]


def test_summary_of_paired_runs(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for seed, value in ((1, 1.0), (2, 2.0), (3, 3.0), (4, 4.0), (5, 5.0)):
        write_report(parent, "routine", seed, "aaa", value)
        write_report(change, "routine", seed, "bbb", value / 2)
    write_report(parent, "routine", 9, "aaa", 100.0)  # unpaired: left out
    write_report(change, "inner-product", 1, "bbb", 1.0)  # no parent run: left out
    out = tmp_path / "BENCH_3.json"
    assert bench_json.main(args(3, parent, change, out)) == 0

    summary = json.loads(out.read_text())
    assert summary["pr"] == 3
    assert summary["traced"] == {}
    assert list(summary["workloads"]) == ["routine"]
    routine = summary["workloads"]["routine"]
    assert routine["pairs"] == 5
    assert routine["digests_equal"] == 5
    assert routine["seeds"] == [1, 2, 3, 4, 5]
    assert routine["environment"] == {"python": "3.11", "nproc": 2}
    assert routine["parent"]["commit"] == "aaa"
    assert routine["change"]["commit"] == "bbb"
    for key in bench_json.METRICS:
        assert routine["parent"][key] == {"median": 3.0, "q1": 2.0, "q3": 4.0}
        assert routine["change"][key] == {"median": 1.5, "q1": 1.0, "q3": 2.0}
        assert routine["wins"][key] == {"change": 5, "parent": 0}


def test_pair_wins_count_lower_values_and_no_ties(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    # Seeds 1-2 the change wins, seed 3 ties, seed 4 the parent wins.
    for seed, (before, after) in enumerate(((2.0, 1.0), (5.0, 4.5), (3.0, 3.0), (1.0, 1.5)), 1):
        write_report(parent, "inner-product", seed, "aaa", before)
        write_report(change, "inner-product", seed, "bbb", after)
    out = tmp_path / "BENCH_4.json"
    assert bench_json.main(args(4, parent, change, out)) == 0
    wins = json.loads(out.read_text())["workloads"]["inner-product"]["wins"]
    assert list(wins) == list(bench_json.METRICS)
    assert all(w == {"change": 2, "parent": 1} for w in wins.values())


def test_digests_equal_counts_pairs_with_one_digest(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    # Seeds 1 and 3 simulate the same statistics on both sides, seed 2 does not.
    for seed, digest in ((1, "d1"), (2, "d2"), (3, "d3")):
        write_report(parent, "gemm-large", seed, "aaa", 1.0, digest=digest)
        write_report(change, "gemm-large", seed, "bbb", 1.0, digest=digest.replace("d2", "x"))
    out = tmp_path / "BENCH_5.json"
    assert bench_json.main(args(5, parent, change, out)) == 0
    assert json.loads(out.read_text())["workloads"]["gemm-large"]["digests_equal"] == 2


def test_traced_reports_fill_the_traced_section(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for seed in (1, 2):
        write_report(parent, "routine", seed, "aaa", 1.0)
        write_report(change, "routine", seed, "bbb", 0.5)
        write_report(parent, "gemm-large", seed, "aaa", 1.0)
        write_report(change, "gemm-large", seed, "bbb", 1.0)
    write_report(parent, "routine", 3, "aaa", 0.4, traced=True, digest="t")
    write_report(change, "routine", 3, "bbb", 0.3, traced=True, digest="t")
    write_report(parent, "gemm-large", 3, "aaa", 0.1, traced=True)
    write_report(change, "gemm-large", 4, "bbb", 0.1, traced=True)  # seeds differ: left out
    out = tmp_path / "BENCH_6.json"
    assert bench_json.main(args(6, parent, change, out)) == 0

    summary = json.loads(out.read_text())
    assert summary["workloads"]["routine"]["pairs"] == 2  # traced runs are not paired
    assert list(summary["traced"]) == ["routine"]
    routine = summary["traced"]["routine"]
    assert (routine["seed"], routine["seconds"]) == (3, 30)
    for side, commit, value in (("parent", "aaa", 0.4), ("change", "bbb", 0.3)):
        assert routine[side] == {
            "commit": commit,
            "digest": "t",
            "failed": 0,
            "pass_s_median": value,
            "systolic.calls": value,
            "systolic.self_s": value,
            "workload.oracle_ns_per_mac": value,
        }


@pytest.mark.parametrize(
    "changes, holds",
    [
        # Parent 1..10: median 5.5, quartiles 3.25 and 7.75, IQR 4.5.
        ([p - 5 for p in range(1, 10)] + [11], True),  # wins 9 of 10, gap 5.0
        ([p - 1 for p in range(1, 11)], False),  # wins 10 of 10, gap 1.0 <= IQR
        ([p - 8 for p in range(1, 9)] + [10, 11], False),  # gap 8.0 > IQR, wins 8 of 10
    ],
    ids=["holds", "gap-within-iqr", "eight-wins"],
)
def test_claim_rule_needs_nine_tenths_of_wins_and_a_gap_beyond_the_parent_iqr(
    tmp_path, changes, holds
):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for seed, after in enumerate(changes, 1):
        write_report(parent, "routine", seed, "aaa", float(seed))
        write_report(change, "routine", seed, "bbb", float(after))
    out = tmp_path / "BENCH_7.json"
    assert bench_json.main(args(7, parent, change, out)) == 0
    routine = json.loads(out.read_text())["workloads"]["routine"]
    for key in bench_json.METRICS:
        claim = routine["claim"][key]
        assert claim["parent_iqr"] == pytest.approx(4.5)
        want_gap = routine["parent"][key]["median"] - routine["change"][key]["median"]
        assert claim["median_gap"] == pytest.approx(want_gap)
        assert claim["holds"] is holds


def test_traced_whole_counts_are_ints(tmp_path):
    # perfbench's median over an even number of passes reads 5.0 calls.
    parent, change = tmp_path / "parent", tmp_path / "change"
    write_report(parent, "routine", 1, "aaa", 1.0)
    write_report(change, "routine", 1, "bbb", 1.0)
    units = {"systolic.calls": "count"}
    write_report(parent, "routine", 2, "aaa", 5.5, traced=True, units=units)
    write_report(change, "routine", 2, "bbb", 5.0, traced=True, units=units)
    out = tmp_path / "BENCH_8.json"
    assert bench_json.main(args(8, parent, change, out)) == 0
    traced = json.loads(out.read_text())["traced"]["routine"]
    for side, calls in (("parent", 5.5), ("change", 5)):
        assert traced[side]["systolic.calls"] == calls
        assert type(traced[side]["systolic.calls"]) is type(calls)
    assert type(traced["change"]["systolic.self_s"]) is float  # seconds stay floats


@pytest.mark.parametrize("defect", ["traced", "mixed-commits", "failures"])
def test_unlike_runs_are_refused(tmp_path, capsys, defect):
    parent, change = tmp_path / "parent", tmp_path / "change"
    write_report(parent, "routine", 1, "aaa", 1.0)
    write_report(change, "routine", 1, "bbb", 1.0)
    if defect == "traced":  # two traced runs of one workload: which one counts?
        write_report(change, "routine", 2, "bbb", 1.0, traced=True)
        write_report(change, "routine", 3, "bbb", 1.0, traced=True)
    elif defect == "failures":
        write_report(parent, "routine", 2, "aaa", 1.0, failures=["gemm 3: wrong cycles"])
    else:
        write_report(change, "gemm-large", 1, "ccc", 1.0)
    out = tmp_path / "BENCH_1.json"
    assert bench_json.main(args(1, parent, change, out)) != 0
    assert "bench_json:" in capsys.readouterr().err
    assert not out.exists()


TIGHT = [10.0, 10.1, 10.2, 10.3, 10.4]  # median 10.2, IQR 0.2: 2% of the median
WIDE = [5.0, 10.0, 15.0, 20.0, 25.0]  # median 15, IQR 10: 67% of the median


@pytest.mark.parametrize(
    "parents, changes, change_rel, verdict",
    [
        (TIGHT, [v * 1.05 for v in TIGHT], 0.05, "within"),
        (TIGHT, [v * 1.2 for v in TIGHT], 0.2, "worse"),
        (WIDE, [v * 1.05 for v in WIDE], 0.05, "unresolved"),
        (WIDE, [v * 1.2 for v in WIDE], 0.2, "unresolved"),
        (WIDE, [4.0, 4.1, 4.2, 4.3, 4.4], 4.2 / 15 - 1, "within"),  # every run lower
    ],
    ids=["within", "worse", "unresolved", "unresolved-not-worse", "every-run-lower"],
)
def test_regression_verdict_against_the_benchmark_bound(
    tmp_path, monkeypatch, parents, changes, change_rel, verdict
):
    benchmark = tmp_path / "BENCHMARK.json"
    end_to_end = [{"name": key, "bound": 0.1} for key in bench_json.METRICS]
    benchmark.write_text(json.dumps({"end_to_end": end_to_end}))
    monkeypatch.setattr(bench_json, "BENCHMARK", benchmark)
    parent, change = tmp_path / "parent", tmp_path / "change"
    for seed, (before, after) in enumerate(zip(parents, changes), 1):
        write_report(parent, "gemm-large", seed, "aaa", before)
        write_report(change, "gemm-large", seed, "bbb", after)
    out = tmp_path / "BENCH_9.json"
    assert bench_json.main(args(9, parent, change, out)) == 0
    regression = json.loads(out.read_text())["workloads"]["gemm-large"]["regression"]
    assert list(regression) == list(bench_json.METRICS)
    for entry in regression.values():
        assert entry["bound"] == 0.1
        assert entry["median_change"] == pytest.approx(change_rel)
        assert entry["verdict"] == verdict


def test_regression_bounds_come_from_the_repository_benchmark(tmp_path):
    declared = json.loads(bench_json.BENCHMARK.read_text())["end_to_end"]
    parent, change = tmp_path / "parent", tmp_path / "change"
    write_report(parent, "routine", 1, "aaa", 1.0)
    write_report(change, "routine", 1, "bbb", 1.0)
    out = tmp_path / "BENCH_10.json"
    assert bench_json.main(args(10, parent, change, out)) == 0
    regression = json.loads(out.read_text())["workloads"]["routine"]["regression"]
    assert {m["name"]: m["bound"] for m in declared} == {
        key: entry["bound"] for key, entry in regression.items()
    }
    assert all(entry["verdict"] == "within" for entry in regression.values())
