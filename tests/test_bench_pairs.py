"""The summary arithmetic of ``tools/bench_pairs.py`` on fixed results.

No benchmark runs here: each result is the dict ``perfbench/run.py``
prints as its last line.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.append(str(Path(__file__).resolve().parent.parent / "tools"))

import bench_pairs  # noqa: E402

METRICS = [
    {"name": "instances_per_s", "better": "higher"},
    {"name": "instance_p50_s", "better": "lower"},
]


def result(rate, p50, failed=0, attempted=100):
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            "instances_per_s": {"value": rate, "unit": "1/s"},
            "instance_p50_s": {"value": p50, "unit": "s"},
        },
    }


PAIRS = [
    (1, result(10.0, 0.5), result(12.0, 0.5)),
    (2, result(20.0, 0.4, failed=3), result(20.0, 0.3, failed=1, attempted=90)),
    (3, result(30.0, 0.2), result(25.0, 0.1)),
    (4, result(40.0, 0.1), result(41.0, 0.2)),
    (5, result(50.0, 0.3), result(55.5, 0.3)),
]


def test_medians_quartiles_and_wins():
    medians = bench_pairs.summarize(PAIRS, METRICS)["medians"]
    assert medians["instances_per_s"] == {
        "parent_median": 30.0,
        "change_median": 25.0,
        "change_better": "3 of 5",  # seed 2 ties, seed 3 loses
        "parent_quartiles": [20.0, 40.0],
        "change_quartiles": [20.0, 41.0],
    }
    # lower is better; seeds 1 and 5 tie
    assert medians["instance_p50_s"]["change_better"] == "2 of 5"
    assert medians["instance_p50_s"]["parent_median"] == 0.3
    assert medians["instance_p50_s"]["change_quartiles"] == [0.2, 0.3]


def test_failures_pairs_and_the_median_seed():
    entry = bench_pairs.summarize(PAIRS, METRICS)
    assert entry["failed"] == {"parent": 3, "change": 1}
    assert entry["failed_pairs"] == [
        {"seed": 2, "parent": 3, "change": 1, "attempted_parent": 100, "attempted_change": 90}
    ]
    assert entry["parent"] == PAIRS[2][1] and entry["change"] == PAIRS[2][2]
    assert [p["seed"] for p in entry["instances_per_s_pairs"]] == [1, 2, 3, 4, 5]
    assert entry["instances_per_s_pairs"][4] == {"seed": 5, "parent": 50.0, "change": 55.5}


def test_values_keep_six_significant_digits():
    pairs = [(seed, result(1234.56789 * seed, 1e-4 / 3), result(1.0, 1.0)) for seed in (1, 2, 3)]
    medians = bench_pairs.summarize(pairs, METRICS)["medians"]
    assert medians["instances_per_s"]["parent_median"] == 2469.14
    assert medians["instance_p50_s"]["parent_median"] == 3.33333e-05


@pytest.mark.parametrize("item", ["nosuch", "oracle=1", "oracle=ten"])
def test_plan_rejects_unknown_workloads_and_single_pairs(item):
    with pytest.raises(SystemExit):
        bench_pairs.parse_args(["--parent", "HEAD~1", "--pr", "1", "--workload", item], ["oracle"])


def test_plan_defaults_to_every_workload():
    args = bench_pairs.parse_args(["--parent", "HEAD~1", "--pr", "1"], ["oracle", "cli"])
    assert args.plan == {"oracle": 10, "cli": 10}
    args = bench_pairs.parse_args(
        ["--parent", "HEAD~1", "--pr", "1", "--workload", "cli=3", "--workload", "oracle"],
        ["oracle", "cli"],
    )
    assert args.plan == {"cli": 3, "oracle": 10}


LAYER_METRICS = [
    {"name": "greedy.alg1_s", "unit": "s", "better": "lower"},
    {"name": "greedy.us_per_step", "unit": "us", "better": "lower"},
    {"name": "certify.certify_s", "unit": "s", "better": "lower"},
]


def traced(values):
    return {"metrics": {k: {"value": v, "unit": "s"} for k, v in values.items()}}


def test_layers_pair_both_sides_of_each_named_metric():
    parent = traced({"greedy.alg1_s": 0.0123456789, "greedy.us_per_step": 7.8, "setup_s": 0.3})
    change = traced({"greedy.alg1_s": 0.01, "greedy.us_per_step": 5.25, "certify.certify_s": 0.2})
    # setup_s is no per-layer metric; certify.certify_s is missing on one side
    assert bench_pairs.layers(parent, change, LAYER_METRICS) == {
        "greedy.alg1_s": {"parent": 0.0123457, "change": 0.01, "unit": "s"},
        "greedy.us_per_step": {"parent": 7.8, "change": 5.25, "unit": "us"},
    }


@pytest.mark.parametrize("trace", [0, 1])
def test_run_once_asks_for_the_trace_and_reads_its_detail_file(tmp_path, monkeypatch, trace):
    calls = []
    line = {"correct": True, "attempted": 1, "failed": 0, "metrics": {}}

    def fake_run(argv, **kwargs):
        calls.append((argv, kwargs["cwd"]))
        return subprocess.CompletedProcess(argv, 0, stdout="report\n" + json.dumps(line) + "\n")

    out = tmp_path / "perfbench" / "out"
    out.mkdir(parents=True)
    detail = out / f"result-large-seed3-trace{trace}.json"
    detail.write_text(json.dumps({"metadata": {"nproc": 2}}), encoding="utf-8")
    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    result = bench_pairs.run_once(tmp_path, ["python3", "perfbench/run.py"], "large", 3, 20, trace=trace)
    assert result == {**line, "machine": {"nproc": 2}}
    (argv, cwd), = calls
    assert cwd == tmp_path
    assert argv[0] == sys.executable
    assert argv[1:] == [
        "perfbench/run.py", "--workload", "large", "--seed", "3", "--seconds", "20",
        "--trace", str(trace),
    ]
