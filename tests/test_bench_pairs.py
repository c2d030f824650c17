"""The summary arithmetic of ``tools/bench_pairs.py`` on fixed results.

No benchmark runs here: each result is the dict ``perfbench/run.py``
prints as its last line.
"""

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
