"""Alternating parent/change pairs of the benchmark, summarised in BENCH_<pr>.json.

Usage::

    python tools/bench_pairs.py --parent REV --pr N [--workload NAME[=PAIRS] ...]

The parent revision and ``HEAD`` are exported with ``git archive`` into
one temporary directory, so uncommitted edits are not measured and the
runs write nothing in the repository; the only file written is
``BENCH_<pr>.json`` at the repository root. It refuses to start when
``--parent`` is ``HEAD`` or ``src`` has uncommitted changes, since either
would compare the parent with itself. The command, the run length,
the workloads and the end-to-end metrics come from ``BENCHMARK.json``.
Seed ``s`` of a workload runs ``--workload W --seed s --seconds
<run_seconds> --trace 0`` in each tree, the parent first when ``s`` is
odd and the change first when it is even, and each run's last stdout
line is its result. A workload named without a count gets 10 pairs;
without ``--workload`` every workload does.

For each workload and end-to-end metric the file holds both sides'
medians and quartiles, and how many pairs the change won, where ties
count for neither side. For each metric with a ``bound`` it holds each
side's spread gate under ``spread``: the quartile spread q3 - q1, the
limit ``bound`` times that side's median, and whether the spread stays
inside it; a spread outside its limit is also printed. It also holds each side's failed count and
every pair with a failure; ``parent`` and ``change`` are the runs of
the median seed. After its pairs, each workload runs once per side with
``--trace 1`` on seed 1, parent first, and ``per_layer`` holds both
sides' values of every per-layer metric ``BENCHMARK.json`` names. One
traced run per side sizes a layer's change; it is no pair statistic.

Needs only the standard library and git.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def export(rev: str, dest: Path) -> Path:
    """The tree of ``rev`` unpacked into ``dest``."""
    dest.mkdir(parents=True)
    archive = dest.with_suffix(".tar")
    subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", "-o", str(archive), rev], check=True
    )
    with tarfile.open(archive) as tar:
        tar.extractall(dest, filter="data")
    archive.unlink()
    return dest


def commit(rev: str) -> str:
    done = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "--verify", f"{rev}^{{commit}}"],
        capture_output=True, text=True, check=True,
    )
    return done.stdout.strip()


def refuse_self_comparison(parent: str) -> None:
    """Exit unless ``HEAD`` holds a change to measure against ``parent``.

    The runs measure committed trees: against a parent that is ``HEAD``,
    or with the change still uncommitted under ``src``, they would take
    half an hour to report noise as the change's effect.
    """
    if commit(parent) == commit("HEAD"):
        sys.exit(f"--parent {parent} is HEAD; commit the change first")
    status = subprocess.run(
        ["git", "-C", str(ROOT), "status", "--porcelain", "--", "src"],
        capture_output=True, text=True, check=True,
    )
    if status.stdout.strip():
        sys.exit("src has uncommitted changes, which the runs would not measure;"
                 " commit them first:\n" + status.stdout.rstrip())


def run_once(
    tree: Path, command: list[str], workload: str, seed: int, seconds: float, trace: int = 0
) -> dict:
    """One benchmark run in ``tree``: its last stdout line and its machine."""
    argv = [sys.executable if arg in ("python", "python3") else arg for arg in command]
    argv += ["--workload", workload, "--seed", str(seed), "--seconds", f"{seconds:g}"]
    argv += ["--trace", str(trace)]
    done = subprocess.run(argv, cwd=tree, capture_output=True, text=True, check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    detail = tree / "perfbench" / "out" / f"result-{workload}-seed{seed}-trace{trace}.json"
    if detail.is_file():
        result["machine"] = json.loads(detail.read_text(encoding="utf-8"))["metadata"]
    return result


def _round(value: float) -> float:
    return float(f"{value:.6g}")


def _quartiles(values: list[float]) -> list[float]:
    low, _, high = statistics.quantiles(values, n=4, method="inclusive")
    return [_round(low), _round(high)]


def _spread(values: list[float], bound: float) -> dict:
    """The quartile spread of one side's runs against ``bound`` times their median."""
    low, _, high = statistics.quantiles(values, n=4, method="inclusive")
    limit = bound * statistics.median(values)
    return {"q3_minus_q1": _round(high - low), "limit": _round(limit), "inside": high - low <= limit}


def summarize(pairs: list[tuple[int, dict, dict]], metrics: list[dict]) -> dict:
    """One workload's entry from its ``(seed, parent, change)`` results.

    ``metrics`` are ``BENCHMARK.json``'s end-to-end entries; a metric's
    ``better`` field says which direction wins a pair, and its optional
    ``bound`` sets the spread gate.
    """
    middle = sorted(pairs, key=lambda pair: pair[0])[(len(pairs) - 1) // 2]
    entry = {
        "parent": {k: v for k, v in middle[1].items() if k != "machine"},
        "change": {k: v for k, v in middle[2].items() if k != "machine"},
        "instances_per_s_pairs": [
            {
                "seed": seed,
                "parent": round(parent["metrics"]["instances_per_s"]["value"], 2),
                "change": round(change["metrics"]["instances_per_s"]["value"], 2),
            }
            for seed, parent, change in pairs
        ],
        "failed": {
            "parent": sum(parent["failed"] for _, parent, _ in pairs),
            "change": sum(change["failed"] for _, _, change in pairs),
        },
        "failed_pairs": [
            {
                "seed": seed,
                "parent": parent["failed"],
                "change": change["failed"],
                "attempted_parent": parent["attempted"],
                "attempted_change": change["attempted"],
            }
            for seed, parent, change in pairs
            if parent["failed"] or change["failed"]
        ],
        "medians": {},
        "spread": {},
    }
    for metric in metrics:
        name = metric["name"]
        sign = 1.0 if metric["better"] == "higher" else -1.0
        before = [parent["metrics"][name]["value"] for _, parent, _ in pairs]
        after = [change["metrics"][name]["value"] for _, _, change in pairs]
        wins = sum(sign * (b - a) > 0.0 for a, b in zip(before, after))
        entry["medians"][name] = {
            "parent_median": _round(statistics.median(before)),
            "change_median": _round(statistics.median(after)),
            "change_better": f"{wins} of {len(pairs)}",
            "parent_quartiles": _quartiles(before),
            "change_quartiles": _quartiles(after),
        }
        if "bound" in metric:
            entry["spread"][name] = {
                "bound": metric["bound"],
                "parent": _spread(before, metric["bound"]),
                "change": _spread(after, metric["bound"]),
            }
    return entry


def layers(parent: dict, change: dict, metrics: list[dict]) -> dict:
    """Both sides' per-layer values from one ``--trace 1`` run each.

    ``metrics`` are ``BENCHMARK.json``'s per-layer entries; a metric a
    run did not report is left out.
    """
    out = {}
    for metric in metrics:
        name = metric["name"]
        if name in parent["metrics"] and name in change["metrics"]:
            out[name] = {
                "parent": _round(parent["metrics"][name]["value"]),
                "change": _round(change["metrics"][name]["value"]),
                "unit": metric["unit"],
            }
    return out


def parse_args(argv: list[str] | None, names: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="parent revision")
    parser.add_argument("--pr", required=True, help="names the output BENCH_<pr>.json")
    parser.add_argument(
        "--workload", action="append", default=[], metavar="NAME[=PAIRS]",
        help="a workload and its pair count (default 10); repeatable (default: all)",
    )
    args = parser.parse_args(argv)
    plan = {}
    for item in args.workload or names:
        name, _, count = item.partition("=")
        if name not in names:
            parser.error(f"unknown workload {name!r}; BENCHMARK.json has {', '.join(names)}")
        try:
            plan[name] = int(count) if count else 10
        except ValueError:
            parser.error(f"{name}: pair count {count!r} is not an integer")
        if plan[name] < 2:
            parser.error(f"{name}: quartiles need at least 2 pairs")
    args.plan = plan
    return args


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    args = parse_args(argv, [w["name"] for w in spec["workloads"]])
    refuse_self_comparison(args.parent)
    seconds = spec["run_seconds"]
    command = spec["command"]
    out = {
        "command": " ".join(command)
        + f" --workload <workload> --seed <seed> --seconds {seconds:g} --trace 0",
        "machine": {},
        "protocol": "alternating parent/change pairs, parent first on odd seeds; "
        + ", ".join(f"seeds 1-{n} on {w}" for w, n in args.plan.items())
        + "; parent and change are the runs of the median seed; per_layer is one"
        + " --trace 1 run per side on seed 1, parent first",
        "revisions": {"parent": commit(args.parent), "change": commit("HEAD")},
        "workloads": {},
    }
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        trees = {
            "parent": export(args.parent, Path(tmp) / "parent"),
            "change": export("HEAD", Path(tmp) / "change"),
        }
        for workload, count in args.plan.items():
            pairs = []
            for seed in range(1, count + 1):
                order = ("parent", "change") if seed % 2 else ("change", "parent")
                results = {
                    side: run_once(trees[side], command, workload, seed, seconds)
                    for side in order
                }
                rate = {s: r["metrics"]["instances_per_s"]["value"] for s, r in results.items()}
                print(f"{workload} seed {seed}: parent {rate['parent']:.6g}, "
                      f"change {rate['change']:.6g} instances/s", flush=True)
                pairs.append((seed, results["parent"], results["change"]))
            machine = pairs[0][1].get("machine", {})
            keys = ("nproc", "python", "numpy", "cpu")
            out["machine"] = {k: machine[k] for k in keys if k in machine}
            out["workloads"][workload] = summarize(pairs, spec["end_to_end"])
            for name, gate in out["workloads"][workload]["spread"].items():
                for side in ("parent", "change"):
                    if not gate[side]["inside"]:
                        print(f"{workload} {name} {side}: quartile spread "
                              f"{gate[side]['q3_minus_q1']:g} over its limit "
                              f"{gate[side]['limit']:g}", flush=True)
            traced = {
                side: run_once(trees[side], command, workload, 1, seconds, trace=1)
                for side in ("parent", "change")
            }
            out["workloads"][workload]["per_layer"] = layers(
                traced["parent"], traced["change"], spec["per_layer"]
            )
    path = ROOT / f"BENCH_{args.pr}.json"
    path.write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {path.name}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
