"""Seed 0 of every benchmark workload runs and matches its stored reference.

``perfbench/`` is frozen between benchmark runs and calls the library as
it stands: ``Marginal.of``, ``SparseCoupling`` rebuilt with its
assignment order, the solvers, ``certify_local_optimum``,
``bound_report``, the oracle, the causal direction test and
``python -m minent``. This runs each instance of seed 0 once through the
functions ``perfbench/run.py`` uses, the traced-run extras included, and
compares its fingerprint with ``perfbench/reference/``, so an API change
that breaks the benchmark fails here rather than in a benchmark run.
"""

import json
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.append(str(PERFBENCH))

import workloads  # noqa: E402


def call(name, fn, *args):
    return fn(*args)


@pytest.mark.parametrize("workload", list(workloads.SETUP))
def test_seed_zero_matches_reference(workload, tmp_path):
    reference = json.loads(
        (PERFBENCH / "reference" / f"{workload}.json").read_text(encoding="utf-8")
    )["0"]
    instances = workloads.SETUP[workload](0, tmp_path)
    assert [inst.id for inst in instances] == list(reference)
    failures = {}
    peak_alloc_mb = 0.0
    for inst in instances:
        output = workloads.run_instance(inst, call)
        peak = workloads.after_instance(inst, output, call, workload == "large")
        peak_alloc_mb = max(peak_alloc_mb, peak)
        found = workloads.check_instance(inst, output)
        mismatch = workloads.fingerprint_mismatch(reference[inst.id], found.fingerprint)
        errors = found.errors + ([mismatch] if mismatch else [])
        if errors:
            failures[inst.id] = errors
    assert failures == {}
    assert (peak_alloc_mb > 0.0) == (workload == "large")
