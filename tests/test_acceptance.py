"""Acceptance suite.

Each test implements one release criterion at its stated tolerance and
prints a PASS line; run with ``pytest -s tests/test_acceptance.py`` to see
them. Criteria 3, 4, 5, and 7 share one randomized corpus of 1046
instances so the expensive solver and oracle work happens once.
"""

import json
import math
import subprocess
import sys
import time
from dataclasses import dataclass

import numpy as np
import pytest
from scipy.stats import binomtest

from minent import (
    JointObservation,
    bound_report,
    certify_local_optimum,
    exact_min_entropy_2var,
    extended_entropy,
    greedy_coupling,
    greedy_coupling_two_phase,
    infer_direction,
    special_family,
)

from reference_bounds import outer_product_coupling, outer_product_entropy_identity
from reference_certify import build_system, check_last_one_property
from test_oracle import SIX_STATE_PROBLEMS

CORPUS_SEED = 20260808
# (m, n) -> instance count. Criterion 5 checks every two-marginal case with
# n <= 5 against the exact oracle; its extra n = 5 cases come from their
# own seed below and its n = 6 cases from test_oracle, so this plan and its
# draws stay fixed.
CORPUS_PLAN = {
    (2, 2): 120, (2, 3): 120, (2, 4): 80, (2, 5): 6, (2, 6): 120,
    (3, 2): 60, (3, 3): 60, (3, 4): 60, (3, 5): 60, (3, 6): 60,
    (4, 2): 60, (4, 3): 60, (4, 4): 60, (4, 5): 60, (4, 6): 60,
}

SOLVERS = {
    "alg1": greedy_coupling,
    "alg2": greedy_coupling_two_phase,
}

ORACLE_EXTRA_SEED = CORPUS_SEED + 3
ORACLE_EXTRA_COUNT = 40  # two-marginal n = 5 problems, criterion 5 only


@dataclass(frozen=True)
class Instance:
    m: int
    n: int
    marginals: tuple[tuple[float, ...], ...]
    runs: dict  # solver name -> (coupling, trace)


@pytest.fixture(scope="module")
def corpus():
    rng = np.random.default_rng(CORPUS_SEED)
    instances = []
    for (m, n), count in CORPUS_PLAN.items():
        for _ in range(count):
            marginals = tuple(
                tuple(float(v) for v in row)
                for row in rng.dirichlet(np.ones(n), size=m)
            )
            runs = {name: solver(marginals) for name, solver in SOLVERS.items()}
            instances.append(Instance(m, n, marginals, runs))
    assert len(instances) >= 1000
    return instances


def report(number, name, detail):
    print(f"ACCEPTANCE {number} ({name}): PASS - {detail}")


def test_criterion_1_worked_instance_reproduction():
    started = time.time()
    coupling, _ = greedy_coupling([[0.6, 0.4], [0.5, 0.5]])
    expected = {(1, 1): 0.5, (2, 2): 0.4, (1, 2): 0.1}
    assert set(coupling.entries) == set(expected)
    for tup, mass in expected.items():
        assert coupling.entries[tup] == pytest.approx(mass, abs=1e-9)
    achieved = extended_entropy(coupling)
    assert achieved == pytest.approx(1.360964, abs=1e-6)
    assert achieved == pytest.approx(1.3609640474436813, abs=1e-9)
    _, exact = exact_min_entropy_2var([0.6, 0.4], [0.5, 0.5])
    assert exact == pytest.approx(1.3609640474436813, abs=1e-9)
    assert achieved - exact == pytest.approx(0.0, abs=1e-9)
    elapsed = time.time() - started
    assert elapsed < 1.0
    report(1, "worked-instance reproduction", f"tightness 0, {elapsed:.3f}s")


def test_criterion_2_two_level_family_closed_forms():
    started = time.time()
    checked = 0
    for n in (4, 8, 16, 32):
        for alpha in (1.25, 1.5, 1.75):
            uniform, skewed, _, _ = special_family(n, alpha)
            coupling, _ = greedy_coupling_two_phase([uniform, skewed])
            achieved = extended_entropy(coupling)
            closed_form = (
                math.log2(n)
                - (alpha - 1) / 2 * math.log2(alpha - 1)
                - (2 - alpha) / 2 * math.log2(2 - alpha)
            )
            assert achieved == pytest.approx(closed_form, abs=1e-9)
            eps = alpha - 1.0
            gap = 0.5 * math.log2(1 + eps) + eps / 2 * math.log2(1 + 1 / eps)
            assert achieved - extended_entropy(skewed) == pytest.approx(
                gap, abs=1e-9
            )
            assert gap <= 1.0 + 1e-9
            checked += 1
    elapsed = time.time() - started
    assert elapsed < 1.0
    report(2, "two-level family closed forms", f"{checked} (n, alpha) pairs, {elapsed:.3f}s")


def test_criterion_3_certification_never_fails(corpus):
    started = time.time()
    certified = 0
    for instance in corpus:
        for coupling, trace in instance.runs.values():
            certificate = certify_local_optimum(coupling, trace)
            assert certificate.residual_norm <= 1e-8
            assert certificate.max_reconstruction_error <= 1e-8
            certified += 1
    elapsed = time.time() - started
    assert elapsed < 30.0
    report(
        3,
        "local-optimum certification",
        f"{certified} certificates, zero failures, {elapsed:.1f}s",
    )


def test_criterion_4_system_structure_and_rank(corpus):
    checked = 0
    for instance in corpus:
        for coupling, trace in instance.runs.values():
            system = build_system(
                trace.positive_steps(), instance.n, instance.m
            )
            assert check_last_one_property(system)
            assert np.linalg.matrix_rank(system.matrix) == system.num_rows
            checked += 1
    report(4, "exhausted-slot structure and rank", f"{checked} systems full rank")


def test_criterion_5_bound_sandwich(corpus):
    rng = np.random.default_rng(ORACLE_EXTRA_SEED)
    extra = [
        tuple(tuple(float(v) for v in row) for row in rng.dirichlet(np.ones(5), size=2))
        for _ in range(ORACLE_EXTRA_COUNT)
    ]
    cases = [
        (instance.marginals, instance.runs, instance.m == 2 and instance.n <= 5)
        for instance in corpus
    ] + [
        (marginals, {name: solver(marginals) for name, solver in SOLVERS.items()}, True)
        for marginals in extra + SIX_STATE_PROBLEMS
    ]
    oracle_checked = 0
    for marginals, runs, with_oracle in cases:
        rep = bound_report(marginals)
        exact = None
        if with_oracle:
            _, exact = exact_min_entropy_2var(*marginals)
            oracle_checked += 1
        for coupling, _ in runs.values():
            achieved = extended_entropy(coupling)
            assert achieved >= rep.lower_bound - 1e-9
            assert achieved <= rep.lower_bound + rep.slack + 1e-9
            if exact is not None:
                assert exact <= achieved + 1e-9
                assert achieved <= exact + rep.slack + 1e-9
    report(
        5,
        "bound sandwich",
        f"{len(cases)} instances, {oracle_checked} with exact optimum, "
        f"{len(SIX_STATE_PROBLEMS)} of them at n = 6",
    )


def test_criterion_6_outer_product_identity():
    rng = np.random.default_rng(CORPUS_SEED + 1)
    checked = 0
    while checked < 1050:
        m = int(rng.integers(2, 5))
        n = int(rng.integers(2, 7))
        total = float(rng.uniform(0.05, 1.0))
        residuals = []
        for _ in range(m):
            raw = rng.uniform(0.001, 1.0, size=n)
            residuals.append(list(raw * (total / raw.sum())))
        lhs, rhs = outer_product_entropy_identity(residuals)
        assert abs(lhs - rhs) <= 1e-9
        tensor = outer_product_coupling(residuals)
        for axis in range(m):
            implied = [0.0] * n
            for tup, mass in tensor.items():
                implied[tup[axis] - 1] += mass
            assert implied == pytest.approx(residuals[axis], abs=1e-9)
        checked += 1
    report(6, "outer-product entropy identity", f"{checked} residual tuples")


def test_criterion_7_termination_bound(corpus):
    checked = 0
    for instance in corpus:
        limit = instance.n * instance.m - instance.m + 1
        for _, trace in instance.runs.values():
            assert len(trace.steps) <= limit
            checked += 1
    report(7, "termination bound", f"{checked} traces within n*m - m + 1 steps")


def test_criterion_8_direction_recovery_sign_test():
    rng = np.random.default_rng(CORPUS_SEED + 2)
    n_x, n_e = 4, 2
    wins = losses = undecided = 0
    for _ in range(250):
        p_e = rng.uniform(0.01, 0.1461)  # H(E) <= 0.6 bits
        dist_e = np.array([1.0 - p_e, p_e])
        assert extended_entropy(dist_e) <= 0.6
        mechanism = rng.integers(0, n_x, size=(n_x, n_e))
        joint = np.zeros((n_x, n_x))
        for x in range(n_x):
            for e in range(n_e):
                joint[x, mechanism[x, e]] += dist_e[e] / n_x
        verdict = infer_direction(JointObservation.from_matrix(joint)).verdict
        if verdict == "XtoY":
            wins += 1
        elif verdict == "YtoX":
            losses += 1
        else:
            undecided += 1
    assert wins + losses > 0
    p_value = binomtest(wins, wins + losses, alternative="greater").pvalue
    assert wins > losses
    assert p_value < 0.05
    report(
        8,
        "causal direction sign test",
        f"{wins} wins / {losses} losses / {undecided} undecided, p={p_value:.2e}",
    )


def test_criterion_9_cli_byte_determinism(tmp_path):
    problem = tmp_path / "problem.json"
    problem.write_text(
        json.dumps({"marginals": [[0.6, 0.3, 0.1], [0.2, 0.5, 0.3]]}),
        encoding="utf-8",
    )
    joint = tmp_path / "joint.csv"
    joint.write_text("0.3,0.1\n0.2,0.4\n", encoding="utf-8")
    commands = [
        ["couple", str(problem), "--alg", "1", "--trace"],
        ["couple", str(problem), "--alg", "2"],
        ["certify", str(problem), "--alg", "2"],
        ["bound", str(problem), "--alg", "2", "--oracle"],
        ["infer", str(joint), "--solver", "alg2"],
        ["generate", "--family", "random", "--n", "4", "--m", "3", "--seed", "11"],
    ]
    for command in commands:
        outputs = []
        for _ in range(2):
            proc = subprocess.run(
                [sys.executable, "-m", "minent", *command],
                capture_output=True,
                check=True,
            )
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1], f"non-deterministic output: {command}"
    report(9, "CLI byte determinism", f"{len(commands)} commands byte-identical")
