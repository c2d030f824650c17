"""Seeded inputs, instance runners and output checks for every workload.

An instance is one unit of closed-loop work: a coupling problem, an exact
oracle problem, a planted causal joint, or one ``python -m minent``
subprocess. ``run_instance`` does the work through minent's public API
(every call goes through the caller's ``call`` hook, which the tracer
wraps in a span); ``check_instance`` then checks the output and returns the
instance's fingerprint and exact counts. Inputs come only from the seed.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from minent import (
    EPS_MARG,
    JointObservation,
    Marginal,
    SparseCoupling,
    bound_report,
    certify_local_optimum,
    exact_min_entropy_2var,
    extended_entropy,
    greedy_coupling,
    greedy_coupling_two_phase,
    infer_direction,
    marginalize,
)

# Bracket and oracle inequalities are checked with the tolerance the
# acceptance suite uses.
TOL_BITS = 1e-9

SOLVERS = (
    ("greedy.greedy_coupling", greedy_coupling),
    ("greedy.greedy_coupling_two_phase", greedy_coupling_two_phase),
)

# small-corpus: the acceptance corpus shapes, a fixed count per shape so a
# new seed only redraws the masses, plus planted joints as in criterion 8.
SMALL_SHAPES = tuple((m, n) for m in (2, 3, 4) for n in range(2, 7))
SMALL_PER_SHAPE = 20
SMALL_JOINTS = 75

# large: (family, n, m). Sizes keep one pass near 2.5 s at the seed, so a
# run holds about eight passes to take each instance's fastest run from.
LARGE_SOLVE = (("random", 2000, 2), ("special", 2000, 2), ("random", 700, 4), ("random", 300, 10))
LARGE_CERTIFY = (("random", 400, 2), ("random", 200, 4), ("random", 80, 10))
SPECIAL_ALPHA = 1.5

# oracle: n = 4 only. One n = 5 instance takes 2-7 s depending on the
# draw, which would make a run's rate a property of the seed. The cost of
# one n = 4 problem ranges over 10x with its draw; 120 problems keep the
# seed's share of the spread near 5 % while a pass stays near 5 s.
ORACLE_RANDOM = 120
ORACLE_N = 4

CLI_N = 1000
CLI_CERTIFY_N = 300
CLI_SAMPLES = 4000

Call = Callable[..., Any]


@dataclass(frozen=True)
class Instance:
    id: str
    kind: str
    data: Any


@dataclass(frozen=True)
class Inspection:
    errors: list[str]
    fingerprint: list
    counts: dict[str, float]


# ---------------------------------------------------------------- inputs


def _dirichlet_rows(rng: np.random.Generator, n: int, m: int) -> list[list[float]]:
    return [row.tolist() for row in rng.dirichlet(np.ones(n), size=m)]


def _special_rows(n: int, alpha: float) -> list[list[float]]:
    half = n // 2
    return [[1.0 / n] * n, [alpha / n] * half + [(2.0 - alpha) / n] * half]


def _planted_joint(rng: np.random.Generator, n_x: int = 4, n_e: int = 2) -> np.ndarray:
    """X -> Y through a random mechanism with low-entropy noise (criterion 8)."""
    p_e = rng.uniform(0.01, 0.1461)
    dist_e = np.array([1.0 - p_e, p_e])
    mechanism = rng.integers(0, n_x, size=(n_x, n_e))
    joint = np.zeros((n_x, n_x))
    for x in range(n_x):
        for e in range(n_e):
            joint[x, mechanism[x, e]] += dist_e[e] / n_x
    return joint


def setup_small(seed: int, workdir: Path) -> list[Instance]:
    rng = np.random.default_rng([seed, 1])
    out = []
    for m, n in SMALL_SHAPES:
        for k in range(SMALL_PER_SHAPE):
            out.append(Instance(f"m{m}n{n}-{k}", "problem", (_dirichlet_rows(rng, n, m), True)))
    for k in range(SMALL_JOINTS):
        out.append(Instance(f"joint-{k}", "joint", _planted_joint(rng)))
    return out


def setup_large(seed: int, workdir: Path) -> list[Instance]:
    rng = np.random.default_rng([seed, 2])
    out = []
    for plan, certify in ((LARGE_SOLVE, False), (LARGE_CERTIFY, True)):
        for family, n, m in plan:
            if family == "special":
                rows = _special_rows(n, SPECIAL_ALPHA)
            else:
                rows = _dirichlet_rows(rng, n, m)
            tag = "certify" if certify else "solve"
            out.append(Instance(f"{tag}-{family}-n{n}m{m}", "problem", (rows, certify)))
    return out


def setup_oracle(seed: int, workdir: Path) -> list[Instance]:
    rng = np.random.default_rng([seed, 3])
    out = [
        Instance(f"random-n{ORACLE_N}-{k}", "oracle", _dirichlet_rows(rng, ORACLE_N, 2))
        for k in range(ORACLE_RANDOM)
    ]
    out.append(Instance(f"special-n{ORACLE_N}", "oracle", _special_rows(ORACLE_N, SPECIAL_ALPHA)))
    return out


def cli_env() -> dict[str, str]:
    src = str(Path(__file__).resolve().parent.parent / "src")
    old = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": src if not old else f"{src}{os.pathsep}{old}"}


def setup_cli(seed: int, workdir: Path) -> list[Instance]:
    """Write the problem files, then a saved run for ``certify --trace-in``."""
    rng = np.random.default_rng([seed, 4])
    big = _dirichlet_rows(rng, CLI_N, 2)
    mid = _dirichlet_rows(rng, CLI_CERTIFY_N, 2)
    tiny = _dirichlet_rows(rng, ORACLE_N, 2)
    joint = _planted_joint(rng)
    flat = joint.ravel()
    draws = rng.choice(flat.size, size=CLI_SAMPLES, p=flat / flat.sum())
    files = {
        "big.json": json.dumps({"marginals": big}),
        "mid.json": json.dumps({"marginals": mid}),
        "tiny.json": json.dumps({"marginals": tiny}),
        "joint.csv": "".join(",".join(repr(float(v)) for v in row) + "\n" for row in joint),
        "samples.csv": "".join(f"{d // 4 + 1},{d % 4 + 1}\n" for d in draws),
    }
    for name, text in files.items():
        (workdir / name).write_text(text, encoding="utf-8")
    saved = run_cli(["couple", str(workdir / "mid.json"), "--alg", "2", "--trace"], workdir)
    if saved.returncode != 0:
        raise RuntimeError(f"couple --trace for the saved run exited {saved.returncode}")
    (workdir / "mid-run.json").write_bytes(saved.stdout)
    p = lambda name: str(workdir / name)  # noqa: E731
    calls = [
        ("generate", "generate", ["--family", "random", "--n", str(CLI_N), "--m", "2", "--seed", str(seed)], None),
        ("couple-alg1", "couple", [p("big.json"), "--alg", "1", "--trace"], big),
        ("couple-alg2", "couple", [p("big.json"), "--alg", "2", "--trace"], big),
        ("certify-fresh", "certify", [p("mid.json"), "--alg", "1"], None),
        ("certify-trace-in", "certify", [p("mid.json"), "--trace-in", p("mid-run.json")], None),
        ("bound", "bound", [p("big.json")], None),
        ("bound-oracle", "bound", [p("tiny.json"), "--oracle"], None),
        ("infer-matrix", "infer", [p("joint.csv")], None),
        ("infer-samples", "infer", [p("samples.csv"), "--samples"], None),
    ]
    return [Instance(name, "cli", (sub, [sub, *args], rows, workdir)) for name, sub, args, rows in calls]


SETUP = {
    "small-corpus": setup_small,
    "large": setup_large,
    "oracle": setup_oracle,
    "cli": setup_cli,
}

# Passes whose times make the time metrics: about what fits in a 20 s run
# at the commit that added the benchmark. A run goes on until --seconds
# have gone by, but later passes are only checked, so faster and slower
# code both take each instance's median over the same number of runs.
TIMED_PASSES = {"small-corpus": 30, "large": 5, "oracle": 3, "cli": 4}


# ---------------------------------------------------------------- runners


@dataclass(frozen=True)
class CliOutput:
    returncode: int
    stdout: bytes
    peak_rss_mb: float


def run_cli(argv: list[str], workdir: Path) -> CliOutput:
    """Run ``python -m minent`` and reap it with wait4 to read its own peak RSS."""
    with open(workdir / "stderr.txt", "wb") as err:
        proc = subprocess.Popen(
            [sys.executable, "-m", "minent", *argv],
            stdout=subprocess.PIPE,
            stderr=err,
            env=cli_env(),
            cwd=workdir,
        )
    try:
        out = proc.stdout.read()
    finally:
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return CliOutput(proc.returncode, out, usage.ru_maxrss / 1024.0)


def run_instance(inst: Instance, call: Call):
    if inst.kind == "problem":
        rows, certify = inst.data
        ms = [call("core.Marginal.of", Marginal.of, row) for row in rows]
        runs = []
        for name, solver in SOLVERS:
            coupling, trace = call(name, solver, ms)
            runs.append((coupling, trace, call("core.extended_entropy", extended_entropy, coupling)))
        report = call("bounds.bound_report", bound_report, ms, runs[1][2])
        certs = [
            call("certify.certify_local_optimum", certify_local_optimum, c, t)
            for c, t, _ in runs
        ] if certify else []
        return ms, runs, report, certs
    if inst.kind == "oracle":
        ms = [call("core.Marginal.of", Marginal.of, row) for row in inst.data]
        _, optimum = call("oracle.exact_min_entropy_2var", exact_min_entropy_2var, ms[0], ms[1])
        coupling, trace = call("greedy.greedy_coupling_two_phase", greedy_coupling_two_phase, ms)
        h = call("core.extended_entropy", extended_entropy, coupling)
        report = call("bounds.bound_report", bound_report, ms, h)
        return ms, [(coupling, trace, h)], report, optimum
    if inst.kind == "joint":
        obs = call("causality.JointObservation.from_matrix", JointObservation.from_matrix, inst.data)
        return call("causality.infer_direction", infer_direction, obs)
    if inst.kind == "cli":
        sub, argv, _, workdir = inst.data
        return call(f"cli.{sub}", run_cli, argv, workdir)
    raise ValueError(f"unknown instance kind {inst.kind!r}")


def after_instance(inst: Instance, output, call: Call, measure_alloc: bool) -> float:
    """Traced-run work kept outside the instance span.

    Rebuilds ``SparseCoupling`` from each solver output, which stands in
    for the validation the solvers do internally (``core.coupling_build_s``).
    With ``measure_alloc`` it certifies each coupling once more under
    tracemalloc and returns the peak in MB (``certify.peak_alloc_mb``).
    """
    if inst.kind not in ("problem", "oracle"):
        return 0.0
    runs = output[1]
    for coupling, _, _ in runs:
        call(
            "core.SparseCoupling",
            SparseCoupling,
            coupling.num_vars,
            coupling.cardinalities,
            coupling.entries,
            coupling.assignment_order,
        )
    peak = 0.0
    if measure_alloc and inst.kind == "problem" and inst.data[1]:
        for coupling, trace, _ in runs:
            tracemalloc.start()
            try:
                certify_local_optimum(coupling, trace)
                peak = max(peak, tracemalloc.get_traced_memory()[1] / 2**20)
            finally:
                tracemalloc.stop()
    return peak


# ---------------------------------------------------------------- checks


def bits(value: float) -> float:
    """An entropy as stored in a fingerprint: rounded to 1e-9 bits."""
    return round(float(value), 9)


def trace_digest(cells) -> str:
    """A hash of the cells a solver chose, in order, so a changed trace shows
    even where entropy, support size and step count stay the same."""
    return hashlib.sha256(repr([tuple(c) for c in cells]).encode()).hexdigest()[:16]


def _marginal_errors(coupling, ms: list[Marginal], label: str) -> list[str]:
    errors = []
    for axis, marginal in enumerate(ms, start=1):
        implied = marginalize(coupling, axis)
        worst = max(abs(a - b) for a, b in zip(implied, marginal.probs))
        if not worst <= EPS_MARG:
            errors.append(f"{label} misses marginal {axis} by {worst:.3e}")
    return errors


def _bracket_errors(h: float, report, label: str) -> list[str]:
    if report.lower_bound - TOL_BITS <= h <= report.upper_bound + TOL_BITS:
        return []
    return [f"{label} entropy {h!r} outside [{report.lower_bound!r}, {report.upper_bound!r}]"]


def _solver_counts(runs, labels: tuple[str, ...]) -> dict[str, float]:
    counts = {"greedy.support_size": sum(c.num_entries for c, _, _ in runs)}
    for (_, trace, _), label in zip(runs, labels):
        counts[f"greedy.{label}_steps"] = len(trace.steps)
    two_phase = runs[labels.index("alg2")][1]
    counts["greedy.alg2_phase1_steps"] = two_phase.phase_boundary - 1
    counts["greedy.alg2_positive_steps"] = len(two_phase.positive_steps())
    return counts


def _check_problem(inst: Instance, output) -> Inspection:
    ms, runs, report, certs = output
    errors, fingerprint = [], []
    for (coupling, trace, h), label in zip(runs, ("alg1", "alg2")):
        errors += _marginal_errors(coupling, ms, label)
        errors += _bracket_errors(h, report, label)
        fingerprint += [bits(h), coupling.num_entries, len(trace.steps), trace_digest(s.chosen_tuple for s in trace.steps)]
    fingerprint.append(runs[1][1].phase_boundary)
    counts = _solver_counts(runs, ("alg1", "alg2"))
    counts["bounds.bracket_sum"] = report.achieved - report.lower_bound
    counts["bounds.reports"] = 1
    if certs:
        counts["certify.rows"] = sum(len(t.positive_steps()) for _, t, _ in runs)
        counts["certify.max_reconstruction_error"] = max(c.max_reconstruction_error for c in certs)
    return Inspection(errors, fingerprint, counts)


def _check_oracle(inst: Instance, output) -> Inspection:
    ms, runs, report, optimum = output
    coupling, trace, h = runs[0]
    errors = _marginal_errors(coupling, ms, "alg2") + _bracket_errors(h, report, "alg2")
    if not report.lower_bound - TOL_BITS <= optimum <= h + TOL_BITS:
        errors.append(f"oracle optimum {optimum!r} outside [{report.lower_bound!r}, {h!r}]")
    counts = _solver_counts(runs, ("alg2",))
    counts.update({
        "bounds.bracket_sum": report.achieved - report.lower_bound,
        "bounds.reports": 1,
        "oracle.gap_sum": h - optimum,
        "oracle.solved": 1,
    })
    cells = trace_digest(s.chosen_tuple for s in trace.steps)
    fingerprint = [bits(h), coupling.num_entries, len(trace.steps), trace.phase_boundary, cells, bits(optimum)]
    return Inspection(errors, fingerprint, counts)


def _check_joint(inst: Instance, output) -> Inspection:
    verdict = output.verdict
    errors = [] if verdict in ("XtoY", "YtoX", "undecided") else [f"unknown verdict {verdict!r}"]
    fingerprint = [verdict, bits(output.exo_x_to_y), bits(output.exo_y_to_x)]
    return Inspection(errors, fingerprint, {f"causality.verdicts_{verdict}": 1})


def _coupling_payload_errors(doc: dict, rows: list[list[float]]) -> list[str]:
    n, m = len(rows[0]), len(rows)
    implied = [[0.0] * n for _ in range(m)]
    for entry in doc["entries"]:
        for axis, state in enumerate(entry["indices"]):
            implied[axis][state - 1] += entry["mass"]
    errors = []
    for axis in range(m):
        worst = max(abs(a - b) for a, b in zip(implied[axis], rows[axis]))
        if not worst <= EPS_MARG:
            errors.append(f"coupling misses marginal {axis + 1} by {worst:.3e}")
    h = extended_entropy([e["mass"] for e in doc["entries"]])
    if not abs(h - doc["entropy_bits"]) <= TOL_BITS:
        errors.append(f"entropy_bits {doc['entropy_bits']!r} but entries give {h!r}")
    if doc["steps"] > n * m - m + 1:
        errors.append(f"{doc['steps']} steps exceed n*m - m + 1")
    return errors


def _check_cli(inst: Instance, output: CliOutput) -> Inspection:
    sub, argv, rows, _ = inst.data
    counts = {"cli.stdout_bytes": len(output.stdout)}
    if output.returncode != 0:
        return Inspection([f"exit code {output.returncode}"], [], counts)
    try:
        doc = json.loads(output.stdout)
    except ValueError as exc:
        return Inspection([f"stdout is not JSON: {exc}"], [], counts)
    errors: list[str] = []
    if sub == "generate":
        marginals = doc["marginals"]
        if len(marginals) != 2 or any(len(r) != CLI_N for r in marginals):
            errors.append("generate returned the wrong shape")
        errors += [f"generated marginal sums to {math.fsum(r)!r}" for r in marginals if abs(math.fsum(r) - 1.0) > 1e-9]
        fingerprint = [hashlib.sha256(output.stdout).hexdigest()[:16]]
    elif sub == "couple":
        errors += _coupling_payload_errors(doc, rows)
        cells = trace_digest(item["indices"] for item in doc["trace"])
        fingerprint = [bits(doc["entropy_bits"]), len(doc["entries"]), doc["steps"], doc.get("phase_boundary"), cells]
    elif sub == "certify":
        if doc.get("local_optimum_certified") is not True:
            errors.append(f"not certified: {doc.get('reason')}")
        fingerprint = [doc.get("local_optimum_certified")]
    elif sub == "bound":
        lower, achieved, upper = doc["lower_bound"], doc["achieved"], doc["upper_bound"]
        if not lower - TOL_BITS <= achieved <= upper + TOL_BITS:
            errors.append(f"achieved {achieved!r} outside [{lower!r}, {upper!r}]")
        fingerprint = [bits(achieved), bits(lower)]
        if "oracle" in doc:
            optimum = doc["oracle"]["min_entropy"]
            if not lower - TOL_BITS <= optimum <= achieved + TOL_BITS:
                errors.append(f"oracle optimum {optimum!r} outside [{lower!r}, {achieved!r}]")
            fingerprint.append(bits(optimum))
    else:
        if doc["verdict"] not in ("XtoY", "YtoX", "undecided"):
            errors.append(f"unknown verdict {doc['verdict']!r}")
        fingerprint = [doc["verdict"], bits(doc["H_exo_XtoY"]), bits(doc["H_exo_YtoX"])]
    return Inspection(errors, fingerprint, counts)


CHECKS = {
    "problem": _check_problem,
    "oracle": _check_oracle,
    "joint": _check_joint,
    "cli": _check_cli,
}


def check_instance(inst: Instance, output) -> Inspection:
    """Check an instance's output; a malformed output is an error, not a crash."""
    try:
        return CHECKS[inst.kind](inst, output)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        return Inspection([f"malformed output: {type(exc).__name__}: {exc}"], [], {})


def fingerprint_mismatch(expected: list, actual: list) -> str | None:
    """Compare fingerprints: entropies within 1e-9 bits, everything else exactly."""
    if len(expected) != len(actual):
        return f"fingerprint {actual!r} != reference {expected!r}"
    for want, got in zip(expected, actual):
        if isinstance(want, float) and isinstance(got, (int, float)) and not isinstance(got, bool):
            same = abs(want - got) <= 1.5e-9
        else:
            same = want == got and type(want) is type(got)
        if not same:
            return f"fingerprint {actual!r} != reference {expected!r}"
    return None
