"""Seeded end-to-end benchmark for minent.

Run from the repository root:

    python3 perfbench/run.py --workload small-corpus --seed 0 --seconds 20 --trace 0

Workloads are ``small-corpus``, ``large``, ``oracle`` and ``cli``; see
``perfbench/README.md`` for why each exists and what each metric should
move. Every workload is a closed loop with one client in one process: the
instances of one pass run one after another, and whole passes repeat until
``--seconds`` have gone by. Time metrics come from a fixed number of
passes per workload; the passes after them are only checked. Every wall
time is scaled to one machine speed by a calibration kernel timed between
instances (``speed.py``). Inputs are made from ``--seed`` before the
timed loop, and every output is checked.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` traces every
other pass and reports per-layer metrics from the spans; the gap between
the traced and untraced passes is the tracing overhead. The last
line of stdout is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``. Details, failures and spans go to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import warnings
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from speed import Speedometer, scaled

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
REFERENCE = HERE / "reference"

WORKLOADS = ("small-corpus", "large", "oracle", "cli")
SETUP_PROBES = 7
# Calibration kernel (speed.KERNELS) that scales the timed loop; "compute" otherwise.
LOOP_KERNEL = {"cli": "start"}
IMPORT_PROBES = 5

# Span names that make up each per-layer time metric.
LAYER_SPANS = {
    "core.ingest_s": ("core.Marginal.of", "causality.JointObservation.from_matrix"),
    "core.coupling_build_s": ("core.SparseCoupling",),
    "core.entropy_s": ("core.extended_entropy",),
    "greedy.alg1_s": ("greedy.greedy_coupling",),
    "greedy.alg2_s": ("greedy.greedy_coupling_two_phase",),
    "certify.certify_s": ("certify.certify_local_optimum",),
    "bounds.report_s": ("bounds.bound_report",),
    "oracle.exact_s": ("oracle.exact_min_entropy_2var",),
    "causality.infer_s": ("causality.infer_direction",),
}
CLI_SUBCOMMANDS = ("couple", "certify", "bound", "infer", "generate")
EXACT_COUNTS = (
    "greedy.alg1_steps",
    "greedy.alg2_steps",
    "greedy.alg2_phase1_steps",
    "greedy.support_size",
    "certify.rows",
    "causality.verdicts_XtoY",
    "causality.verdicts_YtoX",
    "causality.verdicts_undecided",
)


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="Seeded minent benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-only",
        action="store_true",
        help="import minent, build the inputs and exit (times one set-up)",
    )
    return parser.parse_args(argv)


# ---------------------------------------------------------------- metadata


def openblas_threads() -> int | None:
    """OpenBLAS's own thread count, asked from the library numpy loaded."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            libs = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in (
            "openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads64_",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def metadata() -> dict:
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            cpu = next((ln.split(":", 1)[1].strip() for ln in info if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "openblas_threads": openblas_threads(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "cpu": cpu,
        "load": "closed loop, 1 client, 1 process, no added threads",
    }


# ---------------------------------------------------------------- set-up


@contextmanager
def workdir():
    """A scratch directory inside the checkout, removed afterwards."""
    path = OUT / f"work-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def measure_setup(args: argparse.Namespace) -> list[float]:
    """Wall time of fresh processes that start, import minent and build inputs.

    One untimed probe first, so compiled bytecode is in place as it is for
    any user after their first run.
    """
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
    times = []
    for k in range(SETUP_PROBES + 1):
        start = perf_counter()
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
        if k:
            times.append(perf_counter() - start)
    return times


def measure_import() -> list[float]:
    import workloads

    cmd = [sys.executable, "-c", "import minent"]
    times = []
    for _ in range(IMPORT_PROBES):
        start = perf_counter()
        subprocess.run(cmd, check=True, env=workloads.cli_env())
        times.append(perf_counter() - start)
    return times


# ---------------------------------------------------------------- timed loop


def typical_times(passes: list[list[float]], scales: list[list[float]]) -> list[float]:
    """Each instance's median scaled wall time over the given passes.

    Callers pass a fixed number of passes, so faster code does not get
    more samples than its parent.
    """
    return [statistics.median(times) for times in zip(*map(scaled, passes, scales))]


def busy_rate(passes: list[list[float]], scales: list[list[float]] | None = None) -> float:
    """Instances per second over all the time spent in the given passes,
    scaled if ``scales`` are given."""
    if scales is not None:
        passes = list(map(scaled, passes, scales))
    return sum(map(len, passes)) / sum(map(sum, passes))


@dataclass
class Loop:
    """What one timed loop saw; counts are from its first pass."""

    plain: list[list[float]] = field(default_factory=list)
    traced: list[list[float]] = field(default_factory=list)
    plain_scales: list[list[float]] = field(default_factory=list)
    traced_scales: list[list[float]] = field(default_factory=list)
    failures: list[dict] = field(default_factory=list)
    counts: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    child_rss_mb: float = 0.0
    peak_alloc_mb: float = 0.0

    @property
    def passes(self) -> int:
        return len(self.plain) + len(self.traced)

    @property
    def attempted(self) -> int:
        return sum(map(len, self.plain)) + sum(map(len, self.traced))


class Checker:
    """Compares fingerprints with the stored reference, or with the first pass.

    Only a seed with no stored reference falls back to the first pass; a
    stored reference for other instances than the run's is an error. CLI
    stdout is also compared byte for byte with the first pass.
    """

    def __init__(self, workload: str, seed: int, instances: list) -> None:
        self.reference = None
        path = REFERENCE / f"{workload}.json"
        if path.is_file():
            self.reference = json.loads(path.read_text(encoding="utf-8")).get(str(seed))
        if self.reference is not None and list(self.reference) != [inst.id for inst in instances]:
            raise SystemExit(
                f"error: {path} holds other instances for seed {seed} than the run makes; "
                "run perfbench/make_reference.py at the reference commit"
            )
        self.first: dict[str, list] = {}
        self.first_stdout: dict[str, bytes] = {}
        self.compared = 0

    def errors(self, inst, fingerprint: list, stdout: bytes | None) -> list[str]:
        import workloads

        expected = self.reference[inst.id] if self.reference else self.first.setdefault(inst.id, fingerprint)
        self.compared += 1
        errors = []
        mismatch = workloads.fingerprint_mismatch(expected, fingerprint)
        if mismatch:
            errors.append(mismatch)
        if stdout is not None and self.first_stdout.setdefault(inst.id, stdout) != stdout:
            errors.append("stdout differs from the first run of the same call")
        return errors


def run_loop(instances: list, seconds: float, min_passes: int, tracer, checker: Checker,
             speed: Speedometer) -> Loop:
    """Run whole passes until ``seconds`` have gone by and at least ``min_passes``.

    With the tracer on, every other pass is traced and the loop ends after
    a traced pass, so traced and untraced passes alternate and come in
    equal numbers: drift of the machine's speed touches both alike.
    """
    import workloads
    from minent import CertificationError

    trace = tracer.enabled
    loop = Loop()
    start = perf_counter()
    while (
        loop.passes < min_passes
        or perf_counter() - start < seconds
        or (trace and len(loop.traced) < len(loop.plain))
    ):
        first = loop.passes == 0
        tracer.enabled = trace and loop.passes % 2 == 1
        times: list[float] = []
        scales: list[float] = []
        for inst in instances:
            tracer.begin(inst.id)
            t0 = perf_counter()
            try:
                output, error = workloads.run_instance(inst, tracer.call), None
            except Exception as exc:  # a failed instance is counted, never dropped
                output, error = None, exc
            times.append(perf_counter() - t0)
            tracer.end()
            speed.timed(scales)
            if error is not None:
                if isinstance(error, CertificationError) and first:
                    loop.counts["certify.failures"] += 1
                errors = [f"{type(error).__name__}: {error}"]
            else:
                if tracer.enabled:
                    peak = workloads.after_instance(inst, output, tracer.call, not loop.traced)
                    loop.peak_alloc_mb = max(loop.peak_alloc_mb, peak)
                found = workloads.check_instance(inst, output)
                stdout = getattr(output, "stdout", None)
                errors = found.errors + checker.errors(inst, found.fingerprint, stdout)
                if hasattr(output, "peak_rss_mb"):
                    loop.child_rss_mb = max(loop.child_rss_mb, output.peak_rss_mb)
                if first:
                    for key, value in found.counts.items():
                        if key == "certify.max_reconstruction_error":
                            loop.counts[key] = max(loop.counts[key], value)
                        else:
                            loop.counts[key] += value
            if errors:
                loop.failures.append({"pass": loop.passes, "instance": inst.id, "errors": errors})
        (loop.traced if tracer.enabled else loop.plain).append(times)
        (loop.traced_scales if tracer.enabled else loop.plain_scales).append(scales)
    speed.calibrate()
    tracer.enabled = trace
    return loop


# ---------------------------------------------------------------- metrics


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(workload: str, setup: list[float], setup_scale: float, typical: list[float], loop: Loop) -> dict:
    rss = loop.child_rss_mb if workload == "cli" else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "setup_s": (statistics.median(setup) * setup_scale, "s"),
        "instances_per_s": (len(typical) / sum(typical), "1/s"),
        "instance_p50_s": (statistics.median(typical), "s"),
        "instance_p90_s": (percentile(typical, 90), "s"),
        "peak_rss_mb": (rss, "MB"),
    }


def tracing_overhead(loop: Loop) -> float:
    """Drop in scaled instances per second from the untraced to the traced passes."""
    return 1.0 - busy_rate(loop.traced, loop.traced_scales) / busy_rate(loop.plain, loop.plain_scales)


def per_layer(loop: Loop, tracer, import_times: list[float]) -> dict:
    from tracing import self_times

    selfs = self_times(tracer.spans)
    passes = len(loop.traced)
    out = {}
    for metric, names in LAYER_SPANS.items():
        out[metric] = (sum(selfs.get(n, 0.0) for n in names) / passes, "s")
    c = loop.counts
    for key in ("greedy.alg1_steps", "greedy.alg2_steps", "greedy.alg2_phase1_steps", "greedy.support_size"):
        out[key] = (int(c[key]), "count")
    alg2_steps = c["greedy.alg2_steps"]
    out["greedy.alg2_positive_frac"] = (c["greedy.alg2_positive_steps"] / alg2_steps if alg2_steps else 0.0, "ratio")
    steps = c["greedy.alg1_steps"] + c["greedy.alg2_steps"]
    solve_s = out["greedy.alg1_s"][0] + out["greedy.alg2_s"][0]
    out["greedy.us_per_step"] = (solve_s / steps * 1e6 if steps else 0.0, "us")

    # certify time against solve time on the problems that were certified
    certified = {s.instance for s in tracer.spans if s.name == "certify.certify_local_optimum"}
    cert_s = sum(s.end - s.start for s in tracer.spans if s.name == "certify.certify_local_optimum")
    solve_on_certified = sum(
        s.end - s.start for s in tracer.spans
        if s.instance in certified and s.name.startswith("greedy.")
    )
    out["certify.rows"] = (int(c["certify.rows"]), "count")
    out["certify.failures"] = (int(c["certify.failures"]), "count")
    out["certify.max_reconstruction_error"] = (c["certify.max_reconstruction_error"], "mass")
    out["certify.to_solve_ratio"] = (cert_s / solve_on_certified if solve_on_certified else 0.0, "ratio")
    out["certify.peak_alloc_mb"] = (loop.peak_alloc_mb, "MB")
    reports = c["bounds.reports"]
    out["bounds.bracket_bits"] = (c["bounds.bracket_sum"] / reports if reports else 0.0, "bits")
    solved = c["oracle.solved"]
    out["oracle.gap_bits"] = (c["oracle.gap_sum"] / solved if solved else 0.0, "bits")
    for verdict in ("XtoY", "YtoX", "undecided"):
        out[f"causality.verdicts_{verdict}"] = (int(c[f"causality.verdicts_{verdict}"]), "count")
    out["cli.import_s"] = (statistics.median(import_times) if import_times else 0.0, "s")
    for sub in CLI_SUBCOMMANDS:
        durations = [s.end - s.start for s in tracer.spans if s.name == f"cli.{sub}"]
        out[f"cli.{sub}_s"] = (statistics.median(durations) if durations else 0.0, "s")
    out["cli.stdout_bytes"] = (int(c["cli.stdout_bytes"]), "B")
    out["trace.overhead_frac"] = (tracing_overhead(loop), "ratio")
    out["trace.glue_s"] = (selfs.get("instance", 0.0) / passes, "s")
    return out


# ---------------------------------------------------------------- report


def print_report(args, meta, metrics, loop, timed, setup, speed, checker, extra) -> None:
    print(f"minent benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("metadata: " + " ".join(f"{k}={v}" for k, v in meta.items()))
    kernel = speed.kernel_s
    print(f"calibration: {speed.name} kernel {len(kernel)} runs, median {statistics.median(kernel):.5f} s, "
          f"range {min(kernel):.5f}-{max(kernel):.5f} s (reference {speed.reference_s} s)")
    for label, passes, scales in (("untraced", loop.plain, loop.plain_scales),
                                  ("traced", loop.traced, loop.traced_scales)):
        if passes:
            print(f"{label} passes: {len(passes)} of {len(passes[0])} instances, "
                  f"{busy_rate(passes):.6g} instances/s overall raw, "
                  f"{busy_rate(passes, scales):.6g} scaled")
    print(f"setup probes (s, raw): {', '.join(f'{t:.4f}' for t in setup)}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value:>14.6g} {unit}")
    if not args.trace:
        failed = len(loop.failures)
        print(f"  {'failed_frac':34s} {failed / loop.attempted:>14.6g} ratio "
              f"({failed} of {loop.attempted} failed)")
        print(f"  samples: instance_p50_s and instance_p90_s over {len(loop.plain[0])} instances, "
              f"each its median scaled time over the first {timed} passes")
    source = "stored reference" if checker.reference else "first pass (no stored reference for this seed)"
    print(f"fingerprints: {checker.compared} compared against the {source}")
    for line in extra:
        print(line)
    for failure in loop.failures[:20]:
        print(f"FAILED pass {failure['pass']} {failure['instance']}: {'; '.join(failure['errors'])}")


def trace_breakdown(tracer, loop: Loop) -> list[str]:
    """Self time per span name and module, as a share of instance wall time."""
    from tracing import self_times

    selfs = self_times(tracer.spans)
    wall = sum(s.end - s.start for s in tracer.spans if s.name == "instance")
    passes = len(loop.traced)
    lines = ["self time per pass (traced), share of instance wall time:"]
    modules: dict[str, float] = defaultdict(float)
    for name, value in sorted(selfs.items(), key=lambda kv: -kv[1]):
        inside = name != "core.SparseCoupling"
        share = f"{value / wall:7.1%}" if inside else "outside"
        lines.append(f"  {name:42s} {value / passes:12.6f} s  {share}")
        if inside and name != "instance":
            modules[name.split(".")[0]] += value
    for module, value in sorted(modules.items(), key=lambda kv: -kv[1]):
        lines.append(f"  module {module:35s} {value / passes:12.6f} s  {value / wall:7.1%}")
    layer_sum = sum(modules.values()) / passes
    untraced = sum(map(sum, loop.plain)) / len(loop.plain)
    lines.append(
        f"untraced instance wall per pass {untraced:.6f} s; traced layer self times sum to "
        f"{layer_sum:.6f} s plus {selfs.get('instance', 0.0) / passes:.6f} s of glue, "
        f"{len(loop.traced)} traced passes alternating with {len(loop.plain)} untraced; "
        f"tracing overhead {tracing_overhead(loop):.2%} of instances_per_s"
    )
    return lines


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "minent" / "__init__.py").is_file():
        print(f"error: minent sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # JointObservation warns when it prunes unobserved states, as most planted joints have
    warnings.filterwarnings("ignore", message="pruned states")
    import workloads
    from tracing import Tracer

    setup_fn = workloads.SETUP[args.workload]
    OUT.mkdir(exist_ok=True)
    if args.setup_only:
        with workdir() as wd:
            setup_fn(args.seed, wd)
        return 0

    meta = metadata()
    setup = measure_setup(args)
    speed = Speedometer(LOOP_KERNEL.get(args.workload, "compute"))
    timed = workloads.TIMED_PASSES[args.workload]
    with workdir() as wd:
        instances = setup_fn(args.seed, wd)
        checker = Checker(args.workload, args.seed, instances)
        if not args.trace:
            loop = run_loop(instances, args.seconds, timed, Tracer(False), checker, speed)
            typical = typical_times(loop.plain[:timed], loop.plain_scales[:timed])
            metrics = end_to_end(args.workload, setup, speed.run_scale(), typical, loop)
            extra = []
        else:
            tracer = Tracer(True)
            loop = run_loop(instances, args.seconds, 2, tracer, checker, speed)
            imports = measure_import() if args.workload == "cli" else []
            metrics = per_layer(loop, tracer, imports)
            extra = trace_breakdown(tracer, loop)
            extra.append("exact counts: " + " ".join(f"{k}={int(loop.counts[k])}" for k in EXACT_COUNTS))
            tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.json")

    attempted = loop.attempted
    failed = len(loop.failures)
    print_report(args, meta, metrics, loop, timed, setup, speed, checker, extra)
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "metadata": meta,
        "setup_probes_s": setup,
        "kernel": speed.name,
        "kernel_s": speed.kernel_s,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "failed_frac": failed / attempted,
        "failures": loop.failures,
        "notes": extra,
    }
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1), encoding="utf-8"
    )
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
