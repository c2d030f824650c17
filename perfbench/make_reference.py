"""Write the reference fingerprints that every benchmark run is compared with.

Run from the repository root, at the commit whose outputs are the
reference:

    python3 perfbench/make_reference.py

For every workload and every seed from 0 to ``SEEDS`` - 1 this runs each
instance once and stores its fingerprint in
``perfbench/reference/<workload>.json``: coupling entropies to 1e-9 bits,
support sizes, step counts, phase boundaries, oracle optima, causal
verdicts and a hash of the ``generate`` output. A run on a seed with no
stored reference compares its passes with its own first pass instead.
Regenerate only when the benchmark's instances change.
"""

from __future__ import annotations

import json
import sys
import warnings

import run

SEEDS = 16


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    warnings.filterwarnings("ignore", message="pruned states")
    import workloads
    from tracing import Tracer

    call = Tracer(False).call
    run.OUT.mkdir(exist_ok=True)
    run.REFERENCE.mkdir(exist_ok=True)
    status = 0
    for name in run.WORKLOADS:
        lines = []
        for seed in range(SEEDS):
            with run.workdir() as wd:
                stored = {}
                for inst in workloads.SETUP[name](seed, wd):
                    found = workloads.check_instance(inst, workloads.run_instance(inst, call))
                    for error in found.errors:
                        print(f"{name} seed {seed} {inst.id}: {error}", file=sys.stderr)
                        status = 1
                    stored[inst.id] = found.fingerprint
            lines.append(f"{json.dumps(str(seed))}:{json.dumps(stored, separators=(',', ':'))}")
            print(f"{name} seed {seed}: {len(stored)} instances", flush=True)
        text = "{\n" + ",\n".join(lines) + "\n}\n"
        (run.REFERENCE / f"{name}.json").write_text(text, encoding="utf-8")
    return status


if __name__ == "__main__":
    sys.exit(main())
