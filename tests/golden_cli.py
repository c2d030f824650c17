"""Write the golden CLI transcript that ``test_golden_cli.py`` replays.

Run once, from the repository root, on the code whose output is to be
frozen:

    PYTHONPATH=src python tests/golden_cli.py

It writes ``tests/golden_cli.json``: the input files, and for each
invocation its argv, exit code, stdout and stderr. It refuses to
overwrite an existing transcript: the file records what the CLI printed
when it was made, and a change that alters a byte has to say so rather
than regenerate the file.

Invocations run in process through ``minent.cli.main`` inside a scratch
directory that holds the input files, so file names in messages are
relative. A case with ``save`` writes its stdout to that file name for
later cases (``couple --trace`` output for ``certify --trace-in``).
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

GOLDEN = Path(__file__).with_name("golden_cli.json")


def _marginals(rows) -> str:
    return json.dumps({"marginals": rows})


def build_inputs() -> dict[str, str]:
    rng = np.random.default_rng(20261018)

    def dirichlet(m, n):
        return [[float(v) for v in row] for row in rng.dirichlet(np.ones(n), size=m)]

    def planted(n_x, n_y):
        """X -> Y through a random mechanism of X and a two-state input."""
        local = np.random.default_rng(39)
        p_x = local.dirichlet(np.ones(n_x))
        p_e = local.dirichlet(np.ones(2))
        mechanism = local.integers(0, n_y, size=(n_x, 2))
        joint = np.zeros((n_x, n_y))
        for x in range(n_x):
            for e in range(2):
                joint[x, mechanism[x, e]] += p_x[x] * p_e[e]
        return joint

    random_2x4 = dirichlet(2, 4)
    planted_9x8 = planted(9, 8)
    tiny_cells = [((1, 1), 0.5), ((2, 2), 0.399999999997), ((1, 2), 0.1), ((3, 3), 3e-12)]
    shift = 1.0 + 4.9e-10
    return {
        "worked.json": _marginals([[0.6, 0.4], [0.5, 0.5]]),
        "worked.csv": "0.6,0.4\n0.5,0.5\n",
        # a UTF-8 byte-order mark, as Excel's "CSV UTF-8" writes one
        "bom.csv": "\ufeff0.6,0.4\n0.5,0.5\n",
        "random_3x4.json": _marginals(dirichlet(3, 4)),
        "random_2x4.json": _marginals(random_2x4),
        "random_2x5.json": _marginals(dirichlet(2, 5)),
        "random_4x6.json": _marginals(dirichlet(4, 6)),
        "shifted.json": _marginals([random_2x4[0], [v * shift for v in random_2x4[1]]]),
        "tied.json": _marginals([[0.5, 0.25, 0.125, 0.125], [0.25] * 4]),
        "identical_5.json": _marginals([[0.1, 0.15, 0.2, 0.25, 0.3]] * 2),
        "uniform_5.json": _marginals([[0.2] * 5] * 2),
        "special_4.json": _marginals([[0.25] * 4, [0.375, 0.375, 0.125, 0.125]]),
        "dust.json": _marginals(
            [[0.5, 0.5 - 5e-12, 5e-12], [0.25, 0.75 - 3e-13, 3e-13]]
        ),
        # a cell mass that 12 significant digits would round down to EPS_ZERO
        "dust_band.json": _marginals([[0.5, 0.499999999999, 1.0000000000004e-12]] * 2),
        "n1.json": _marginals([[1.0], [1.0]]),
        "n6.json": _marginals([[1.0 / 6] * 6] * 2),
        "n7.json": _marginals([[1.0 / 7] * 7] * 2),
        "negzero.json": '{"marginals": [[0.5, 0.5, -0.0], [0.25, 0.75, 0.0]]}',
        "negzero.csv": "-0.0,1.0\n1.0,-0.0\n",
        "three.json": _marginals([[0.5, 0.5]] * 3),
        "ragged.csv": "0.5,0.5\n0.2,0.3,0.5\n",
        "apart.json": _marginals(
            [[v * (1 - 9e-10) for v in (0.3, 0.7)], [v * (1 + 9e-10) for v in (0.3, 0.7)]]
        ),
        "nan.json": '{"marginals": [[0.5, 0.5], [NaN, 1.0]]}',
        "inf.csv": "0.5,0.5\ninf,1.0\n",
        "negative.json": _marginals([[0.5, 0.5], [1.5, -0.5]]),
        # 1 and 400 zeros: an int that float() cannot convert
        "huge.json": '{"marginals": [[1%s, 0.5], [0.5, 0.5]]}' % ("0" * 400),
        "malformed.json": "{not json",
        "no_field.json": json.dumps({"joint": [[0.5, 0.5]]}),
        "empty.csv": "\n\n",
        "joint.csv": "0.3,0.1\n0.2,0.4\n",
        "joint_4x4.json": json.dumps({"joint": [[v / 4 for v in row] for row in dirichlet(4, 4)]}),
        "independent.csv": "0.12,0.28\n0.18,0.42\n",
        "samples.csv": "\n".join(["1,1"] * 40 + ["1,2"] * 10 + ["2,2"] * 50) + "\n",
        "bad_joint.csv": "0.5,abc\n0,0.5\n",
        "pruned.csv": "0.25,0,0.25\n0,0,0\n0.3,0,0.2\n",
        # nested past the depth that any interpreter's JSON parser follows
        "deep.json": '{"marginals": %s}' % ("[" * 100_000 + "]" * 100_000),
        # 2,000 deep: past the CLI's limit, parsed by 3.13 but not by 3.10-3.12
        "deep_2000.json": '{"marginals": %s}' % ("[" * 2000 + "]" * 2000),
        "deep_field.json": '{"marginals": [[0.6, 0.4], [0.5, 0.5]], "note": %s}'
        % ("[" * 2000 + "]" * 2000),
        # malformed past the CLI's limit: 3.13 parses 2,000 levels to the
        # error where 3.10-3.12 stop, and every interpreter parses 600
        "deep_bad_600.json": '{"marginals": %s' % ("[" * 600 + "x"),
        "deep_bad_2000.json": '{"marginals": %s' % ("[" * 2000 + "x"),
        # 1 and 5,000 zeros: past Python's integer-string conversion limit
        "long_int.json": '{"marginals": [[1%s, 0.5], [0.5, 0.5]]}' % ("0" * 5000),
        "tiny.json": _marginals([[0.6, 0.4 - 3e-12, 3e-12], [0.5, 0.5 - 3e-12, 3e-12]]),
        # what `couple tiny.json --alg 1 --trace` writes, with 8e-13 added to
        # the tiny step's mass: within the 1e-12 matching tolerance, but
        # 27 % off the mass in the rebuilt mass
        "tiny_run.json": json.dumps(
            {
                "entries": [{"indices": list(cell), "mass": mass} for cell, mass in tiny_cells],
                "trace": [
                    {"iteration": k, "indices": list(cell), "mass": mass + 8e-13 if mass == 3e-12 else mass}
                    for k, (cell, mass) in enumerate(tiny_cells, start=1)
                ],
            }
        ),
        # a first sample label of 1 and 5,000 zeros: past Python's
        # integer-string conversion limit
        "long_label.csv": "1%s,1\n2,2\n" % ("0" * 5000),
        # dropping rows 3 and 4 leaves column 3 with no mass: pruned twice
        "pruned_twice.csv": "0.3,0.2,0\n0.2,0.2999999999988,0\n0,0,6e-13\n0,0,6e-13\n",
        # 8 or more states per axis, and the transpose: the reports swap
        "planted_9x8.json": json.dumps({"joint": planted_9x8.tolist()}),
        "planted_8x9.json": json.dumps({"joint": planted_9x8.T.tolist()}),
        "bad_samples.csv": "1,2,3\n",
    }


# (argv, options); options may carry "stdin" text and a "save" file name.
CASES: list[tuple[list[str], dict]] = [
    (["couple", "worked.json", "--alg", "1"], {}),
    (["couple", "worked.json", "--alg", "2"], {}),
    (["couple", "worked.csv"], {}),
    (["couple", "bom.csv"], {}),
    (["couple", "-", "--alg", "2"], {"stdin": "0.6,0.4\n0.5,0.5\n"}),
    (["couple", "random_3x4.json", "--alg", "1", "--trace"], {"save": "run_alg1.json"}),
    (["couple", "random_3x4.json", "--alg", "2", "--trace"], {"save": "run_alg2.json"}),
    (["couple", "random_4x6.json", "--alg", "2"], {}),
    (["couple", "tied.json", "--alg", "1", "--trace"], {}),
    (["couple", "dust.json", "--alg", "2", "--trace"], {}),
    (["couple", "dust_band.json", "--alg", "1", "--trace"], {"save": "run_band.json"}),
    (["couple", "negzero.json", "--alg", "1"], {}),
    (["couple", "negzero.csv", "--alg", "2", "--trace"], {}),
    (["certify", "worked.json", "--alg", "1"], {}),
    (["certify", "random_3x4.json", "--alg", "2"], {}),
    (["certify", "random_3x4.json", "--trace-in", "run_alg1.json"], {}),
    (["certify", "random_3x4.json", "--trace-in", "run_alg2.json"], {}),
    (["certify", "worked.json", "--trace-in", "run_alg1.json"], {}),
    (["certify", "tied.json", "--alg", "2"], {}),
    (["certify", "dust.json", "--alg", "1"], {}),
    (["certify", "dust_band.json", "--trace-in", "run_band.json"], {}),
    (["bound", "worked.json"], {}),
    (["bound", "random_4x6.json", "--alg", "1"], {}),
    (["bound", "worked.json", "--alg", "1", "--oracle"], {}),
    (["bound", "random_2x4.json", "--oracle"], {}),
    (["bound", "random_2x4.json", "--alg", "1", "--oracle"], {}),
    (["bound", "shifted.json", "--oracle"], {}),
    (["bound", "tied.json", "--oracle"], {}),
    (["bound", "dust.json", "--alg", "1", "--oracle"], {}),
    (["bound", "special_4.json", "--oracle"], {}),
    (["bound", "identical_5.json", "--oracle"], {}),
    (["bound", "uniform_5.json", "--alg", "1", "--oracle"], {}),
    (["bound", "random_2x5.json", "--oracle"], {}),
    (["bound", "n1.json", "--oracle"], {}),
    (["bound", "negzero.json", "--oracle"], {}),
    (["bound", "n6.json", "--oracle"], {}),
    (["bound", "n7.json", "--oracle"], {}),
    (["bound", "three.json", "--oracle"], {}),
    (["infer", "joint.csv"], {}),
    (["infer", "joint.csv", "--solver", "alg1", "--margin", "0.1"], {}),
    (["infer", "joint_4x4.json"], {}),
    (["infer", "independent.csv"], {}),
    (["infer", "samples.csv", "--samples"], {}),
    (["infer", "bad_joint.csv"], {}),
    (["infer", "bad_samples.csv", "--samples"], {}),
    (["infer", "empty.csv", "--samples"], {}),
    (["infer", "joint.csv", "--margin=nan"], {}),
    (["infer", "pruned.csv"], {}),
    (["generate", "--family", "special", "--n", "4", "--alpha", "1.5"], {}),
    (["generate", "--family", "random", "--n", "3", "--m", "3", "--seed", "7"], {}),
    (["generate", "--family", "special", "--n", "4"], {}),
    (["generate", "--family", "special", "--n", "3", "--alpha", "1.5"], {}),
    (["generate", "--family", "random", "--n", "0"], {}),
    (["generate", "--family", "random", "--n", "5", "--m", "2", "--seed", "0"], {}),
    # a seed above 2 ** 64 spans three 32-bit words of SeedSequence entropy
    (["generate", "--family", "random", "--n", "5", "--m", "2", "--seed", "18446744073709551617"], {}),
    (["generate", "--family", "random", "--n", "5", "--m", "2", "--seed", "-1"], {}),
    (["couple", "ragged.csv"], {}),
    (["couple", "apart.json"], {}),
    (["certify", "nan.json"], {}),
    (["bound", "inf.csv"], {}),
    (["couple", "negative.json"], {}),
    (["couple", "huge.json"], {}),
    (["couple", "malformed.json"], {}),
    (["couple", "no_field.json"], {}),
    (["bound", "empty.csv"], {}),
    (["couple", "missing.json"], {}),
    (["certify", "worked.json", "--trace-in", "worked.json"], {}),
    (["couple", "deep_2000.json"], {}),
    (["couple", "deep_field.json"], {}),
    (["couple", "deep_bad_600.json"], {}),
    (["couple", "deep_bad_2000.json"], {}),
    (["couple", "long_int.json"], {}),
    (["certify", "tiny.json", "--trace-in", "tiny_run.json"], {}),
    (["infer", "long_label.csv", "--samples"], {}),
    (["infer", "pruned_twice.csv"], {}),
    (["infer", "planted_9x8.json"], {}),
    (["infer", "planted_8x9.json"], {}),
    (["couple", "deep.json"], {}),
]


def record() -> dict:
    from minent.cli import main

    inputs = build_inputs()
    cases = []
    start = os.getcwd()
    with tempfile.TemporaryDirectory() as scratch:
        os.chdir(scratch)
        try:
            for name, text in inputs.items():
                Path(name).write_text(text, encoding="utf-8")
            for argv, options in CASES:
                out, err = io.StringIO(), io.StringIO()
                stdin = sys.stdin
                sys.stdin = io.StringIO(options.get("stdin", ""))
                try:
                    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                        code = main(list(argv))
                finally:
                    sys.stdin = stdin
                if "save" in options:
                    Path(options["save"]).write_text(out.getvalue(), encoding="utf-8")
                cases.append(
                    {
                        "argv": argv,
                        **options,
                        "code": code,
                        "stdout": out.getvalue(),
                        "stderr": err.getvalue(),
                    }
                )
        finally:
            os.chdir(start)
    return {"inputs": inputs, "cases": cases}


def main() -> int:
    if GOLDEN.exists():
        print(f"{GOLDEN} exists; refusing to overwrite it", file=sys.stderr)
        return 1
    GOLDEN.write_text(json.dumps(record(), indent=1) + "\n", encoding="utf-8")
    print(f"wrote {GOLDEN}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
