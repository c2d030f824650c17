"""Command-line interface.

Subcommands: ``couple`` (run a solver), ``certify`` (solve and emit a
local-optimality certificate), ``bound`` (approximation bracket, optionally
against the exact oracle), ``infer`` (causal direction of a joint), and
``generate`` (reproducible problem files).

Problem files are JSON ``{"marginals": [[...], ...]}`` or CSV with one
marginal per row. All output is JSON on stdout with floats capped at 12
significant digits, so identical invocations are byte-identical.

Exit codes: 0 success, 2 input error, 3 certification failure, 4 size cap
exceeded.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from json.encoder import encode_basestring_ascii
from pathlib import Path

from .bounds import bound_report, special_family
from .certify import CertificationError, certify_local_optimum
from .core import (
    EPS_MARG,
    DimensionError,
    DomainError,
    Marginal,
    SparseCoupling,
    coerce_marginals,
    extended_entropy,
    marginalize,
)
from .greedy import SOLVERS, GreedyStep, GreedyTrace
from .oracle import SizeCapError, exact_min_entropy_2var


def _json_text(obj, indent: str = "\n") -> str:
    """``json.dumps(obj, indent=2)`` with every float first rounded to 12
    significant digits, written in one pass.

    Handles what the commands emit: dicts with string keys, lists and
    tuples, strings, bools, ints, floats (NaN and infinities as JSON's
    ``NaN`` and ``Infinity``) and None. ``indent`` is the newline and
    indentation that precede the value's closing bracket.
    """
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        value = float(f"{obj:.12g}")
        if math.isfinite(value):
            return float.__repr__(value)
        if value != value:
            return "NaN"
        return "Infinity" if value > 0.0 else "-Infinity"
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    inner = indent + "  "
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            encode_basestring_ascii(key) + ": " + _json_text(value, inner)
            for key, value in obj.items()
        ]
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [_json_text(value, inner) for value in obj]
        return "[" + inner + ("," + inner).join(items) + indent + "]"
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _emit(payload: dict) -> None:
    sys.stdout.write(_json_text(payload) + "\n")


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    return Path(path).read_text(encoding="utf-8")


def _is_number(value) -> bool:
    # json.loads gives an int or a float for a JSON number; bool is an int
    # subclass, so an exact type check keeps true and false out
    return type(value) in (int, float)


def _is_integral(value) -> bool:
    return type(value) is int or (type(value) is float and value.is_integer())


def _require_shape(value, shape, where: str) -> None:
    """Raise DomainError naming ``where`` unless a JSON value has ``shape``.

    ``float`` stands for a number, ``int`` for a number with no fractional
    part, ``[s]`` for a list of ``s`` and ``{field: s}`` for an object
    whose fields, where present, have ``s``.
    """
    if isinstance(shape, list):
        if not isinstance(value, list):
            raise DomainError(f"{where} is not a list")
        if shape[0] is float and all(map(_is_number, value)):
            return
        if shape[0] is int and all(map(_is_integral, value)):
            return
        for k, item in enumerate(value, start=1):
            _require_shape(item, shape[0], f"{where} item {k}")
    elif isinstance(shape, dict):
        if not isinstance(value, dict):
            raise DomainError(f"{where} is not an object")
        for field, inner in shape.items():
            if field in value:
                _require_shape(value[field], inner, f"{where} field {field!r}")
    elif not _is_number(value):
        raise DomainError(f"{where} is not a number")
    elif shape is int and not _is_integral(value):
        raise DomainError(f"{where} is not an integer")


def _parse_rows(text: str, key: str) -> list[list[float]]:
    stripped = text.lstrip()
    if stripped.startswith("{"):
        doc = json.loads(text)
        if key not in doc:
            raise DomainError(f"JSON problem file lacks a {key!r} field")
        rows = doc[key]
        _require_shape(rows, [[float]], repr(key))
    else:
        rows = [
            [float(cell) for cell in row if cell.strip() != ""]
            for row in csv.reader(io.StringIO(text))
            if any(cell.strip() != "" for cell in row)
        ]
    if not rows:
        raise DomainError("problem file contains no rows")
    return [[float(v) for v in row] for row in rows]


def _load_marginals(path: str) -> tuple[Marginal, ...]:
    return coerce_marginals(_parse_rows(_read_text(path), "marginals"))


def _entries_payload(coupling: SparseCoupling) -> list[dict]:
    return [
        {"indices": list(tup), "mass": mass}
        for tup, mass in coupling.assignment_order
    ]


def _trace_payload(trace: GreedyTrace) -> list[dict]:
    return [
        {
            "iteration": step.iteration,
            "indices": list(step.chosen_tuple),
            "mass": step.mass,
            "saturated": [list(pair) for pair in sorted(step.saturated_axes)],
        }
        for step in trace.steps
    ]


def cmd_couple(args: argparse.Namespace) -> int:
    marginals = _load_marginals(args.input)
    coupling, trace = SOLVERS["alg" + args.alg](marginals)
    payload = {
        "entries": _entries_payload(coupling),
        "entropy_bits": extended_entropy(coupling),
        "steps": len(trace.steps),
    }
    if trace.phase_boundary is not None:
        payload["phase_boundary"] = trace.phase_boundary
    if args.trace:
        payload["trace"] = _trace_payload(trace)
    _emit(payload)
    return 0


# The layout ``couple --trace`` writes, as ``_require_shape`` reads it.
_RUN_ENTRIES = [{"indices": [int], "mass": float}]
_RUN_TRACE = [{"iteration": int, "indices": [int], "mass": float, "saturated": [[int]]}]


def _load_run_file(path: str, marginals: tuple[Marginal, ...]):
    """Rebuild a (coupling, trace) pair from a ``couple --trace`` output file."""
    doc = json.loads(_read_text(path))
    if not isinstance(doc, dict) or "entries" not in doc or "trace" not in doc:
        raise DomainError("run file needs both 'entries' and 'trace' fields")
    _require_shape(doc["entries"], _RUN_ENTRIES, "run file 'entries'")
    _require_shape(doc["trace"], _RUN_TRACE, "run file 'trace'")
    n = len(marginals[0])
    m = len(marginals)
    order = tuple(
        (tuple(int(i) for i in item["indices"]), float(item["mass"]))
        for item in doc["entries"]
    )
    steps = tuple(
        GreedyStep(
            iteration=int(item["iteration"]),
            chosen_tuple=tuple(int(i) for i in item["indices"]),
            mass=float(item["mass"]),
            saturated_axes=frozenset(
                (int(a), int(s)) for a, s in item.get("saturated", [])
            ),
        )
        for item in doc["trace"]
    )
    boundary = doc.get("phase_boundary")
    try:
        coupling = SparseCoupling(m, (n,) * m, dict(order), order)
    except (DomainError, DimensionError) as exc:
        raise CertificationError(f"run file does not encode a coupling: {exc}")
    return coupling, GreedyTrace(steps, boundary)


def _check_feasible(coupling: SparseCoupling, marginals: tuple[Marginal, ...]) -> None:
    for axis, marginal in enumerate(marginals, start=1):
        implied = marginalize(coupling, axis)
        worst = max(abs(a - b) for a, b in zip(implied, marginal.probs))
        if worst > EPS_MARG:
            raise CertificationError(
                f"coupling misses marginal {axis} by {worst:.3e}"
            )


def cmd_certify(args: argparse.Namespace) -> int:
    marginals = _load_marginals(args.input)
    if args.trace_in:
        coupling, trace = _load_run_file(args.trace_in, marginals)
    else:
        coupling, trace = SOLVERS["alg" + args.alg](marginals)
    _check_feasible(coupling, marginals)
    certificate = certify_local_optimum(coupling, trace)
    _emit({"local_optimum_certified": True, **certificate.to_dict()})
    return 0


def cmd_bound(args: argparse.Namespace) -> int:
    marginals = _load_marginals(args.input)
    if args.oracle:
        # Before solving: the oracle rejects n > DEFAULT_N_CAP before it
        # runs a solver of its own.
        if len(marginals) != 2:
            raise DomainError("--oracle needs exactly two marginals")
        _, best_entropy = exact_min_entropy_2var(marginals[0], marginals[1])
    coupling, _ = SOLVERS["alg" + args.alg](marginals)
    achieved = extended_entropy(coupling)
    report = bound_report(marginals, achieved=achieved)
    payload = report.to_dict()
    if args.oracle:
        payload["oracle"] = {
            "min_entropy": best_entropy,
            "upper_bound_absolute": best_entropy + report.slack,
            "tightness": achieved - best_entropy,
        }
    _emit(payload)
    return 0


def _load_samples(text: str) -> list[tuple[int, int]]:
    pairs = []
    for row in csv.reader(io.StringIO(text)):
        cells = [c for c in row if c.strip() != ""]
        if not cells:
            continue
        if len(cells) != 2:
            raise DomainError(f"sample row needs two values, got {row!r}")
        pairs.append((int(cells[0]), int(cells[1])))
    if not pairs:
        raise DomainError("no samples in input")
    return pairs


def cmd_infer(args: argparse.Namespace) -> int:
    # imported here so the other commands do not compile causality.py
    from .causality import JointObservation, infer_direction

    text = _read_text(args.input)
    if args.samples:
        obs = JointObservation.from_samples(_load_samples(text))
    else:
        obs = JointObservation.from_matrix(_parse_rows(text, "joint"))
    report = infer_direction(obs, margin=args.margin, solver=args.solver)
    _emit(report.to_dict())
    return 0


def cmd_generate(args: argparse.Namespace) -> int:
    if args.family == "special":
        if args.alpha is None:
            raise DomainError("--alpha is required for the special family")
        uniform, skewed, predicted, second = special_family(args.n, args.alpha)
        _emit(
            {
                "marginals": [list(uniform.probs), list(skewed.probs)],
                "family": "special",
                "n": args.n,
                "alpha": args.alpha,
                "predicted_coupling_entropy_bits": predicted,
                "second_marginal_entropy_bits": second,
            }
        )
    else:
        if args.n < 1:
            raise DomainError(f"--n must be at least 1, got {args.n}")
        if args.m < 2:
            raise DomainError(f"--m must be at least 2, got {args.m}")
        # numpy's generator, so a seed gives the files it always gave
        import numpy as np

        rng = np.random.default_rng(args.seed)
        marginals = rng.dirichlet(np.ones(args.n), size=args.m)
        _emit(
            {
                "marginals": [[float(v) for v in row] for row in marginals],
                "family": "random",
                "n": args.n,
                "m": args.m,
                "seed": args.seed,
            }
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="minent",
        description="Minimum entropy coupling toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    couple = sub.add_parser("couple", help="run a greedy coupling solver")
    couple.add_argument("input", help="problem file (JSON or CSV), '-' for stdin")
    couple.add_argument("--alg", choices=["1", "2"], default="1")
    couple.add_argument("--trace", action="store_true", help="include the full trace")
    couple.set_defaults(func=cmd_couple)

    certify = sub.add_parser("certify", help="certify a solver run as a local optimum")
    certify.add_argument("input", help="problem file (JSON or CSV)")
    certify.add_argument("--alg", choices=["1", "2"], default="1")
    certify.add_argument(
        "--trace-in",
        help="certify a previously saved 'couple --trace' output instead of re-solving",
    )
    certify.set_defaults(func=cmd_certify)

    bound = sub.add_parser("bound", help="additive approximation bracket")
    bound.add_argument("input", help="problem file (JSON or CSV)")
    bound.add_argument("--alg", choices=["1", "2"], default="2")
    bound.add_argument(
        "--oracle",
        action="store_true",
        help="also compute the exact optimum (two marginals, small n only)",
    )
    bound.set_defaults(func=cmd_bound)

    infer = sub.add_parser("infer", help="causal direction of an observed joint")
    infer.add_argument(
        "input",
        help="CSV joint matrix (rows = X states), or sample pairs with --samples",
    )
    infer.add_argument("--margin", type=float, default=0.0)
    infer.add_argument(
        "--samples",
        action="store_true",
        help="input holds one 'x,y' sample per row instead of a matrix",
    )
    infer.add_argument("--solver", choices=list(SOLVERS), default="alg2")
    infer.set_defaults(func=cmd_infer)

    generate = sub.add_parser("generate", help="emit a reproducible problem file")
    generate.add_argument("--family", choices=["special", "random"], required=True)
    generate.add_argument("--n", type=int, required=True)
    generate.add_argument("--alpha", type=float, help="special family skew in (1, 2)")
    generate.add_argument("--m", type=int, default=2, help="number of random marginals")
    generate.add_argument("--seed", type=int, default=0)
    generate.set_defaults(func=cmd_generate)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CertificationError as exc:
        payload = {"local_optimum_certified": False, "reason": str(exc)}
        if exc.residual_norm is not None:
            payload["residual_norm"] = exc.residual_norm
        if exc.max_reconstruction_error is not None:
            payload["max_reconstruction_error"] = exc.max_reconstruction_error
        _emit(payload)
        return 3
    except SizeCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (DomainError, DimensionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, json.JSONDecodeError, csv.Error, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
