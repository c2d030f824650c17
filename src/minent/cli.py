"""Command-line interface.

Subcommands: ``couple`` (run a solver), ``certify`` (solve and emit a
local-optimality certificate), ``bound`` (approximation bracket, optionally
against the exact oracle), ``infer`` (causal direction of a joint), and
``generate`` (reproducible problem files).

Problem files are JSON ``{"marginals": [[...], ...]}`` or CSV with one
marginal per row, and may start with a UTF-8 byte-order mark. All output
is JSON on stdout as ``json.dumps(indent=2)`` writes it, with floats
capped at 12 significant digits, so identical invocations are
byte-identical; a coupling mass that 12 digits would round down to
``EPS_ZERO`` keeps every digit, so ``certify --trace-in`` reads back
what ``couple`` wrote.

Exit codes: 0 success, 2 input error, 3 certification failure, 4 size cap
exceeded.

Each command imports the modules it runs when it starts, so a call
compiles and loads only those: ``couple`` needs ``core`` and ``greedy``
alone. ``main`` catches the error classes of ``certify`` and ``oracle``
from ``core``, where they live for that reason.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import re
import sys
from pathlib import Path

from .core import (
    EPS_MARG,
    EPS_ZERO,
    CertificationError,
    DimensionError,
    DomainError,
    Marginal,
    SizeCapError,
    SparseCoupling,
    coerce_marginals,
    extended_entropy,
    marginalize,
)
from .greedy import SOLVERS, GreedyTrace


def _rounded(obj):
    """``obj`` with every float rounded to 12 significant digits and every
    tuple a list."""
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    if isinstance(obj, dict):
        return {key: _rounded(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_rounded(value) for value in obj]
    return obj


def _json_text(obj) -> str:
    """``obj`` as the CLI prints it: rounded, then ``json.dumps(indent=2)``."""
    return json.dumps(_rounded(obj), indent=2)


def _emit(payload: dict) -> None:
    sys.stdout.write(_json_text(payload) + "\n")


def _read_text(path: str) -> str:
    """A file's text, or stdin's for ``-``, less one leading byte-order
    mark such as Excel's "CSV UTF-8" writes."""
    text = sys.stdin.read() if path == "-" else Path(path).read_text(encoding="utf-8")
    return text.removeprefix("\ufeff")


# float() raises OverflowError on an int whose magnitude rounds to 2 ** 1024
_FLOAT_INT_LIMIT = 2**1024 - 2**970


def _is_float(value) -> bool:
    # json.loads gives an int or a float for a JSON number; bool is an int
    # subclass, so exact type checks keep true and false out
    return type(value) is float or (
        type(value) is int and -_FLOAT_INT_LIMIT < value < _FLOAT_INT_LIMIT
    )


def _is_integral(value) -> bool:
    return type(value) is int or (type(value) is float and value.is_integer())


def _require_shape(value, shape, where: str) -> None:
    """Raise DomainError naming ``where`` unless a JSON value has ``shape``.

    ``float`` stands for a number that ``float()`` converts, ``int`` for
    a number with no fractional part, ``[s]`` for a list of ``s``,
    ``[s, s]`` for a pair of ``s`` and ``{field: s}`` for an object whose
    fields have ``s``; a field named with a trailing ``?`` may be absent.
    """
    if isinstance(shape, list):
        if not isinstance(value, list):
            raise DomainError(f"{where} is not a list")
        if len(shape) == 2 and len(value) != 2:
            raise DomainError(f"{where} is not a pair")
        if shape[0] is float and all(map(_is_float, value)):
            return
        if shape[0] is int and all(map(_is_integral, value)):
            return
        for k, item in enumerate(value, start=1):
            _require_shape(item, shape[0], f"{where} item {k}")
    elif isinstance(shape, dict):
        if not isinstance(value, dict):
            raise DomainError(f"{where} is not an object")
        for field, inner in shape.items():
            name = field.rstrip("?")
            if name in value:
                _require_shape(value[name], inner, f"{where} field {name!r}")
            elif name == field:
                raise DomainError(f"{where} lacks a {name!r} field")
    elif type(value) not in (int, float):
        raise DomainError(f"{where} is not a number")
    elif shape is int and not _is_integral(value):
        raise DomainError(f"{where} is not an integer")
    elif shape is float and not _is_float(value):
        raise DomainError(f"{where} is too large for a float")


# What float() and int() say of a string that is no number; int() cuts
# the quoted text at 200 characters
_NOT_A_NUMBER = {
    float: "could not convert string to float: {!r}",
    int: "invalid literal for int() with base 10: {!r:.200}",
}


def _ascii_number(text: str, convert):
    """``convert(text)`` for a CSV cell or an option value of ASCII
    characters and no ``_``.

    ``float()`` and ``int()`` also read digit-group underscores and
    non-ASCII digits (``'0.2_5'``, ``'٠.٥'``, full-width ``'１'``); such
    text gets the error either gives for any other non-number. The
    whitespace around it is left to ``convert``, which strips it.
    """
    stripped = text.strip()
    if stripped.isascii() and "_" not in stripped:
        return convert(text)
    raise ValueError(_NOT_A_NUMBER[convert].format(text))


def _option_type(convert):
    """An argparse ``type`` that reads numbers as ``_ascii_number`` does.

    It carries ``convert``'s name, so argparse still reports
    ``invalid int value: ...`` or ``invalid float value: ...``.
    """

    def parse(text: str):
        return _ascii_number(text, convert)

    parse.__name__ = convert.__name__
    return parse


# The deepest nesting of lists and objects a JSON input may have, the
# document itself counting as 1; see _json_doc.
_MAX_DEPTH = 500
_TOO_DEEP = "JSON input is nested too deeply to parse"
_TOO_LONG = "JSON input holds an integer literal too long to convert"


def _nests_deeper(value) -> bool:
    """Whether lists and objects nest more than ``_MAX_DEPTH`` deep in a
    parsed JSON value, walked one level at a time."""
    level = [value]
    for _ in range(_MAX_DEPTH):
        level = [
            child
            for item in level
            if type(item) in (list, dict)
            for child in (item.values() if type(item) is dict else item)
        ]
        if not level:
            return False
    return any(type(item) in (list, dict) for item in level)


# A JSON string, closed or running to the end of the text, or a bracket
_STRING_OR_BRACKET = re.compile(r'"(?:[^"\\]|\\.)*"?|[][{}]')


def _deepest(text: str) -> int:
    """The deepest nesting of lists and objects in JSON text, outside strings."""
    depth = deepest = 0
    for token in _STRING_OR_BRACKET.findall(text):
        if token in ("[", "{"):
            depth += 1
            if depth > deepest:
                deepest = depth
        elif token in ("]", "}"):
            depth -= 1
    return deepest


def _json_doc(text: str):
    """``json.loads(text)``, rejecting input nested past ``_MAX_DEPTH``.

    ``json.loads`` stops at a depth set by the interpreter, the document
    counting as 1: under ``python -m minent``, 986 levels on 3.10 and
    3.11, fewer under a deeper caller of ``main``, 1,494 on 3.12 and
    9,995 on 3.13. A limit of the CLI's own, well below the least of
    these, gives every interpreter one outcome and leaves about 490
    frames on 3.10 and 3.11 to whatever calls ``main``; a pytest test
    body runs 33 frames deep. The whole document is walked once, before
    any shape check, so input deeper than the limit is rejected as too
    deep whatever else is wrong with it. Malformed text is too deep when
    the text the parser read before its error nests past the limit: 3.13
    follows 2,000 levels to the error where 3.10-3.12 stop, and 600
    levels parse to the error on all of them. Only a failed parse scans
    the text: on the 6 MB n = 10^4 run file a scan takes 0.15 s, against
    0.03 s for the walk of the parsed document (CPU time, 2-core machine).

    An integer literal longer than the interpreter converts (4,300
    digits by default, with a message that differs between 3.10 and
    3.11) gets one message of the CLI's own.
    """
    try:
        doc = json.loads(text)
    except RecursionError:
        raise DomainError(_TOO_DEEP) from None
    except json.JSONDecodeError as exc:
        if _deepest(text[: exc.pos]) > _MAX_DEPTH:
            raise DomainError(_TOO_DEEP) from None
        raise
    except ValueError:
        raise DomainError(_TOO_LONG) from None
    if _nests_deeper(doc):
        raise DomainError(_TOO_DEEP)
    return doc


def _parse_rows(text: str, key: str) -> list[list[float]]:
    stripped = text.lstrip()
    if stripped.startswith("{"):
        doc = _json_doc(text)
        if key not in doc:
            raise DomainError(f"JSON problem file lacks a {key!r} field")
        rows = doc[key]
        _require_shape(rows, [[float]], repr(key))
    else:
        rows = [
            [_ascii_number(cell, float) for cell in row if cell.strip() != ""]
            for row in csv.reader(io.StringIO(text))
            if any(cell.strip() != "" for cell in row)
        ]
    if not rows:
        raise DomainError("problem file contains no rows")
    return rows


def _load_marginals(path: str) -> tuple[Marginal, ...]:
    return coerce_marginals(_parse_rows(_read_text(path), "marginals"))


# What _json_text writes for one item of ``couple``'s two long lists, at
# the depth where they sit: an entry, a trace step and one of a step's
# (axis, state) pairs. A cell's indices, never empty, are joined by
# _INDEX_SEP into the ``%s`` of its ``indices`` list. The templates write
# those lists in 0.024 s where json.dumps takes 0.054 s, at n = 1000.
_ENTRY = '{\n      "indices": [\n        %s\n      ],\n      "mass": %s\n    }'
_STEP = (
    '{\n      "iteration": %d,\n      "indices": [\n        %s\n      ],'
    '\n      "mass": %s,\n      "saturated": %s\n    }'
)
_PAIR = "[\n          %d,\n          %d\n        ]"
_INDEX_SEP = ",\n        "


def _list_text(items: list[str], indent: str) -> str:
    """A list as ``json.dumps(indent=2)`` lays it out, from its items' text;
    ``indent`` is the newline and indentation before its closing bracket."""
    if not items:
        return "[]"
    inner = indent + "  "
    return "[" + inner + ("," + inner).join(items) + indent + "]"


def _mass_text(mass: float) -> str:
    """A cell's mass rounded to 12 significant digits, as JSON text; a mass
    above ``EPS_ZERO`` that would round down to it keeps every digit, so
    the run file reads back as the coupling it came from."""
    rounded = float(f"{mass:.12g}")
    return float.__repr__(mass if rounded <= EPS_ZERO < mass else rounded)


def _couple_text(coupling: SparseCoupling, trace: GreedyTrace, with_trace: bool) -> str:
    """``couple``'s output: what ``_json_text`` writes for its payload.

    The entries and the trace's steps are laid out from fixed templates,
    their indices joined as ints and their masses written by
    ``_mass_text``; a step's saturated pairs are its closed axes in
    increasing order, each with the cell's state on that axis. The scalar
    fields go through ``_json_text``. The payload it stands for is built
    in ``tests/reference_cli.py`` and printed there by ``json.dumps``.
    """
    entries = [
        _ENTRY % (_INDEX_SEP.join(map(str, tup)), _mass_text(mass))
        for tup, mass in coupling.entries.items()
    ]
    fields = {"entropy_bits": extended_entropy(coupling), "steps": len(trace.assignments)}
    if trace.phase_boundary is not None:
        fields["phase_boundary"] = trace.phase_boundary
    parts = ['"entries": ' + _list_text(entries, "\n  ")]
    parts += [f'"{key}": {_json_text(value)}' for key, value in fields.items()]
    if with_trace:
        steps = [
            _STEP % (
                iteration,
                _INDEX_SEP.join(map(str, tup)),
                _mass_text(mass),
                _list_text([_PAIR % pair for pair in pairs], "\n      "),
            )
            for iteration, (tup, mass), pairs in zip(
                trace.iterations, trace.assignments, trace.saturated_pairs()
            )
        ]
        parts.append('"trace": ' + _list_text(steps, "\n  "))
    return "{\n  " + ",\n  ".join(parts) + "\n}"


def cmd_couple(args: argparse.Namespace) -> int:
    marginals = _load_marginals(args.input)
    coupling, trace = SOLVERS["alg" + args.alg](marginals)
    sys.stdout.write(_couple_text(coupling, trace, args.trace) + "\n")
    return 0


# The layout ``couple --trace`` writes, as ``_require_shape`` reads it.
_RUN_ENTRIES = [{"indices": [int], "mass": float}]
_RUN_TRACE = [{"iteration": int, "indices": [int], "mass": float, "saturated?": [[int, int]]}]


def _load_run_file(path: str, marginals: tuple[Marginal, ...]):
    """Rebuild a (coupling, trace) pair from a ``couple --trace`` output file.

    The trace's record is written in the one pass that converts its
    steps, with no list of steps in between: on the n = 10^4, m = 2
    ``couple --alg 2 --trace`` file (6.0 MB) the whole read went from
    0.420 to 0.305 s (medians of 20 alternating reads in one process, CPU
    time, 2-core machine). ``json.loads`` alone takes 0.09 s of that, the
    depth walk 0.06 s and the shape checks 0.11 s."""
    doc = _json_doc(_read_text(path))
    if not isinstance(doc, dict) or "entries" not in doc or "trace" not in doc:
        raise DomainError("run file needs both 'entries' and 'trace' fields")
    _require_shape(doc["entries"], _RUN_ENTRIES, "run file 'entries'")
    _require_shape(doc["trace"], _RUN_TRACE, "run file 'trace'")
    n = len(marginals[0])
    m = len(marginals)
    entries = {}
    for k, item in enumerate(doc["entries"], start=1):
        tup = tuple(map(int, item["indices"]))
        if tup in entries:
            raise DomainError(f"run file 'entries' item {k} repeats the cell {list(tup)}")
        entries[tup] = float(item["mass"])
    # a saturated pair sets its axis's bit only where it names the cell's
    # own state on that axis
    assignments, closed, iterations = [], [], []
    for item in doc["trace"]:
        cell = tuple(map(int, item["indices"]))
        mask = 0
        for axis, state in item.get("saturated", ()):
            axis = int(axis)
            if 1 <= axis <= len(cell) and cell[axis - 1] == int(state):
                mask |= 1 << (axis - 1)
        assignments.append((cell, float(item["mass"])))
        closed.append(mask)
        iterations.append(int(item["iteration"]))
    boundary = doc.get("phase_boundary")
    if boundary is not None:
        _require_shape(boundary, int, "run file 'phase_boundary'")
        boundary = int(boundary)
    try:
        coupling = SparseCoupling(m, (n,) * m, entries)
    except (DomainError, DimensionError) as exc:
        raise CertificationError(f"run file does not encode a coupling: {exc}")
    return coupling, GreedyTrace(tuple(assignments), tuple(closed), tuple(iterations), boundary)


def _check_feasible(coupling: SparseCoupling, marginals: tuple[Marginal, ...]) -> None:
    for axis, marginal in enumerate(marginals, start=1):
        implied = marginalize(coupling, axis)
        worst = max(abs(a - b) for a, b in zip(implied, marginal.probs))
        if worst > EPS_MARG:
            raise CertificationError(
                f"coupling misses marginal {axis} by {worst:.3e}"
            )


def cmd_certify(args: argparse.Namespace) -> int:
    from .certify import certify_local_optimum

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
    from .bounds import bound_report

    marginals = _load_marginals(args.input)
    if args.oracle:
        # Before solving: the oracle rejects n > DEFAULT_N_CAP before it
        # runs a solver of its own.
        if len(marginals) != 2:
            raise DomainError("--oracle needs exactly two marginals")
        from .oracle import exact_min_entropy_2var

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


_LONG_LABEL = "sample label is an integer too long to convert"
_INT_LITERAL = re.compile(r"[+-]?[0-9]+")


def _sample_label(cell: str) -> int:
    """``_ascii_number(cell, int)``, with one message of the CLI's own for
    an integer past the interpreter's integer-string limit.

    The limit is 4,300 digits by default, and its message differs between
    3.10 and 3.11. 3.10 and 3.11 also give it for a long run of digits
    followed by a non-digit, where 3.12 and 3.13 give int()'s message for
    text that is no number, as every interpreter does here.
    """
    try:
        return _ascii_number(cell, int)
    except ValueError:
        if _INT_LITERAL.fullmatch(cell.strip()):
            raise DomainError(_LONG_LABEL) from None
        raise ValueError(_NOT_A_NUMBER[int].format(cell)) from None


def _load_samples(text: str) -> list[tuple[int, int]]:
    pairs = []
    for row in csv.reader(io.StringIO(text)):
        cells = [c for c in row if c.strip() != ""]
        if not cells:
            continue
        if len(cells) != 2:
            raise DomainError(f"sample row needs two values, got {row!r}")
        pairs.append((_sample_label(cells[0]), _sample_label(cells[1])))
    if not pairs:
        raise DomainError("no samples in input")
    return pairs


def cmd_infer(args: argparse.Namespace) -> int:
    from .causality import JointObservation, infer_direction

    text = _read_text(args.input)
    if args.samples:
        obs = JointObservation.from_samples(_load_samples(text))
    else:
        rows = _parse_rows(text, "joint")
        obs = JointObservation.from_matrix(rows)
        pruned_x = [i for i in range(1, len(rows) + 1) if i not in obs.row_labels]
        pruned_y = [j for j in range(1, len(rows[0]) + 1) if j not in obs.col_labels]
        if pruned_x or pruned_y:
            print(
                f"warning: pruned states with zero observed mass: X {pruned_x}, "
                f"Y {pruned_y}; kept X {list(obs.row_labels)}, Y {list(obs.col_labels)}",
                file=sys.stderr,
            )
    report = infer_direction(obs, margin=args.margin, solver=args.solver)
    _emit(report.to_dict())
    return 0


def cmd_generate(args: argparse.Namespace) -> int:
    if args.family == "special":
        if args.alpha is None:
            raise DomainError("--alpha is required for the special family")
        from .bounds import special_family

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
        # numpy's generator, drawn without numpy, so a seed gives the files
        # it always gave
        from ._random import dirichlet_rows

        _emit(
            {
                "marginals": dirichlet_rows(args.seed, args.n, args.m),
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
    algs = [name.removeprefix("alg") for name in SOLVERS]

    couple = sub.add_parser("couple", help="run a greedy coupling solver")
    couple.add_argument("input", help="problem file (JSON or CSV), '-' for stdin")
    couple.add_argument("--alg", choices=algs, default="1")
    couple.add_argument("--trace", action="store_true", help="include the full trace")
    couple.set_defaults(func=cmd_couple)

    certify = sub.add_parser("certify", help="certify a solver run as a local optimum")
    certify.add_argument("input", help="problem file (JSON or CSV)")
    certify.add_argument("--alg", choices=algs, default="1")
    certify.add_argument(
        "--trace-in",
        help="certify a previously saved 'couple --trace' output instead of re-solving",
    )
    certify.set_defaults(func=cmd_certify)

    bound = sub.add_parser("bound", help="additive approximation bracket")
    bound.add_argument("input", help="problem file (JSON or CSV)")
    bound.add_argument("--alg", choices=algs, default="2")
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
    infer.add_argument("--margin", type=_option_type(float), default=0.0)
    infer.add_argument(
        "--samples",
        action="store_true",
        help="input holds one 'x,y' sample per row instead of a matrix",
    )
    infer.add_argument("--solver", choices=list(SOLVERS), default="alg2")
    infer.set_defaults(func=cmd_infer)

    generate = sub.add_parser("generate", help="emit a reproducible problem file")
    generate.add_argument("--family", choices=["special", "random"], required=True)
    generate.add_argument("--n", type=_option_type(int), required=True)
    generate.add_argument(
        "--alpha", type=_option_type(float), help="special family skew in (1, 2)"
    )
    generate.add_argument(
        "--m", type=_option_type(int), default=2, help="number of random marginals"
    )
    generate.add_argument("--seed", type=_option_type(int), default=0)
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
    except (OSError, json.JSONDecodeError, csv.Error, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    raise SystemExit(main())

