"""Replay the golden CLI transcript on whatever interpreter runs this.

Needs only the standard library, so interpreters without pytest or numpy
can check that the CLI prints, byte for byte, what ``golden_cli.json``
recorded. From the repository root:

    PYTHONPATH=src python tests/replay_golden.py

Each case runs in process through ``minent.cli.main`` inside a scratch
directory that holds the transcript's input files. Every mismatch is
printed, and the exit code is 1 if there is one. Every case replays:
``generate --family random`` draws numpy's numbers without numpy.
``test_golden_cli.py`` replays through the same functions.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

GOLDEN = json.loads(Path(__file__).with_name("golden_cli.json").read_text(encoding="utf-8"))


def write_inputs(directory: Path) -> None:
    """Write every input file, and every saved run file, into ``directory``.

    A case with ``save`` is represented by its recorded stdout, so later
    cases read the same run file whatever the earlier case printed.
    """
    for name, text in GOLDEN["inputs"].items():
        (directory / name).write_text(text, encoding="utf-8")
    for case in GOLDEN["cases"]:
        if "save" in case:
            (directory / case["save"]).write_text(case["stdout"], encoding="utf-8")


def replay(case: dict) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of one case, run in the current directory."""
    from minent.cli import main

    out, err = io.StringIO(), io.StringIO()
    stdin = sys.stdin
    sys.stdin = io.StringIO(case.get("stdin", ""))
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(case["argv"]))
    finally:
        sys.stdin = stdin
    return code, out.getvalue(), err.getvalue()


def expected(case: dict) -> tuple[int, str, str]:
    return case["code"], case["stdout"], case["stderr"]


def main() -> int:
    mismatches = replayed = 0
    start = os.getcwd()
    with tempfile.TemporaryDirectory() as scratch:
        write_inputs(Path(scratch))
        os.chdir(scratch)
        try:
            for case in GOLDEN["cases"]:
                argv = " ".join(case["argv"])
                replayed += 1
                got = replay(case)
                if got != expected(case):
                    mismatches += 1
                    print(f"MISMATCH: {argv}")
                    for label, want, have in zip(("code", "stdout", "stderr"), expected(case), got):
                        if want != have:
                            print(f"  {label}: expected {want!r}, got {have!r}")
        finally:
            os.chdir(start)
    version = ".".join(map(str, sys.version_info[:3]))
    print(f"Python {version}: {replayed} cases replayed, {mismatches} mismatched")
    return 1 if mismatches else 0


if __name__ == "__main__":
    raise SystemExit(main())
