"""Every CLI invocation in ``golden_cli.json`` prints what it printed then.

The transcript holds stdout, stderr and the exit code of each invocation,
byte for byte, as ``golden_cli.py`` recorded them. A failure here is a
change of CLI behaviour: fix the code, or state the change; never
regenerate the transcript to make it pass. The replay itself lives in
``replay_golden.py``, which also runs as a script without pytest; the
last test here runs that script on every other installed Python from
3.10 on, so the CLI prints the same bytes on each.
"""

import ast
import glob
import io
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from minent import cli
from minent.cli import _json_text, main

from reference_cli import couple_payload, reference_json_text
from replay_golden import GOLDEN, expected, replay, write_inputs


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    """A directory holding every input and every saved run file."""
    write_inputs(tmp_path)
    monkeypatch.chdir(tmp_path)
    return tmp_path


@pytest.mark.parametrize(
    "case", GOLDEN["cases"], ids=[" ".join(case["argv"]) for case in GOLDEN["cases"]]
)
def test_replays_byte_for_byte(workdir, case):
    assert replay(case) == expected(case)


@pytest.mark.parametrize(
    "case", GOLDEN["cases"], ids=[" ".join(case["argv"]) for case in GOLDEN["cases"]]
)
def test_writer_matches_reference_on_payload(workdir, capsys, monkeypatch, case):
    payloads, couple_runs = [], []
    monkeypatch.setattr(cli, "_emit", payloads.append)
    write_couple = cli._couple_text

    def record_couple(*run):
        couple_runs.append(run)
        return write_couple(*run)

    monkeypatch.setattr(cli, "_couple_text", record_couple)
    monkeypatch.setattr(sys, "stdin", io.StringIO(case.get("stdin", "")))
    main(list(case["argv"]))
    capsys.readouterr()
    assert len(payloads) + len(couple_runs) == (case["stdout"] != "")
    for payload in payloads:
        assert _json_text(payload) == reference_json_text(payload)
    for run in couple_runs:
        assert write_couple(*run) == reference_json_text(couple_payload(*run))


def test_covers_every_subcommand_and_solver():
    argvs = [case["argv"] for case in GOLDEN["cases"]]
    assert {argv[0] for argv in argvs} == {"couple", "certify", "bound", "infer", "generate"}
    for flag in ("--trace", "--trace-in", "--oracle", "--samples", "--solver"):
        assert any(flag in argv for argv in argvs), flag
    defaults = {"couple": "1", "certify": "1", "bound": "2"}
    for command, default in defaults.items():
        algs = {
            argv[argv.index("--alg") + 1] if "--alg" in argv else default
            for argv in argvs
            if argv[0] == command
        }
        assert algs == {"1", "2"}, command
    assert {case["code"] for case in GOLDEN["cases"]} == {0, 2, 3, 4}


def other_interpreters() -> dict[str, str]:
    """Every installed Python from 3.10 on but the running one, by version.

    Looks under ``$PYENV_ROOT/versions`` and for ``python3.N`` on PATH.
    An interpreter whose ``--version`` fails is left out: a pyenv shim
    with no version selected for it exits non-zero.
    """
    candidates = []
    if os.environ.get("PYENV_ROOT"):
        pattern = os.path.join(os.environ["PYENV_ROOT"], "versions", "*", "bin", "python")
        candidates += sorted(glob.glob(pattern))
    candidates += filter(None, (shutil.which(f"python3.{minor}") for minor in range(10, 30)))
    found = {}
    for path in candidates:
        try:
            done = subprocess.run([path, "--version"], capture_output=True, text=True, timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            continue
        match = re.fullmatch(r"Python (\d+)\.(\d+)\.(\d+)\S*\s*", done.stdout + done.stderr)
        if done.returncode != 0 or not match:
            continue
        version = tuple(map(int, match.groups()))
        if version >= (3, 10) and version != sys.version_info[:3]:
            found.setdefault(".".join(map(str, version)), path)
    return found


OTHER_INTERPRETERS = other_interpreters()


@pytest.mark.parametrize("version", sorted(OTHER_INTERPRETERS))
def test_replays_on_other_interpreters(version):
    tests = Path(__file__).resolve().parent
    done = subprocess.run(
        [OTHER_INTERPRETERS[version], str(tests / "replay_golden.py")],
        env={**os.environ, "PYTHONPATH": str(tests.parent / "src"), "PYTHONDONTWRITEBYTECODE": "1"},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert f"Python {version}: " in done.stdout


def test_library_never_calls_sum():
    """Library sums are ``+=`` loops or ``math.fsum``: ``sum()`` compensates
    its floats from Python 3.12 on, so its bits depend on the interpreter.
    This holds for every line, not only those the transcript reaches."""
    source = Path(__file__).resolve().parent.parent / "src" / "minent"
    calls = [
        f"{path.name}:{node.lineno}"
        for path in sorted(source.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "sum"
    ]
    assert calls == []
