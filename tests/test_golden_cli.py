"""Every CLI invocation in ``golden_cli.json`` prints what it printed then.

The transcript holds stdout, stderr and the exit code of each invocation,
byte for byte, as the CLI printed them when the case was added. A
failure here is a change of CLI behaviour: fix the code, or state the
change; never regenerate the transcript to make it pass. The replay
itself lives in ``replay_golden.py``, which also runs as a script
without pytest and says how a case is added; the last test here runs
that script on every other installed Python from 3.10 on, so the CLI
prints the same bytes on each.
"""

import ast
import glob
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from minent import cli
from minent.cli import _json_text

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
def test_writer_matches_reference_on_payload(workdir, monkeypatch, case):
    payloads, couple_runs = [], []
    monkeypatch.setattr(cli, "_emit", payloads.append)
    write_couple = cli._couple_text

    def record_couple(*run):
        couple_runs.append(run)
        return write_couple(*run)

    monkeypatch.setattr(cli, "_couple_text", record_couple)
    replay(case)
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


def test_transposed_joint_swaps_the_report():
    """``infer`` on a joint of 9x8 states and on its transpose prints
    mirror images: each marginal is summed in one order on either axis."""
    report = {
        case["argv"][1]: json.loads(case["stdout"])
        for case in GOLDEN["cases"]
        if case["argv"] in (["infer", "planted_9x8.json"], ["infer", "planted_8x9.json"])
    }
    one, other = report["planted_9x8.json"], report["planted_8x9.json"]
    for x_key, y_key in [("H_X", "H_Y"), ("H_exo_XtoY", "H_exo_YtoX"), ("score_XtoY", "score_YtoX")]:
        assert (one[x_key], one[y_key]) == (other[y_key], other[x_key])
    assert (one["verdict"], other["verdict"]) == ("XtoY", "YtoX")


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


def test_only_core_reads_assignment_order():
    """A coupling stores its entries alone; ``assignment_order`` rebuilds
    one pair per cell on every read, so the library reads ``entries``
    and leaves the property to callers outside it."""
    source = Path(__file__).resolve().parent.parent / "src" / "minent"
    reads = [
        f"{path.name}:{node.lineno}"
        for path in sorted(source.glob("*.py"))
        if path.name != "core.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute) and node.attr == "assignment_order"
    ]
    assert reads == []


def test_only_greedy_reads_steps():
    """The library reads a trace's record, never its steps: ``steps`` and
    ``positive_steps`` build one ``GreedyStep`` per step on each call, and
    the run-file reader builds the record itself."""
    source = Path(__file__).resolve().parent.parent / "src" / "minent"
    reads = [
        f"{path.name}:{node.lineno}"
        for path in sorted(source.glob("*.py"))
        if path.name != "greedy.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute)
        and node.attr in ("steps", "positive_steps", "from_steps")
    ]
    assert reads == []


def test_only_replay_calls_main():
    """Tests run the CLI in process through ``replay_golden.replay`` alone,
    so no other test module refers to ``minent.cli.main``. Scripts that a
    test runs in a subprocess are strings, which the walk does not read."""
    tests = Path(__file__).resolve().parent
    refs = [
        f"{path.name}:{node.lineno}"
        for path in sorted(tests.glob("*.py"))
        if path.name != "replay_golden.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if (
            isinstance(node, ast.ImportFrom)
            and node.module == "minent.cli"
            and any(alias.name == "main" for alias in node.names)
        )
        or (
            isinstance(node, ast.Attribute)
            and node.attr == "main"
            and ast.unparse(node.value) in ("cli", "minent.cli")
        )
    ]
    assert refs == []
