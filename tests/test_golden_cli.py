"""Every CLI invocation in ``golden_cli.json`` prints what it printed then.

The transcript holds stdout, stderr and the exit code of each invocation,
byte for byte, as ``golden_cli.py`` recorded them. A failure here is a
change of CLI behaviour: fix the code, or state the change; never
regenerate the transcript to make it pass. The replay itself lives in
``replay_golden.py``, which also runs as a script without pytest.
"""

import io
import sys

import pytest

from minent import cli
from minent.cli import _json_text, main

from reference_cli import reference_json_text
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
    payloads = []
    monkeypatch.setattr(cli, "_emit", payloads.append)
    monkeypatch.setattr(sys, "stdin", io.StringIO(case.get("stdin", "")))
    main(list(case["argv"]))
    capsys.readouterr()
    assert len(payloads) == (case["stdout"] != "")
    for payload in payloads:
        assert _json_text(payload) == reference_json_text(payload)


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
