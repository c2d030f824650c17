"""Every CLI invocation in ``golden_cli.json`` prints what it printed then.

The transcript holds stdout, stderr and the exit code of each invocation,
byte for byte, as ``golden_cli.py`` recorded them. A failure here is a
change of CLI behaviour: fix the code, or state the change; never
regenerate the transcript to make it pass.
"""

import io
import json
import sys
from pathlib import Path

import pytest

from minent import cli
from minent.cli import _json_text, main

from reference_cli import reference_json_text

GOLDEN = json.loads(
    Path(__file__).with_name("golden_cli.json").read_text(encoding="utf-8")
)


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    """A directory holding every input and every saved run file."""
    for name, text in GOLDEN["inputs"].items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    for case in GOLDEN["cases"]:
        if "save" in case:
            (tmp_path / case["save"]).write_text(case["stdout"], encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    return tmp_path


@pytest.mark.parametrize(
    "case", GOLDEN["cases"], ids=[" ".join(case["argv"]) for case in GOLDEN["cases"]]
)
def test_replays_byte_for_byte(workdir, capsys, monkeypatch, case):
    monkeypatch.setattr(sys, "stdin", io.StringIO(case.get("stdin", "")))
    code = main(list(case["argv"]))
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (
        case["code"],
        case["stdout"],
        case["stderr"],
    )


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
