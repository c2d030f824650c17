"""Each command imports only what it runs, and numpy never.

A ``python -m minent`` call pays for every module it imports, and
without a bytecode cache for compiling it too; for small inputs that is
most of the call. ``import minent`` loads no submodule: each public name
is imported from its module on first access. Each command imports the
modules it runs, so ``couple`` loads ``core`` and ``greedy`` beside
``cli``, and ``bound`` loads ``oracle`` only under ``--oracle``. No
command loads ``dataclasses`` or the ``inspect`` module behind it.

Importing numpy costs more than most of these commands' work.
``generate --family random`` draws numpy's ``default_rng`` numbers in
pure Python (``minent._random``), and the causal direction test
(``minent.causality``) is pure Python too. The golden replay script and
the back-substitution reference of ``certify`` need no numpy either, so
interpreters without it can run them.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import minent

SRC = str(Path(minent.__file__).resolve().parent.parent)
# The module that defines each public name.
HOMES = {
    "BoundReport": "bounds",
    "CertificationError": "core",
    "Certificate": "certify",
    "DEFAULT_N_CAP": "oracle",
    "DimensionError": "core",
    "DirectionReport": "causality",
    "DomainError": "core",
    "EPS_CERT": "certify",
    "EPS_MARG": "core",
    "EPS_SUM": "core",
    "EPS_ZERO": "core",
    "GreedyStep": "greedy",
    "GreedyTrace": "greedy",
    "JointObservation": "causality",
    "Marginal": "core",
    "SizeCapError": "core",
    "SparseCoupling": "core",
    "bound_report": "bounds",
    "certify_local_optimum": "certify",
    "exact_min_entropy_2var": "oracle",
    "extended_entropy": "core",
    "greedy_coupling": "greedy",
    "greedy_coupling_two_phase": "greedy",
    "infer_direction": "causality",
    "marginalize": "core",
    "special_family": "bounds",
}


def run_python(*args: str, cwd=None) -> subprocess.CompletedProcess:
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=60,
        cwd=cwd,
    )


def imported(done: subprocess.CompletedProcess) -> set[str]:
    """The modules that ``-X importtime`` reports a run imported."""
    lines = [line for line in done.stderr.splitlines() if line.startswith("import time:")]
    return {line.rsplit("|", 1)[1].strip() for line in lines[1:]}


def test_cli_import_leaves_numpy_out():
    done = run_python(
        "-c", "import minent, minent.cli, sys; assert 'numpy' not in sys.modules"
    )
    assert done.returncode == 0, done.stderr


def test_infer_leaves_numpy_out(tmp_path):
    matrix = tmp_path / "joint.csv"
    matrix.write_text("0.3,0.1\n0.2,0.4\n", encoding="utf-8")
    samples = tmp_path / "samples.csv"
    samples.write_text("1,1\n1,2\n2,2\n2,2\n", encoding="utf-8")
    done = run_python(
        "-c",
        "import sys, minent.causality\n"
        "from minent import cli\n"
        f"assert cli.main(['infer', {str(matrix)!r}]) == 0\n"
        f"assert cli.main(['infer', {str(samples)!r}, '--samples']) == 0\n"
        "assert 'numpy' not in sys.modules\n"
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.count('"verdict"') == 2


def test_generate_leaves_numpy_out():
    done = run_python(
        "-c",
        "import sys\n"
        "from minent import cli\n"
        "assert cli.main(['generate', '--family', 'random', '--n', '5', '--m', '3', '--seed', '7']) == 0\n"
        "assert 'numpy' not in sys.modules\n"
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.count('"marginals"') == 1


def test_replay_and_certify_reference_run_without_numpy():
    tests = str(Path(__file__).resolve().parent)
    done = run_python(
        "-c",
        "import sys\n"
        "sys.modules['numpy'] = None  # any import of numpy now fails\n"
        f"sys.path.insert(0, {tests!r})\n"
        "import reference_certify, replay_golden\n"
        "from minent import greedy_coupling\n"
        "reference_certify.certify_local_optimum(*greedy_coupling([[0.6, 0.4], [0.5, 0.5]]))\n"
        "sys.exit(replay_golden.main())\n"
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert "skipped" not in done.stdout
    cases = len(json.loads((Path(tests) / "golden_cli.json").read_text(encoding="utf-8"))["cases"])
    assert done.stdout.endswith(f" {cases} cases replayed, 0 mismatched\n")


def test_public_names_load_on_first_access():
    # a fresh package for each name, so each access starts from nothing loaded
    done = run_python(
        "-c",
        "import sys\n"
        "def loaded():\n"
        "    return {m for m in sys.modules if m.split('.')[0] == 'minent'}\n"
        f"for name, home in {HOMES!r}.items():\n"
        "    for module in loaded():\n"
        "        del sys.modules[module]\n"
        "    import minent\n"
        "    assert loaded() == {'minent'}, loaded()\n"
        "    value = getattr(minent, name)\n"
        "    assert 'minent.' + home in loaded(), (name, loaded())\n"
        "    assert value is getattr(sys.modules['minent.' + home], name)\n"
        "    assert vars(minent)[name] is value\n"
        "namespace = {}\n"
        "exec('from minent import *', namespace)\n"
        "missing = set(minent.__all__) - set(namespace)\n"
        "assert not missing, missing\n"
        f"assert sorted(minent.__all__) == sorted({HOMES!r})\n"
    )
    assert done.returncode == 0, done.stderr


def test_error_classes_are_shared_with_their_modules():
    from minent import certify, core, oracle

    assert certify.CertificationError is core.CertificationError is minent.CertificationError
    assert oracle.SizeCapError is core.SizeCapError is minent.SizeCapError


def test_dir_lists_public_names_before_any_access():
    done = run_python(
        "-c",
        "import sys, minent\n"
        "listed = dir(minent)\n"
        "assert listed == sorted(listed)\n"
        "assert {*minent.__all__, '__version__'} <= set(listed)\n"
        "assert not [m for m in sys.modules if m.startswith('minent.')]\n",
    )
    assert done.returncode == 0, done.stderr


PROBLEM = '{"marginals": [[0.6, 0.4], [0.5, 0.5]]}'
BASE = {"minent", "minent.cli", "minent.core", "minent.greedy"}


# Each command's argv and the minent modules it loads beside BASE.
COMMANDS = [
    (["couple", "p.json"], set()),
    (["couple", "p.json", "--alg", "2", "--trace"], set()),
    (["couple", "missing.json"], set()),
    (["certify", "p.json"], {"minent.certify"}),
    (["certify", "p.json", "--trace-in", "run.json"], {"minent.certify"}),
    (["bound", "p.json"], {"minent.bounds"}),
    (["bound", "p.json", "--oracle"], {"minent.bounds", "minent.oracle"}),
    (["infer", "joint.csv"], {"minent.causality"}),
    (["generate", "--family", "special", "--n", "4", "--alpha", "1.5"], {"minent.bounds"}),
    (["generate", "--family", "random", "--n", "4"], {"minent._random"}),
]


@pytest.fixture(scope="module")
def startup_modules() -> set[str]:
    """What the interpreter imports before it runs any code of ours."""
    return imported(run_python("-X", "importtime", "-c", "pass"))


@pytest.mark.parametrize(
    "argv, modules", COMMANDS, ids=[" ".join(argv) for argv, _ in COMMANDS]
)
def test_each_command_loads_only_its_modules(tmp_path, startup_modules, argv, modules):
    (tmp_path / "p.json").write_text(PROBLEM, encoding="utf-8")
    (tmp_path / "joint.csv").write_text("0.3,0.1\n0.2,0.4\n", encoding="utf-8")
    if "run.json" in argv:
        couple = run_python("-m", "minent", "couple", "p.json", "--trace", cwd=tmp_path)
        (tmp_path / "run.json").write_text(couple.stdout, encoding="utf-8")
    done = run_python("-X", "importtime", "-m", "minent", *argv, cwd=tmp_path)
    assert done.returncode == (2 if "missing.json" in argv else 0), done.stderr
    # minent/__main__.py runs as __main__, which is no import
    assert {m for m in imported(done) if m.split(".")[0] == "minent"} == BASE | modules
    assert not (imported(done) - startup_modules) & {"dataclasses", "inspect", "numpy"}


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        minent.no_such_name
