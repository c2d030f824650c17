"""numpy stays off the import path of every command.

Importing numpy costs more than most of these commands' work.
``generate --family random`` draws numpy's ``default_rng`` numbers in
pure Python (``minent._random``), and the causal direction test
(``minent.causality``) is pure Python too; ``import minent`` resolves
the latter's names on first access, so ``couple``, ``certify`` and
``bound`` do not compile it. The golden replay script and the
back-substitution reference of ``certify`` need no numpy either, so
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
CAUSALITY_NAMES = [
    "DirectionReport",
    "JointObservation",
    "infer_direction",
]


def run_python(code: str) -> subprocess.CompletedProcess:
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=60,
    )


def test_cli_import_leaves_numpy_out():
    done = run_python(
        "import minent, minent.cli, sys; assert 'numpy' not in sys.modules"
    )
    assert done.returncode == 0, done.stderr


def test_infer_leaves_numpy_out(tmp_path):
    matrix = tmp_path / "joint.csv"
    matrix.write_text("0.3,0.1\n0.2,0.4\n", encoding="utf-8")
    samples = tmp_path / "samples.csv"
    samples.write_text("1,1\n1,2\n2,2\n2,2\n", encoding="utf-8")
    done = run_python(
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


def test_causality_names_load_on_first_access():
    done = run_python(
        "import sys, minent\n"
        "assert 'minent.causality' not in sys.modules\n"
        f"values = {{name: getattr(minent, name) for name in {CAUSALITY_NAMES!r}}}\n"
        "from minent import causality\n"
        "assert all(v is getattr(causality, k) for k, v in values.items())\n"
        "namespace = {}\n"
        "exec('from minent import *', namespace)\n"
        "missing = set(minent.__all__) - set(namespace)\n"
        "assert not missing, missing\n"
        "assert len(minent.__all__) == 26\n"
    )
    assert done.returncode == 0, done.stderr


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        minent.no_such_name
