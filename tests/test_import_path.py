"""numpy stays off the import path of ``couple``, ``certify`` and ``bound``.

Importing numpy costs more than most of these commands' work, so only the
causal direction test (``minent.causality``) and ``generate`` load it.
"""

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
    "conditionals_from_joint",
    "exogenous_entropy_estimate",
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
        "assert len(minent.__all__) == 29\n"
    )
    assert done.returncode == 0, done.stderr


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        minent.no_such_name
