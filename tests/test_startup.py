"""Importing plaquepar loads numpy's OpenBLAS with one thread unless the caller chose."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import plaquepar

_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")

pytestmark = pytest.mark.skipif(
    not os.path.isdir("/proc/self/task") or (os.cpu_count() or 1) < 2,
    reason="needs /proc/self/task and at least two CPUs",
)


def _import_in_child(code, **env_vars):
    """Run ``code`` in a fresh interpreter without the thread variables, plus
    ``env_vars``; returns its thread count and thread variables afterwards."""
    src = str(Path(plaquepar.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k not in _THREAD_VARS}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env.update(env_vars)
    probe = (f"{code}\nimport json, os\n"
             "print(json.dumps({'threads': len(os.listdir('/proc/self/task')), "
             f"'env': {{k: os.environ.get(k) for k in {_THREAD_VARS!r}}}}}))")
    result = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                            text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout)


def test_import_loads_numpy_with_one_blas_thread():
    seen = _import_in_child("import plaquepar")
    assert seen["threads"] == 1
    assert seen["env"] == dict.fromkeys(_THREAD_VARS)


def test_a_thread_variable_of_the_caller_decides():
    seen = _import_in_child("import plaquepar", OMP_NUM_THREADS="2")
    assert seen["threads"] > 1
    assert seen["env"] == {**dict.fromkeys(_THREAD_VARS), "OMP_NUM_THREADS": "2"}


def test_numpy_imported_first_is_left_alone():
    before = _import_in_child("import numpy")
    seen = _import_in_child("import numpy\nimport plaquepar")
    assert before["threads"] > 1
    assert seen == before
