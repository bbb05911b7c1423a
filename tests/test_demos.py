import os
import subprocess
import sys
from pathlib import Path

import pytest

import plaquepar

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(tmp_path, demo):
    src = str(Path(plaquepar.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    # -X dev and -W error: the development mode the tests run under, and the
    # suite's warnings policy (pyproject's filterwarnings), in the child
    result = subprocess.run([sys.executable, "-X", "dev", "-W", "error", str(demo)],
                            cwd=tmp_path, env=env, capture_output=True, text=True,
                            timeout=120)
    assert result.returncode == 0, result.stderr
