"""Every module, test, demo and tool parses as Python 3.10, the floor pyproject.toml declares."""

import ast
from pathlib import Path

import pytest

import plaquepar

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted(Path(plaquepar.__file__).parent.glob("*.py"))
SCRIPTS = sorted([*ROOT.glob("tests/*.py"), *ROOT.glob("demos/*.py"),
                  *ROOT.glob("tools/*.py")])


def test_floor_is_the_declared_one():
    pyproject = ROOT / "pyproject.toml"
    assert 'requires-python = ">=3.10"' in pyproject.read_text(encoding="utf-8")
    assert len(SOURCES) >= 9


@pytest.mark.parametrize("path", SOURCES + SCRIPTS, ids=lambda path: path.name)
def test_module_parses_as_python_3_10(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))
