"""Every module parses as Python 3.10, the floor that pyproject.toml declares."""

import ast
from pathlib import Path

import pytest

import plaquepar

SOURCES = sorted(Path(plaquepar.__file__).parent.glob("*.py"))


def test_floor_is_the_declared_one():
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    assert 'requires-python = ">=3.10"' in pyproject.read_text(encoding="utf-8")
    assert len(SOURCES) >= 9


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_module_parses_as_python_3_10(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))
