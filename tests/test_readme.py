"""The README names only what exists, and names every module.

Every backticked dotted name whose first part is ``plaquepar``, one of
its modules or one of its top-level names (``growth.check_grid``,
``Scenario.to_json``) must resolve by import and attribute lookup, where
a dataclass field counts as an attribute (``Schedule.T_end``); a dotted
name with another first part (``report.json``) is not the package's.
Every ``demos/``, ``tools/`` or ``tests/`` path the README names must
exist, and every module of the package has an entry.
"""

import dataclasses
import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import plaquepar

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text(encoding="utf-8")
MODULES = sorted(info.name for info in pkgutil.iter_modules(plaquepar.__path__))


def _root(name):
    """The object the first part of a dotted name refers to, or None if not the package's."""
    if name == "plaquepar":
        return plaquepar
    if name in MODULES:
        return importlib.import_module(f"plaquepar.{name}")
    return getattr(plaquepar, name, None)


MISSING = object()


def _attribute(obj, part):
    """obj.part, or the field part of the dataclass obj; MISSING when neither exists."""
    if hasattr(obj, part):
        return getattr(obj, part)
    if dataclasses.is_dataclass(obj):
        return next((field for field in dataclasses.fields(obj) if field.name == part),
                    MISSING)
    return MISSING


# `growth.check_grid`, `Scenario.to_json()`; file names are paths, not names
NAMES = sorted({name for name in re.findall(r"`(\w+(?:\.\w+)+)(?:\(\))?`", README)
                if _root(name.split(".")[0]) is not None
                and name.rsplit(".", 1)[1] not in ("py", "json", "csv", "txt")})
PATHS = sorted(set(re.findall(r"\b(?:demos|tools|tests)/[\w.-]+\.(?:py|txt|json)\b", README)))


def test_the_scan_finds_names_and_paths():
    assert "growth.check_grid" in NAMES and "plaquepar.parareal" in NAMES
    assert "tools/compare_outputs.py" in PATHS and "demos/05_runtime_model.py" in PATHS


@pytest.mark.parametrize("name", NAMES)
def test_named_attribute_resolves(name):
    first, *rest = name.split(".")
    if first == "plaquepar" and rest[0] in MODULES:
        first, *rest = rest
    obj = _root(first)
    for part in rest:
        obj = _attribute(obj, part)
        assert obj is not MISSING, f"README names {name!r}, which does not resolve"


@pytest.mark.parametrize("path", PATHS)
def test_named_path_exists(path):
    assert (ROOT / path).is_file(), f"README names {path!r}, which does not exist"


@pytest.mark.parametrize("module", MODULES)
def test_every_module_has_an_entry(module):
    assert f"`plaquepar.{module}`" in README
