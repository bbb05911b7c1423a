"""The parts of tools/compare_outputs.py that need no git: its case list and its manifest."""

import importlib.util
import json
from pathlib import Path
from types import SimpleNamespace

import pytest

from plaquepar.cli import build_parser, run_scenario
from plaquepar.scenario import PRESETS, Scenario, preset

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("compare_outputs",
                                               ROOT / "tools" / "compare_outputs.py")
compare = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare)


def test_case_list_parses():
    cases = compare.cases()
    names = [case.name for case in cases]
    assert len(names) == len(set(names))
    fields = {f for f in Scenario.__dataclass_fields__}
    for case in cases:
        head, *args = case.argv
        if head == "plaquepar":
            if case.name == "sweep_serial_mode":  # the usage error it records
                with pytest.raises(SystemExit):
                    build_parser().parse_args(args)
            else:
                build_parser().parse_args(args)
        else:
            assert (ROOT / head).is_file(), head
        if isinstance(case.scenario, tuple):
            name, overrides = case.scenario
            assert name in PRESETS and set(overrides) <= fields, case.name
        elif case.scenario is not None:
            assert isinstance(case.scenario, dict), case.name
    assert sum(name.startswith("perfbench_") for name in names) == 4
    assert sum(name.startswith("run_") for name in names) == 16
    assert sum(name.startswith("demo_") for name in names) == 5
    assert compare.read_declared(ROOT / "tools" / "declared_changes.txt") <= set(names)


def _case(tmp_path, report_edit=None, table="table\n", exit_code=0, stdout=b"ok\n"):
    """A case directory as ``plaquepar run`` leaves it, and its manifest record."""
    case_dir = tmp_path / "case"
    out = case_dir / "out"
    out.mkdir(parents=True, exist_ok=True)
    report, _, _ = run_scenario(preset("ode_paper", T_end_days=3.0))
    report["wall_clock"] = {"seconds": 0.25, "threads": None}
    if report_edit is not None:
        report_edit(report)
    with open(out / "report.json", "w", encoding="utf-8") as f:  # as cli._write_outputs
        json.dump(report, f, indent=2)
        f.write("\n")
    (out / "table.txt").write_text(table, encoding="utf-8")
    proc = SimpleNamespace(returncode=exit_code, stdout=stdout, stderr=b"")
    return compare.record(case_dir, proc)


def test_manifest_ignores_wall_clock_and_nothing_else(tmp_path):
    base = _case(tmp_path)
    assert set(base["files"]) == {"out/report.json", "out/table.txt"}
    keys = json.loads((tmp_path / "case" / "out" / "report.json").read_text())

    def wall_clock(report):
        report["wall_clock"] = {"seconds": 12.5, "threads": 2}
    assert _case(tmp_path, wall_clock) == base

    for key in [k for k in keys if k != "wall_clock"]:
        def edit(report, key=key):
            report[key] = "changed"
        assert compare.differences({"c": base}, {"c": _case(tmp_path, edit)}) == {
            "c": ["out/report.json"]}, key
    assert compare.differences({"c": base}, {"c": _case(tmp_path, table="other\n")}) == {
        "c": ["out/table.txt"]}
    assert compare.differences({"c": base}, {"c": _case(tmp_path, exit_code=2,
                                                        stdout=b"")}) == {
        "c": ["exit 0 -> 2", "stdout"]}


def test_manifest_hashes_a_report_in_another_layout_whole(tmp_path):
    base = _case(tmp_path)
    path = tmp_path / "case" / "out" / "report.json"
    report = json.loads(path.read_text())
    path.write_text(json.dumps(report) + "\n")  # same members, one line
    assert compare.file_digest(path) != base["files"]["out/report.json"]
