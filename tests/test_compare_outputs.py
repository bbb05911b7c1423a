"""The parts of tools/compare_outputs.py that need no git: its case list and its manifest."""

import importlib.util
import json
import math
from pathlib import Path
from types import SimpleNamespace

import numpy as np
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


def test_verdict_fails_an_undeclared_and_a_stale_declared_case():
    record = {"exit": 0, "stdout": "a", "stderr": "b", "files": {"out/report.json": "c"}}
    base = {"same": record, "moved": record, "failed": record}
    change = {"same": record, "moved": {**record, "files": {"out/report.json": "d"}},
              "failed": {**record, "exit": 1}}
    diffs = compare.differences(base, change)
    assert diffs == {"failed": ["exit 0 -> 1"], "moved": ["out/report.json"]}
    assert compare.verdict(diffs, {"failed", "moved"}) == (0, [], [])
    assert compare.verdict(diffs, {"moved"}) == (1, ["failed"], [])
    # a declaration left over from an earlier change would wave "same" through later
    assert compare.verdict(diffs, {"failed", "moved", "same"}) == (1, [], ["same"])
    assert compare.verdict(compare.differences(base, base), set()) == (0, [], [])
    assert compare.verdict({}, {"same"}) == (1, [], ["same"])


def test_manifest_hashes_a_report_in_another_layout_whole(tmp_path):
    base = _case(tmp_path)
    path = tmp_path / "case" / "out" / "report.json"
    report = json.loads(path.read_text())
    path.write_text(json.dumps(report) + "\n")  # same members, one line
    assert compare.file_digest(path) != base["files"]["out/report.json"]


def _numbers_case(root, k_par=3, endpoint=0.5, cycles=(0, 3, 2), gamma=1e-7, mp=100,
                  speedup=1.25, mode="parareal"):
    """A hand-made case directory with the three files whose numbers are compared."""
    out = root / "out"
    out.mkdir(parents=True)
    report = {"mode": mode, "k_par": k_par, "converged": True, "endpoint": endpoint,
              "per_iteration_errors": [0.25, endpoint * 1e-3], "per_process_micro": [7, 8],
              "wall_clock": {"seconds": endpoint, "threads": None}}
    (out / "report.json").write_text(json.dumps(report, indent=2) + "\n")
    rows = "".join(f"{0.3 * i!r},{gamma * i!r},{c}\n" for i, c in enumerate(cycles))
    (out / "trajectory.csv").write_text("t_days,gamma_bar,cycles\n" + rows)
    (out / "sweep.csv").write_text(f"row,P=2,best\n1,,\n#_mp,{mp},P=2\n"
                                   f"speedup,{speedup!r},P=2\n")
    (out / "table.txt").write_text(f"k = {k_par}\n")
    return root


def test_numeric_changes_of_two_case_directories(tmp_path):
    base = _numbers_case(tmp_path / "base")
    same = compare.numeric_changes(base, _numbers_case(tmp_path / "same"))
    assert same == {"files": 3, "integers": [], "other": [], "float_rel": 0.0,
                    "float_field": None}
    assert compare.describe_numbers(same) == (
        "no integer moved; largest relative float change 0")

    # last bits: floats move, no integer does; wall_clock is not read
    ulp = _numbers_case(tmp_path / "ulp", endpoint=float(np.nextafter(0.5, 1.0)),
                        gamma=float(np.nextafter(1e-7, 0.0)),
                        speedup=float(np.nextafter(1.25, 2.0)))
    changes = compare.numeric_changes(base, ulp)
    assert changes["integers"] == [] and changes["other"] == []
    assert 0 < changes["float_rel"] <= 2.0**-52

    moved = _numbers_case(tmp_path / "moved", k_par=4, cycles=(0, 3, 3), mp=101,
                          speedup=1.5, mode="reusage")
    changes = compare.numeric_changes(base, moved)
    assert changes["integers"] == ["out/report.json: k_par", "out/sweep.csv: P=2",
                                   "out/trajectory.csv: cycles"]
    assert changes["other"] == ["out/report.json: mode"]
    assert changes["float_rel"] == pytest.approx(0.25 / 1.5)
    assert changes["float_field"] == "out/sweep.csv: P=2"
    line = compare.describe_numbers(changes)
    assert line.startswith("integers moved: out/report.json: k_par, ")
    assert "largest relative float change 0.167 (out/sweep.csv: P=2)" in line
    assert line.endswith("other fields moved: out/report.json: mode")

    # a layout change, nan on one side only, and a file only one tree holds
    odd = _numbers_case(tmp_path / "odd", cycles=(0, 3), endpoint=float("nan"))
    (odd / "out" / "sweep.csv").unlink()
    changes = compare.numeric_changes(base, odd)
    assert changes["other"] == ["out/trajectory.csv: cycles", "out/trajectory.csv: gamma_bar",
                                "out/trajectory.csv: t_days"]
    assert changes["float_rel"] == math.inf and changes["files"] == 2
    assert changes["float_field"] == "out/report.json: endpoint"
    for root in (tmp_path / "text_a", tmp_path / "text_b"):
        root.mkdir()
        (root / "table.txt").write_text(root.name)
    assert compare.describe_numbers(compare.numeric_changes(tmp_path / "text_a",
                                                            tmp_path / "text_b")) == (
        "no report.json or CSV file to compare")


def test_relative_change_of_special_values():
    nan, inf = float("nan"), float("inf")
    assert compare._relative_change(nan, nan) == 0.0
    assert compare._relative_change(inf, inf) == 0.0
    assert compare._relative_change(0.0, -0.0) == 0.0
    assert compare._relative_change(1.0, inf) == math.inf
    assert compare._relative_change(0.0, 1e-300) == 1.0
    assert compare._relative_change(2.0, 1.0) == 0.5
