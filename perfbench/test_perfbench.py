"""Self-test of the benchmark harness on a tiny workload (ODE, N_l = 16, P = 4).

Run from the repository root with ``python -m pytest perfbench``.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import run
import spans
import workloads

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def _bench(trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "tiny", "--seed", "3",
         "--seconds", "0", "--trace", str(trace)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_printed_with_its_unit(trace, kind):
    text, summary = _bench(trace)
    assert summary["correct"] and summary["failed"] == 0
    assert summary["attempted"] >= run.MIN_SAMPLES + trace
    expected = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert {k: v["unit"] for k, v in summary["metrics"].items()} == expected
    for name, unit in expected.items():
        assert any(line.split()[1:2] == [name] and line.endswith(f" {unit}")
                   for line in text), name


def test_tampered_outputs_count_as_failed(tmp_path):
    w = workloads.WORKLOADS["tiny"]
    scenario = workloads.write_scenario(w, tmp_path)
    spans_path = tmp_path / "spans.json"
    record = run.run_sample(w, scenario, tmp_path / "sample", spans_path=spans_path)
    assert record["failures"] == []
    assert record["values"]["micro_serial_eq"] == workloads.count_standard(
        record["values"]["k_par"], 4, 16)

    # one micro count changed in the report
    report_path = tmp_path / "sample" / "out" / "report.json"
    report = json.loads(report_path.read_text(encoding="utf-8"))
    report["micro_problems_serial_equivalent"] += 1
    report_path.write_text(json.dumps(report), encoding="utf-8")
    _, failures, digest = workloads.check_outputs(w, tmp_path / "sample" / "out")
    assert any("micro_problems_serial_equivalent" in f for f in failures)

    tampered = {"workload": w.name, "traced": False, "failures": failures,
                "digest": digest, "wall_s": 1.0, "setup_s": 1.0, "peak_rss_mb": 1.0,
                "values": record["values"]}
    untraced = dict(record, traced=False)
    records = [untraced, dict(untraced, failures=[]), tampered]
    run._gate_determinism(records)
    assert records[0]["failures"] == [] and len(tampered["failures"]) == 2
    assert run.end_to_end(records)["pass_ratio"] == pytest.approx(2 / 3)

    # one micro-problem span fewer than the ledger accounts for
    trace = json.loads(spans_path.read_text(encoding="utf-8"))
    assert spans.layer_metrics(trace)[1] == []
    first = next(i for i, s in enumerate(trace["spans"])
                 if s[1] == "microflow.solve_micro_problem")
    del trace["spans"][first]
    assert any("micro_calls" in f for f in spans.layer_metrics(trace)[1])


def test_bare_directory_fails_without_a_result(tmp_path):
    bare = tmp_path / "bare"
    (bare / "perfbench").mkdir(parents=True)
    for path in HERE.glob("*.py"):
        (bare / "perfbench" / path.name).write_bytes(path.read_bytes())
    (bare / "BENCHMARK.json").write_bytes((HERE.parent / "BENCHMARK.json").read_bytes())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "pde_standard", "--seed", "1",
         "--seconds", "10", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
