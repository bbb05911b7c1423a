"""plaquepar benchmark: end-to-end runs of the public CLI, plus a traced run.

Usage (from the repository root):

    python3 perfbench/run.py --workload pde_reusage --seed 1 --seconds 50 --trace 0

``--workload`` takes a workload name, a comma-separated list or ``all``
(the workloads of BENCHMARK.json).  The load is a closed loop with one
client: samples run one at a time, each in a fresh child process that
calls ``plaquepar.cli.main`` with ``--threads 2``.  Samples are drawn in
rounds until ``--seconds`` per workload have passed (at least three per
workload); the seed shuffles the order of each round, since the inputs
themselves are fixed.  Every sample's outputs go through the gate in
``workloads.py``.

With ``--trace 0`` the last stdout line reports the end-to-end metrics
(medians over the passing samples).  With ``--trace 1`` the same
untraced samples are followed by one traced sample per workload, and the
last line reports the per-layer metrics of ``spans.py`` plus
``trace_overhead``.  Details (environment, seed, sample order, every
sample) go to ``.perfbench/results/``.
"""

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from importlib import metadata
from pathlib import Path

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

MIN_SAMPLES = 3
SAMPLING_LIMIT_S = 90.0    # stop sampling here even below MIN_SAMPLES (180-s run limit)
CHILD_TIMEOUT_S = 60.0


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def _run_child(args):
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=_child_env(),
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)


def run_sample(workload, scenario_path, sample_dir: Path, spans_path=None) -> dict:
    """Run one child process and gate its outputs; returns the sample record."""
    sample_dir.mkdir(parents=True)
    result_path, out_dir = sample_dir / "sample.json", sample_dir / "out"
    own = [str(result_path)] + (["--spans", str(spans_path)] if spans_path else [])
    record = {"workload": workload.name, "traced": spans_path is not None,
              "failures": []}
    try:
        proc = _run_child([str(HERE / "child.py"), *own, "--",
                           *workload.cli_args(scenario_path, out_dir)])
    except subprocess.TimeoutExpired:
        record["failures"].append(f"child timed out after {CHILD_TIMEOUT_S:g} s")
        return record
    if proc.returncode != 0 or not result_path.exists():
        record["failures"].append(
            f"child exited with {proc.returncode}: {proc.stderr.strip()[-500:]}")
        return record
    record.update(json.loads(result_path.read_text(encoding="utf-8")))
    if record["exit_code"] != 0:
        record["failures"].append(
            f"cli.main returned {record['exit_code']}: "
            f"{(record['error'] or proc.stderr).strip()[-500:]}")
        return record
    try:
        values, failures, digest = workloads.check_outputs(workload, out_dir)
    except (OSError, KeyError, ValueError, IndexError) as exc:
        record["failures"].append(f"unreadable output: {exc!r}")
        return record
    record.update(values=values, digest=digest)
    record["failures"] += failures
    if spans_path is not None:
        trace = json.loads(Path(spans_path).read_text(encoding="utf-8"))
        record["layers"], failures = spans.layer_metrics(trace)
        record["failures"] += failures
    return record


def _gate_determinism(records):
    """Fail samples whose outputs differ from the set's most common digest."""
    digests = Counter(r["digest"] for r in records if "digest" in r)
    if not digests:
        return
    common = digests.most_common(1)[0][0]
    for r in records:
        if "digest" in r and r["digest"] != common:
            r["failures"].append("outputs differ from the other samples of the set")


def end_to_end(records) -> dict:
    passed = [r for r in records if not r["failures"] and not r["traced"]]
    if not passed:
        return {}
    metrics = {key: statistics.median(r[key] for r in passed)
               for key in ("wall_s", "setup_s", "peak_rss_mb")}
    for key in passed[0]["values"]:
        metrics[key] = statistics.median(r["values"][key] for r in passed)
    metrics["pass_ratio"] = sum(not r["failures"] for r in records) / len(records)
    return metrics


def per_layer(records) -> dict:
    traced = [r for r in records if r["traced"] and "layers" in r]
    untraced = [r["wall_s"] for r in records
                if not r["traced"] and not r["failures"]]
    if not traced or not untraced:
        return {}
    metrics = dict(traced[0]["layers"])
    metrics["trace_overhead"] = traced[0]["wall_s"] / statistics.median(untraced) - 1.0
    return metrics


def _cpu_info() -> dict:
    info = {"cpu_model": None, "caches": {}}
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    info["cpu_model"] = line.split(":", 1)[1].strip()
                    break
        for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            info["caches"][f"L{level} {kind}"] = (index / "size").read_text().strip()
    except OSError:
        pass
    return info


def environment() -> dict:
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    source = hashlib.sha256()
    for path in sorted((SRC / "plaquepar").rglob("*.py")):
        source.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        source.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_available": len(os.sched_getaffinity(0)),
        **_cpu_info(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "git_commit": commit,
        "source_sha256": source.hexdigest(),
        "threads": workloads.THREADS,
        "peak_rss_note": "peak_rss_mb is ru_maxrss of each sample's own child "
                         "process, in units of 1e6 bytes",
    }


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "plaquepar" / "cli.py").is_file():
        print(f"error: {SRC / 'plaquepar'} not found; run from a plaquepar checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = ([w["name"] for w in spec["workloads"]] if args.workload == "all"
             else args.workload.split(","))
    unknown = [n for n in names if n not in workloads.WORKLOADS]
    if unknown:
        print(f"error: unknown workload(s) {unknown}; known: "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    chosen = [workloads.WORKLOADS[n] for n in names]

    tag = f"{'+'.join(names)}-seed{args.seed}-trace{args.trace}"
    run_dir = WORK / "runs" / f"{tag}-{os.getpid()}"
    results_dir = WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    scenarios = {w.name: workloads.write_scenario(w, WORK / "inputs") for w in chosen}

    # fill the file cache and byte-code cache before the first timed import
    _run_child(["-c", "import plaquepar.cli"]).check_returncode()

    rng = random.Random(args.seed)
    records, order = [], []
    budget = args.seconds * len(chosen)
    start = time.monotonic()
    try:
        while True:
            round_ = list(chosen)
            rng.shuffle(round_)
            for w in round_:
                order.append(w.name)
                records.append(run_sample(w, scenarios[w.name],
                                          run_dir / f"{len(records):03d}"))
            elapsed = time.monotonic() - start
            fewest = min(order.count(w.name) for w in chosen)
            if elapsed >= budget and (fewest >= MIN_SAMPLES or elapsed >= SAMPLING_LIMIT_S):
                break
        if args.trace:
            for w in chosen:
                order.append(f"{w.name}:traced")
                records.append(run_sample(
                    w, scenarios[w.name], run_dir / f"{len(records):03d}",
                    spans_path=results_dir / f"{w.name}-spans.json"))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    # a traced run prints the end-to-end figures of its untraced samples too,
    # but reports only the per-layer metrics on its last line
    reported = "per_layer" if args.trace else "end_to_end"
    metrics = {}
    for w in chosen:
        own = [r for r in records if r["workload"] == w.name]
        _gate_determinism(own)
        computed = {"end_to_end": end_to_end(own)}
        if args.trace:
            computed["per_layer"] = per_layer(own)
        prefix = "" if len(chosen) == 1 else f"{w.name}."
        for kind, values in computed.items():
            for m in spec[kind]:
                if m["name"] in values:
                    value = values[m["name"]]
                    print(f"{w.name:13s} {m['name']:32s} {value:.6g} {m['unit']}")
                    if kind == reported:
                        metrics[prefix + m["name"]] = {"value": value, "unit": m["unit"]}
        for r in own:
            for failure in r["failures"]:
                print(f"{w.name:13s} FAILED: {failure}")

    failed = sum(bool(r["failures"]) for r in records)
    expected = len(spec[reported]) * len(chosen)
    correct = failed == 0 and len(metrics) == expected
    summary = {"correct": correct, "attempted": len(records), "failed": failed,
               "metrics": metrics}
    with open(results_dir / f"{tag}.json", "w", encoding="utf-8") as f:
        json.dump({"seed": args.seed, "seconds": args.seconds, "trace": args.trace,
                   "order": order, "environment": environment(), "summary": summary,
                   "samples": records}, f, indent=1)
    print(f"{len(records)} samples, {failed} failed "
          f"(fail_ratio {failed / len(records):.3g}); details in "
          f"{(results_dir / f'{tag}.json').relative_to(ROOT)}")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
