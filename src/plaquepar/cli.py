"""Command-line batch surface: run, sweep and preset emission.

`plaquepar run` executes one scenario and writes trajectory.csv,
report.json and table.txt to the output directory; `plaquepar sweep`
repeats a parareal scenario over several process counts (live, or
footer-only from the closed-form cost model via --formula-only);
`plaquepar presets` writes the shipped paper scenarios as JSON files.
"""

import argparse
import dataclasses
import json
import sys
import time
from pathlib import Path

from . import costs, parareal, twoscale
from .errors import ConfigError, RunError
from .parareal import ENGINE_MODE as _ENGINE_MODE
from .scenario import MODES, PRESETS, STOPPING, Scenario, parse_scenario, preset

# scenario fields that a command-line flag of the same dest overrides
_FLAG_FIELDS = ("mode", "P", "stopping", "threads", "out_dir")


def _scenario(args, **fields) -> Scenario:
    """The --scenario source with the flags given, then ``fields``, applied."""
    data = parse_scenario(args.scenario).to_dict()
    for field in _FLAG_FIELDS:
        if getattr(args, field, None) is not None:
            data[field] = getattr(args, field)
    return Scenario.from_dict({**data, **fields})


def _run(scn: Scenario, reference=None) -> parareal.PararealReport:
    """Run one scenario; serial scenarios have P = 1, which parareal.run runs serially."""
    return parareal.run(
        scn.schedule(), scn.growth_params(), scn.micro_params(), *scn.initial_states(),
        mode=_ENGINE_MODE[scn.mode], stopping=scn.stopping, eps_par=scn.eps_par,
        max_iters=scn.max_iters, reference=reference,
    )


def _column(report: parareal.PararealReport) -> dict:
    """One column of the sweep table: errors per iteration, cost and speedup."""
    key = "fine_error" if report.stopping == "fine" else "coarse_error"
    return {
        "P": report.P,
        "errors": [it[key] for it in report.per_iteration],
        "mp": report.ledger.micro_serial_equivalent,
        "speedup": report.speedup,
        "efficiency": report.efficiency,
        "runtime": report.estimated_runtime,
    }


def run_scenario(scn: Scenario):
    """Execute one scenario; returns (report dict, trajectory, table text)."""
    report = _run(scn)
    table = costs.format_sweep_table([_column(report)], report.N_l)
    return report.to_dict(), report.trajectory, table


def _write_outputs(out_dir: Path, report_dict: dict, trajectory, table: str,
                   wall_seconds: float, threads):
    out_dir.mkdir(parents=True, exist_ok=True)
    report_dict = dict(report_dict)
    report_dict["wall_clock"] = {"seconds": wall_seconds, "threads": threads}
    with open(out_dir / "report.json", "w", encoding="utf-8") as f:
        json.dump(report_dict, f, indent=2)
        f.write("\n")
    twoscale.trajectory_to_csv(trajectory, out_dir / "trajectory.csv")
    (out_dir / "table.txt").write_text(table, encoding="utf-8")


def _cmd_run(args) -> int:
    scn = _scenario(args)
    t0 = time.perf_counter()
    report_dict, trajectory, table = run_scenario(scn)
    _write_outputs(Path(scn.out_dir), report_dict, trajectory, table,
                   time.perf_counter() - t0, scn.threads)
    print(f"{scn.mode} run finished: k_par={report_dict['k_par']} "
          f"endpoint={report_dict['endpoint']:.8g} -> {scn.out_dir}/report.json")
    return 0


def _parse_int_list(text: str, flag: str) -> list:
    try:
        values = [int(v) for v in text.split(",") if v.strip()]
    except ValueError as exc:
        raise ConfigError(f"{flag} expects a comma-separated integer list") from exc
    if not values:
        raise ConfigError(f"{flag} must not be empty")
    return values


def _formula_columns(scenarios, kpar) -> list:
    """Sweep columns from the closed-form counts, one --kpar value per scenario."""
    if kpar is None:
        raise ConfigError("--formula-only needs --kpar with one value per P")
    k_values = _parse_int_list(kpar, "--kpar")
    if len(k_values) != len(scenarios):
        raise ConfigError(
            f"--kpar lists {len(k_values)} values for {len(scenarios)} process counts"
        )
    columns = []
    for scn, k in zip(scenarios, k_values):
        mp = costs.MICRO_COUNT[_ENGINE_MODE[scn.mode]](k, scn.P, scn.N_l)
        speedup, efficiency = costs.speedup_efficiency(mp, scn.N_l, scn.P)
        columns.append({"P": scn.P, "errors": [], "mp": mp,
                        "speedup": speedup, "efficiency": efficiency})
    return columns


def _cmd_sweep(args) -> int:
    base = _scenario(args, P=1)  # every column sets its own P below
    mode = "parareal" if base.mode == "serial" else base.mode
    # build, and so validate, every column before anything runs
    scenarios = [dataclasses.replace(base, mode=mode, P=P)
                 for P in _parse_int_list(args.p_list, "--P")]
    failed = False
    if args.formula_only:
        columns = _formula_columns(scenarios, args.kpar)
    elif args.kpar is not None:
        raise ConfigError("--kpar needs --formula-only")
    else:
        # P = 1: the serial reference run that every column compares with
        reference = twoscale.run_serial(base.schedule(), base.growth_params(),
                                        base.micro_params(), *base.initial_states())
        columns = []
        for scn in scenarios:
            try:
                columns.append(_column(_run(scn, reference)))
            except RunError as exc:
                failed = True
                columns.append({"P": scn.P, "errors": [], "failed": type(exc).__name__})
                print(f"P={scn.P}: FAILED ({exc})", file=sys.stderr)
    table = costs.format_sweep_table(columns, base.N_l)
    out_dir = Path(base.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "table.txt").write_text(table, encoding="utf-8")
    (out_dir / "sweep.csv").write_text(costs.sweep_table_csv(columns), encoding="utf-8")
    print(table, end="")
    print(f"sweep written to {out_dir}/table.txt and {out_dir}/sweep.csv")
    return 1 if failed else 0


def _cmd_presets(args) -> int:
    out_dir = Path(args.out) if args.out is not None else Path(".")
    out_dir.mkdir(parents=True, exist_ok=True)
    for name in sorted(PRESETS):
        scn = preset(name)
        path = out_dir / f"{name}.json"
        scn.to_json(path)
        print(f"{name}: model={scn.model} T_end={scn.T_end_days:g} d "
              f"dt={scn.dt_days:g} d N_l={scn.N_l} -> {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="plaquepar",
        description="Parallel-in-time two-scale plaque growth simulations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # the flags that run and sweep share
    scenario_p = argparse.ArgumentParser(add_help=False)
    scenario_p.add_argument("--scenario", required=True,
                            help="scenario JSON path or preset name")
    scenario_p.add_argument("--threads", type=int,
                            help="accepted (>= 1) and recorded in report.json's "
                                 "wall_clock; fine sweeps run one after another, so it "
                                 "does not change how a run executes")
    scenario_p.add_argument("--stopping", choices=STOPPING)
    scenario_p.add_argument("--out", dest="out_dir", metavar="OUT",
                            help="output directory")

    run_p = sub.add_parser("run", parents=[scenario_p], help="execute one scenario")
    run_p.add_argument("--mode", choices=MODES)
    run_p.add_argument("--P", type=int, help="number of coarse intervals/processes")
    run_p.set_defaults(func=_cmd_run)

    sweep_p = sub.add_parser("sweep", parents=[scenario_p],
                             help="run one scenario for several P")
    sweep_p.add_argument("--P", required=True, dest="p_list", metavar="P",
                         help="comma-separated process counts")
    sweep_p.add_argument("--mode", choices=[m for m in MODES if m != "serial"])
    sweep_p.add_argument("--formula-only", action="store_true",
                         help="emit the cost-model footer only, no live runs")
    sweep_p.add_argument("--kpar", help="iteration counts for --formula-only")
    sweep_p.set_defaults(func=_cmd_sweep)

    presets_p = sub.add_parser("presets", help="write the shipped paper presets")
    presets_p.add_argument("--out", help="directory for the preset JSON files")
    presets_p.set_defaults(func=_cmd_presets)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except RunError as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
