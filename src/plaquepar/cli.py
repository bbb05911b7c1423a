"""Command-line batch surface: run, sweep and preset emission.

`plaquepar run` executes one scenario and writes trajectory.csv,
report.json and table.txt to the output directory; `plaquepar sweep`
repeats a parareal scenario over several process counts (live, or
footer-only from the closed-form cost model via --formula-only);
`plaquepar presets` writes the shipped paper scenarios as JSON files.
"""

import argparse
import json
import sys
import time
from pathlib import Path

from . import costs, parareal, twoscale
from .errors import (ChannelClosureError, ConfigError, MicroNonConvergenceError,
                     PararealNonConvergenceError)
from .scenario import PRESETS, Scenario, parse_scenario, preset

# scenario mode -> engine mode
_ENGINE_MODE = {"serial": "serial", "parareal": "standard", "reusage": "reusage",
                "heuristic": "heuristic"}


def _apply_overrides(scn: Scenario, args) -> Scenario:
    data = scn.to_dict()
    for key, attr in (("mode", "mode"), ("stopping", "stopping"),
                      ("threads", "threads"), ("out", "out_dir")):
        value = getattr(args, key, None)
        if value is not None:
            data[attr] = value
    if getattr(args, "P", None) is not None:
        data["P"] = args.P
    return Scenario.from_dict(data)


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
    schedule = scn.schedule()
    gp, mp = scn.growth_params(), scn.micro_params()
    macro0, micro0 = scn.initial_states()
    # serial scenarios have P = 1, which parareal.run runs as the serial path
    report = parareal.run(
        schedule, gp, mp, macro0, micro0, mode=_ENGINE_MODE[scn.mode],
        stopping=scn.stopping, eps_par=scn.eps_par, eps_p=scn.eps_p,
        max_cycles=scn.max_cycles, max_iters=scn.max_iters,
    )
    table = costs.format_sweep_table(
        [_column(report)], reference={"# mp": report.N_l, "speedup": 1.0, "efficiency": 1.0},
    )
    return report.to_dict(), report.trajectory, table


def _write_outputs(out_dir: Path, report_dict: dict, trajectory, table: str,
                   wall_seconds: float, threads):
    out_dir.mkdir(parents=True, exist_ok=True)
    report_dict = dict(report_dict)
    report_dict["wall_clock"] = {"seconds": wall_seconds, "threads": threads}
    with open(out_dir / "report.json", "w", encoding="utf-8") as f:
        json.dump(report_dict, f, indent=2)
        f.write("\n")
    if trajectory is not None:
        twoscale.trajectory_to_csv(trajectory, out_dir / "trajectory.csv")
    with open(out_dir / "table.txt", "w", encoding="utf-8") as f:
        f.write(table)


def _cmd_run(args) -> int:
    scn = _apply_overrides(parse_scenario(args.scenario), args)
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


def _cmd_sweep(args) -> int:
    base = parse_scenario(args.scenario)
    p_values = _parse_int_list(args.P, "--P")
    data = base.to_dict()
    if args.mode is not None:
        data["mode"] = args.mode
    if data["mode"] == "serial":
        data["mode"] = "parareal"
    if args.stopping is not None:
        data["stopping"] = args.stopping
    if args.threads is not None:
        data["threads"] = args.threads
    out_dir = Path(args.out if args.out is not None else data["out_dir"])

    columns = []
    failures = []
    if args.formula_only:
        if args.kpar is None:
            raise ConfigError("--formula-only needs --kpar with one value per P")
        k_values = _parse_int_list(args.kpar, "--kpar")
        if len(k_values) != len(p_values):
            raise ConfigError(
                f"--kpar lists {len(k_values)} values for {len(p_values)} process counts"
            )
        count_fn = {"parareal": costs.count_standard, "reusage": costs.count_reusage,
                    "heuristic": costs.count_heuristic}[data["mode"]]
        n_l = Scenario.from_dict(data).N_l
        for P, k in zip(p_values, k_values):
            mp = count_fn(k, P, n_l)
            speedup, eff = costs.speedup_efficiency(mp, n_l, P)
            columns.append({"P": P, "errors": [], "mp": mp,
                            "speedup": speedup, "efficiency": eff})
    else:
        scn0 = Scenario.from_dict({**data, "P": p_values[0]})
        schedule = scn0.schedule()
        macro0, micro0 = scn0.initial_states()
        reference = twoscale.run_serial(
            twoscale.Schedule(schedule.T_end, schedule.N_l, 1, schedule.delta_tau),
            scn0.growth_params(), scn0.micro_params(), macro0, micro0,
            scn0.eps_p, scn0.max_cycles,
        )
        for P in p_values:
            scn = Scenario.from_dict({**data, "P": P})
            try:
                report = parareal.run(
                    scn.schedule(), scn.growth_params(), scn.micro_params(),
                    *scn.initial_states(), mode=_ENGINE_MODE[scn.mode],
                    stopping=scn.stopping, eps_par=scn.eps_par, eps_p=scn.eps_p,
                    max_cycles=scn.max_cycles, max_iters=scn.max_iters,
                    reference=reference,
                )
            except (PararealNonConvergenceError, ChannelClosureError,
                    MicroNonConvergenceError) as exc:
                failures.append((P, exc))
                print(f"P={P}: FAILED ({exc})", file=sys.stderr)
                continue
            columns.append(_column(report))

    if not columns:
        raise ConfigError("all sweep columns failed; nothing to report")
    n_l = Scenario.from_dict(data).N_l
    table = costs.format_sweep_table(
        columns, reference={"# mp": n_l, "speedup": 1.0, "efficiency": 1.0},
    )
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "table.txt", "w", encoding="utf-8") as f:
        f.write(table)
    with open(out_dir / "sweep.csv", "w", encoding="utf-8") as f:
        f.write(costs.sweep_table_csv(columns))
    print(table, end="")
    print(f"sweep written to {out_dir}/table.txt and {out_dir}/sweep.csv")
    return 1 if failures else 0


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

    run_p = sub.add_parser("run", help="execute one scenario")
    run_p.add_argument("--scenario", required=True,
                       help="scenario JSON path or preset name")
    run_p.add_argument("--mode", choices=["serial", "parareal", "reusage", "heuristic"])
    run_p.add_argument("--P", type=int, help="number of coarse intervals/processes")
    run_p.add_argument("--threads", type=int,
                       help="accepted (>= 1) and recorded in report.json's wall_clock; "
                            "fine sweeps run one after another, so it does not "
                            "change how a run executes")
    run_p.add_argument("--stopping", choices=["fine", "coarse"])
    run_p.add_argument("--out", help="output directory")
    run_p.set_defaults(func=_cmd_run)

    sweep_p = sub.add_parser("sweep", help="run one scenario for several P")
    sweep_p.add_argument("--scenario", required=True)
    sweep_p.add_argument("--P", required=True, help="comma-separated process counts")
    sweep_p.add_argument("--mode", choices=["parareal", "reusage", "heuristic"])
    sweep_p.add_argument("--threads", type=int,
                         help="accepted (>= 1); it does not change how a run executes")
    sweep_p.add_argument("--stopping", choices=["fine", "coarse"])
    sweep_p.add_argument("--out")
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
    except (PararealNonConvergenceError, MicroNonConvergenceError,
            ChannelClosureError) as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
