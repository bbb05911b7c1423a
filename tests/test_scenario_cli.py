import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import plaquepar
from plaquepar import growth, parareal, twoscale
from plaquepar.cli import main, run_scenario
from plaquepar.errors import ConfigError
from plaquepar.growth import GrowthParams
from plaquepar.microflow import MicroParams
from plaquepar.scenario import PRESETS, Scenario, parse_scenario, preset
from plaquepar.twoscale import DAY


# --- presets -------------------------------------------------------------------

def test_ode_paper_preset_values():
    scn = preset("ode_paper")
    assert scn.model == "ode"
    assert scn.alpha == 5e-7
    assert scn.sigma0 == 30.0
    assert scn.T_end_days == 300.0
    assert scn.dt_days == 0.3
    assert scn.delta_tau == 0.02
    assert scn.eps_p == 1e-3
    assert scn.N_l == 1000
    assert scn.inflow_offset == 0.0


def test_pde_paper_preset_values():
    scn = preset("pde_paper")
    assert scn.model == "pde"
    assert scn.D_s == 1.2e-7
    assert scn.R_s == 5e-7
    assert scn.alpha == 5e-8
    assert scn.sigma0 == 30.0
    assert scn.T_end_days == 200.0
    assert scn.dt_days == 0.2
    assert scn.eps_par == 1e-4
    assert scn.theta == 0.7
    assert scn.N_l == 1000
    assert scn.inflow_offset == 1.0


def test_preset_names():
    assert set(PRESETS) == {"ode_paper", "pde_paper"}
    with pytest.raises(ConfigError):
        preset("bogus")


def test_presets_list_only_departures_from_the_defaults():
    # the defaults are the ODE example; a preset names only what differs
    defaults = Scenario()
    assert PRESETS["ode_paper"] == {}
    for name, values in PRESETS.items():
        repeated = {k: v for k, v in values.items() if v == getattr(defaults, k)}
        assert not repeated, f"{name} repeats the defaults {repeated}"


# --- validation ------------------------------------------------------------------

def test_negative_sigma0_rejected():
    with pytest.raises(ValueError):
        preset("ode_paper", sigma0=-30.0)


def test_parameter_types_raise_config_errors():
    # each type owns its checks and raises ConfigError, which the CLI exits 2 on;
    # bool compares equal to 1, so the types reject it by type
    for build in (lambda: GrowthParams(sigma0=-1), lambda: MicroParams(delta_tau=0.3),
                  lambda: growth.SolidGrid(2, 3), lambda: growth.check_grid(10, 3),
                  lambda: GrowthParams(reaction_sign=True),
                  lambda: MicroParams(inflow_offset=True)):
        with pytest.raises(ConfigError):
            build()


def test_bad_parameter_keeps_its_message_and_exit_code(tmp_path, capsys):
    path = tmp_path / "scn.json"
    path.write_text(json.dumps({**preset("ode_paper").to_dict(), "sigma0": -30.0}))
    assert main(["run", "--scenario", str(path), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == (
        "configuration error: sigma0 must be positive and finite, got -30.0\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("field, value, message", [
    ("eps_par", 0.0, "eps_par must be positive and finite, got 0.0"),
    ("max_iters", 0, "max_iters must be an integer >= 1, got 0"),
], ids=["eps_par", "max_iters"])
def test_bad_run_setting_has_the_owners_message_and_exit_code(tmp_path, capsys, field,
                                                               value, message):
    # parareal.check_run_settings is the one check; the scenario adds no message
    path = tmp_path / "scn.json"
    path.write_text(json.dumps({**preset("ode_paper").to_dict(), field: value}))
    assert main(["run", "--scenario", str(path), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"configuration error: {message}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("setting", [
    {"stopping": "midpoint"}, {"eps_par": -1.0}, {"max_iters": 0},
])
def test_scenario_and_run_reject_a_run_setting_alike(setting):
    scn = preset("ode_paper", mode="parareal", P=4, T_end_days=3.0)
    with pytest.raises(ConfigError) as from_run:
        parareal.run(scn.schedule(), scn.growth_params(), scn.micro_params(),
                     *scn.initial_states(), **setting)
    with pytest.raises(ConfigError) as from_scenario:
        dataclasses.replace(scn, **setting)
    assert str(from_scenario.value) == str(from_run.value)


def test_unknown_keys_rejected():
    with pytest.raises(ConfigError):
        Scenario.from_dict({"model": "ode", "sigma_0": 30.0})


def test_dt_must_divide_t_end():
    with pytest.raises(ConfigError):
        preset("ode_paper", T_end_days=1.0, dt_days=0.3)
    # unchecked, dt_days = 0 divides by zero
    with pytest.raises(ConfigError, match="must be positive"):
        preset("ode_paper", dt_days=0.0)


def test_mode_and_stopping_validated():
    with pytest.raises(ConfigError):
        preset("ode_paper", mode="parallel")
    with pytest.raises(ConfigError):
        preset("ode_paper", stopping="midpoint")
    with pytest.raises(ConfigError, match="model must be"):
        preset("ode_paper", model="fem")


def test_schedule_derivation():
    scn = preset("ode_paper", mode="parareal", P=30)
    sched = scn.schedule()
    assert sched.N_l == 1000
    assert sched.P == 30
    assert sched.dt == pytest.approx(0.3 * DAY)
    # serial mode forces P=1 in the schedule
    sched_serial = preset("ode_paper", P=30).schedule()
    assert sched_serial.P == 1


def test_micro_params_carry_the_periodicity_rule():
    mp = preset("ode_paper", eps_p=1e-4, max_cycles=12).micro_params()
    assert (mp.eps_p, mp.max_cycles) == (1e-4, 12)


@pytest.mark.parametrize("cls", [GrowthParams, MicroParams])
def test_every_parameter_field_is_a_scenario_field(cls):
    # growth_params() and micro_params() fill each field from the scenario field of that name
    scenario_fields = {f.name for f in dataclasses.fields(Scenario)}
    assert {f.name for f in dataclasses.fields(cls)} <= scenario_fields


def test_scenario_defaults_match_the_parameter_defaults():
    # the scenario's growth and micro defaults refer to those of the owning types
    assert Scenario().growth_params() == GrowthParams()
    assert Scenario().micro_params() == MicroParams()


def test_round_trip(tmp_path):
    scn = preset("pde_paper", P=20, mode="reusage", threads=4)
    path = tmp_path / "scn.json"
    scn.to_json(path)
    again = parse_scenario(str(path))
    assert again == scn
    assert parse_scenario(again.to_dict()) == scn


def test_parse_scenario_accepts_preset_names():
    assert parse_scenario("ode_paper") == preset("ode_paper")


def test_parse_scenario_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError):
        parse_scenario(str(path))
    path2 = tmp_path / "list.json"
    path2.write_text("[1,2]")
    with pytest.raises(ConfigError):
        parse_scenario(str(path2))
    path3 = tmp_path / "utf16.json"
    path3.write_bytes(b"\xff\xfe")  # not UTF-8
    with pytest.raises(ConfigError):
        parse_scenario(str(path3))
    assert main(["run", "--scenario", str(path3)]) == 2


def test_initial_states():
    macro, micro = preset("ode_paper").initial_states()
    assert macro.c_s == 0.0 and micro.q == 0.0
    macro_pde, _ = preset("pde_paper").initial_states()
    assert macro_pde.c.shape == (11, 101)


# --- cli -----------------------------------------------------------------------------

def small_scenario(tmp_path, **overrides):
    scn = preset("ode_paper", T_end_days=30.0, dt_days=0.3,
                 out_dir=str(tmp_path / "out"), **overrides)
    path = tmp_path / "scn.json"
    scn.to_json(path)
    return scn, str(path)


def test_cli_run_serial(tmp_path):
    scn, path = small_scenario(tmp_path)
    assert main(["run", "--scenario", path]) == 0
    out = tmp_path / "out"
    rows = (out / "trajectory.csv").read_text().strip().splitlines()
    assert len(rows) == 1 + 101  # header + N_l + 1 states
    report = json.loads((out / "report.json").read_text())
    assert report["mode"] == "serial"
    assert report["micro_problems_fine"] == 100
    assert report["speedup"] == 1.0
    assert "wall_clock" in report
    assert (out / "table.txt").exists()


def test_cli_run_parareal_report_consistent(tmp_path):
    scn, path = small_scenario(tmp_path, mode="parareal", P=5)
    assert main(["run", "--scenario", path]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    from plaquepar.costs import count_standard
    assert report["micro_problems_serial_equivalent"] == \
        count_standard(report["k_par"], 5, 100)
    assert len(report["per_iteration_errors"]) == report["k_par"]


def test_cli_flag_overrides(tmp_path):
    _, path = small_scenario(tmp_path)
    out2 = str(tmp_path / "other")
    assert main(["run", "--scenario", path, "--mode", "reusage", "--P", "4",
                 "--stopping", "coarse", "--threads", "2", "--out", out2]) == 0
    report = json.loads((tmp_path / "other" / "report.json").read_text())
    assert report["mode"] == "reusage"
    assert report["P"] == 4
    assert report["stopping"] == "coarse"


@pytest.mark.parametrize("mode", ["reusage", "heuristic"])
def test_cli_threads_accepted_recorded_and_inert(tmp_path, capsys, mode):
    _, path = small_scenario(tmp_path)
    reports, trajectories = [], []
    for threads in ("1", "6"):
        out = tmp_path / threads
        assert main(["run", "--scenario", path, "--mode", mode, "--P", "5",
                     "--threads", threads, "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report.pop("wall_clock")["threads"] == int(threads)
        assert report["mode"] == mode
        reports.append(json.dumps(report))
        trajectories.append((out / "trajectory.csv").read_bytes())
    assert reports[0] == reports[1]
    assert trajectories[0] == trajectories[1]
    capsys.readouterr()
    assert main(["run", "--scenario", path, "--mode", mode, "--P", "5",
                 "--threads", "0", "--out", str(tmp_path / "0")]) == 2
    assert "configuration error" in capsys.readouterr().err


def test_cli_oversized_p_is_config_error(tmp_path):
    _, path = small_scenario(tmp_path)
    assert main(["run", "--scenario", path, "--mode", "parareal",
                 "--P", "2000"]) == 2


def test_cli_sweep_formula_only(tmp_path):
    out = str(tmp_path / "sweep")
    rc = main(["sweep", "--scenario", "ode_paper", "--mode", "parareal",
               "--P", "10,20,30,40,50", "--kpar", "4,3,3,3,3",
               "--formula-only", "--out", out])
    assert rc == 0
    csv = (tmp_path / "sweep" / "sweep.csv").read_text()
    mp_line = [l for l in csv.splitlines() if l.startswith("#_mp")][0]
    assert mp_line == "#_mp,450,230,222,235,260,P=30"


def test_cli_sweep_formula_needs_matching_kpar(tmp_path, capsys):
    rc = main(["sweep", "--scenario", "ode_paper", "--P", "10,20",
               "--kpar", "4", "--formula-only", "--out", str(tmp_path)])
    assert rc == 2
    rc = main(["sweep", "--scenario", "ode_paper", "--P", "10,20",
               "--formula-only", "--out", str(tmp_path)])
    assert rc == 2
    assert "--formula-only needs --kpar" in capsys.readouterr().err


def test_cli_sweep_empty_p_list(tmp_path, capsys):
    rc = main(["sweep", "--scenario", "ode_paper", "--P", ",",
               "--formula-only", "--kpar", "3", "--out", str(tmp_path)])
    assert rc == 2
    rc = main(["sweep", "--scenario", "ode_paper", "--P", "10,x",
               "--formula-only", "--kpar", "3,3", "--out", str(tmp_path)])
    assert rc == 2
    assert "--P expects a comma-separated integer list" in capsys.readouterr().err


def test_cli_sweep_live(tmp_path):
    scn, path = small_scenario(tmp_path, mode="parareal")
    out = str(tmp_path / "sweep")
    rc = main(["sweep", "--scenario", path, "--P", "4,8", "--out", out])
    assert rc == 0
    table = (tmp_path / "sweep" / "table.txt").read_text()
    assert "P=4" in table and "P=8" in table
    # per-column errors decay monotonically
    csv_rows = (tmp_path / "sweep" / "sweep.csv").read_text().strip().splitlines()
    err_rows = [r.split(",") for r in csv_rows[1:] if r[0].isdigit()]
    for col in (1, 2):
        errs = [float(r[col]) for r in err_rows if r[col]]
        assert all(b < a for a, b in zip(errs, errs[1:]))


def test_cli_sweep_validates_every_column_before_running(tmp_path, monkeypatch, capsys):
    scn = preset("ode_paper", T_end_days=9.0, dt_days=0.3, mode="parareal")
    assert scn.N_l == 30
    path = tmp_path / "scn.json"
    scn.to_json(path)

    def no_run(*args, **kwargs):
        raise AssertionError("the sweep ran before it validated every column")
    monkeypatch.setattr(twoscale, "run_serial", no_run)
    monkeypatch.setattr(parareal, "run", no_run)
    out = tmp_path / "sweep"
    assert main(["sweep", "--scenario", str(path), "--P", "3,5,31", "--out", str(out)]) == 2
    assert "configuration error:" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", [["run", "--mode", "serial"],
                                     ["run", "--mode", "parareal", "--P", "4"],
                                     ["sweep", "--P", "1,4"]],
                         ids=["run-serial", "run-parareal", "sweep"])
def test_each_command_runs_the_serial_model_once(tmp_path, monkeypatch, command):
    scn = preset("ode_paper", T_end_days=24.0, dt_days=1.5)
    assert scn.N_l == 16
    path = tmp_path / "scn.json"
    scn.to_json(path)
    calls = []
    serial = twoscale.run_serial

    def counted(*args, **kwargs):
        calls.append(args)
        return serial(*args, **kwargs)
    monkeypatch.setattr(twoscale, "run_serial", counted)
    monkeypatch.setattr(parareal, "run_serial", counted)
    argv = command + ["--scenario", str(path), "--out", str(tmp_path / "out")]
    assert main(argv) == 0
    assert len(calls) == 1


def test_cli_run_pde(tmp_path):
    scn = preset("pde_paper", T_end_days=6.0, dt_days=0.5, nx=21, ny=4,
                 mode="parareal", P=3, out_dir=str(tmp_path / "pde"))
    path = tmp_path / "pde.json"
    scn.to_json(path)
    assert main(["run", "--scenario", str(path)]) == 0
    report = json.loads((tmp_path / "pde" / "report.json").read_text())
    assert report["converged"]
    rows = (tmp_path / "pde" / "trajectory.csv").read_text().strip().splitlines()
    assert rows[0].startswith("t_days,c_mid,c_mean")
    assert len(rows) == 1 + 13


def test_cli_presets_command(tmp_path):
    assert main(["presets", "--out", str(tmp_path)]) == 0
    for name in ("ode_paper", "pde_paper"):
        data = json.loads((tmp_path / f"{name}.json").read_text())
        assert parse_scenario(data) == preset(name)


@pytest.mark.parametrize("overrides", [{"theta": 1.5}, {"lambda_relax": -1.0},
                                       {"model": "pde", "ny": 2},
                                       {"model": "pde", "nx": 100},
                                       # dense eigenbases above the grid bound
                                       {"model": "pde", "nx": 100001},
                                       {"model": "pde", "ny": 100001},
                                       {"dt_days": "0.3"}, {"P": "ten"},
                                       {"model": "pde", "nx": 101.0},
                                       {"P": True}, {"threads": 1.5},
                                       {"alpha": True}, {"out_dir": 5},
                                       {"T_end_days": math.nan},
                                       {"lambda_relax": math.nan},
                                       {"alpha": math.nan},
                                       {"h_min": math.inf},
                                       {"eps_p": 0.0}, {"max_cycles": 1},
                                       # sweep flags
                                       {"--kpar": "0"}, {"--P": "1001"},
                                       # ratios that overflow to infinity
                                       {"T_end_days": 1e308, "dt_days": 1e-300},
                                       {"delta_tau": 5e-324},
                                       # more samples per cycle than the bound
                                       {"delta_tau": 1e-300}])
def test_cli_invalid_model_parameter_is_config_error(tmp_path, capsys, overrides):
    flags = {k: v for k, v in overrides.items() if k.startswith("--")}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({**preset("ode_paper").to_dict(),
                                **{k: v for k, v in overrides.items() if k not in flags}}))
    if flags:
        argv = ["sweep", "--scenario", str(path), "--formula-only", "--out", str(tmp_path)]
        for flag, value in {"--P": "10", "--kpar": "3", **flags}.items():
            argv += [flag, value]
    else:
        argv = ["run", "--scenario", str(path)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "configuration error:" in err
    if "delta_tau" in overrides:
        assert "delta_tau" in err


@pytest.mark.parametrize("nx, ny", [(100, 11), (101, 2), (100001, 11), (101, 100001)])
def test_grid_check_builds_no_grid_and_keeps_the_grid_message(monkeypatch, nx, ny):
    with pytest.raises(ValueError) as built:
        growth.SolidGrid(nx, ny).midpoint_index()

    def no_grid(*args):
        raise AssertionError("the scenario check built a grid")
    monkeypatch.setattr(growth, "SolidGrid", no_grid)
    with pytest.raises(ConfigError) as parsed:
        preset("pde_paper", nx=nx, ny=ny)
    assert str(parsed.value) == str(built.value)
    preset("pde_paper")


def assert_run_leaves_scipy_unloaded(path):
    """Run the scenario at path through the CLI in a fresh interpreter and
    check that neither the import nor the run loads scipy."""
    code = ("import sys\n"
            "import plaquepar.cli\n"
            "assert 'scipy' not in sys.modules, 'import'\n"
            f"assert plaquepar.cli.main(['run', '--scenario', {path!r}]) == 0\n"
            "assert 'scipy' not in sys.modules, 'run'\n")
    src = str(Path(plaquepar.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_ode_run_does_not_import_scipy(tmp_path):
    _, path = small_scenario(tmp_path)
    assert_run_leaves_scipy_unloaded(path)


@pytest.mark.parametrize("mode", ["parareal", "reusage"])
def test_pde_run_does_not_import_scipy(tmp_path, mode):
    # the IMEX step solves by fast diagonalization with numpy alone
    scn = preset("pde_paper", T_end_days=20.0, dt_days=0.5, nx=21, ny=6, mode=mode,
                 P=10, stopping="coarse", out_dir=str(tmp_path / "out"))
    path = str(tmp_path / "scn.json")
    scn.to_json(path)
    assert_run_leaves_scipy_unloaded(path)
    assert json.loads((tmp_path / "out" / "report.json").read_text())["k_par"] >= 1


def long_step_scenario(tmp_path) -> str:
    """pde_paper with 6-day steps to 600 days: at P = 2 the shifted Kronecker-sum
    part of a 300-day coarse step's IMEX matrix is not positive definite."""
    scn = preset("pde_paper", T_end_days=600.0, dt_days=6.0, nx=21, ny=5, mode="parareal",
                 out_dir=str(tmp_path / "out"))
    path = str(tmp_path / "long.json")
    scn.to_json(path)
    return path


def test_cli_run_beyond_contraction_limit_fails_cleanly(tmp_path, capsys):
    path = long_step_scenario(tmp_path)
    assert main(["run", "--scenario", path, "--P", "2", "--stopping", "coarse"]) == 1
    assert capsys.readouterr().err.startswith("run failed: IMEX linear solve: the 300-day step")


def test_cli_sweep_reports_imex_failure_per_column(tmp_path, capsys):
    path = long_step_scenario(tmp_path)
    assert main(["sweep", "--scenario", path, "--P", "2,10", "--stopping", "coarse"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("P=2: FAILED (IMEX linear solve: the 300-day step")
    # the failed column stays, in order, as a marked cell
    lines = (tmp_path / "out" / "table.txt").read_text().splitlines()
    assert lines[0].split() == ["k", "P=2", "P=10", "ref.", "(serial)"]
    footer = [line.split() for line in lines if line.split()[0] in ("#", "speedup")]
    assert footer[0][2] == "ImexStepError" and footer[1][1] == "ImexStepError"
    csv_rows = (tmp_path / "out" / "sweep.csv").read_text().splitlines()
    assert csv_rows[0] == "row,P=2,P=10,best"
    assert [row.split(",")[1] for row in csv_rows[1:]
            if not row[0].isdigit()] == ["ImexStepError"] * 4


def test_cli_sweep_with_every_column_failed_is_a_run_failure(tmp_path, capsys):
    # heuristic mode on the default ode_paper closes the channel in the
    # initialization sweep at P = 10 and 20
    out = tmp_path / "sweep"
    assert main(["sweep", "--scenario", "ode_paper", "--mode", "heuristic",
                 "--P", "10,20", "--stopping", "coarse", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 2
    assert err[0].startswith("P=10: FAILED (channel half-width")
    assert err[1].startswith("P=20: FAILED (channel half-width")
    # the table holds both columns as marked cells: no error rows, no best
    table = (out / "table.txt").read_text()
    assert captured.out.startswith(table)
    rows = [line.split() for line in table.splitlines()[2:]]
    assert [row[-3:-1] for row in rows] == [["ChannelClosureError"] * 2] * 4
    assert "*" not in table
    assert (out / "sweep.csv").read_text().splitlines() == [
        "row,P=10,P=20,best",
        "#_mp,ChannelClosureError,ChannelClosureError,",
        "speedup,ChannelClosureError,ChannelClosureError,",
        "efficiency,ChannelClosureError,ChannelClosureError,",
        "est._runtime,ChannelClosureError,ChannelClosureError,",
    ]


def test_cli_missing_scenario_file(tmp_path):
    assert main(["run", "--scenario", str(tmp_path / "nope.json")]) == 1


def test_run_scenario_returns_schema(tmp_path):
    scn = preset("ode_paper", T_end_days=15.0, dt_days=0.3, mode="heuristic",
                 P=5, out_dir=str(tmp_path))
    report, trajectory, table = run_scenario(scn)
    assert report["mode"] == "heuristic"
    assert report["micro_problems_coarse"] == 0
    assert trajectory is not None
    assert "# mp" in table
