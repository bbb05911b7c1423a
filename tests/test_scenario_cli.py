import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import plaquepar
from plaquepar import growth, parareal, twoscale
from plaquepar.cli import main, run_scenario
from plaquepar.errors import ConfigError, GridAlignmentError
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
                  lambda: MicroParams(inflow_offset=True),
                  lambda: GrowthParams(sigma0=True), lambda: GrowthParams(alpha=False),
                  lambda: GrowthParams(theta=True), lambda: GrowthParams(theta="0.5"),
                  lambda: MicroParams(c_geo=True), lambda: MicroParams(lambda_relax=True),
                  lambda: twoscale.Schedule(True, 10, 2),
                  lambda: parareal.check_run_settings(4, "standard", "fine", True)):
        with pytest.raises(ConfigError):
            build()


@pytest.mark.parametrize("build, message", [
    (lambda: GrowthParams(theta="0.5"), "theta must lie in [0, 1], got '0.5'"),
    (lambda: GrowthParams(alpha="0.5"), "alpha must be non-negative and finite, got '0.5'"),
    (lambda: MicroParams(delta_tau="0.02"), "delta_tau must be positive and finite, got '0.02'"),
    (lambda: GrowthParams(sigma0=None), "sigma0 must be positive and finite, got None"),
    (lambda: GrowthParams(theta=True), "theta must lie in [0, 1], got True"),
    (lambda: GrowthParams(theta=np.float64(1.5)), "theta must lie in [0, 1], got 1.5"),
    (lambda: GrowthParams(sigma0=np.float64(-30.0)),
     "sigma0 must be positive and finite, got -30.0"),
    (lambda: GrowthParams(reaction_sign="1"),
     "reaction_sign must be one of (1, -1), got '1'"),
    (lambda: MicroParams(inflow_offset="1"), "inflow_offset must be one of (0, 1), got '1'"),
    (lambda: MicroParams(inflow_offset=np.float64(0.5)),
     "inflow_offset must be one of (0, 1), got 0.5"),
    (lambda: twoscale.Schedule(86400.0, np.int64(0), 1), "N_l must be an integer >= 1, got 0"),
    (lambda: MicroParams(max_cycles=np.int64(1)), "max_cycles must be an integer >= 2, got 1"),
    (lambda: preset("ode_paper", model="fem"), "model must be one of ('ode', 'pde'), got 'fem'"),
    (lambda: preset("ode_paper", threads=0), "threads must be an integer >= 1, got 0"),
    (lambda: preset("ode_paper", sigma0=np.float64("nan")),
     "sigma0 must be positive and finite, got nan"),
    (lambda: parareal.check_run_settings(4, "serial"),
     "mode must be one of ('standard', 'heuristic', 'reusage'), got 'serial'"),
    (lambda: GrowthParams(reaction_sign=np.array([1])),
     "reaction_sign must be one of (1, -1), got array([1])"),
    (lambda: MicroParams(inflow_offset=np.array([0.0, 1.0])),
     "inflow_offset must be one of (0, 1), got array([0., 1.])"),
    # finite values that used to end a run in a bare exception
    (lambda: MicroParams(lambda_relax=3e10),
     "lambda_relax must be at most 700, got 30000000000.0"),
    (lambda: MicroParams(lambda_relax=1e200), "lambda_relax must be at most 700, got 1e+200"),
    (lambda: GrowthParams(sigma0=1e200), "sigma0 must have a finite square, got 1e+200"),
    # Scenario's own fields: P in every mode, out_dir a string
    (lambda: preset("ode_paper", P="ten"), "P must be an integer >= 1, got 'ten'"),
    (lambda: preset("ode_paper", out_dir=5), "out_dir must be a string, got 5"),
    (lambda: preset("ode_paper", rho_s=[1.0]), "rho_s must be positive, got [1.0]"),
], ids=["theta_str", "alpha_str", "delta_tau_str", "none", "bool", "numpy_theta",
        "numpy_sigma0", "reaction_sign_str", "inflow_offset_str", "numpy_inflow_offset",
        "numpy_N_l", "numpy_max_cycles", "model", "threads", "numpy_nan", "serial_mode_at_P4",
        "array_reaction_sign", "array_inflow_offset", "lambda_relax_3e10",
        "lambda_relax_1e200", "sigma0_1e200", "serial_P_str", "out_dir_number", "rho_s_list"])
def test_a_value_that_is_no_number_is_quoted(build, message):
    # a string reads as text, not as an in-range number; numpy scalars read as numbers
    with pytest.raises(ConfigError) as err:
        build()
    assert str(err.value) == message


@pytest.mark.parametrize("build, name, sign", [
    *[(GrowthParams, name, "positive") for name in ("sigma0", "D_s", "R_s")],
    (GrowthParams, "alpha", "non-negative"),
    *[(MicroParams, name, "positive") for name in ("rho_f", "nu_f", "c_geo",
                                                   "inflow_amplitude", "delta_tau",
                                                   "h_min", "eps_p")],
    (MicroParams, "lambda_relax", "non-negative"),
    (lambda T_end: twoscale.Schedule(T_end, 10, 1), "T_end", "positive"),
    (lambda eps_par: parareal.check_run_settings(4, "standard", "fine", eps_par),
     "eps_par", "positive"),
])
def test_the_number_rule_rejects_an_integer_no_float_can_hold(build, name, sign):
    # int and float compare exactly, so 10**400 lies below math.inf
    with pytest.raises(ConfigError) as err:
        build(**{name: 10**400})
    assert str(err.value).startswith(f"{name} must be {sign} and finite, got 1000")


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 10**400],
                         ids=["nan", "inf", "-inf", "int_1e400"])
@pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(Scenario)
                                   if f.type is float])
def test_every_float_field_rejects_a_value_no_float_can_hold(tmp_path, capsys, field, value):
    # json.dumps writes NaN, Infinity, -Infinity and all 401 digits, as JSON reads them
    path = tmp_path / "scn.json"
    path.write_text(json.dumps({**preset("ode_paper", T_end_days=3.0).to_dict(), field: value}))
    assert main(["run", "--scenario", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("field", dataclasses.fields(Scenario), ids=lambda f: f.name)
def test_every_field_rejects_a_wrong_typed_json_value(tmp_path, capsys, field):
    # Scenario keeps no type table: each field's owner rejects what its rule does not take
    scenario = preset("ode_paper", T_end_days=3.0).to_dict()
    valid = 1 if scenario[field.name] is None else scenario[field.name]  # threads
    wrong = [1.0 if isinstance(valid, str) else str(valid), True, [valid]]
    if scenario[field.name] is not None:
        wrong.append(None)
    path = tmp_path / "scn.json"
    for value in wrong:
        path.write_text(json.dumps({**scenario, field.name: value}))
        assert main(["run", "--scenario", str(path), "--out", str(tmp_path / "out")]) == 2, value
        err = capsys.readouterr().err
        assert err.startswith("configuration error:") and err.count("\n") == 1, (value, err)
        assert not (tmp_path / "out").exists()


def test_numpy_scalars_build_and_round_trip_as_plain_numbers(tmp_path):
    # every owner takes numpy's integers and floats, and to_json writes them as JSON numbers
    scn = preset("pde_paper", P=np.int64(20), nx=np.int64(101))
    path = tmp_path / "scn.json"
    scn.to_json(path)
    again = parse_scenario(str(path))
    assert again == scn
    assert type(again.P) is int and type(again.nx) is int
    # a whole-number float is a choice of reaction_sign, as for GrowthParams
    assert preset("ode_paper", reaction_sign=1.0).growth_params() == GrowthParams()


def test_an_ode_scenario_grid_follows_the_grid_rule():
    with pytest.raises(GridAlignmentError):
        preset("ode_paper", nx=100)
    with pytest.raises(ConfigError, match="grid needs integers"):
        preset("ode_paper", ny=2)


@pytest.mark.parametrize("build", [lambda: growth.check_grid(101, 11.0),
                                   lambda: growth.check_grid(101.0, 11),
                                   lambda: growth.check_grid("101", 11),
                                   lambda: growth.SolidGrid(101, 11.0)],
                         ids=["float_ny", "float_nx", "str_nx", "grid_float_ny"])
def test_the_grid_rule_takes_integers_only(build):
    with pytest.raises(ConfigError, match=r"grid needs integers nx >= 3 and ny >= 3, got "):
        build()


def test_the_number_rule_takes_numpy_narrow_floats_without_a_warning():
    # numpy casts a float bound to the value's own dtype, where float_info.max overflows
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert GrowthParams(alpha=np.float32(5e-7)).alpha == np.float32(5e-7)
        assert MicroParams(c_geo=np.float16(12.5)).c_geo == 12.5
        for value in (np.float32("inf"), np.float32("nan")):
            with pytest.raises(ConfigError) as err:
                GrowthParams(alpha=value)
            assert str(err.value) == f"alpha must be non-negative and finite, got {value}"


@pytest.mark.parametrize("build, message", [
    (lambda: GrowthParams(sigma0=10**5000),
     "sigma0 must be positive and finite, got an integer of 16610 bits"),
    (lambda: twoscale.Schedule(86400.0, 10, 10**5000),
     "P must satisfy 1 <= P <= N_l=10, got an integer of 16610 bits"),
    (lambda: growth.check_grid(10**5000, 11),
     "grid needs nx <= 2002 and ny <= 2001 (dense eigenbases), got an integer of 16610 bits x 11"),
    (lambda: preset("ode_paper", rho_s=-10**5000),
     "rho_s must be positive, got a negative integer of 16610 bits"),
    (lambda: MicroParams(c_geo=[10**5000]), "c_geo must be positive and finite, got a list "
                                            "too long to show"),
], ids=["sigma0", "P", "grid", "rho_s", "in_a_list"])
def test_an_integer_past_the_digit_limit_reads_as_its_size(build, message):
    # str() of an integer of more than 4300 digits raises ValueError
    with pytest.raises(ConfigError) as err:
        build()
    assert str(err.value) == message


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


FINE_ONE_ITERATION = {"T_end_days": 30, "mode": "parareal", "max_iters": 1, "eps_par": 1.0}


def test_fine_stopping_with_one_iteration_is_a_configuration_error(tmp_path, capsys):
    # the fine test starts at k = 2, so one iteration could never converge
    path = tmp_path / "scn.json"
    path.write_text(json.dumps({**preset("ode_paper").to_dict(), **FINE_ONE_ITERATION}))
    assert main(["run", "--scenario", str(path), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == (
        "configuration error: max_iters must be >= 2 with fine stopping at P >= 2, "
        "since the fine test starts at k = 2, got 1\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("setting", [{"stopping": "coarse"}, {"mode": "serial"}],
                         ids=["coarse", "serial"])
def test_one_iteration_still_runs_with_coarse_stopping_or_serially(tmp_path, capsys, setting):
    path = tmp_path / "scn.json"
    path.write_text(json.dumps({**preset("ode_paper").to_dict(), **FINE_ONE_ITERATION,
                                **setting}))
    assert main(["run", "--scenario", str(path), "--out", str(tmp_path / "out")]) == 0
    assert capsys.readouterr().err == ""
    assert (tmp_path / "out" / "report.json").exists()


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
    # past Python's int digit limit, and nested deeper than the parser recurses
    for name, text in (("long_int.json", "1" * 5000), ("deep.json", "[" * 100_000)):
        path = tmp_path / name
        path.write_text(text)
        with pytest.raises(ConfigError):
            parse_scenario(str(path))
        assert main(["run", "--scenario", str(path)]) == 2


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
               "--P", "10,20,30,40,50", "--kpar", "4,3,3,3,3", "--out", out])
    assert rc == 0
    csv = (tmp_path / "sweep" / "sweep.csv").read_text()
    mp_line = [l for l in csv.splitlines() if l.startswith("#_mp")][0]
    assert mp_line == "#_mp,450,230,222,235,260,P=30"


def test_cli_sweep_kpar_writes_the_pinned_footer(tmp_path, capsys):
    """--kpar alone selects the closed-form sweep; its files keep their pinned bytes."""
    out = tmp_path / "sweep"
    assert main(["sweep", "--scenario", "ode_paper", "--mode", "parareal",
                 "--P", "10,20,30,40,50", "--kpar", "4,3,3,3,3", "--out", str(out)]) == 0
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
               for name in ("table.txt", "sweep.csv")}
    assert digests == {
        "table.txt": "8dc42119f8392c542de32625c47f5907c4a2e84d2899503cd910a5f55eda8bb5",
        "sweep.csv": "4e463dedc32740675a5700a79175790e0f08795bf6cff5dfa193544a80c45052",
    }
    assert capsys.readouterr().out == (out / "table.txt").read_text() + (
        f"sweep written to {out}/table.txt and {out}/sweep.csv\n")


def test_cli_sweep_formula_only_flag_is_unrecognized(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--scenario", "ode_paper", "--P", "10", "--kpar", "3",
              "--formula-only", "--out", str(tmp_path / "sweep")])
    assert exc.value.code == 2
    assert "unrecognized arguments: --formula-only" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_cli_sweep_formula_needs_matching_kpar(tmp_path, capsys):
    rc = main(["sweep", "--scenario", "ode_paper", "--P", "10,20",
               "--kpar", "4", "--out", str(tmp_path)])
    assert rc == 2
    assert capsys.readouterr().err == (
        "configuration error: --kpar lists 1 values for 2 process counts\n")
    assert not any(tmp_path.iterdir())
    # --kpar alone writes the footer; --P without --kpar runs live
    scn, path = small_scenario(tmp_path, mode="parareal")
    for name, kpar in (("footer", ["--kpar", "3"]), ("live", [])):
        assert main(["sweep", "--scenario", path, "--P", "2", *kpar,
                     "--out", str(tmp_path / name)]) == 0
    footer, live = ((tmp_path / name / "table.txt").read_text().splitlines()
                    for name in ("footer", "live"))
    # the live run converges at k = 3, so both count the same micro problems
    assert footer[2].split()[:3] == ["#", "mp", "158"] and len(footer) == 5
    assert [row.split()[0] for row in live[2:5]] == ["1", "2", "3"]
    assert live[5].split() == footer[2].split() and live[-1].startswith("est. runtime")


def test_cli_sweep_empty_p_list(tmp_path, capsys):
    rc = main(["sweep", "--scenario", "ode_paper", "--P", ",",
               "--kpar", "3", "--out", str(tmp_path)])
    assert rc == 2
    rc = main(["sweep", "--scenario", "ode_paper", "--P", "10,x",
               "--kpar", "3,3", "--out", str(tmp_path)])
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
                                       {"delta_tau": 1e-300},
                                       {"rho_s": 0.0},
                                       # a two-cycle WSS block above the bound
                                       {"model": "pde", "nx": 2001, "ny": 3,
                                        "delta_tau": 1e-5},
                                       # an orbit sample that rounds below 0, and
                                       # a sigma0^2 that overflows
                                       {"lambda_relax": 3e10}, {"sigma0": 1e200}])
def test_cli_invalid_model_parameter_is_config_error(tmp_path, capsys, overrides):
    flags = {k: v for k, v in overrides.items() if k.startswith("--")}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({**preset("ode_paper").to_dict(),
                                **{k: v for k, v in overrides.items() if k not in flags}}))
    if flags:
        argv = ["sweep", "--scenario", str(path), "--out", str(tmp_path)]
        for flag, value in {"--P": "10", "--kpar": "3", **flags}.items():
            argv += [flag, value]
    else:
        argv = ["run", "--scenario", str(path)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:")
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


def test_micro_block_bound_admits_the_preset_grid_at_the_sample_limit():
    # 2 x 100,000 samples x 19 support nodes; two more nodes cross the bound
    assert preset("pde_paper", delta_tau=1e-5).micro_params().n_steps == 100_000
    with pytest.raises(ConfigError, match="2 x 100000 x 21 = 4200000 values"):
        preset("pde_paper", delta_tau=1e-5, nx=105)


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


def test_cli_missing_scenario_file(tmp_path, monkeypatch, capsys):
    assert main(["run", "--scenario", str(tmp_path / "nope.json")]) == 1
    # a name with no suffix that is no path is a mistyped preset name
    monkeypatch.chdir(tmp_path)
    capsys.readouterr()
    assert main(["run", "--scenario", "nope"]) == 2
    assert capsys.readouterr().err == ("configuration error: unknown preset 'nope'; "
                                       "available: ['ode_paper', 'pde_paper']\n")


def test_run_scenario_returns_schema(tmp_path):
    scn = preset("ode_paper", T_end_days=15.0, dt_days=0.3, mode="heuristic",
                 P=5, out_dir=str(tmp_path))
    report, trajectory, table = run_scenario(scn)
    assert report["mode"] == "heuristic"
    assert report["micro_problems_coarse"] == 0
    assert trajectory is not None
    assert "# mp" in table
