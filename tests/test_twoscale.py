import dataclasses
import math

import numpy as np
import pytest

from plaquepar import costs, parareal
from plaquepar.errors import ConfigError
from plaquepar.growth import FieldState, GrowthParams, ScalarState, SolidGrid
from plaquepar.microflow import MicroParams, MicroState
from plaquepar.twoscale import (DAY, Schedule, TrajectoryRecord, advance_two_scale,
                                run_coarse_step, run_serial, trajectory_to_csv)

GP = GrowthParams()
MP = MicroParams()


def ode_run(t_end_days, n_l, gp=GP):
    sched = Schedule(t_end_days * DAY, n_l, 1)
    return run_serial(sched, gp, MP, ScalarState(0.0), MicroState(0.0))


def counted_ode_run(t_end_days, n_l, gp=GP, mp=MP):
    """The serial run as parareal.run counts it at P = 1: (record, ledger)."""
    rep = parareal.run(Schedule(t_end_days * DAY, n_l, 1), gp, mp, ScalarState(0.0),
                       MicroState(0.0))
    return rep.trajectory, rep.ledger


# --- schedule ----------------------------------------------------------------

def test_schedule_grids():
    s = Schedule(300 * DAY, 1000, 30)
    assert s.dt == pytest.approx(0.3 * DAY)
    steps = s.interval_steps()
    assert sum(steps) == 1000
    assert max(steps) == 34  # ceil(1000/30)
    assert min(steps) in (33, 34)
    b = s.boundaries()
    assert b[0] == 0 and b[-1] == 1000 and len(b) == 31


def test_schedule_divisible_case():
    s = Schedule(300 * DAY, 1000, 10)
    assert s.interval_steps() == [100] * 10


def test_schedule_validation():
    for t_end in (-1.0, float("nan")):
        with pytest.raises(ConfigError, match="T_end"):
            Schedule(t_end, 10, 1)
    with pytest.raises(ConfigError):
        Schedule(10.0, 10, 11)  # P > N_l
    # the schedule and the closed-form counts share one process-count rule
    for build in (lambda: Schedule(1.0, 10, 11), lambda: costs.count_standard(3, 11, 10)):
        with pytest.raises(ConfigError, match=r"^P must satisfy 1 <= P <= N_l=10, got 11$"):
            build()
    with pytest.raises(ConfigError):
        Schedule(10.0, 0, 1)
    assert [f.name for f in dataclasses.fields(Schedule)] == ["T_end", "N_l", "P"]


@pytest.mark.parametrize("field, value", [("N_l", 10.5), ("N_l", True), ("N_l", "10"),
                                          ("P", 2.0), ("P", True), ("P", np.True_)])
def test_schedule_rejects_non_integer_counts(field, value):
    # a float N_l used to pass and fail later with a bare TypeError
    with pytest.raises(ConfigError, match=f"{field} must be an integer"):
        Schedule(3 * DAY, **{"N_l": 10, "P": 2, field: value})
    assert Schedule(3 * DAY, np.int64(10), np.int64(2)).interval_steps() == [5, 5]


@pytest.mark.parametrize("cls, field", [
    (Schedule, "T_end"),
    *[(MicroParams, name) for name in ("rho_f", "nu_f", "lambda_relax", "c_geo",
                                       "inflow_amplitude", "delta_tau", "h_min",
                                       "eps_p")],
    *[(GrowthParams, name) for name in ("alpha", "sigma0", "D_s", "R_s")],
])
def test_parameter_types_reject_infinity(cls, field):
    args = {"T_end": 10.0, "N_l": 10, "P": 1} if cls is Schedule else {}
    with pytest.raises(ValueError, match=field):
        cls(**{**args, field: math.inf})


@pytest.mark.parametrize("field", [{"delta_tau": 0.01}])
def test_micro_grid_comes_from_micro_params(field):
    mp = MicroParams(**field)
    rec, led = counted_ode_run(3, 10, mp=mp)
    assert mp.n_steps == 100
    assert led.per_process_fsi_steps == [int(rec.cycles.sum()) * 100]


# --- serial run ---------------------------------------------------------------

def test_zero_growth_rate_keeps_concentration_zero():
    rec, led = counted_ode_run(30, 50, gp=GrowthParams(alpha=0.0))
    assert np.all(rec.functionals == 0.0)
    assert led.micro_fine == 50  # micro problems still solved


def test_ledger_counts_n_l_micro_problems():
    _, led = counted_ode_run(30, 100)
    assert led.micro_fine == 100
    assert led.micro_coarse == 0
    assert led.rd_fine == 100


def test_reference_run_counts_thousand_micro_problems():
    # the serial reference column: N_l = 1000 micro problems
    _, led = counted_ode_run(300, 1000)
    assert led.micro_fine == 1000


def test_serial_deterministic():
    a = ode_run(30, 60)
    dt = Schedule(30 * DAY, 60, 1).dt
    end_micro = []
    # one run, a repeat, and the same 60 steps as chained advance_two_scale
    # calls carrying the micro state along (as demo 04 reads its profiles)
    for chunks in ((60,), (60,), (20, 15, 25)):
        macro, micro, steps = ScalarState(0.0), MicroState(0.0), []
        for n in chunks:
            macro, micro, more = advance_two_scale(macro, micro, n, dt, GP, MP)
            steps += more
        b = TrajectoryRecord.from_steps(ScalarState(0.0), steps)
        assert np.array_equal(a.t, b.t)
        assert np.array_equal(a.functionals, b.functionals)
        assert np.array_equal(a.gamma_scalar[1:], b.gamma_scalar[1:])
        assert np.array_equal(a.cycles, b.cycles)
        end_micro.append(micro.q)
    assert end_micro[0] == end_micro[1] == end_micro[2]


def test_concentration_monotone_width_shrinks():
    rec = ode_run(300, 200)
    assert np.all(np.diff(rec.functionals) >= 0)
    assert np.all(np.diff(rec.width) <= 0)
    assert rec.width[0] == pytest.approx(2.0)


def test_coarser_steps_overestimate():
    # forward Euler with a rate decreasing in c_s: larger dt overshoots
    fine = ode_run(300, 1000)
    coarse = ode_run(300, 20)  # dt = 15 days
    assert coarse.endpoint >= fine.endpoint


def test_first_micro_problem_needs_extra_cycle():
    rec = ode_run(30, 10)
    assert rec.cycles[1] == 3  # cold start
    assert np.all(rec.cycles[2:] == 2)  # warm starts on the orbit


def test_record_time_axis():
    rec = ode_run(30, 10)
    assert np.all(np.diff(rec.t) > 0)
    assert rec.t[-1] == pytest.approx(30 * DAY)
    assert len(rec) == 11


def test_pde_serial_smoke():
    grid = SolidGrid(41, 6)
    gp = GrowthParams(alpha=5e-8)
    mp = MicroParams(inflow_offset=1.0)
    sched = Schedule(20 * DAY, 20, 1)
    rep = parareal.run(sched, gp, mp, FieldState.zero(grid), MicroState(0.0))
    rec, led = rep.trajectory, rep.ledger
    assert led.micro_fine == 20 and led.rd_fine == 20
    assert rec.columns == ("c_mid", "c_mean")
    assert rec.functionals[-1] > 0
    assert rec.values[-1, rec.columns.index("c_mean")] > 0
    assert np.all(rec.width <= 2.0)


# --- coarse step -----------------------------------------------------------------

def test_coincident_grids_match_serial_step():
    # dT = dt reproduces one run_serial step bit for bit
    sched = Schedule(0.3 * DAY, 1, 1)
    rec = run_serial(sched, GP, MP, ScalarState(0.0), MicroState(0.0))
    _, fine_micro, _ = advance_two_scale(ScalarState(0.0), MicroState(0.0), 1, sched.dt,
                                         GP, MP)
    macro, micro, _ = run_coarse_step(ScalarState(0.0), MicroState(0.0),
                                      sched.dt, "two_scale", GP, MP)
    assert macro.c_s == rec.functionals[1]
    assert micro.q == fine_micro.q


def test_unknown_coarse_mode():
    with pytest.raises(ValueError):
        run_coarse_step(ScalarState(0.0), MicroState(0.0), 1.0, "bogus", GP, MP)
    for dT in (0.0, float("nan")):
        with pytest.raises(ValueError, match="dT"):
            run_coarse_step(ScalarState(0.0), MicroState(0.0), dT, "two_scale", GP, MP)


# --- csv --------------------------------------------------------------------------

def test_trajectory_csv_ode(tmp_path):
    rec = ode_run(30, 10)
    path = tmp_path / "traj.csv"
    trajectory_to_csv(rec, path)
    rows = path.read_text().strip().splitlines()
    assert rows[0] == "t_days,c_s,gamma_bar,width,cycles"
    assert len(rows) == 12
    last = rows[-1].split(",")
    assert float(last[0]) == pytest.approx(30.0)
    assert int(last[4]) == 2


def test_trajectory_csv_pde(tmp_path):
    grid = SolidGrid(21, 4)
    gp = GrowthParams(alpha=5e-8)
    mp = MicroParams(inflow_offset=1.0)
    sched = Schedule(5 * DAY, 5, 1)
    rec = run_serial(sched, gp, mp, FieldState.zero(grid), MicroState(0.0))
    path = tmp_path / "traj.csv"
    trajectory_to_csv(rec, path)
    rows = path.read_text().strip().splitlines()
    assert rows[0] == "t_days,c_mid,c_mean,gamma_bar,width,cycles"
    assert len(rows) == 7


def test_state_functional_and_width():
    assert ScalarState(0.3).functional() == 0.3
    rec = TrajectoryRecord.from_steps(ScalarState(0.3), [])
    assert rec.columns == ("c_s",) and len(rec) == 1
    assert rec.width[0] == 2.0 * (1.0 - 0.3) == pytest.approx(1.4)
    grid = SolidGrid(11, 3)
    c = np.zeros((3, 11))
    c[-1, 5] = 0.2
    st = FieldState(grid, c)
    assert st.functional() == pytest.approx(0.2)
    rec = TrajectoryRecord.from_steps(st, [])
    assert rec.columns == ("c_mid", "c_mean") and len(rec) == 1
    assert rec.width[0] == 2.0 * (1.0 - st.functional()) == pytest.approx(1.6)
