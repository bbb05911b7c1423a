import gc
import threading
import weakref

import numpy as np
import pytest

from plaquepar import costs, growth
from plaquepar.errors import ConfigError, PararealNonConvergenceError
from plaquepar.growth import FieldState, GrowthParams, ScalarState, SolidGrid
from plaquepar.microflow import MicroParams, MicroState
from plaquepar.parareal import PararealEngine, run
from plaquepar.twoscale import DAY, Schedule, run_serial

GP = GrowthParams()
MP = MicroParams()
PDE_GP = GrowthParams(alpha=5e-8)
PDE_MP = MicroParams(inflow_offset=1.0)


def ode_setup(t_end_days, n_l, p):
    sched = Schedule(t_end_days * DAY, n_l, p)
    return sched, ScalarState(0.0), MicroState(0.0)


def serial_reference(sched):
    ref_sched = Schedule(sched.T_end, sched.N_l, 1)
    return run_serial(ref_sched, GP, MP, ScalarState(0.0), MicroState(0.0))


# --- finite termination and prefix exactness ------------------------------------

def test_finite_termination_standard():
    sched, m0, w0 = ode_setup(24, 16, 4)
    ref = serial_reference(sched)
    bounds = sched.boundaries()
    eng = PararealEngine(sched, GP, MP, m0, w0, mode="standard").initialize()
    for k in range(1, 5):
        eng.iterate()
        # interval-prefix exactness: T_1..T_k match the serial reference
        for p in range(1, k + 1):
            err = abs(eng.c_bar[p].c_s - ref.functionals[bounds[p]])
            assert err <= 1e-12, f"iteration {k}, boundary {p}: {err}"
    for p in range(5):
        assert abs(eng.c_bar[p].c_s - ref.functionals[bounds[p]]) <= 1e-12


def test_finite_termination_reusage_bit_exact():
    sched, m0, w0 = ode_setup(24, 16, 4)
    ref = serial_reference(sched)
    bounds = sched.boundaries()
    eng = PararealEngine(sched, GP, MP, m0, w0, mode="reusage").initialize()
    for k in range(1, 5):
        eng.iterate()
        for p in range(1, k + 1):
            assert eng.c_bar[p].c_s == ref.functionals[bounds[p]]
    for p in range(5):
        assert eng.c_bar[p].c_s == ref.functionals[bounds[p]]


def test_finite_termination_pde_midpoint():
    sched = Schedule(40 * DAY, 16, 4)
    grid = SolidGrid(41, 6)
    m0, w0 = FieldState.zero(grid), MicroState(0.0)
    ref = run_serial(Schedule(sched.T_end, 16, 1), PDE_GP, PDE_MP, m0, w0)
    bounds = sched.boundaries()
    eng = PararealEngine(sched, PDE_GP, PDE_MP, m0, w0, mode="standard").initialize()
    from plaquepar.growth import interface_midpoint
    for _ in range(4):
        eng.iterate()
    for p in range(5):
        err = abs(interface_midpoint(eng.c_bar[p]) - ref.functionals[bounds[p]])
        assert err <= 1e-12


def test_reusage_fixed_point_at_convergence():
    # once the iterate equals the serial solution, the stored growth
    # values are the serial ones and another iteration changes nothing
    sched, m0, w0 = ode_setup(24, 16, 4)
    eng = PararealEngine(sched, GP, MP, m0, w0, mode="reusage").initialize()
    for _ in range(4):
        eng.iterate()
    converged = [s.c_s for s in eng.c_bar]
    eng.iterate()
    assert [s.c_s for s in eng.c_bar] == converged


def test_coarse_equals_fine_converges_in_one_iteration():
    # P = N_l makes the coarse and fine propagators coincide
    sched, m0, w0 = ode_setup(8, 8, 8)
    ref = serial_reference(sched)
    eng = PararealEngine(sched, GP, MP, m0, w0, mode="standard").initialize()
    eng.iterate()
    for p, b in enumerate(sched.boundaries()):
        assert abs(eng.c_bar[p].c_s - ref.functionals[b]) <= 1e-12


# --- run() and stopping criteria ---------------------------------------------------

def test_run_standard_converges_and_counts():
    sched, m0, w0 = ode_setup(30, 100, 5)
    rep = run(sched, GP, MP, m0, w0, mode="standard", eps_par=1e-3)
    assert rep.converged
    assert rep.k_par <= 6
    errs = [it["fine_error"] for it in rep.per_iteration]
    assert all(e2 < e1 for e1, e2 in zip(errs, errs[1:]))
    led = rep.ledger
    assert led.micro_serial_equivalent == costs.count_standard(rep.k_par, 5, 100)
    assert led.micro_fine == rep.k_par * 100
    assert led.micro_coarse == (rep.k_par + 1) * 5
    assert max(led.per_process_micro) == rep.k_par * 20


def test_run_reusage_counts_and_iterations():
    sched, m0, w0 = ode_setup(30, 100, 5)
    rep_std = run(sched, GP, MP, m0, w0, mode="standard", eps_par=1e-3)
    rep_reu = run(sched, GP, MP, m0, w0, mode="reusage", eps_par=1e-3)
    assert rep_reu.converged
    # stale coarse growth values: never fewer iterations than standard
    assert rep_reu.k_par >= rep_std.k_par
    led = rep_reu.ledger
    assert led.micro_serial_equivalent == costs.count_reusage(rep_reu.k_par, 5, 100)
    assert led.micro_coarse == 5  # only the initialization sweep
    assert led.rd_coarse == 5 + rep_reu.k_par * 100


def test_run_heuristic_counts():
    sched, m0, w0 = ode_setup(30, 100, 5)
    rep = run(sched, GP, MP, m0, w0, mode="heuristic", eps_par=1e-3)
    assert rep.converged
    led = rep.ledger
    assert led.micro_coarse == 0
    assert led.micro_serial_equivalent == costs.count_heuristic(rep.k_par, 5, 100)


def test_coarse_criterion_not_later_than_fine():
    sched, m0, w0 = ode_setup(30, 100, 10)
    ref = serial_reference(sched)
    rep_fine = run(sched, GP, MP, m0, w0, mode="standard", stopping="fine",
                   eps_par=1e-3, reference=ref)
    rep_coarse = run(sched, GP, MP, m0, w0, mode="standard", stopping="coarse",
                     eps_par=1e-3, reference=ref)
    assert rep_coarse.k_par <= rep_fine.k_par


def test_uneven_interval_distribution():
    # P does not divide N_l: boundaries stay on the fine grid
    sched, m0, w0 = ode_setup(30, 100, 7)
    rep = run(sched, GP, MP, m0, w0, mode="standard", eps_par=1e-3)
    assert rep.converged
    assert max(rep.ledger.per_process_micro) == rep.k_par * 15  # ceil(100/7)


def test_nonconvergence_raises_with_report():
    sched, m0, w0 = ode_setup(30, 100, 5)
    with pytest.raises(PararealNonConvergenceError) as exc:
        run(sched, GP, MP, m0, w0, mode="standard", eps_par=1e-16, max_iters=2)
    assert exc.value.report is not None
    assert exc.value.report.k_par == 2
    assert not exc.value.report.converged


@pytest.mark.parametrize("t_end_days, n_l", [(3, 5), (30, 5), (3, 10)])
def test_reference_from_another_schedule_rejected(t_end_days, n_l):
    # a 3-day reference used to be accepted for a 30-day run, and every
    # reported error was measured against its endpoint
    sched, m0, w0 = ode_setup(30, 10, 2)
    ref = run_serial(Schedule(t_end_days * DAY, n_l, 1), GP, MP, m0, w0)
    for P in (1, 2):
        with pytest.raises(ConfigError, match="reference has"):
            run(Schedule(sched.T_end, sched.N_l, P), GP, MP, m0, w0, reference=ref)
    matching = serial_reference(sched)
    rep = run(sched, GP, MP, m0, w0, eps_par=1e-3, reference=matching)
    assert rep.reference_endpoint == matching.endpoint


def test_p_equals_one_degrades_to_serial():
    sched, m0, w0 = ode_setup(30, 50, 1)
    rep = run(sched, GP, MP, m0, w0, mode="standard", eps_par=1e-3)
    ref = serial_reference(sched)
    assert rep.k_par == 0
    assert rep.endpoint == ref.endpoint
    assert rep.speedup == 1.0
    assert rep.ledger.micro_fine == 50


def test_p_larger_than_n_l_rejected():
    with pytest.raises(ConfigError):
        Schedule(30 * DAY, 10, 20)


def test_engine_requires_initialize():
    sched, m0, w0 = ode_setup(24, 16, 4)
    eng = PararealEngine(sched, GP, MP, m0, w0)
    with pytest.raises(RuntimeError):
        eng.iterate()


def test_unknown_mode_rejected():
    sched, m0, w0 = ode_setup(24, 16, 4)
    with pytest.raises(ConfigError):
        PararealEngine(sched, GP, MP, m0, w0, mode="bogus")


@pytest.mark.parametrize("p", [1, 4])
def test_run_rejects_unknown_mode_at_any_p(p):
    sched, m0, w0 = ode_setup(3, 10, p)
    with pytest.raises(ConfigError, match="mode"):
        run(sched, GP, MP, m0, w0, mode="bogus")


def test_run_accepts_serial_mode_only_at_p_one():
    sched, m0, w0 = ode_setup(3, 10, 1)
    assert run(sched, GP, MP, m0, w0, mode="serial").mode == "serial"
    sched, m0, w0 = ode_setup(3, 10, 2)
    with pytest.raises(ConfigError, match="mode"):
        run(sched, GP, MP, m0, w0, mode="serial")


@pytest.mark.parametrize("p", [1, 4])
def test_run_rejects_max_iters_below_one(p):
    sched, m0, w0 = ode_setup(3, 10, p)
    with pytest.raises(ConfigError, match="max_iters"):
        run(sched, GP, MP, m0, w0, max_iters=0)
    for eps_par in (0.0, float("nan")):
        with pytest.raises(ConfigError, match="eps_par"):
            run(sched, GP, MP, m0, w0, eps_par=eps_par)


# --- sequential fine sweeps ----------------------------------------------------------

@pytest.mark.parametrize("mode", ["standard", "reusage"])
def test_fine_sweeps_start_no_thread(monkeypatch, mode):
    sched, m0, w0 = ode_setup(30, 60, 6)
    ref = serial_reference(sched)

    def refuse(self):
        raise AssertionError("a parareal run started a thread")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    report = run(sched, GP, MP, m0, w0, mode=mode, eps_par=1e-4, reference=ref)
    assert report.converged
    assert report.k_par >= 1


# --- initialization costs -------------------------------------------------------------

def test_initialize_ledger_attribution():
    sched, m0, w0 = ode_setup(24, 16, 4)
    eng = PararealEngine(sched, GP, MP, m0, w0, mode="standard").initialize()
    assert eng.ledger.micro_coarse == 4  # P coarse micro problems
    assert eng.ledger.micro_fine == 0
    eng_h = PararealEngine(sched, GP, MP, m0, w0, mode="heuristic").initialize()
    assert eng_h.ledger.micro_total == 0  # stationary solves are free
    eng_r = PararealEngine(sched, GP, MP, m0, w0, mode="reusage").initialize()
    assert eng_r.ledger.micro_coarse == 4  # re-usage still pays for step (I)


def test_zero_growth_initialization():
    sched = Schedule(24 * DAY, 16, 4)
    gp0 = GrowthParams(alpha=0.0)
    eng = PararealEngine(sched, gp0, MP, ScalarState(0.0), MicroState(0.0),
                         mode="standard").initialize()
    assert all(s.c_s == 0.0 for s in eng.c_bar)


# --- report content ---------------------------------------------------------------------

def test_report_dict_schema():
    sched, m0, w0 = ode_setup(30, 40, 4)
    rep = run(sched, GP, MP, m0, w0, mode="standard", eps_par=1e-3)
    d = rep.to_dict()
    for key in ("mode", "P", "N_l", "k_par", "per_iteration_errors",
                "micro_problems_fine", "micro_problems_coarse",
                "rd_solves_fine", "rd_solves_coarse", "speedup",
                "efficiency", "estimated_runtime"):
        assert key in d
    assert d["P"] == 4 and d["N_l"] == 40
    assert d["speedup"] == pytest.approx(40 / rep.ledger.micro_serial_equivalent)
    assert d["efficiency"] == pytest.approx(d["speedup"] / 4)


def test_trajectory_assembled_from_fine_sweeps():
    sched, m0, w0 = ode_setup(30, 40, 4)
    rep = run(sched, GP, MP, m0, w0, mode="standard", eps_par=1e-3)
    traj = rep.trajectory
    assert len(traj) == 41
    assert traj.functionals[0] == 0.0
    # the assembled endpoint is the last fine endpoint used for reporting
    assert abs(traj.endpoint - rep.reference_endpoint) == pytest.approx(
        rep.per_iteration[-1]["fine_error"], rel=1e-12)


@pytest.mark.parametrize("mode", ["standard", "reusage"])
def test_no_fine_step_state_outlives_its_sweep(monkeypatch, mode):
    # a fine sweep hands the master rows of values; of all the states the
    # growth model stepped, only the iterate and the cached coarse values live on
    stepped = []
    macro_step_pde = growth.macro_step_pde

    def spy(*args, **kwargs):
        state = macro_step_pde(*args, **kwargs)
        stepped.append(weakref.ref(state))
        return state
    monkeypatch.setattr(growth, "macro_step_pde", spy)
    sched = Schedule(16 * DAY, 16, 4)
    eng = PararealEngine(sched, PDE_GP, PDE_MP, FieldState.zero(SolidGrid(21, 4)),
                         MicroState(0.0), mode=mode).initialize()
    eng.iterate()
    eng.iterate()
    gc.collect()
    kept = {id(state) for state in eng.c_bar + eng.c_coarse}
    live = [ref() for ref in stepped if ref() is not None]
    outliving = sum(id(state) not in kept for state in live)
    # the initialization sweep, then per iteration the fine steps and the
    # master's coarse steps (one per interval, or all N_l with re-usage)
    assert len(stepped) == 4 + 2 * (16 + (16 if mode == "reusage" else 4))
    assert len(live) > 0 and outliving == 0
