import dataclasses
import gc
import threading
import weakref

import numpy as np
import pytest

from plaquepar import costs, growth, parareal
from plaquepar.errors import (ChannelClosureError, ConfigError, MicroNonConvergenceError,
                              PararealNonConvergenceError, RunError)
from plaquepar.growth import FieldState, GrowthParams, ScalarState, SolidGrid
from plaquepar.microflow import MicroParams, MicroState
from plaquepar.parareal import PararealEngine, run
from plaquepar.scenario import preset
from plaquepar.twoscale import (DAY, Schedule, TrajectoryRecord, advance_two_scale,
                                run_coarse_step, run_serial)

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


def test_fine_stopping_starts_at_the_second_iteration(ode_paper_reference):
    # at k = 1 the fine endpoint and s_0 start the last interval from the same
    # coarse value, so they agree within eps_par while the iterate is far off
    sched, gp, mp, m0, w0 = _ode_paper(P=20)
    rep = run(sched, gp, mp, m0, w0, mode="standard", stopping="fine", eps_par=1e-3,
              reference=ode_paper_reference)
    assert rep.per_iteration[0]["stopping_delta"] <= rep.eps_par
    assert rep.converged and rep.k_par >= 2
    assert abs(rep.endpoint - rep.reference_endpoint) <= rep.eps_par


def test_fine_stopping_needs_two_iterations_at_p_of_two_or_more():
    sched, m0, w0 = ode_setup(3, 10, 4)
    with pytest.raises(ConfigError) as err:
        run(sched, GP, MP, m0, w0, stopping="fine", eps_par=1.0, max_iters=np.int64(1))
    assert str(err.value) == ("max_iters must be >= 2 with fine stopping at P >= 2, "
                              "since the fine test starts at k = 2, got 1")
    assert run(sched, GP, MP, m0, w0, stopping="coarse", eps_par=1.0, max_iters=1).converged
    serial, m0, w0 = ode_setup(3, 10, 1)
    assert run(serial, GP, MP, m0, w0, stopping="fine", eps_par=1.0, max_iters=1).converged


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


def test_reference_message_shows_numbers_as_numbers():
    # the reference's times are numpy floats, once shown as np.float64(2073600.0)
    sched, m0, w0 = ode_setup(30, 100, 5)
    ref = serial_reference(Schedule(24 * DAY, 100, 1))
    with pytest.raises(ConfigError) as err:
        run(sched, GP, MP, m0, w0, reference=ref)
    assert str(err.value) == ("reference has 101 points ending at t=2073600.0; the schedule "
                              "needs N_l + 1 = 101 ending at T_end=2592000.0")


@pytest.mark.parametrize("supplied", [False, True], ids=["computed", "supplied"])
def test_p_equals_one_degrades_to_serial(monkeypatch, supplied):
    sched, m0, w0 = ode_setup(30, 50, 1)
    ref = serial_reference(sched)
    if supplied:
        def no_serial_run(*args, **kwargs):
            raise AssertionError("P = 1 ran the serial model beside its reference")
        monkeypatch.setattr(parareal, "run_serial", no_serial_run)
    rep = run(sched, GP, MP, m0, w0, mode="standard", eps_par=1e-3,
              reference=ref if supplied else None)
    if supplied:
        assert rep.trajectory is ref
    assert rep.k_par == 0
    assert rep.endpoint == ref.endpoint
    assert rep.speedup == 1.0
    # counted from the record's cycles
    led = rep.ledger
    assert led.micro_fine == led.rd_fine == 50
    assert led.per_process_fsi_steps == [int(rep.trajectory.cycles.sum()) * MP.n_steps]
    assert led.micro_coarse == led.rd_coarse == led.messages == 0


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
    sched, m0, w0 = ode_setup(24, 16, 1)
    with pytest.raises(ConfigError, match="needs P >= 2"):
        PararealEngine(sched, GP, MP, m0, w0)


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


@pytest.mark.parametrize("mode", ["serial", "bogus"])
def test_engine_and_run_reject_a_mode_alike(mode):
    sched, m0, w0 = ode_setup(3, 10, 4)
    with pytest.raises(ConfigError) as from_run:
        run(sched, GP, MP, m0, w0, mode=mode)
    with pytest.raises(ConfigError) as from_engine:
        PararealEngine(sched, GP, MP, m0, w0, mode=mode)
    assert str(from_engine.value) == str(from_run.value)


@pytest.mark.parametrize("p", [1, 4])
def test_run_rejects_max_iters_below_one(p):
    sched, m0, w0 = ode_setup(3, 10, p)
    # unchecked, 2.5 runs 3 iterations, True reads as 1 and an infinite
    # eps_par stops after one iteration whatever the error
    for max_iters in (0, 2.5, True, np.int64(0)):
        with pytest.raises(ConfigError, match="max_iters"):
            run(sched, GP, MP, m0, w0, max_iters=max_iters)
    assert run(sched, GP, MP, m0, w0, max_iters=np.int64(5)).converged
    for eps_par in (0.0, float("nan"), float("inf")):
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


def _bits(value):
    """A state, row or sequence of them as plain values that compare bit for bit:
    floats as their hex form, arrays as dtype, shape and bytes."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    if dataclasses.is_dataclass(value):
        return type(value), tuple(_bits(getattr(value, f.name))
                                  for f in dataclasses.fields(value))
    if isinstance(value, (tuple, list)):
        return type(value), tuple(_bits(item) for item in value)
    return value


@pytest.mark.parametrize("model", ["ode", "pde"])
def test_fine_sweeps_equal_direct_propagator_calls(model):
    # N_l = 16 on P = 5 intervals: lanes of 4, 3, 3, 3 and 3 steps
    if model == "ode":
        (sched, m0, w0), gp, mp = ode_setup(24, 16, 5), GP, MP
    else:
        sched, gp, mp = Schedule(16 * DAY, 16, 5), PDE_GP, PDE_MP
        m0, w0 = FieldState.zero(SolidGrid(21, 5)), MicroState(0.0)
    eng = PararealEngine(sched, gp, mp, m0, w0, mode="standard").initialize()
    lanes, bounds = sched.interval_steps(), sched.boundaries()
    assert lanes == [4, 3, 3, 3, 3]
    c_bar, warm = list(eng.c_bar), list(eng.warm)
    direct = [advance_two_scale(dataclasses.replace(c_bar[p], t=bounds[p] * sched.dt),
                                warm[p], lanes[p], sched.dt, gp, mp) for p in range(5)]
    ends, end_micro, steps = eng.fine_sweeps()
    assert _bits(ends) == _bits([end for end, _, _ in direct])
    assert _bits(end_micro) == _bits([w for _, w, _ in direct])
    assert _bits(steps) == _bits([row for _, _, rows in direct for row in rows])
    assert eng.ledger.per_process_micro == lanes
    # the iterate and the warm starts wait for the master update
    assert eng.k == 0 and eng.last_steps is None
    assert all(a is b for a, b in zip(eng.c_bar + eng.warm, c_bar + warm))


@pytest.mark.parametrize("mode", ["standard", "heuristic", "reusage"])
def test_each_iteration_calls_the_propagator_once_per_lane_in_order(monkeypatch, mode):
    # the span shape perfbench reads its fine phase and load imbalance from
    calls = []

    def spy(start, warm, n_steps, *args):
        calls.append((start.t, n_steps))
        return advance_two_scale(start, warm, n_steps, *args)
    monkeypatch.setattr(parareal, "advance_two_scale", spy)
    sched, m0, w0 = ode_setup(24, 16, 5)
    eng = PararealEngine(sched, GP, MP, m0, w0, mode=mode).initialize()
    assert calls == []
    starts = [b * sched.dt for b in sched.boundaries()[:-1]]
    assert starts == sorted(set(starts))  # T_0 < ... < T_{P-1}
    for _ in range(3):
        eng.iterate()
        assert calls == list(zip(starts, sched.interval_steps()))
        calls.clear()


# --- initialization costs -------------------------------------------------------------

def test_initialize_ledger_attribution():
    sched, m0, w0 = ode_setup(24, 16, 4)
    eng = PararealEngine(sched, GP, MP, m0, w0, mode="standard").initialize()
    assert eng.ledger.micro_coarse == 4  # P coarse micro problems
    assert eng.ledger.micro_fine == 0
    eng_h = PararealEngine(sched, GP, MP, m0, w0, mode="heuristic").initialize()
    assert eng_h.ledger.micro_fine + eng_h.ledger.micro_coarse == 0  # stationary solves are free
    eng_r = PararealEngine(sched, GP, MP, m0, w0, mode="reusage").initialize()
    assert eng_r.ledger.micro_coarse == 4  # re-usage still pays for step (I)


def _coarse_cycles(eng, starts):
    """Cycles of the P two-scale coarse steps from the interval starts, on the
    master's warm-start chain from micro0."""
    micro, cycles = eng.micro0, []
    for p, start in enumerate(starts[:-1]):
        _, micro, sample = run_coarse_step(start, micro, eng._steps[p] * eng.sched.dt,
                                           "two_scale", GP, MP)
        cycles.append(sample.cycles_used)
    return cycles


def test_two_scale_coarse_counts_one_micro_problem():
    # each two-scale coarse step is one coarse micro problem with its cycles
    # and one coarse growth solve, in the initialization and in each update
    sched, m0, w0 = ode_setup(24, 16, 4)
    eng = PararealEngine(sched, GP, MP, m0, w0, mode="standard").initialize()
    led = eng.ledger
    init_cycles = _coarse_cycles(eng, eng.c_bar)
    assert init_cycles[0] == 3  # the cold start needs a third cycle
    assert led.micro_coarse == 4 and led.rd_coarse == 4
    assert led.fsi_steps_coarse == sum(init_cycles) * MP.n_steps
    assert led.micro_fine == 0 and led.rd_fine == 0
    eng.iterate()
    # the update's coarse steps start from the corrected interval values
    update_cycles = _coarse_cycles(eng, eng.c_bar)
    assert led.micro_coarse == 8 and led.rd_coarse == 8
    assert led.fsi_steps_coarse == (sum(init_cycles) + sum(update_cycles)) * MP.n_steps


def test_heuristic_coarse_counts_zero_micro_problems():
    macro, micro, sample = run_coarse_step(
        ScalarState(0.0), MicroState(0.0), 5 * DAY, "heuristic", GP, MP)
    assert sample.cycles_used == 0
    assert macro.c_s == pytest.approx(5 * DAY * 0.8 * GP.alpha, rel=1e-12)
    assert micro.q == pytest.approx(MP.mean_inflow)
    sched, m0, w0 = ode_setup(24, 16, 4)
    eng = PararealEngine(sched, GP, MP, m0, w0, mode="heuristic").initialize()
    eng.iterate()
    led = eng.ledger
    assert led.micro_coarse == 0 and led.fsi_steps_coarse == 0
    assert led.rd_coarse == 8  # P per coarse sweep
    assert led.micro_fine == 16


def _tally(eng):
    """Per-process (micro problems, micro time steps, rd solves) of the rows
    of the latest iteration, split at the interval boundaries."""
    b = eng.sched.boundaries()
    rows = [eng.last_steps[b[p]:b[p + 1]] for p in range(eng.sched.P)]
    return ([len(r) for r in rows],
            [sum(row.cycles for row in r) * eng.mp.n_steps for r in rows],
            [len(r) for r in rows])


@pytest.mark.parametrize("mode", ["standard", "heuristic", "reusage"])
@pytest.mark.parametrize("P", [3, 4])
def test_engine_counts_fine_sweeps_from_rows(mode, P):
    sched, m0, w0 = ode_setup(17 * 1.5, 17, P)
    eng = PararealEngine(sched, GP, MP, m0, w0, mode=mode).initialize()
    eng.iterate()
    led = eng.ledger
    micro, steps, rd = _tally(eng)
    assert micro == sched.interval_steps()  # N_l mod P != 0
    assert led.per_process_micro == micro
    assert led.per_process_fsi_steps == steps
    assert led.per_process_micro == rd
    assert led.micro_fine == led.rd_fine == 17


@pytest.mark.parametrize("mode", ["standard", "heuristic", "reusage"])
@pytest.mark.parametrize("P", [3, 4])
def test_engine_counts_match_closed_forms(mode, P):
    # per iteration: P fine endpoints (standard, heuristic) or P stored growth
    # values plus P neighbor micro states (re-usage) to the master, then P
    # broadcast interval starts; the re-usage master re-runs all N_l steps
    n_l = 17
    sched, m0, w0 = ode_setup(n_l * 1.5, n_l, P)
    eng = PararealEngine(sched, GP, MP, m0, w0, mode=mode).initialize()
    for k in (1, 2):
        eng.iterate()
        led = eng.ledger
        expected = {
            "standard": (2 * k * P, (k + 1) * P, (k + 1) * P),
            "heuristic": (2 * k * P, (k + 1) * P, 0),
            "reusage": (3 * k * P, P + k * n_l, P),
        }[mode]
        assert (led.messages, led.rd_coarse, led.micro_coarse) == expected
        assert led.micro_fine == led.rd_fine == k * n_l


def test_engine_counts_pde_reusage_sweeps_from_rows():
    sched = Schedule(17 * DAY, 17, 4)
    eng = PararealEngine(sched, PDE_GP, PDE_MP, FieldState.zero(SolidGrid(21, 5)),
                         MicroState(0.0), mode="reusage").initialize()
    eng.iterate()
    micro, steps, rd = _tally(eng)
    led = eng.ledger
    assert (led.per_process_micro, led.per_process_fsi_steps) == (micro, steps)
    assert led.per_process_micro == rd  # one rd solve per fine step
    assert led.micro_coarse == 4 and led.rd_coarse == 4 + 17  # init + re-propagation


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


# --- failures carry the partial report --------------------------------------------------

def _ode_paper(P):
    """The default ode_paper (300 days, N_l = 1000) at P intervals."""
    scn = preset("ode_paper", mode="parareal", P=P)
    return scn.schedule(), scn.growth_params(), scn.micro_params(), *scn.initial_states()


@pytest.fixture(scope="module")
def ode_paper_reference():
    sched, gp, mp, m0, w0 = _ode_paper(1)
    return run_serial(sched, gp, mp, m0, w0)


def _partial_counts(rep):
    """(micro_coarse, rd_coarse, micro_fine, messages) of a report's ledger."""
    led = rep.ledger
    return led.micro_coarse, led.rd_coarse, led.micro_fine, led.messages


def test_channel_closure_in_initialization_carries_report(ode_paper_reference):
    sched, gp, mp, m0, w0 = _ode_paper(P=10)
    with pytest.raises(ChannelClosureError) as exc:
        run(sched, gp, mp, m0, w0, mode="standard", stopping="coarse", eps_par=1e-3,
            reference=ode_paper_reference)
    rep = exc.value.report
    assert not rep.converged and rep.k_par == 0 and rep.per_iteration == []
    # the coarse steps before the closing one were counted
    assert 0 < rep.ledger.micro_coarse < 10 and rep.ledger.micro_fine == 0
    assert rep.ledger.rd_coarse == rep.ledger.micro_coarse
    assert _partial_counts(rep) == (1, 1, 0, 0)
    assert len(rep.trajectory) == 1 and rep.trajectory.functionals[0] == 0.0
    assert rep.reference_endpoint == ode_paper_reference.endpoint
    assert rep.to_dict()["k_par"] == 0


def test_channel_closure_in_third_fine_sweep_carries_report(ode_paper_reference):
    sched, gp, mp, m0, w0 = _ode_paper(P=20)
    with pytest.raises(ChannelClosureError) as exc:
        run(sched, gp, mp, m0, w0, mode="reusage", stopping="coarse", eps_par=1e-3,
            reference=ode_paper_reference)
    rep = exc.value.report
    assert not rep.converged and rep.k_par == 2
    assert [it["k"] for it in rep.per_iteration] == [1, 2]
    led = rep.ledger
    # two whole iterations, then the third iteration's finished sweeps
    assert 2 * 1000 <= led.micro_fine < 3 * 1000 and led.micro_fine == led.rd_fine
    assert led.micro_coarse == 20 and led.rd_coarse == 20 + 2 * 1000
    assert _partial_counts(rep) == (20, 2020, 2350, 120)
    assert len(rep.trajectory) == 1001
    assert rep.speedup == 1000 / led.micro_serial_equivalent


def test_channel_closure_in_first_master_update_carries_report(ode_paper_reference):
    sched, gp, mp, m0, w0 = _ode_paper(P=20)
    with pytest.raises(ChannelClosureError) as exc:
        run(sched, gp, mp, m0, w0, mode="heuristic", stopping="coarse", eps_par=1e-3,
            reference=ode_paper_reference)
    rep = exc.value.report
    assert not rep.converged and rep.k_par == 0 and rep.per_iteration == []
    # the initialization, all fine sweeps of the first iteration, the fine
    # endpoints sent to the master and its coarse steps before the closing one
    assert _partial_counts(rep) == (0, 35, 1000, 20)
    assert rep.speedup == 1000 / rep.ledger.micro_serial_equivalent


@pytest.mark.parametrize("failing", [0, 2, 3])
def test_any_run_error_in_the_iteration_carries_report(monkeypatch, failing):
    class SweepError(RunError):
        """A run failure of a kind the engine does not name."""

    sweeps = []

    def failing_sweep(*args):
        sweeps.append(args)
        if len(sweeps) == 4 + 1 + failing:  # the first, third or last sweep of iteration 2
            raise SweepError("sweep failed")
        return advance_two_scale(*args)
    monkeypatch.setattr(parareal, "advance_two_scale", failing_sweep)
    sched, m0, w0 = ode_setup(24, 16, 4)
    with pytest.raises(SweepError) as exc:
        run(sched, GP, MP, m0, w0, eps_par=1e-15, reference=serial_reference(sched))
    rep = exc.value.report
    assert rep.k_par == 1 and rep.converged is False
    assert len(rep.per_iteration) == 1 and len(rep.trajectory) == 17
    # iteration 1, then the sweeps of iteration 2 that finished before the failing one
    assert rep.ledger.per_process_micro == [4 + 4 * (p < failing) for p in range(4)]


def test_failure_before_any_micro_problem_has_nan_speedup():
    # a supplied reference, so the engine's first (cold) coarse micro problem is
    # the first to run, and it needs three cycles of the two allowed
    sched, m0, w0 = ode_setup(24, 16, 4)
    strict = MicroParams(max_cycles=2)
    with pytest.raises(MicroNonConvergenceError) as exc:
        run(sched, GP, strict, m0, w0, reference=serial_reference(sched))
    rep = exc.value.report
    assert rep.k_par == 0 and rep.ledger.micro_fine + rep.ledger.micro_coarse == 0
    assert rep.ledger.rd_coarse == 0
    assert np.isnan(rep.speedup) and np.isnan(rep.efficiency)
    assert rep.endpoint == 0.0


@pytest.mark.parametrize("P", [1, 4])
def test_reference_run_failure_carries_no_report(P):
    sched, m0, w0 = ode_setup(24, 16, P)
    with pytest.raises(MicroNonConvergenceError) as exc:
        run(sched, GP, MicroParams(max_cycles=2), m0, w0)
    assert exc.value.report is None
