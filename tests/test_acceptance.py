"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest -v tests/test_acceptance.py` (test names carry the
criterion numbers) or `pytest -s` to see the explicit PASS lines.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from plaquepar import costs
from plaquepar.cli import main
from plaquepar.growth import (FieldState, GrowthParams, ScalarState, SolidGrid,
                              gamma_pde, macro_step_pde)
from plaquepar.microflow import (MicroParams, MicroState, advance_cycle,
                                 periodic_orbit, solve_micro_problem)
from plaquepar.parareal import PararealEngine, run
from plaquepar.scenario import preset
from plaquepar.twoscale import DAY, Schedule, run_serial

from _oracles import dense_imex_step, fitted_order, run_mms_space, run_mms_time

REPO_ROOT = Path(__file__).resolve().parent.parent


def _ok(n, text):
    print(f"[criterion {n}] {text}: PASS")


def test_criterion_1_cost_formula_reproduction():
    t0 = time.perf_counter()
    # standard parareal, fine-endpoint criterion: counts and speedups
    standard = {10: (4, 450, 2.2), 20: (3, 230, 4.3), 30: (3, 222, 4.5),
                40: (3, 235, 4.3), 50: (3, 260, 3.8)}
    for P, (k, mp, speedup) in standard.items():
        assert costs.count_standard(k, P, 1000) == mp
        s, _ = costs.speedup_efficiency(mp, 1000, P)
        assert abs(round(s, 1) - speedup) <= 0.05
    # coarse-endpoint criterion table
    coarse = {10: (4, 450), 20: (2, 160), 30: (2, 158), 40: (2, 170), 50: (2, 190)}
    for P, (k, mp) in coarse.items():
        assert costs.count_standard(k, P, 1000) == mp
    # re-usage table, P = 10..70
    reusage = {10: (5, 510), 20: (5, 270), 30: (5, 200), 40: (4, 140),
               50: (4, 130), 60: (4, 128), 70: (4, 130)}
    for P, (k, mp) in reusage.items():
        assert costs.count_reusage(k, P, 1000) == mp
    s, _ = costs.speedup_efficiency(128, 1000, 60)
    assert abs(round(s, 1) - 7.8) <= 0.05
    # heuristic coarse propagator
    assert costs.count_heuristic(8, 30, 1000) == 272
    assert costs.count_heuristic(8, 50, 1000) == 160
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    _ok(1, f"all paper table footers reproduced exactly ({elapsed:.3f}s)")


def test_criterion_2_finite_termination():
    t0 = time.perf_counter()
    sched = Schedule(24 * DAY, 16, 4)
    gp, mp = GrowthParams(), MicroParams()
    ref = run_serial(Schedule(sched.T_end, 16, 1), gp, mp,
                     ScalarState(0.0), MicroState(0.0))
    bounds = sched.boundaries()
    eng = PararealEngine(sched, gp, mp, ScalarState(0.0), MicroState(0.0),
                         mode="standard").initialize()
    for k in range(1, 5):
        eng.iterate()
        for p in range(1, k + 1):  # interval-prefix exactness
            assert abs(eng.c_bar[p].c_s - ref.functionals[bounds[p]]) <= 1e-12
    worst = max(abs(eng.c_bar[p].c_s - ref.functionals[bounds[p]])
                for p in range(5))
    assert worst <= 1e-12
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    _ok(2, f"N_l=16, P=4 terminates to serial within {worst:.2e} "
           f"after <= 4 iterations ({elapsed:.2f}s)")


def test_criterion_3_convergence_property():
    t0 = time.perf_counter()
    # ode_paper preset scaled to N_l=100 by shortening the horizon at the
    # preset's fine step (300 days at dt=3 days would exceed the coarse-step
    # range where the two-scale initialization stays feasible, cf. the
    # divergence the reference FSI setup shows for 30-day macro steps)
    scn = preset("ode_paper", T_end_days=30.0, dt_days=0.3)
    gp, mp = scn.growth_params(), scn.micro_params()
    ref = run_serial(Schedule(30 * DAY, 100, 1), gp, mp,
                     ScalarState(0.0), MicroState(0.0))
    for P in (5, 10):
        rep = run(Schedule(30 * DAY, 100, P), gp, mp,
                  ScalarState(0.0), MicroState(0.0), mode="standard",
                  stopping="fine", eps_par=1e-3, reference=ref)
        errs = [it["fine_error"] for it in rep.per_iteration]
        assert rep.k_par <= 6, f"P={P}: k_par={rep.k_par}"
        assert all(b < a for a, b in zip(errs, errs[1:])), f"P={P}: {errs}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _ok(3, f"monotone error decay, k_par <= 6 for P in {{5, 10}} ({elapsed:.2f}s)")


def test_criterion_4_micro_periodicity():
    mp = MicroParams(lambda_relax=9.0)
    gp = GrowthParams()
    q0 = float(periodic_orbit(0.0, mp))
    w1, _ = advance_cycle(MicroState(q0 + 6.28), 1.0, mp)
    residual = abs(w1.q - q0)
    assert residual <= 1e-3
    # paper-reported reduction 6.28 -> 6e-4 within one period, +-50%
    assert 0.5 * 6e-4 <= residual <= 1.5 * 6e-4
    on_orbit, _ = solve_micro_problem(MicroState(q0), ScalarState(0.0), mp, gp)
    assert on_orbit.cycles_used == 2
    perturbed, _ = solve_micro_problem(MicroState(q0 + 6.28), ScalarState(0.0),
                                       mp, gp)
    assert perturbed.cycles_used in (2, 3)
    _ok(4, f"6.28 perturbation decays to {residual:.2e} in one cycle; "
           f"{perturbed.cycles_used} cycles to periodicity at eps_p=1e-3")


def test_criterion_5_imex_correctness():
    p = GrowthParams(alpha=5e-8, sigma0=30.0, D_s=0.05, R_s=1.0, theta=0.7)
    # first order in dt (manufactured solution, fixed grid)
    dts = np.array([0.5, 0.25, 0.125, 0.0625])
    errs_t = run_mms_time(dts, p)
    order_t = fitted_order(dts, errs_t)
    assert abs(order_t - 1.0) <= 0.15, f"dt order {order_t}"
    # second order in grid spacing (time-consistent forcing)
    hs, errs_h = run_mms_space([6, 11, 21, 41], p)
    order_h = fitted_order(hs, errs_h)
    assert abs(order_h - 2.0) <= 0.2, f"space order {order_h}"
    # one-step agreement with an independent dense solve
    pde = GrowthParams(alpha=5e-8)
    grid = SolidGrid(21, 6)
    gb = gamma_pde(np.zeros(grid.nx), grid.x, pde)
    state = macro_step_pde(FieldState.zero(grid), gb, 0.2 * DAY, pde)
    ref = dense_imex_step(FieldState.zero(grid), gb, 0.2 * DAY, pde)
    rel = np.abs(state.c - ref).max() / np.abs(ref).max()
    assert rel <= 1e-10
    _ok(5, f"orders dt={order_t:.3f}, h={order_h:.3f}; dense-solve rel diff {rel:.1e}")


def test_criterion_6_symmetry_invariant():
    pde = GrowthParams(alpha=5e-8)
    grid = SolidGrid(101, 11)
    gb = gamma_pde(np.full(grid.nx, 10.0), grid.x, pde)
    assert np.allclose(gb, gb[::-1])
    state = FieldState.zero(grid)
    for _ in range(100):
        state = macro_step_pde(state, gb, 0.2 * DAY, pde)
    asym = np.abs(state.c - state.c[:, ::-1]).max()
    assert asym <= 1e-12
    _ok(6, f"x-reflection symmetry after 100 IMEX steps: defect {asym:.2e}")


def test_criterion_7_reusage_cost_dominance():
    # closed-form counts at N_l in {100, 1000}: ratio below sqrt(N_l)/2 + 1
    for n_l in (100, 1000):
        bound = costs.ratio_bound(n_l)
        worst = max(
            costs.count_rd_reusage(k, P, n_l) / costs.count_standard(k, P, n_l)
            for k in range(1, 11) for P in range(1, n_l + 1)
        )
        assert worst <= bound
    assert costs.ratio_bound(1000) == pytest.approx(16.81, abs=0.01)
    # live re-usage run at N_l=100: the ledger-measured rd-solve count,
    # relative to the micro-problem count of the matching standard run at
    # the same iteration count (the comparison scale behind the bound),
    # stays below sqrt(N_l)/2 + 1
    gp, mp = GrowthParams(), MicroParams()
    rep = run(Schedule(30 * DAY, 100, 10), gp, mp, ScalarState(0.0),
              MicroState(0.0), mode="reusage", eps_par=1e-3)
    led = rep.ledger
    assert led.rd_serial_equivalent == costs.count_rd_reusage(rep.k_par, 10, 100)
    ratio = led.rd_serial_equivalent / costs.count_standard(rep.k_par, 10, 100)
    assert ratio <= costs.ratio_bound(100)
    _ok(7, f"live rd/micro ratio {ratio:.2f} <= bound {costs.ratio_bound(100):.2f}; "
           f"bound(1000) = 16.8")


def test_criterion_8_determinism(tmp_path):
    scn = preset("ode_paper", T_end_days=30.0, dt_days=0.3, mode="parareal",
                 P=5, out_dir=str(tmp_path / "a"))
    path = tmp_path / "scn.json"
    scn.to_json(path)
    reports = []
    for threads, sub in (("1", "a"), ("8", "b")):
        assert main(["run", "--scenario", str(path), "--threads", threads,
                     "--out", str(tmp_path / sub)]) == 0
        data = json.loads((tmp_path / sub / "report.json").read_text())
        del data["wall_clock"]
        reports.append(json.dumps(data, indent=2, sort_keys=False))
    assert reports[0] == reports[1]
    t1 = (tmp_path / "a" / "trajectory.csv").read_bytes()
    t8 = (tmp_path / "b" / "trajectory.csv").read_bytes()
    assert t1 == t8
    _ok(8, "report.json bit-identical for --threads 1 vs --threads 8")


def test_criterion_9_non_reproducible_results_acknowledged():
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    # the FSI-dependent reference values are documented as out of scope
    for needle in ("0.63831273", "0.5186632", "out of scope"):
        assert needle in readme, f"README must document {needle!r}"
    # the runtime model recombines the paper's measured master/slave values
    standard_rows = {10: (1096, 10251, 11347), 30: (3943, 4749, 8692),
                     40: (4273, 2641, 6914), 50: (5361, 2130, 7491),
                     60: (6197, 1796, 7993)}
    for P, (master, slave_max, total) in standard_rows.items():
        est = costs.estimate_parallel_runtime(coarse_seconds=master,
                                              fine_max_seconds=slave_max)
        assert est == total, f"standard P={P}"
    # P=20 : the printed total 9661 s carries the source's own rounding
    # (2691 + 6968 = 9659); recombination is asserted within that rounding
    est20 = costs.estimate_parallel_runtime(coarse_seconds=2691,
                                            fine_max_seconds=6968)
    assert abs(est20 - 9661) <= 2
    reusage_rows = {10: (658, 17075, 17733), 20: (930, 8755, 9685),
                    30: (1171, 5934, 7105), 40: (1448, 4454, 5902),
                    50: (1722, 3555, 5277), 60: (1933, 2992, 4925)}
    for P, (master, slave_max, total) in reusage_rows.items():
        est = costs.estimate_parallel_runtime(coarse_seconds=master,
                                              fine_max_seconds=slave_max)
        assert est == total, f"reusage P={P}"
    _ok(9, "non-reproducible values documented; measured runtimes recombine "
           "to the printed totals")
