import numpy as np
import pytest

from plaquepar.errors import ChannelClosureError, MicroNonConvergenceError
from plaquepar.growth import FieldState, GrowthParams, ScalarState, SolidGrid
from plaquepar.microflow import (MicroParams, MicroState, advance_cycle,
                                 inflow_velocity, periodic_orbit,
                                 solve_micro_problem,
                                 solve_stationary_surrogate, wall_shear_stress)

from _oracles import integrate_relaxation_rk4

MP = MicroParams()
GP = GrowthParams()


def orbit0(params=MP):
    return float(periodic_orbit(0.0, params))


# --- inflow ---------------------------------------------------------------

def test_inflow_values():
    assert inflow_velocity(0.0, MP) == 0.0
    assert inflow_velocity(0.5, MP) == pytest.approx(30.0, abs=1e-12)
    mp_off = MicroParams(inflow_offset=1.0)
    assert inflow_velocity(0.5, mp_off) == pytest.approx(60.0, abs=1e-12)


def test_inflow_periodic():
    tau = np.linspace(0, 1, 17)
    assert np.allclose(inflow_velocity(tau, MP), inflow_velocity(tau + 1.0, MP))


# --- periodic orbit --------------------------------------------------------

def test_orbit_satisfies_ode():
    # finite-difference residual of dq/dtau + lam (q - V) = 0
    tau = np.linspace(0, 1, 201)
    eps = 1e-6
    dq = (periodic_orbit(tau + eps, MP) - periodic_orbit(tau - eps, MP)) / (2 * eps)
    res = dq + MP.lambda_relax * (periodic_orbit(tau, MP) - inflow_velocity(tau, MP))
    assert np.abs(res).max() < 1e-6


def test_orbit_matches_brute_force_integration():
    # integrating the ODE from q_p(0) over one period returns to q_p(0)
    q_end = integrate_relaxation_rk4(orbit0(), MP.lambda_relax,
                                     lambda t: float(inflow_velocity(t, MP)), 1.0)
    assert q_end == pytest.approx(orbit0(), abs=1e-10)


def test_orbit_offset_variant():
    mp = MicroParams(inflow_offset=1.0)
    q_end = integrate_relaxation_rk4(orbit0(mp), mp.lambda_relax,
                                     lambda t: float(inflow_velocity(t, mp)), 1.0)
    assert q_end == pytest.approx(orbit0(mp), abs=1e-10)


# --- wall shear stress -----------------------------------------------------

def test_wss_values():
    assert wall_shear_stress(0.0, 1.0, MP) == 0.0
    # calibration: c_geo * 2 rho nu = 1, so wss(q=30, h=1) = 30 = sigma0
    assert wall_shear_stress(30.0, 1.0, MP) == pytest.approx(30.0, abs=1e-12)
    assert wall_shear_stress(30.0, 0.5, MP) == pytest.approx(120.0, abs=1e-12)
    with pytest.raises(ValueError, match="half-width must be positive"):
        wall_shear_stress(30.0, 0.0, MP)


def test_wss_monotonicity():
    h = np.linspace(0.1, 1.0, 50)
    w = wall_shear_stress(10.0, h, MP)
    assert np.all(np.diff(w) < 0)  # strictly decreasing in h
    q = np.linspace(0.0, 40.0, 50)
    w2 = wall_shear_stress(q, 0.7, MP)
    assert np.allclose(np.diff(w2), w2[1] - w2[0])  # linear in q


# --- advance_cycle ----------------------------------------------------------

def test_cycle_from_orbit_returns_to_orbit():
    w1, wss = advance_cycle(MicroState(orbit0()), 1.0, MP)
    assert w1.q == pytest.approx(orbit0(), abs=1e-12)
    assert wss.shape == (MP.n_steps,)
    assert np.all(wss >= 0)


def test_cycle_contraction_factor():
    # |q1 - q_p(0)| = e^{-lambda} |q0 - q_p(0)|, exact for this stepper
    for dev in (6.28, 1.0, -2.5):
        w1, _ = advance_cycle(MicroState(orbit0() + dev), 1.0, MP)
        got = abs(w1.q - orbit0())
        assert got == pytest.approx(abs(dev) * np.exp(-MP.lambda_relax), rel=1e-12)


def test_cycle_perturbation_decay_matches_reported_reduction():
    # 6.28 -> 6.28 e^-9 = 7.75e-4 within one period
    w1, _ = advance_cycle(MicroState(orbit0() + 6.28), 1.0, MP)
    assert abs(w1.q - orbit0()) == pytest.approx(6.28 * np.exp(-9.0), rel=1e-12)


def test_cycle_no_contraction_at_zero_relaxation():
    mp0 = MicroParams(lambda_relax=0.0)
    w1, _ = advance_cycle(MicroState(3.0), 1.0, mp0)
    assert w1.q == 3.0


def test_cycle_wss_profile_shape():
    h = np.linspace(0.8, 1.0, 11)
    _, wss = advance_cycle(MicroState(orbit0()), h, MP)
    assert wss.shape == (MP.n_steps, 11)


def test_cycle_channel_closure():
    with pytest.raises(ChannelClosureError):
        advance_cycle(MicroState(1.0), 0.04, MP)


# --- solve_micro_problem -----------------------------------------------------

def test_micro_minimum_two_cycles_on_orbit():
    sample, w = solve_micro_problem(MicroState(orbit0()), ScalarState(0.0), MP, GP)
    assert sample.cycles_used == 2
    assert w.q == pytest.approx(orbit0(), abs=1e-12)


def test_micro_perturbed_two_or_three_cycles():
    for dev in (0.5, 1.0, 3.0, 6.28):
        sample, _ = solve_micro_problem(MicroState(orbit0() + dev),
                                        ScalarState(0.0), MP, GP)
        assert sample.cycles_used in (2, 3)


def test_micro_deterministic():
    a = solve_micro_problem(MicroState(2.0), ScalarState(0.3), MP, GP)
    b = solve_micro_problem(MicroState(2.0), ScalarState(0.3), MP, GP)
    assert a[0].gamma_bar == b[0].gamma_bar
    assert a[1].q == b[1].q
    assert a[0].cycles_used == b[0].cycles_used


def test_micro_gamma_positive_and_bounded():
    sample, _ = solve_micro_problem(MicroState(0.0), ScalarState(0.1), MP, GP)
    assert 0 < sample.gamma_bar <= GP.alpha


def test_micro_gamma_differences_geometric():
    # |gamma^r - gamma^{r-1}| decays by about e^{-lambda} per cycle
    mp = MicroParams(lambda_relax=1.0, eps_p=1e-9, max_cycles=30)
    sample, _ = solve_micro_problem(MicroState(orbit0(mp) + 20.0), ScalarState(0.0),
                                    mp, GP)
    diffs = np.abs(np.diff(np.array(sample.gamma_history)))
    ratios = diffs[1:] / diffs[:-1]
    assert np.all(ratios <= np.exp(-mp.lambda_relax) + 0.05)


def test_micro_nonconvergence_guard():
    # weak contraction: the criterion stays above eps_p until max_cycles
    mp = MicroParams(lambda_relax=1.0, max_cycles=3)
    with pytest.raises(MicroNonConvergenceError):
        solve_micro_problem(MicroState(orbit0(mp) + 30.0), ScalarState(0.0), mp, GP)


def test_micro_zero_relaxation_converges_trivially():
    # With lambda=0 the one-cycle map is the identity, so consecutive
    # cycle averages agree exactly and the criterion stops at the
    # two-cycle minimum (the state never approaches the lambda>0 orbit).
    mp0 = MicroParams(lambda_relax=0.0)
    sample, w = solve_micro_problem(MicroState(3.0), ScalarState(0.0), mp0, GP)
    assert sample.cycles_used == 2
    assert w.q == 3.0
    assert sample.gamma_history[0] == sample.gamma_history[1]


def test_micro_field_state_profile():
    grid = SolidGrid(21, 4)
    state = FieldState.zero(grid)
    gp = GrowthParams(alpha=5e-8)
    sample, _ = solve_micro_problem(MicroState(0.0), state, MicroParams(inflow_offset=1.0), gp)
    assert sample.gamma_bar.shape == (grid.nx,)
    assert np.all(sample.gamma_bar >= 0)
    assert np.all(sample.gamma_bar[np.abs(grid.x) >= 1.0] == 0.0)


# --- stationary surrogate -----------------------------------------------------

def test_stationary_mean_amplitude():
    s = solve_stationary_surrogate(ScalarState(0.0), MP, GP)
    assert MP.mean_inflow == pytest.approx(15.0)
    # wss = 15 at h=1: gamma = alpha / (1 + 0.25) = 0.8 alpha
    assert s.gamma_bar == pytest.approx(0.8 * GP.alpha, rel=1e-12)
    assert s.cycles_used == 0


def test_stationary_offset_variant():
    mp = MicroParams(inflow_offset=1.0)
    assert mp.mean_inflow == pytest.approx(45.0)


def test_stationary_counts_no_micro_problem():
    from plaquepar.costs import CostLedger
    led = CostLedger(1)
    sample = solve_stationary_surrogate(ScalarState(0.0), MP, GP)
    led.add_coarse_step(sample.cycles_used, MP.n_steps)
    assert (led.rd_coarse, led.micro_coarse, led.fsi_steps_coarse) == (1, 0, 0)
    assert led.micro_total == 0


# --- half-width law -----------------------------------------------------------

def test_half_width_laws():
    assert ScalarState(0.25).half_width() == pytest.approx(0.75)
    grid = SolidGrid(11, 3)
    c = np.zeros((3, 11))
    c[-1, 5] = 0.4
    st = FieldState(grid, c)
    hw = st.half_width()
    assert hw[5] == pytest.approx(0.6) and hw[0] == pytest.approx(1.0)


def test_params_validation():
    with pytest.raises(ValueError):
        MicroParams(delta_tau=0.03)  # does not divide the period
    # more than 1e5 samples per cycle: 1e-9 would allocate two 8-GB arrays, and
    # 1e-300 used to fail in numpy with a message that names no field
    for delta_tau in (1e-9, 1e-300):
        with pytest.raises(ValueError, match="delta_tau"):
            MicroParams(delta_tau=delta_tau)
    with pytest.raises(ValueError):
        MicroParams(inflow_offset=0.5)
    with pytest.raises(ValueError):
        MicroParams(rho_f=-1.0)
    with pytest.raises(ValueError):
        MicroParams(lambda_relax=np.nan)
    for q in (np.nan, np.inf):
        with pytest.raises(ValueError):
            MicroState(q)
    with pytest.raises(ValueError):
        MicroState(-1.0)
    for eps_p in (0.0, np.nan):
        with pytest.raises(ValueError, match="eps_p"):
            MicroParams(eps_p=eps_p)
    for max_cycles in (1, 2.5, True, np.int64(1)):
        with pytest.raises(ValueError, match="max_cycles"):
            MicroParams(max_cycles=max_cycles)
    assert MicroParams(max_cycles=np.int64(10)).max_cycles == 10
