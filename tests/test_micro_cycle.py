"""The per-cycle micro path against an independent recomputation, bit for bit.

``advance_cycle`` and the states' ``average_growth`` work from data that
each ``MicroParams`` computes once (orbit, decay factors, WSS prefactor)
and from the grid's cached damage weight.  The reference below rebuilds
every cycle from the public functions ``periodic_orbit``,
``wall_shear_stress`` and ``gamma_ode``/``gamma_pde`` and the written
stopping rule; the two must agree exactly (``==``), not approximately.
"""

import numpy as np
import pytest

from plaquepar.errors import ChannelClosureError
from plaquepar.growth import (FieldState, GrowthParams, ScalarState, SolidGrid, gamma_ode,
                              gamma_pde)
from plaquepar.microflow import (MicroParams, MicroState, advance_cycle, periodic_orbit,
                                 solve_micro_problem, wall_shear_stress)

ODE_GP = GrowthParams()
PDE_GP = GrowthParams(alpha=5e-8)
# the default c_geo makes the WSS prefactor c_geo * 2 rho_f nu_f exactly 1,
# under which a reordered product rounds the same; 58.675 does not
C_GEO = (12.5, 58.675)


def reference_cycle(q0, h, state, mp, gp):
    """One cycle from the public functions: (final q, wss, averaged growth)."""
    tau = mp.delta_tau * np.arange(1, mp.n_steps + 1)
    q = periodic_orbit(tau, mp) + (q0 - periodic_orbit(0.0, mp)) * np.exp(-mp.lambda_relax * tau)
    if state.model == "ode":
        wss = wall_shear_stress(q, h, mp)
        gamma = float(np.mean(gamma_ode(wss, state.c_s, gp), axis=0))
    else:
        wss = wall_shear_stress(q[:, None], h[None, :], mp)
        gamma = gamma_pde(wss, state.grid.x, gp).mean(axis=0)
    return float(q[-1]), wss, gamma


def reference_micro(q0, state, mp, gp, eps_p=1e-3, max_cycles=10):
    """The cycle-until-periodic loop: (gamma history, final q)."""
    h = state.half_width()
    scale = gp.alpha if gp.alpha > 0 else 1.0
    q, history = q0, []
    for _ in range(max_cycles):
        q, _, gamma = reference_cycle(q, h, state, mp, gp)
        history.append(gamma)
        if len(history) >= 2:
            delta = np.max(np.abs(np.asarray(history[-1]) - np.asarray(history[-2])))
            if delta / scale < eps_p:
                return history, q
    raise AssertionError("reference micro problem did not stabilize")


def ode_state():
    return ScalarState(0.23)


def pde_state():
    grid = SolidGrid(101, 11)
    c = np.zeros((grid.ny, grid.nx))
    c[1:, 1:-1] = 0.4 * np.exp(-grid.x[1:-1] ** 2)  # a bump narrowing the centre
    return FieldState(grid, c)


def assert_same_growth(a, b):
    if isinstance(b, float):
        assert type(a) is float and a == b
    else:
        assert a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b)


@pytest.mark.parametrize("c_geo", C_GEO)
@pytest.mark.parametrize("lam", [9.0, 0.0])
@pytest.mark.parametrize("model", ["ode", "pde"])
@pytest.mark.parametrize("warm", ["zero", "orbit0", "orbit0+20"])
def test_micro_problem_equals_reference_bit_for_bit(model, lam, warm, c_geo):
    mp = MicroParams(lambda_relax=lam, c_geo=c_geo,
                     inflow_offset=0.0 if model == "ode" else 1.0)
    state, gp = (ode_state(), ODE_GP) if model == "ode" else (pde_state(), PDE_GP)
    orbit0 = float(periodic_orbit(0.0, mp))
    q0 = {"zero": 0.0, "orbit0": orbit0, "orbit0+20": orbit0 + 20.0}[warm]

    sample, w_end = solve_micro_problem(MicroState(q0), state, mp, gp)
    history, q_end = reference_micro(q0, state, mp, gp)

    assert sample.cycles_used == len(history)
    assert len(sample.gamma_history) == len(history)
    for got, want in zip(sample.gamma_history, history):
        assert_same_growth(got, want)
    assert_same_growth(sample.gamma_bar, history[-1])
    assert w_end == MicroState(q_end)


@pytest.mark.parametrize("c_geo", C_GEO)
@pytest.mark.parametrize("model", ["ode", "pde"])
def test_every_cycle_equals_reference(model, c_geo):
    mp = MicroParams(c_geo=c_geo, inflow_offset=0.0 if model == "ode" else 1.0)
    state, gp = (ode_state(), ODE_GP) if model == "ode" else (pde_state(), PDE_GP)
    h = state.half_width()
    w = MicroState(7.5)
    for _ in range(4):
        q_ref, wss_ref, gamma_ref = reference_cycle(w.q, h, state, mp, gp)
        w, wss = advance_cycle(w, h, mp)
        assert w.q == q_ref
        assert wss.shape == wss_ref.shape and np.array_equal(wss, wss_ref)
        assert_same_growth(state.average_growth(wss, gp), gamma_ref)


def test_params_with_different_lambda_do_not_share_cycle_data():
    fast = MicroParams(lambda_relax=9.0, c_geo=C_GEO[1])
    frozen = MicroParams(lambda_relax=0.0, c_geo=C_GEO[1])
    state, h = ode_state(), ode_state().half_width()
    w_fast = w_frozen = MicroState(12.0)
    for _ in range(3):  # interleave, so a shared cache would leak between them
        w_fast, wss_fast = advance_cycle(w_fast, h, fast)
        w_frozen, wss_frozen = advance_cycle(w_frozen, h, frozen)
    q_fast = q_frozen = 12.0
    for _ in range(3):
        q_fast, ref_fast, _ = reference_cycle(q_fast, h, state, fast, ODE_GP)
        q_frozen, ref_frozen, _ = reference_cycle(q_frozen, h, state, frozen, ODE_GP)
    assert w_fast.q == q_fast and np.array_equal(wss_fast, ref_fast)
    assert w_frozen.q == q_frozen and np.array_equal(wss_frozen, ref_frozen)
    assert w_frozen.q == 12.0  # lambda_relax = 0 does not relax at all
    assert not np.array_equal(wss_fast, wss_frozen)


@pytest.mark.parametrize("model", ["ode", "pde"])
def test_writing_into_returned_wss_cannot_change_the_next_cycle(model):
    mp = MicroParams(inflow_offset=0.0 if model == "ode" else 1.0)
    h = (ode_state() if model == "ode" else pde_state()).half_width()
    w0 = MicroState(3.0)
    w1, wss = advance_cycle(w0, h, mp)
    _, clean = advance_cycle(w1, h, mp)
    wss[...] = -1.0
    w1_again, wss_again = advance_cycle(w0, h, mp)
    _, after = advance_cycle(w1_again, h, mp)
    assert w1_again == w1
    assert np.array_equal(after, clean)
    assert wss_again.min() >= 0


def test_negative_wss_is_still_rejected():
    with pytest.raises(ValueError, match="non-negative"):
        ode_state().average_growth(np.array([1.0, -1e-12]), ODE_GP)
    state = pde_state()
    wss = np.ones((3, state.grid.nx))
    wss[1, 7] = -1.0
    with pytest.raises(ValueError, match="non-negative"):
        state.average_growth(wss, PDE_GP)


def test_channel_at_or_below_h_min_still_closes():
    mp = MicroParams()
    for h in (mp.h_min, 0.5 * mp.h_min, 0.0, -1.0, np.float64(mp.h_min), int(0)):
        with pytest.raises(ChannelClosureError):
            advance_cycle(MicroState(1.0), h, mp)
    profile = np.ones(11)
    profile[4] = mp.h_min
    with pytest.raises(ChannelClosureError):
        advance_cycle(MicroState(1.0), profile, mp)
    with pytest.raises(ChannelClosureError):
        advance_cycle(MicroState(1.0), [1.0, mp.h_min], mp)
    with pytest.raises(ChannelClosureError):
        solve_micro_problem(MicroState(1.0), ScalarState(0.96), mp, ODE_GP)  # h = 0.04
    advance_cycle(MicroState(1.0), np.nextafter(mp.h_min, 1.0), mp)  # just open


def test_scalar_half_width_in_any_form_gives_the_same_cycle():
    mp = MicroParams(c_geo=C_GEO[1])
    w = MicroState(4.0)
    for h_float, others in ((0.75, (np.float64(0.75), np.array(0.75))), (1.0, (1, np.array(1)))):
        w_ref, wss_ref = advance_cycle(w, h_float, mp)
        for h in others:
            w_got, wss = advance_cycle(w, h, mp)
            assert w_got == w_ref
            assert wss.shape == wss_ref.shape and np.array_equal(wss, wss_ref)
