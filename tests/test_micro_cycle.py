"""The per-cycle micro path against an independent recomputation, bit for bit.

``advance_cycle`` and the states' ``average_growth`` work from data that
each ``MicroParams`` computes once (orbit, decay factors, WSS prefactor)
and from the grid's cached damage support; ``solve_micro_problem`` runs
its first two cycles as one block.  The reference below rebuilds every
cycle one at a time, on every interface node, from the public functions
``periodic_orbit``, ``wall_shear_stress`` and ``gamma_ode``/``gamma_pde``
and the written stopping rule; the two must agree exactly (``==``), not
approximately.
"""

import numpy as np
import pytest

from plaquepar import microflow
from plaquepar.errors import ChannelClosureError, MicroNonConvergenceError
from plaquepar.growth import (FieldState, GrowthParams, ScalarState, SolidGrid, gamma_ode,
                              gamma_pde)
from plaquepar.microflow import (MicroParams, MicroState, advance_cycle, periodic_orbit,
                                 solve_micro_problem, solve_stationary_surrogate,
                                 wall_shear_stress)
from plaquepar.twoscale import DAY, advance_two_scale

ODE_GP = GrowthParams()
PDE_GP = GrowthParams(alpha=5e-8)
# the default c_geo makes the WSS prefactor c_geo * 2 rho_f nu_f exactly 1,
# under which a reordered product rounds the same; 58.675 does not
C_GEO = (12.5, 58.675)


def reference_cycle(q0, h, state, mp, gp):
    """One cycle from the public functions: (final q, wss, averaged growth)."""
    tau = mp.delta_tau * np.arange(1, mp.n_steps + 1)
    q = periodic_orbit(tau, mp) + (q0 - periodic_orbit(0.0, mp)) * np.exp(-mp.lambda_relax * tau)
    if isinstance(state, ScalarState):
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


def pde_state(nx=101, ny=11):
    grid = SolidGrid(nx, ny)
    c = np.zeros((grid.ny, grid.nx))
    c[1:, 1:-1] = 0.4 * np.exp(-grid.x[1:-1] ** 2)  # a bump narrowing the centre
    return FieldState(grid, c)


def assert_same_growth(a, b):
    if isinstance(b, float):
        assert type(a) is float and a == b
    else:
        assert a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b)
        assert a.base is None  # owns its memory: a kept value holds no other cycle


@pytest.mark.parametrize("c_geo", C_GEO)
@pytest.mark.parametrize("lam", [9.0, 0.0, 1.0])  # 1.0 needs 2 to 8 cycles
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
        # the growth average reads the WSS on the damage support only
        assert_same_growth(state.average_growth(state.on_support(wss), gp), gamma_ref)


@pytest.mark.parametrize("model", ["ode", "pde"])
def test_a_block_of_cycles_equals_one_cycle_at_a_time(model):
    mp = MicroParams(lambda_relax=1.0, c_geo=C_GEO[1],
                     inflow_offset=0.0 if model == "ode" else 1.0)
    state = ode_state() if model == "ode" else pde_state()
    h = state.on_support(state.half_width())
    states, block = advance_cycle(MicroState(7.5), h, mp, cycles=3)
    assert len(states) == 3 and block.shape[0] == 3
    w = MicroState(7.5)
    for r in range(3):
        w, wss = advance_cycle(w, h, mp)
        assert states[r] == w
        assert block[r].shape == wss.shape and np.array_equal(block[r], wss)
    with pytest.raises(ValueError, match="cycles"):
        advance_cycle(MicroState(7.5), h, mp, cycles=0)


def test_every_cycle_end_state_of_a_block_is_validated(monkeypatch):
    made = []
    monkeypatch.setattr(microflow, "MicroState",
                        lambda q: made.append(q) or MicroState(q))
    states, _ = microflow.advance_cycle(MicroState(7.5), 0.8, MicroParams(), cycles=2)
    assert made == [s.q for s in states] and made[0] != 7.5


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
    wss = np.ones((2, 3, state.grid.support_weight.size))
    wss[1, 1, 7] = -1.0
    with pytest.raises(ValueError, match="non-negative"):
        state.average_growth(wss, PDE_GP)
    with pytest.raises(ValueError, match="non-negative"):
        state.average_growth(wss[1], PDE_GP)


def test_wss_off_the_support_is_rejected():
    state = pde_state()
    with pytest.raises(ValueError, match="support node"):
        state.average_growth(np.ones((3, state.grid.nx)), PDE_GP)


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


def test_zero_weight_node_at_or_below_h_min_still_closes():
    mp, state = MicroParams(inflow_offset=1.0), pde_state()
    assert state.grid.weight[7] == 0.0  # x = -4.3, off the damage support
    c = state.c.copy()
    c[-1, 7] = 1.0 - 0.5 * mp.h_min
    narrowed = FieldState(state.grid, c)
    with pytest.raises(ChannelClosureError):
        solve_micro_problem(MicroState(1.0), narrowed, mp, PDE_GP)
    with pytest.raises(ChannelClosureError):
        solve_stationary_surrogate(narrowed, mp, PDE_GP)


@pytest.mark.parametrize("max_cycles", [2, 3])
@pytest.mark.parametrize("model", ["ode", "pde"])
def test_too_few_cycles_raise(model, max_cycles):
    state, gp = (ode_state(), ODE_GP) if model == "ode" else (pde_state(), PDE_GP)
    mp = MicroParams(lambda_relax=1.0, inflow_offset=0.0 if model == "ode" else 1.0)
    history, _ = reference_micro(0.0, state, mp, gp)
    assert len(history) > max_cycles
    mp = MicroParams(lambda_relax=1.0, inflow_offset=mp.inflow_offset, max_cycles=max_cycles)
    with pytest.raises(MicroNonConvergenceError):
        solve_micro_problem(MicroState(0.0), state, mp, gp)


@pytest.mark.parametrize("nx", [4, 9, 11, 13])
def test_growth_on_coarse_grids_equals_full_width_reference(nx):
    # support widths 0, 1, 1 and 3 nodes
    state, mp = pde_state(nx, 3), MicroParams(lambda_relax=1.0, c_geo=C_GEO[1], inflow_offset=1.0)
    sample, w_end = solve_micro_problem(MicroState(0.0), state, mp, PDE_GP)
    history, q_end = reference_micro(0.0, state, mp, PDE_GP)
    assert sample.cycles_used == len(history) and w_end == MicroState(q_end)
    for got, want in zip(sample.gamma_history, history):
        assert_same_growth(got, want)


def test_grid_without_support_gives_zero_growth():
    state = FieldState.zero(SolidGrid(4, 3))  # no node in (-1, 1)
    mp = MicroParams(inflow_offset=1.0)
    assert state.grid.support_weight.size == 0
    sample, _ = solve_micro_problem(MicroState(0.0), state, mp, PDE_GP)
    stationary = solve_stationary_surrogate(state, mp, PDE_GP)
    for gamma in (*sample.gamma_history, stationary.gamma_bar):
        assert gamma.shape == (4,) and not gamma.any()


@pytest.mark.parametrize("model", ["ode", "pde"])
def test_stationary_surrogate_equals_full_width_formula(model):
    mp = MicroParams(c_geo=C_GEO[1], inflow_offset=0.0 if model == "ode" else 1.0)
    state, gp = (ode_state(), ODE_GP) if model == "ode" else (pde_state(), PDE_GP)
    wss = wall_shear_stress(mp.mean_inflow, state.half_width(), mp)
    if model == "ode":
        want = float(gamma_ode(wss, state.c_s, gp))
    else:
        want = gamma_pde(wss, state.grid.x, gp)
    sample = solve_stationary_surrogate(state, mp, gp)
    assert_same_growth(sample.gamma_bar, want)
    assert sample.cycles_used == 0


# --- call counts: the structure of the speed-up, which wall time is too noisy to pin

@pytest.fixture
def counted(monkeypatch):
    """Count calls of the cycle kernel and of the micro problem, as a span tracer sees them."""
    calls = {"advance_cycle": 0, "solve_micro_problem": 0}
    for name in calls:
        original = getattr(microflow, name)

        def wrapper(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)
        monkeypatch.setattr(microflow, name, wrapper)
    return calls


@pytest.mark.parametrize("model", ["ode", "pde"])
def test_each_cycle_after_the_first_two_is_one_more_kernel_call(model, counted):
    mp = MicroParams(lambda_relax=1.0, inflow_offset=0.0 if model == "ode" else 1.0)
    state, gp = (ode_state(), ODE_GP) if model == "ode" else (pde_state(), PDE_GP)
    orbit0 = float(periodic_orbit(0.0, mp))
    used = []
    for q0 in (orbit0, 0.0, orbit0 + 20.0):
        before = counted["advance_cycle"]
        sample, _ = microflow.solve_micro_problem(MicroState(q0), state, mp, gp)
        used.append(sample.cycles_used)
        assert counted["advance_cycle"] - before == sample.cycles_used - 1
    assert used[0] == 2 and max(used) > 3


@pytest.mark.parametrize("model", ["ode", "pde"])
def test_two_scale_steps_make_one_micro_problem_call_each(model, counted):
    mp = MicroParams(inflow_offset=0.0 if model == "ode" else 1.0)
    state, gp = (ode_state(), ODE_GP) if model == "ode" else (pde_state(), PDE_GP)
    _, _, steps = advance_two_scale(state, MicroState(0.0), 7, 0.3 * DAY, gp, mp)
    assert counted["solve_micro_problem"] == 7
    assert counted["advance_cycle"] == sum(row.cycles - 1 for row in steps)
