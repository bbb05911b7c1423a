"""The per-cycle micro path against an independent recomputation, bit for bit.

``advance_cycle`` and the states' ``average_growth`` work from the
block that ``advance_cycle``'s memo keeps (a memo miss computes the
orbit, decay factors and WSS prefactor from the ``MicroParams`` fields)
and from the grid's cached damage support; ``solve_micro_problem`` runs
its first two cycles as one block.  ``advance_cycle`` returns the squared
wall shear stress, from the squared flux (wss_factor * q)^2 that its memo
keeps, and the growth averages read only that.  The reference below
rebuilds every cycle one at a time, on every interface node, from
``periodic_orbit``, the ``MicroParams`` and ``GrowthParams`` fields and
the written stopping rule, in the same float grouping:
wss^2 = (c_geo 2 rho_f nu_f q)^2 (1 / h^2)^2 and
gamma = (alpha / (1 + c_s)) / (1 + wss^2 / sigma0^2) (ODE) or
(alpha delta(x)) / (1 + wss^2 / sigma0^2) (PDE).  The two must agree
exactly (``==``), not approximately.  The public form, ``gamma_ode`` or
``gamma_pde`` of ``wall_shear_stress``, squares the WSS after the
division, so its growth values may differ in the last bits; they must
stay within ULP_BOUND ulp.
"""

import json
from typing import NamedTuple

import numpy as np
import pytest

from plaquepar import microflow
from plaquepar.cli import main
from plaquepar.errors import ChannelClosureError, MicroNonConvergenceError
from plaquepar.growth import (FieldState, GrowthParams, ScalarState, SolidGrid, delta_weight,
                              gamma_ode, gamma_pde)
from plaquepar.microflow import (MicroParams, MicroState, advance_cycle, periodic_orbit,
                                 solve_micro_problem, solve_stationary_surrogate,
                                 wall_shear_stress)
from plaquepar.scenario import preset
from plaquepar.twoscale import DAY, advance_two_scale

ODE_GP = GrowthParams()
PDE_GP = GrowthParams(alpha=5e-8)
# the default c_geo makes the WSS prefactor c_geo * 2 rho_f nu_f exactly 1,
# under which a reordered product rounds the same; 58.675 does not
C_GEO = (12.5, 58.675)
# most ulp between a growth value and its public form
ULP_BOUND = 4


class Cycle(NamedTuple):
    q_end: float
    wss_sq: np.ndarray    # in the cycles' grouping
    gamma: object         # averaged growth, in the cycles' grouping
    wss: np.ndarray       # wall_shear_stress
    gamma_public: object  # averaged growth of gamma_ode/gamma_pde of wss


def reference_cycle(q0, h, state, mp, gp):
    """One cycle from periodic_orbit and the parameter fields, on every node."""
    tau = mp.delta_tau * np.arange(1, mp.n_steps + 1)
    q = periodic_orbit(tau, mp) + (q0 - periodic_orbit(0.0, mp)) * np.exp(-mp.lambda_relax * tau)
    factor = mp.c_geo * 2.0 * mp.rho_f * mp.nu_f
    inv = 1.0 / (h * h)
    if isinstance(state, ScalarState):
        wss_sq = (factor * q) ** 2 * (inv * inv)
        gamma = (gp.alpha / (1.0 + state.c_s)) / (1.0 + wss_sq / gp.sigma0**2)
        wss = wall_shear_stress(q, h, mp)
        return Cycle(float(q[-1]), wss_sq, float(np.mean(gamma, axis=0)), wss,
                     float(np.mean(gamma_ode(wss, state.c_s, gp), axis=0)))
    wss_sq = (factor * q[:, None]) ** 2 * (inv * inv)[None, :]
    gamma = (gp.alpha * delta_weight(state.grid.x)) / (1.0 + wss_sq / gp.sigma0**2)
    wss = wall_shear_stress(q[:, None], h[None, :], mp)
    return Cycle(float(q[-1]), wss_sq, gamma.mean(axis=0), wss,
                 gamma_pde(wss, state.grid.x, gp).mean(axis=0))


def reference_micro(q0, state, mp, gp, eps_p=1e-3, max_cycles=10):
    """The cycle-until-periodic loop: (cycles, final q)."""
    h = state.half_width()
    scale = gp.alpha if gp.alpha > 0 else 1.0
    q, cycles = q0, []
    for _ in range(max_cycles):
        cycles.append(reference_cycle(q, h, state, mp, gp))
        q = cycles[-1].q_end
        if len(cycles) >= 2:
            delta = np.max(np.abs(np.asarray(cycles[-1].gamma) - np.asarray(cycles[-2].gamma)))
            if delta / scale < eps_p:
                return cycles, q
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


def assert_within_ulp(a, b, bound=ULP_BOUND):
    """a and b agree to ``bound`` ulp of b in every entry; exact zeros stay zeros."""
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape and np.array_equal(a == 0, b == 0)
    assert np.all(np.abs(a - b) <= bound * np.spacing(np.abs(b))), np.max(
        np.abs(a - b) / np.spacing(np.abs(b)))


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
    cycles, q_end = reference_micro(q0, state, mp, gp)

    assert sample.cycles_used == len(cycles)
    assert len(sample.gamma_history) == len(cycles)
    for got, want in zip(sample.gamma_history, cycles):
        assert_same_growth(got, want.gamma)
        assert_within_ulp(got, want.gamma_public)
    assert_same_growth(sample.gamma_bar, cycles[-1].gamma)
    assert w_end == MicroState(q_end)


@pytest.mark.parametrize("c_geo", C_GEO)
@pytest.mark.parametrize("model", ["ode", "pde"])
def test_every_cycle_equals_reference(model, c_geo):
    mp = MicroParams(c_geo=c_geo, inflow_offset=0.0 if model == "ode" else 1.0)
    state, gp = (ode_state(), ODE_GP) if model == "ode" else (pde_state(), PDE_GP)
    h = state.half_width()
    w = MicroState(7.5)
    for _ in range(4):
        ref = reference_cycle(w.q, h, state, mp, gp)
        w, wss_sq = advance_cycle(w, h, mp)
        assert w.q == ref.q_end
        assert wss_sq.shape == ref.wss_sq.shape and np.array_equal(wss_sq, ref.wss_sq)
        # the cycles' grouping rounds at most 9 times, squaring wall_shear_stress 7
        assert np.all(np.abs(wss_sq - ref.wss**2) <= 16 * 2.0**-53 * ref.wss**2)
        # the growth average reads the squared WSS on the damage support only
        assert_same_growth(state.average_growth(state.on_support(wss_sq), gp), ref.gamma)


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
        q_fast, ref_fast, *_ = reference_cycle(q_fast, h, state, fast, ODE_GP)
        q_frozen, ref_frozen, *_ = reference_cycle(q_frozen, h, state, frozen, ODE_GP)
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
    # the cycles hand average_growth squares, which cannot be negative; the
    # public laws take outside input and check it
    with pytest.raises(ValueError, match="non-negative"):
        gamma_ode(np.array([1.0, -1e-12]), ode_state().c_s, ODE_GP)
    state = pde_state()
    wss = np.ones((2, 3, state.grid.nx))
    wss[1, 1, 50] = -1.0
    with pytest.raises(ValueError, match="non-negative"):
        gamma_pde(wss, state.grid.x, PDE_GP)
    with pytest.raises(ValueError, match="non-negative"):
        gamma_pde(wss[1], state.grid.x, PDE_GP)
    # NaN compares false, so each guard asks for >= 0 rather than rejecting < 0
    nan = np.array([np.nan])
    for call in (lambda: gamma_ode(nan, ode_state().c_s, ODE_GP),
                 lambda: gamma_ode(np.array([1.0]), nan, ODE_GP),
                 lambda: gamma_pde(nan, np.array([0.0]), PDE_GP)):
        with pytest.raises(ValueError, match="non-negative"):
            call()


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
    cycles, _ = reference_micro(0.0, state, mp, gp)
    assert len(cycles) > max_cycles
    mp = MicroParams(lambda_relax=1.0, inflow_offset=mp.inflow_offset, max_cycles=max_cycles)
    with pytest.raises(MicroNonConvergenceError):
        solve_micro_problem(MicroState(0.0), state, mp, gp)


@pytest.mark.parametrize("nx", [4, 9, 11, 13])
def test_growth_on_coarse_grids_equals_full_width_reference(nx):
    # support widths 0, 1, 1 and 3 nodes
    state, mp = pde_state(nx, 3), MicroParams(lambda_relax=1.0, c_geo=C_GEO[1], inflow_offset=1.0)
    sample, w_end = solve_micro_problem(MicroState(0.0), state, mp, PDE_GP)
    cycles, q_end = reference_micro(0.0, state, mp, PDE_GP)
    assert sample.cycles_used == len(cycles) and w_end == MicroState(q_end)
    for got, want in zip(sample.gamma_history, cycles):
        assert_same_growth(got, want.gamma)


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


# --- the memo of advance_cycle: a repeated start reuses its block, bit for bit

@pytest.mark.parametrize("cycles", [None, 2, 3])
@pytest.mark.parametrize("model", ["ode", "pde"])
def test_a_repeated_start_gives_the_bits_of_a_fresh_block(model, cycles):
    def params():
        return MicroParams(lambda_relax=1.0, c_geo=C_GEO[1],
                           inflow_offset=0.0 if model == "ode" else 1.0)
    state = ode_state() if model == "ode" else pde_state()
    h = state.on_support(state.half_width())
    assert isinstance(h, float) == (model == "ode")
    mp, w0 = params(), MicroState(7.5)
    advance_cycle(w0, h, mp, cycles)
    block = mp._block
    ends, wss = advance_cycle(MicroState(7.5), h, mp, cycles)  # a hit
    assert mp._block is block
    fresh_ends, fresh_wss = advance_cycle(w0, h, params(), cycles)  # a miss
    assert ends == fresh_ends
    assert wss.shape == fresh_wss.shape and np.array_equal(wss, fresh_wss)
    # a start of another value or type, or another block length, builds its own block
    for q0, k in ((7.5 + 1e-15, cycles), (np.float32(7.5), cycles),
                  (7.5, 4 if cycles else 1)):
        advance_cycle(MicroState(q0), h, mp, k)
        assert mp._block is not block
        assert mp._block[0] == q0 and type(mp._block[0]) is type(q0) and mp._block[1] == k


def test_signed_zero_starts_share_a_block():
    mp, h = MicroParams(), 0.8
    assert periodic_orbit(0.0, mp) > 0
    advance_cycle(MicroState(0.0), h, mp, 2)
    block = mp._block
    ends, wss = advance_cycle(MicroState(-0.0), h, mp, 2)  # a hit
    assert mp._block is block
    fresh_ends, fresh_wss = advance_cycle(MicroState(-0.0), h, MicroParams(), 2)
    assert ends == fresh_ends and np.array_equal(wss, fresh_wss)


@pytest.mark.parametrize("model", ["ode", "pde"])
def test_the_cached_flux_is_read_only_and_the_wss_the_callers_own(model):
    mp = MicroParams(inflow_offset=0.0 if model == "ode" else 1.0)
    state = ode_state() if model == "ode" else pde_state()
    h = state.on_support(state.half_width())
    for _ in range(2):  # a miss, then a hit
        _, wss_sq = advance_cycle(MicroState(3.0), h, mp, 2)
        flux_sq = mp._block[3]
        assert not flux_sq.flags.writeable
        with pytest.raises(ValueError):
            flux_sq[0, 0] = 1.0
        assert wss_sq.flags.writeable and not np.shares_memory(wss_sq, flux_sq)


def _run_outputs(tmp_path, name, scn, mode):
    scenario = tmp_path / "scenario.json"
    scn.to_json(scenario)
    out = tmp_path / name
    assert main(["run", "--scenario", str(scenario), "--mode", mode, "--P", "4",
                 "--stopping", "coarse", "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    del report["wall_clock"]
    return (json.dumps(report, sort_keys=True), (out / "trajectory.csv").read_bytes(),
            (out / "table.txt").read_bytes())


@pytest.mark.parametrize("mode", ["serial", "parareal", "reusage", "heuristic"])
@pytest.mark.parametrize("name, overrides", [("ode_paper", {"T_end_days": 24.0}),
                                             ("pde_paper", {"T_end_days": 6.0})],
                         ids=["ode_paper", "pde_paper"])
def test_runs_write_the_same_outputs_without_the_memo(tmp_path, monkeypatch, name,
                                                      overrides, mode):
    scn = preset(name, **overrides)
    memo = _run_outputs(tmp_path, "memo", scn, mode)
    original = microflow.advance_cycle

    def cleared(w0, h, params, cycles=None):
        object.__setattr__(params, "_block", None)
        return original(w0, h, params, cycles)
    monkeypatch.setattr(microflow, "advance_cycle", cleared)
    assert _run_outputs(tmp_path, "cleared", scn, mode) == memo


# --- call counts: the structure of the speed-up, which wall time is too noisy to pin

@pytest.fixture
def counted(monkeypatch):
    """Count calls of the cycle kernel and of the micro problem, as a span tracer sees
    them, and the blocks the kernel builds (its memo misses)."""
    calls = {"advance_cycle": 0, "solve_micro_problem": 0, "_state_block": 0}
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


def test_most_kernel_calls_reuse_the_block_before(tmp_path, counted):
    # the 16-step ODE input at P = 4: warm starts converge to a fixed float
    scn = preset("ode_paper", T_end_days=24.0, dt_days=1.5)
    assert _run_outputs(tmp_path, "out", scn, "parareal")
    assert counted["solve_micro_problem"] == 80
    assert (counted["advance_cycle"], counted["_state_block"]) == (88, 38)
