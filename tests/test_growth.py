import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from plaquepar import growth
from plaquepar.errors import ConfigError, GridAlignmentError, ImexStepError
from plaquepar.growth import (FieldState, GrowthParams, ScalarState, SolidGrid,
                              delta_weight, field_to_csv, gamma_ode, gamma_pde,
                              imex_system, interface_mean, interface_midpoint,
                              interface_to_csv, macro_step_ode, macro_step_pde)
from plaquepar.twoscale import DAY

from _oracles import dense_imex_step

GP = GrowthParams()
PDE_GP = GrowthParams(alpha=5e-8, sigma0=30.0, D_s=1.2e-7, R_s=5e-7, theta=0.7)


# --- gamma_ode ---------------------------------------------------------------

def test_gamma_ode_values():
    assert gamma_ode(0.0, 0.0, GP) == pytest.approx(5e-7, rel=1e-15)
    assert gamma_ode(30.0, 0.0, GP) == pytest.approx(2.5e-7, rel=1e-15)
    assert gamma_ode(30.0, 1.0, GP) == pytest.approx(1.25e-7, rel=1e-15)


def test_gamma_ode_bounds_and_monotonicity():
    rng = np.random.default_rng(5)
    for _ in range(200):
        w, c = rng.uniform(0, 100), rng.uniform(0, 3)
        g = gamma_ode(w, c, GP)
        assert 0 < g <= GP.alpha
        assert gamma_ode(w + 1.0, c, GP) < g
        assert gamma_ode(w, c + 0.1, GP) < g


def test_gamma_ode_domain():
    with pytest.raises(ValueError):
        gamma_ode(-1.0, 0.0, GP)
    with pytest.raises(ValueError):
        gamma_ode(1.0, -0.1, GP)
    with pytest.raises(ValueError, match="wall shear stress must be non-negative"):
        gamma_pde(np.array([1.0, -0.1]), np.zeros(2), PDE_GP)


# --- delta weight ------------------------------------------------------------

def test_delta_weight_values():
    assert delta_weight(0.0) == pytest.approx(1.0)
    assert delta_weight(1.0) == 0.0
    assert delta_weight(-1.0) == 0.0
    assert delta_weight(0.5) == pytest.approx(0.5625)
    assert delta_weight(2.0) == 0.0
    assert delta_weight(-3.7) == 0.0


def test_delta_weight_inside_formula():
    x = np.linspace(-0.99, 0.99, 21)
    assert np.allclose(delta_weight(x), (x**2 - 1.0) ** 2)


# --- gamma_pde ---------------------------------------------------------------

def test_gamma_pde_zero_wss_gives_alpha_delta():
    x = np.linspace(-5, 5, 101)
    g = gamma_pde(np.zeros_like(x), x, PDE_GP)
    assert np.allclose(g, PDE_GP.alpha * delta_weight(x))


def test_gamma_pde_reference_stress_halves_center():
    x = np.array([0.0])
    g = gamma_pde(np.array([30.0]), x, PDE_GP)
    assert g[0] == pytest.approx(PDE_GP.alpha / 2, rel=1e-15)


def test_gamma_pde_zero_outside_damage_zone():
    x = np.array([2.0, -1.5, 4.9])
    assert np.all(gamma_pde(np.array([7.0, 0.0, 123.0]), x, PDE_GP) == 0.0)


def test_gamma_pde_bounded_by_alpha_delta():
    rng = np.random.default_rng(8)
    x = np.linspace(-5, 5, 101)
    for _ in range(20):
        wss = rng.uniform(0, 60, size=x.size)
        g = gamma_pde(wss, x, PDE_GP)
        assert np.all(g <= PDE_GP.alpha * delta_weight(x) + 1e-30)


# --- macro_step_ode -----------------------------------------------------------

def test_macro_step_ode_values():
    assert macro_step_ode(ScalarState(0.0), 0.0, 1.0).c_s == 0.0
    s = macro_step_ode(ScalarState(0.1), 2.5e-7, 0.3 * DAY)
    assert s.c_s == pytest.approx(0.10648, rel=1e-12)
    s2 = macro_step_ode(ScalarState(0.0), 5e-7, DAY)
    assert s2.c_s == pytest.approx(0.0432, rel=1e-12)
    assert s2.t == DAY


def test_macro_step_ode_requires_positive_dt():
    for dt in (0.0, np.nan):
        with pytest.raises(ValueError, match="dt"):
            macro_step_ode(ScalarState(0.0), 1e-7, dt)


# --- grid and field state -------------------------------------------------------

def test_grid_geometry():
    g = SolidGrid(101, 11)
    assert g.hx == pytest.approx(0.1) and g.hy == pytest.approx(0.1)
    assert g.x[0] == -5.0 and g.x[-1] == 5.0
    assert g.y[0] == -2.0 and g.y[-1] == -1.0
    assert g.midpoint_index() == 50


@pytest.mark.parametrize("nx, ny", [(11, 2), (11, 1), (2, 5)])
def test_grid_too_small_rejected(nx, ny):
    with pytest.raises(ValueError, match="nx >= 3 and ny >= 3"):
        SolidGrid(nx, ny)


@pytest.mark.parametrize("nx, ny", [(2003, 11), (100001, 11), (101, 2002), (101, 100001)])
def test_grid_too_large_rejected(nx, ny):
    # rejected before the dense eigenbases are allocated (80 GB at nx = 100001)
    with pytest.raises(ConfigError, match=r"nx <= 2002 and ny <= 2001 \(dense eigenbases\)"):
        SolidGrid(nx, ny)
    growth.check_grid(2001, 2001)  # the largest valid grid with a midpoint node


def test_grid_midpoint_missing():
    g = SolidGrid(10, 3)  # even nx: no x=0 node
    with pytest.raises(GridAlignmentError):
        g.midpoint_index()
    with pytest.raises(GridAlignmentError):
        FieldState.zero(g).functional()


def test_field_state_validation():
    g = SolidGrid(11, 3)
    with pytest.raises(ValueError):
        FieldState(g, np.zeros((4, 11)))
    with pytest.raises(ValueError):
        FieldState(g, np.full((3, 11), np.nan))
    for c_s in (-0.1, np.nan):
        with pytest.raises(ValueError, match="c_s must be finite and non-negative"):
            ScalarState(c_s)


def test_stepped_state_equals_public_construction_and_checks_stay():
    # macro_step_pde builds its result without re-running the field
    # checks; the state must equal one built through FieldState(...),
    # and public construction and combine must still reject bad fields
    g = SolidGrid(11, 4)
    c0 = np.zeros((4, 11))
    c0[1:, 1:-1] = 0.3
    state = macro_step_pde(FieldState(g, c0), np.full(11, 1e-8), 0.2 * DAY, GrowthParams())
    public = FieldState(g, state.c.copy(), state.t)
    assert state.c.dtype == np.float64 and state.c.shape == (4, 11)
    assert np.array_equal(state.c, public.c) and state.t == public.t
    assert state.grid is public.grid
    with_nan = state.c.copy()
    with_nan[2, 5] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        FieldState(g, with_nan)
    huge = FieldState(g, np.full((4, 11), 1e308))
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="non-finite"):
        huge.combine(huge, FieldState.zero(g))  # 2e308 overflows to inf


# --- IMEX step -------------------------------------------------------------------

def test_zero_is_fixed_point_without_influx():
    g = SolidGrid(21, 5)
    state = FieldState.zero(g)
    new = macro_step_pde(state, np.zeros(g.nx), 0.2 * DAY, PDE_GP)
    assert np.all(new.c == 0.0)
    assert new.t == pytest.approx(0.2 * DAY)


def test_one_step_matches_dense_oracle():
    g = SolidGrid(21, 6)
    state = FieldState.zero(g)
    gb = gamma_pde(np.zeros(g.nx), g.x, PDE_GP)
    dt = 0.2 * DAY
    new = macro_step_pde(state, gb, dt, PDE_GP)
    ref = dense_imex_step(state, gb, dt, PDE_GP)
    assert np.abs(new.c - ref).max() <= 1e-10 * np.abs(ref).max()
    assert new.c[-1].max() > 0  # influx raised the interface row


def test_one_step_dense_oracle_nonzero_state():
    g = SolidGrid(16, 5)
    rng = np.random.default_rng(4)
    c0 = np.zeros((5, 16))
    c0[1:, 1:-1] = rng.uniform(0.0, 0.5, size=(4, 14))
    state = FieldState(g, c0)
    gb = rng.uniform(0, 1e-7, size=g.nx)
    f = rng.standard_normal((5, 16)) * 1e-9
    p = GrowthParams(alpha=5e-8, D_s=2e-3, R_s=1e-4, theta=0.7)
    dt = 500.0
    new = macro_step_pde(state, gb, dt, p, forcing=f)
    ref = dense_imex_step(state, gb, dt, p, forcing=f)
    assert np.abs(new.c - ref).max() <= 1e-10 * np.abs(ref).max()


@pytest.mark.parametrize("nx, ny", [(5, 3), (21, 3), (7, 12), (16, 5), (101, 11)])
@pytest.mark.parametrize("sign", [1, -1])
def test_forced_fast_step_matches_dense_reference(nx, ny, sign):
    # a forced step on grids from the smallest (5 x 3) to the preset's, with
    # either reaction sign
    g = SolidGrid(nx, ny)
    rng = np.random.default_rng(nx * ny)
    c0 = np.zeros((ny, nx))
    c0[1:, 1:-1] = rng.uniform(0.0, 0.5, size=(ny - 1, nx - 2))
    state = FieldState(g, c0)
    gb = rng.uniform(0, 1e-7, size=nx)
    f = rng.standard_normal((ny, nx)) * 1e-9
    p = GrowthParams(alpha=5e-8, D_s=2e-3, R_s=1e-4, theta=0.7, reaction_sign=sign)
    dt = 500.0
    new = macro_step_pde(state, gb, dt, p, forcing=f)
    ref = dense_imex_step(state, gb, dt, p, forcing=f)
    assert np.abs(new.c - ref).max() <= 1e-12 * np.abs(ref).max()


def test_step_assembles_once_through_module_global(monkeypatch):
    # the span tracer times growth.imex_system apart from the solve, so
    # each macro_step_pde must make exactly one call through that name
    calls = []
    original = growth.imex_system

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(growth, "imex_system", counting)
    g = SolidGrid(16, 5)
    rng = np.random.default_rng(6)
    c0 = np.zeros((5, 16))
    c0[1:, 1:-1] = rng.uniform(0.0, 0.5, size=(4, 14))
    state = FieldState(g, c0)
    gb = rng.uniform(0, 1e-7, size=g.nx)
    p = GrowthParams(alpha=5e-8, D_s=2e-3, R_s=1e-4, theta=0.7)
    new = macro_step_pde(state, gb, 500.0, p)
    assert len(calls) == 1
    ref = dense_imex_step(state, gb, 500.0, p)
    assert np.abs(new.c - ref).max() <= 1e-12 * np.abs(ref).max()


def test_singular_step_raises_runtime_error():
    # D_s vanishes against 1/dt and the reaction cancels 1/dt on the diagonal:
    # a 3x3 tridiagonal matrix with zero diagonal, exactly singular
    g = SolidGrid(3, 4)
    p = GrowthParams(alpha=0.0, D_s=1e-300, R_s=1.0, theta=1.0)
    with pytest.raises(RuntimeError, match="IMEX linear solve"):
        macro_step_pde(FieldState.zero(g), np.zeros(g.nx), 1.0, p)


# --- fast-diagonalization solve ---------------------------------------------------

def random_field_state(nx, ny, seed, high=0.5):
    g = SolidGrid(nx, ny)
    rng = np.random.default_rng(seed)
    c0 = np.zeros((ny, nx))
    c0[1:, 1:-1] = rng.uniform(0.0, high, size=(ny - 1, nx - 2))
    return FieldState(g, c0), rng.uniform(0, 1e-7, size=nx)


def contraction_bound(state, dt, p):
    """The a-priori contraction rate of the Richardson sweeps of one IMEX step."""
    g = state.grid
    lo, hi = state.c[1:, 1:-1].min(), state.c[1:, 1:-1].max()
    shift = 1.0 / dt + p.reaction_sign * p.R_s * (0.5 * (lo + hi) - p.theta)
    return 0.5 * p.R_s * (hi - lo) / (shift + p.D_s * (g.x_eigenvalues[0] + g.y_eigenvalues[0]))


def test_grid_eigenbases_diagonalize_the_laplacians():
    g = SolidGrid(9, 5)
    nxi, nyi = g.nx - 2, g.ny - 1
    lx = (2.0 * np.eye(nxi) - np.eye(nxi, k=1) - np.eye(nxi, k=-1)) / g.hx**2
    ly = (2.0 * np.eye(nyi) - np.eye(nyi, k=1) - np.eye(nyi, k=-1)) / g.hy**2
    ly[-1, -2] = -2.0 / g.hy**2  # ghost-eliminated interface row
    sx = g.sine_basis
    assert np.allclose(sx @ sx, np.eye(nxi), atol=1e-14)
    assert np.allclose(sx @ np.diag(g.x_eigenvalues) @ sx, lx, rtol=0, atol=1e-12 * lx.max())
    assert np.allclose(g.y_basis @ g.y_basis_inv, np.eye(nyi), atol=1e-14)
    assert np.allclose(g.y_basis @ np.diag(g.y_eigenvalues) @ g.y_basis_inv, ly,
                       rtol=0, atol=1e-12 * ly.max())
    assert np.all(np.diff(g.x_eigenvalues) > 0) and np.all(np.diff(g.y_eigenvalues) > 0)
    for name in ("sine_basis", "x_eigenvalues", "y_basis", "y_basis_inv", "y_eigenvalues"):
        assert not getattr(g, name).flags.writeable


@pytest.mark.parametrize("nx, ny", [(5, 3), (16, 5), (101, 11)])
@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("dt_days", [0.2, 6.0, 20.0])
def test_fast_step_matches_dense_oracle(nx, ny, sign, dt_days):
    state, gb = random_field_state(nx, ny, seed=nx * ny)
    p = GrowthParams(alpha=5e-8, reaction_sign=sign)
    new = macro_step_pde(state, gb, dt_days * DAY, p)
    ref = dense_imex_step(state, gb, dt_days * DAY, p)
    assert np.abs(new.c - ref).max() <= 1e-12 * np.abs(ref).max()


@pytest.mark.parametrize("dt_days, rho", [pytest.param(60, 0.621, id="60-days"),
                                           pytest.param(100, 0.772, id="100-days"),
                                           pytest.param(200, 0.943, id="200-days")])
def test_long_step_matches_dense_oracle(dt_days, rho):
    # long steps on a field spanning [0, 1]: the wide reaction diagonal makes
    # the contraction bound weak: 78, 142 and 629 sweeps
    state, gb = random_field_state(16, 5, seed=9, high=1.0)
    p = GrowthParams(alpha=5e-8)
    assert contraction_bound(state, dt_days * DAY, p) == pytest.approx(rho, abs=1e-3)
    new = macro_step_pde(state, gb, dt_days * DAY, p)
    ref = dense_imex_step(state, gb, dt_days * DAY, p)
    assert np.abs(new.c - ref).max() <= 1e-12 * np.abs(ref).max()


def test_long_step_solves_without_scipy():
    # the 60-day step of the test above, in an interpreter where importing
    # scipy fails
    tests = Path(__file__).resolve().parent
    src = Path(growth.__file__).resolve().parents[1]
    code = textwrap.dedent("""
        import sys
        sys.modules["scipy"] = None
        import numpy as np
        from _oracles import dense_imex_step
        from test_growth import random_field_state
        from plaquepar.growth import GrowthParams, macro_step_pde
        state, gb = random_field_state(16, 5, seed=9, high=1.0)
        p = GrowthParams(alpha=5e-8)
        new = macro_step_pde(state, gb, 60 * 86400.0, p)
        ref = dense_imex_step(state, gb, 60 * 86400.0, p)
        assert np.abs(new.c - ref).max() <= 1e-12 * np.abs(ref).max()
    """)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(src), str(tests), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("dt_days, R_s, lo, hi", [
    pytest.param(300, 5e-7, 0.99, 1.1, id="bound-above-limit"),
    # a 20 times faster reaction: lambda_min(M0) < 0, so the bound is negative
    pytest.param(60, 1e-5, -np.inf, 0.0, id="indefinite-m0")])
def test_step_beyond_contraction_limit_raises(dt_days, R_s, lo, hi):
    state, gb = random_field_state(16, 5, seed=9, high=1.0)
    p = GrowthParams(alpha=5e-8, R_s=R_s)
    assert lo < contraction_bound(state, dt_days * DAY, p) < hi
    with pytest.raises(ImexStepError, match=f"IMEX linear solve: the {dt_days}-day step"):
        macro_step_pde(state, gb, dt_days * DAY, p)


def test_fast_step_projects_round_off_onto_nonnegative():
    # with influx only on |x| < 1 the exact solution decays to zero towards
    # x = +-5, where the transforms leave round-off of either sign
    g = SolidGrid(101, 11)
    gb = gamma_pde(np.zeros(g.nx), g.x, PDE_GP)
    state = FieldState.zero(g)
    for _ in range(3):
        new = macro_step_pde(state, gb, 0.2 * DAY, PDE_GP)
        ref = dense_imex_step(state, gb, 0.2 * DAY, PDE_GP)
        assert new.c.min() >= 0.0
        assert np.abs(new.c - ref).max() <= 1e-12 * np.abs(ref).max()
        state = new


def test_negative_forced_solution_is_not_clipped():
    # the system is an M-matrix here, but a negative source makes the exact
    # solution negative; only a non-negative right-hand side allows clipping
    state, gb = random_field_state(16, 5, seed=12)
    p = GrowthParams(alpha=5e-8)
    dt = 0.2 * DAY
    f = np.zeros((5, 16))
    f[2, 3:7] = -1e-4
    new = macro_step_pde(state, gb, dt, p, forcing=f)
    ref = dense_imex_step(state, gb, dt, p, forcing=f)
    assert ref.min() < 0.0 and new.c.min() < 0.0
    assert np.abs(new.c - ref).max() <= 1e-12 * np.abs(ref).max()


def test_theta_one_reduces_to_backward_euler_linearization():
    # for theta=1 the reaction enters the matrix only as -s R (1 - c_old) on
    # its diagonal, and the right-hand side only through c_old / dt
    g = SolidGrid(9, 4)
    rng = np.random.default_rng(2)
    c0 = np.zeros((4, 9))
    c0[1:, 1:-1] = rng.uniform(0, 0.8, size=(3, 7))
    p1 = GrowthParams(alpha=1e-7, D_s=1e-3, R_s=0.3, theta=1.0, reaction_sign=1)
    state = FieldState(g, c0)
    dt = 2.0
    assert np.array_equal(imex_system(state, np.zeros(g.nx), dt, p1), c0[1:, 1:-1] / dt)
    new = macro_step_pde(state, np.zeros(g.nx), dt, p1)
    dense = dense_imex_step(state, np.zeros(g.nx), dt, p1)
    assert np.abs(new.c - dense).max() <= 1e-12 * np.abs(dense).max()


def test_reaction_sign_flips_reaction_term():
    g = SolidGrid(9, 4)
    c0 = np.zeros((4, 9))
    c0[2, 4] = 0.3
    state = FieldState(g, c0)
    p_plus = GrowthParams(alpha=1e-7, D_s=1e-9, R_s=1e-2, theta=0.7, reaction_sign=1)
    p_minus = GrowthParams(alpha=1e-7, D_s=1e-9, R_s=1e-2, theta=0.7, reaction_sign=-1)
    up = macro_step_pde(state, np.zeros(g.nx), 10.0, p_plus)
    down = macro_step_pde(state, np.zeros(g.nx), 10.0, p_minus)
    assert up.c[2, 4] > c0[2, 4] > down.c[2, 4]


def test_symmetry_preserved():
    g = SolidGrid(41, 6)
    state = FieldState.zero(g)
    gb = gamma_pde(np.full(g.nx, 12.0), g.x, PDE_GP)
    assert np.allclose(gb, gb[::-1])
    for _ in range(20):
        state = macro_step_pde(state, gb, 0.2 * DAY, PDE_GP)
    assert np.abs(state.c - state.c[:, ::-1]).max() < 1e-13


def test_nonnegativity_at_default_step():
    # empirical check of the documented threshold dt << 1/(R_s theta)
    g = SolidGrid(41, 6)
    gb = gamma_pde(np.zeros(g.nx), g.x, PDE_GP)
    for dt_days in (0.2, 2.0, 20.0):
        state = FieldState.zero(g)
        for _ in range(25):
            state = macro_step_pde(state, gb, dt_days * DAY, PDE_GP)
        assert state.c.min() >= 0.0, f"negative concentration at dt={dt_days} days"


def test_gamma_bar_length_checked():
    g = SolidGrid(11, 3)
    with pytest.raises(ValueError):
        macro_step_pde(FieldState.zero(g), np.zeros(5), 1.0, PDE_GP)
    for dt in (0.0, np.nan):
        with pytest.raises(ValueError, match="dt"):
            imex_system(FieldState.zero(g), np.zeros(g.nx), dt, PDE_GP)
    with pytest.raises(ValueError, match="forcing must be a full"):
        imex_system(FieldState.zero(g), np.zeros(g.nx), 1.0, PDE_GP, forcing=np.zeros((2, 11)))
    # NaN, not inf: an infinite gamma_bar trips a numpy RuntimeWarning first
    with pytest.raises(ImexStepError, match="non-finite"):
        macro_step_pde(FieldState.zero(g), np.full(g.nx, np.nan), 1.0, PDE_GP)


# --- functionals and exports -------------------------------------------------------

def test_interface_midpoint_and_mean():
    g = SolidGrid(21, 4)
    c = np.zeros((4, 21))
    c[-1, :] = np.linspace(0, 1, 21)
    st = FieldState(g, c)
    assert interface_midpoint(st) == pytest.approx(0.5)
    assert interface_mean(st) == pytest.approx(0.5)
    assert interface_midpoint(FieldState.zero(g)) == 0.0


def test_midpoint_after_one_step_matches_dense_oracle():
    g = SolidGrid(21, 6)
    gb = gamma_pde(np.zeros(g.nx), g.x, PDE_GP)
    st = macro_step_pde(FieldState.zero(g), gb, 0.2 * DAY, PDE_GP)
    ref = dense_imex_step(FieldState.zero(g), gb, 0.2 * DAY, PDE_GP)
    assert interface_midpoint(st) == pytest.approx(ref[-1, g.midpoint_index()], rel=1e-12)


def test_csv_exports(tmp_path):
    g = SolidGrid(11, 3)
    c = np.zeros((3, 11))
    c[-1, 5] = 0.25
    st = FieldState(g, c)
    fpath = tmp_path / "field.csv"
    ipath = tmp_path / "interface.csv"
    field_to_csv(st, fpath)
    interface_to_csv(st, ipath)
    rows = fpath.read_text().strip().splitlines()
    assert rows[0] == "x,y,c"
    assert len(rows) == 1 + 3 * 11
    irows = ipath.read_text().strip().splitlines()
    assert irows[0] == "x,c"
    x, c_val = irows[6].split(",")
    assert float(x) == 0.0 and float(c_val) == 0.25


def test_growth_params_validation():
    with pytest.raises(ValueError):
        GrowthParams(sigma0=-30.0)
    with pytest.raises(ValueError):
        GrowthParams(theta=1.5)
    with pytest.raises(ValueError):
        GrowthParams(reaction_sign=0)
    with pytest.raises(ValueError):
        GrowthParams(alpha=np.nan)
    GrowthParams(alpha=0.0)  # degenerate no-growth case is allowed
