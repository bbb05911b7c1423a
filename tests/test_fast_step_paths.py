"""The PDE growth step's BLAS-direct products and grid-cached constants.

``growth._fast_imex_solve`` multiplies with ``np.dot`` and reads the
eigenvalue sums from the grid; ``growth.interface_mean`` applies the
trapezoid rule with the grid's cached spacings.  Both must give the same
bits as the plain forms they replace: the solve written with ``@`` and
eigenvalue sums built per call (kept below as the reference), and
``np.trapezoid``.  The end-to-end test runs ``pde_paper`` cut to a few
days once as is and once with both references patched in, and compares
the outputs byte for byte.  No digest is pinned, because the PDE's last
bits go through BLAS (see ``tests/test_pinned_outputs.py``).
"""

import json
import math

import numpy as np
import pytest

from plaquepar import growth
from plaquepar.cli import main
from plaquepar.growth import FieldState, GrowthParams, SolidGrid, macro_step_pde
from plaquepar.scenario import preset
from plaquepar.twoscale import DAY


def _reference_solve(grid, c_old, b, dt, p):
    """The fast IMEX solve with ``@`` products and per-call eigenvalue sums."""
    lo = float(np.minimum.reduce(c_old, axis=None))
    hi = float(np.maximum.reduce(c_old, axis=None))
    c_mid = 0.5 * (lo + hi)
    s = float(p.reaction_sign)
    shift = 1.0 / dt + s * p.R_s * (c_mid - p.theta)
    e_max = 0.5 * p.R_s * (hi - lo)
    lam_min = shift + p.D_s * (grid.y_eigenvalues[0] + grid.x_eigenvalues[0])
    rho = e_max / lam_min if lam_min > 1e-8 / dt else math.inf
    assert rho <= growth._MAX_CONTRACTION
    sweeps = 1 if rho <= 2.0**-53 else math.ceil(-53.0 * math.log(2.0) / math.log(rho))
    inv = 1.0 / (shift + p.D_s * (grid.y_eigenvalues[:, None] + grid.x_eigenvalues))
    sx, v, v_inv = grid.sine_basis, grid.y_basis, grid.y_basis_inv
    e = s * p.R_s * (c_old - c_mid)
    u = v @ ((v_inv @ b @ sx) * inv) @ sx
    for _ in range(sweeps - 1):
        u = v @ ((v_inv @ (b - e * u) @ sx) * inv) @ sx
    if shift - e_max >= 0.0 and np.minimum.reduce(b, axis=None) >= 0.0:
        np.maximum(u, 0.0, out=u)
    return u


def _reference_mean(state):
    x = state.grid.x
    return float(np.trapezoid(state.c[-1], x) / (x[-1] - x[0]))


GRID = SolidGrid(101, 11)


@pytest.mark.parametrize("dt_days", [0.2, 6.0, 20.0])
@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("forced", [False, True])
def test_step_is_bit_identical_to_reference_solve(dt_days, sign, forced):
    rng = np.random.default_rng(int(dt_days * 10) + 7 * (sign + 1) + forced)
    p = GrowthParams(alpha=5e-8, reaction_sign=sign)
    for _ in range(5):
        c0 = np.zeros((GRID.ny, GRID.nx))
        c0[1:, 1:-1] = rng.uniform(0.0, 0.5, size=(GRID.ny - 1, GRID.nx - 2))
        state = FieldState(GRID, c0)
        gb = rng.uniform(0.0, 5e-8, size=GRID.nx)
        f = rng.standard_normal((GRID.ny, GRID.nx)) * 1e-9 if forced else None
        dt = dt_days * DAY
        expected = np.zeros_like(c0)
        expected[1:, 1:-1] = _reference_solve(GRID, c0[1:, 1:-1],
                                              growth.imex_system(state, gb, dt, p, f), dt, p)
        assert np.array_equal(macro_step_pde(state, gb, dt, p, forcing=f).c, expected)


@pytest.mark.parametrize("nx, ny", [(3, 3), (21, 4), (101, 11)])
def test_interface_mean_is_bit_identical_to_trapezoid(nx, ny):
    grid = SolidGrid(nx, ny)
    rng = np.random.default_rng(nx * ny)
    for scale in (1e-12, 1.0, 1e6):
        state = FieldState(grid, rng.uniform(0.0, scale, size=(ny, nx)))
        assert growth.interface_mean(state) == _reference_mean(state)


def test_grid_caches_are_read_only():
    grid = SolidGrid(21, 4)
    assert np.array_equal(grid.eigenvalue_sum,
                          grid.y_eigenvalues[:, None] + grid.x_eigenvalues)
    assert grid.eigenvalue_sum_min == grid.eigenvalue_sum.min()
    assert type(grid.eigenvalue_sum_min) is float
    assert np.array_equal(grid.dx, np.diff(grid.x))
    for cache in (grid.eigenvalue_sum, grid.dx):
        assert not cache.flags.writeable
        with pytest.raises(ValueError):
            cache[0] = 1.0


def _outputs(tmp_path, name, mode):
    scenario = tmp_path / "scenario.json"
    preset("pde_paper", T_end_days=6.0).to_json(scenario)
    out = tmp_path / name
    assert main(["run", "--scenario", str(scenario), "--mode", mode, "--P", "3",
                 "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    del report["wall_clock"]
    return (json.dumps(report, sort_keys=True), (out / "trajectory.csv").read_bytes(),
            (out / "table.txt").read_bytes())


@pytest.mark.parametrize("mode", ["parareal", "reusage"])
def test_pde_outputs_equal_reference_paths(tmp_path, capsys, monkeypatch, mode):
    fast = _outputs(tmp_path, "fast", mode)
    monkeypatch.setattr(growth, "_fast_imex_solve", _reference_solve)
    monkeypatch.setattr(growth, "interface_mean", _reference_mean)
    assert _outputs(tmp_path, "reference", mode) == fast
