"""Macro-scale growth models for the foam-cell concentration.

Two variants are provided:

* a scalar ODE model, d c_s/dt = gamma(wss, c_s), advanced with forward
  Euler, and
* a 2-D reaction-diffusion model on the lower solid strip
  [-5,5] x [-2,-1], discretized with second-order finite differences and
  a linearized implicit-explicit (IMEX) backward Euler step.

The reaction-diffusion problem solved per step is

    dc/dt = D_s Lap(c) + s * R_s c (1 - c),      s = reaction_sign,

with homogeneous Dirichlet conditions on x = +-5 and y = -2 and the
prescribed diffusive influx D_s dc/dn = gamma_bar(x) on the interface
row y = -1.  The Neumann condition is realized by ghost-node
elimination: with outward normal +y and ghost value
c_ghost = c_below + 2 h_y gamma_bar / D_s, the top-row Laplacian becomes
2 (c_below - c_top) / h_y^2 and the influx enters the right-hand side as
2 gamma_bar / h_y.
"""

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .errors import GridAlignmentError

__all__ = [
    "GrowthParams",
    "SolidGrid",
    "ScalarState",
    "FieldState",
    "gamma_ode",
    "delta_weight",
    "gamma_pde",
    "macro_step_ode",
    "macro_step_pde",
    "imex_system",
    "interface_midpoint",
    "interface_mean",
    "field_to_csv",
    "interface_to_csv",
]


@dataclass(frozen=True)
class GrowthParams:
    """Parameters of the growth models.

    alpha is the scale-separation rate (1/s for the ODE model, cm/s for
    the PDE model where it prescribes a flux density); sigma0 the
    reference wall shear stress in g/(cm s^2).  D_s, R_s, theta and
    reaction_sign only matter for the reaction-diffusion model.
    reaction_sign=+1 gives dc/dt = D Lap(c) + R c(1-c) (concentration
    grows once the reaction dominates); -1 gives the literal strong form
    with -R c(1-c).
    """

    alpha: float = 5.0e-7
    sigma0: float = 30.0
    D_s: float = 1.2e-7
    R_s: float = 5.0e-7
    theta: float = 0.7
    reaction_sign: int = 1

    def __post_init__(self):
        if not 0 <= self.alpha < math.inf:
            # alpha = 0 is allowed as the degenerate no-growth configuration
            raise ValueError(f"alpha must be non-negative and finite, got {self.alpha}")
        for name in ("sigma0", "D_s", "R_s"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite, "
                                 f"got {getattr(self, name)}")
        if not 0.0 <= self.theta <= 1.0:
            raise ValueError(f"theta must lie in [0, 1], got {self.theta}")
        if self.reaction_sign not in (1, -1):
            raise ValueError(f"reaction_sign must be +1 or -1, got {self.reaction_sign}")


class SolidGrid:
    """Uniform finite-difference grid on the solid strip [-5,5] x [-2,-1].

    Row j=0 is the outer Dirichlet boundary y=-2, row j=ny-1 the fluid
    interface y=-1.  Columns i=0 and i=nx-1 (x=+-5) are Dirichlet.
    """

    def __init__(self, nx: int = 101, ny: int = 11):
        # ny >= 3 keeps an interior row between the Dirichlet row and the
        # interface, which the ghost elimination couples to
        if nx < 3 or ny < 3:
            raise ValueError(f"grid needs nx >= 3 and ny >= 3, got {nx} x {ny}")
        self.nx = nx
        self.ny = ny
        self.x = np.linspace(-5.0, 5.0, nx)
        self.y = np.linspace(-2.0, -1.0, ny)
        self.hx = 10.0 / (nx - 1)
        self.hy = 1.0 / (ny - 1)
        # delta_weight(x) on the interface nodes, read by every growth evaluation
        self.weight = delta_weight(self.x)
        self.weight.flags.writeable = False

    def midpoint_index(self) -> int:
        i = int(np.argmin(np.abs(self.x)))
        if abs(self.x[i]) > 1e-12:
            raise GridAlignmentError(
                f"grid has no node at x=0 (closest: {self.x[i]:g}); use odd nx"
            )
        return i


@dataclass(frozen=True)
class ScalarState:
    """Macro state of the ODE growth model: concentration c_s at time t (s).

    The two state classes are the one place that knows which growth
    model runs: each carries its ``model`` name and the operations the
    micro solver, the two-scale driver and the parareal engine apply to
    it.  ``step`` calls ``macro_step_ode``/``macro_step_pde`` through the
    module globals, so a wrapper set on those module attributes (as the
    span tracer in ``perfbench`` does) sees every growth-model solve.
    Growth values of this model are Python floats.
    """

    model: ClassVar[str] = "ode"

    c_s: float
    t: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.c_s < math.inf:
            raise ValueError(f"c_s must be finite and non-negative, got {self.c_s}")

    def step(self, gamma_bar: float, dt: float, p: GrowthParams) -> "ScalarState":
        """One growth-model update (forward Euler) with growth value gamma_bar."""
        return macro_step_ode(self, gamma_bar, dt)

    def functional(self) -> float:
        """Scalar observable: the concentration c_s."""
        return self.c_s

    def half_width(self) -> float:
        """Channel half-width law of the surrogate, h = 1 - c_s (uniform)."""
        return 1.0 - self.c_s

    def average_growth(self, wss: np.ndarray, p: GrowthParams) -> float:
        """Growth rate averaged over the leading (sample) axis of the array wss."""
        if wss.min() < 0:  # c_s >= 0 holds since construction
            raise ValueError("wall shear stress norm must be non-negative")
        gamma = _gamma_ode(wss, self.c_s, p)
        # the sum and division of np.mean, without its per-call dispatch
        return float(gamma.sum(axis=0) / gamma.shape[0])

    def growth_change(self, new: float, old: float) -> float:
        """Distance |new - old| of two growth values of this model."""
        return abs(new - old)

    def combine(self, fine: "ScalarState", prev: "ScalarState") -> "ScalarState":
        """Predictor-corrector update self + fine - prev, at this state's time."""
        return ScalarState(self.c_s + fine.c_s - prev.c_s, self.t)


@dataclass(frozen=True)
class FieldState:
    """Macro state of the PDE growth model: nodal field c on a SolidGrid.

    Offers the same operations as ``ScalarState``; its growth values are
    arrays with one value per interface node.
    """

    model: ClassVar[str] = "pde"

    grid: SolidGrid
    c: np.ndarray
    t: float = 0.0

    def __post_init__(self):
        c = np.asarray(self.c, dtype=float)
        if c.shape != (self.grid.ny, self.grid.nx):
            raise ValueError(
                f"field shape {c.shape} does not match grid {self.grid.ny} x {self.grid.nx}"
            )
        if not np.all(np.isfinite(c)):
            raise ValueError("field contains non-finite values")
        object.__setattr__(self, "c", c)

    @classmethod
    def zero(cls, grid: SolidGrid, t: float = 0.0) -> "FieldState":
        return cls(grid, np.zeros((grid.ny, grid.nx)), t)

    @classmethod
    def _from_checked(cls, grid: SolidGrid, c: np.ndarray, t: float) -> "FieldState":
        """State from a finite float (ny, nx) field; skips the checks of __init__."""
        state = object.__new__(cls)
        for name, value in (("grid", grid), ("c", c), ("t", t)):
            object.__setattr__(state, name, value)
        return state

    @property
    def interface(self) -> np.ndarray:
        """Concentration on the interface row y = -1."""
        return self.c[-1, :]

    def step(self, gamma_bar: np.ndarray, dt: float, p: GrowthParams) -> "FieldState":
        """One IMEX step of the reaction-diffusion model with influx gamma_bar."""
        return macro_step_pde(self, gamma_bar, dt, p)

    def functional(self) -> float:
        """Scalar observable: the concentration at the interface midpoint."""
        return interface_midpoint(self)

    def half_width(self) -> np.ndarray:
        """Channel half-width law h(x) = 1 - c(x), one value per interface node."""
        return 1.0 - self.interface

    def average_growth(self, wss: np.ndarray, p: GrowthParams) -> np.ndarray:
        """Interface growth flux averaged over the leading (sample) axis of the array wss."""
        if wss.min() < 0:
            raise ValueError("wall shear stress must be non-negative")
        return _gamma_pde(wss, self.grid.weight, p).mean(axis=0)

    def growth_change(self, new: np.ndarray, old: np.ndarray) -> float:
        """Largest nodewise distance |new - old| of two growth values of this model."""
        return float(np.max(np.abs(new - old)))

    def combine(self, fine: "FieldState", prev: "FieldState") -> "FieldState":
        """Predictor-corrector update self + fine - prev, at this state's time."""
        return FieldState(self.grid, self.c + fine.c - prev.c, self.t)


def gamma_ode(wss_l2, c_s, p: GrowthParams):
    """Growth rate alpha / ((1 + c_s)(1 + ||wss||^2 / sigma0^2)) in 1/s.

    Strictly positive, bounded by alpha, and decreasing in both the wall
    shear stress and the concentration.  Vectorizes over wss_l2.
    """
    wss_l2 = np.asarray(wss_l2, dtype=float)
    if np.any(wss_l2 < 0):
        raise ValueError("wall shear stress norm must be non-negative")
    if np.any(np.asarray(c_s) < 0):
        raise ValueError("concentration must be non-negative")
    return _gamma_ode(wss_l2, c_s, p)


def _gamma_ode(wss_l2, c_s, p: GrowthParams):
    """gamma_ode without its argument checks."""
    return p.alpha / ((1.0 + c_s) * (1.0 + wss_l2**2 / p.sigma0**2))


def delta_weight(x):
    """Damage weight delta(x) = min{0, (x-1)(x+1)}^2: (x^2-1)^2 inside (-1,1), else 0."""
    x = np.asarray(x, dtype=float)
    return np.minimum(0.0, (x - 1.0) * (x + 1.0)) ** 2


def gamma_pde(wss, x, p: GrowthParams):
    """Pointwise interface growth flux alpha * delta(x) / (1 + wss^2 / sigma0^2).

    wss may be an array of shape (..., len(x)); the result broadcasts
    accordingly.  Units: cm/s (a diffusive flux density D_s dc/dn).
    """
    wss = np.asarray(wss, dtype=float)
    if np.any(wss < 0):
        raise ValueError("wall shear stress must be non-negative")
    return _gamma_pde(wss, delta_weight(x), p)


def _gamma_pde(wss, weight, p: GrowthParams):
    """gamma_pde without its argument check, given weight = delta_weight(x)."""
    return p.alpha * weight / (1.0 + wss**2 / p.sigma0**2)


def macro_step_ode(state: ScalarState, gamma_bar: float, dt: float) -> ScalarState:
    """One forward-Euler macro step c^n = c^{n-1} + dt * gamma_bar."""
    if not dt > 0:
        raise ValueError(f"dt must be positive, got {dt}")
    return ScalarState(state.c_s + dt * gamma_bar, state.t + dt)


def imex_system(state: FieldState, gamma_bar: np.ndarray, dt: float, p: GrowthParams,
                forcing: np.ndarray | None = None):
    """Assemble the banded linear system of one IMEX step on the unknown nodes.

    The step solves A c_new = b with

        A = (1/dt) I - D_s L - s R_s theta diag(1 - c_old)
            + s R_s (1 - theta) diag(c_old),
        b = (1/dt) c_old + s R_s (1 - theta) c_old
            + (2/h_y) gamma_bar  (interface row)  [+ forcing].

    L is the ghost-eliminated Laplacian of the grid.  ``forcing`` is an
    optional volume source on the full (ny, nx) grid, used by
    manufactured-solution tests.  The unknowns are the nodes j=1..ny-1,
    i=1..nx-2, numbered x-outer and y-inner (node (i, j) is unknown
    (i-1)(ny-1) + j-1), so A is banded with half-bandwidth ny-1 (instead
    of nx-2 in row-major order).

    Returns (ab, b): ab is A in LAPACK band storage of shape
    (2(ny-1)+1, (nx-2)(ny-1)), with ab[ny-1 + r - q, q] = A[r, q], and b
    is the right-hand side in the same numbering.  ``macro_step_pde``
    calls this function through the module global, so a wrapper set on
    ``growth.imex_system`` (as the span tracer in ``perfbench`` does)
    times every assembly apart from its solve.
    """
    grid = state.grid
    if not dt > 0:
        raise ValueError(f"dt must be positive, got {dt}")
    gamma_bar = np.asarray(gamma_bar, dtype=float)
    if gamma_bar.shape != (grid.nx,):
        raise ValueError(
            f"gamma_bar must have one value per interface node ({grid.nx}), got {gamma_bar.shape}"
        )
    c_old = state.c[1:, 1:-1]
    b = c_old / dt + float(p.reaction_sign) * p.R_s * (1.0 - p.theta) * c_old
    # influx on the interface row, interior columns only
    b[-1] += 2.0 * gamma_bar[1:-1] / grid.hy
    if forcing is not None:
        forcing = np.asarray(forcing, dtype=float)
        if forcing.shape != (grid.ny, grid.nx):
            raise ValueError(f"forcing must be a full ({grid.ny}, {grid.nx}) field")
        b += forcing[1:, 1:-1]
    nxi, nyi = grid.nx - 2, grid.ny - 1
    ax = 1.0 / grid.hx**2
    ay = 1.0 / grid.hy**2
    c_old = c_old.T
    s = float(p.reaction_sign)
    react = -s * p.R_s * p.theta * (1.0 - c_old) + s * p.R_s * (1.0 - p.theta) * c_old
    # ab[nyi + r - q, q] = A[r, q]; in (nxi, nyi) view each diagonal is
    # indexed by the column q's node (i-1, j-1)
    ab = np.zeros((2 * nyi + 1, nxi, nyi))
    ab[nyi] = (1.0 / dt - p.D_s * (-2.0 * ax - 2.0 * ay)) + react
    ab[0, 1:] = -p.D_s * ax                # left neighbour couples to its right
    ab[2 * nyi, :-1] = -p.D_s * ax         # right neighbour couples to its left
    ab[nyi - 1, :, 1:] = -p.D_s * ay       # node below couples to its upper
    ab[nyi + 1, :, :-1] = -p.D_s * ay      # node above couples to its lower
    ab[nyi + 1, :, -2] = -p.D_s * (2.0 * ay)  # ghost-eliminated interface row
    return ab.reshape(2 * nyi + 1, -1), b.T.ravel()


def macro_step_pde(state: FieldState, gamma_bar: np.ndarray, dt: float, p: GrowthParams,
                   forcing: np.ndarray | None = None) -> FieldState:
    """One IMEX step of the reaction-diffusion model; returns the new state.

    Assembles the system with ``imex_system``, called as the module
    global so that the span tracer sees every assembly, and solves it by
    banded LU with partial pivoting, which is deterministic and accurate
    to machine precision (well below the 1e-10 relative residual the
    model requires).  Returns the FieldState at t + dt with zero
    Dirichlet boundary values.  With reaction_sign=+1 and non-negative
    influx the field stays non-negative as long as the system matrix
    keeps its M-matrix structure, i.e. for dt below roughly
    1/(R_s theta) (about 33 days at the default parameters).
    """
    from scipy.linalg import solve_banded

    ab, b = imex_system(state, gamma_bar, dt, p, forcing)
    grid = state.grid
    nxi, nyi = grid.nx - 2, grid.ny - 1
    try:
        u = solve_banded((nyi, nyi), ab, b,
                         overwrite_ab=True, overwrite_b=True, check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise RuntimeError(f"IMEX linear solve failed: {exc}") from exc
    if not np.all(np.isfinite(u)):
        raise RuntimeError("IMEX linear solve produced non-finite values")
    c = np.zeros((grid.ny, grid.nx))
    c[1:, 1:-1] = u.reshape(nxi, nyi).T
    return FieldState._from_checked(grid, c, state.t + dt)


def interface_midpoint(state: FieldState) -> float:
    """Concentration at the center of the interface (node x=0, y=-1)."""
    return float(state.interface[state.grid.midpoint_index()])


def interface_mean(state: FieldState) -> float:
    """Trapezoidal average of the concentration along the interface."""
    grid = state.grid
    return float(np.trapezoid(state.interface, grid.x) / (grid.x[-1] - grid.x[0]))


def _r(value) -> str:
    """Shortest round-trip decimal representation of a scalar."""
    return repr(float(value))


def field_to_csv(state: FieldState, path):
    """Write the field as CSV rows (x, y, c), row-major from the bottom."""
    grid = state.grid
    with open(path, "w", encoding="utf-8") as f:
        f.write("x,y,c\n")
        for j in range(grid.ny):
            for i in range(grid.nx):
                f.write(f"{_r(grid.x[i])},{_r(grid.y[j])},{_r(state.c[j, i])}\n")


def interface_to_csv(state: FieldState, path):
    """Write the interface concentration profile as CSV rows (x, c)."""
    grid = state.grid
    with open(path, "w", encoding="utf-8") as f:
        f.write("x,c\n")
        for i in range(grid.nx):
            f.write(f"{_r(grid.x[i])},{_r(state.interface[i])}\n")
