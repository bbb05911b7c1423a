"""Macro-scale growth models for the foam-cell concentration.

Two variants are provided:

* a scalar ODE model, d c_s/dt = gamma(wss, c_s), advanced with forward
  Euler, and
* a 2-D reaction-diffusion model on the lower solid strip
  [-5,5] x [-2,-1], discretized with second-order finite differences and
  a linearized implicit-explicit (IMEX) backward Euler step, solved by
  fast diagonalization with numpy (see ``macro_step_pde``).

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

from .errors import (ConfigError, GridAlignmentError, ImexStepError, check_choice,
                     check_number, is_integer, is_real, shown)

__all__ = [
    "GrowthParams",
    "SolidGrid",
    "check_grid",
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
        # alpha = 0 is allowed as the degenerate no-growth configuration
        check_number("alpha", self.alpha, zero_ok=True)
        for name in ("sigma0", "D_s", "R_s"):
            check_number(name, getattr(self, name))
        sigma0 = float(self.sigma0)  # the growth laws divide by sigma0^2, in floats
        if not sigma0 * sigma0 < math.inf:
            raise ConfigError(f"sigma0 must have a finite square, got {shown(self.sigma0)}")
        if not (is_real(self.theta) and 0.0 <= self.theta <= 1.0):
            raise ConfigError(f"theta must lie in [0, 1], got {shown(self.theta)}")
        check_choice("reaction_sign", self.reaction_sign, (1, -1))


class SolidGrid:
    """Uniform finite-difference grid on the solid strip [-5,5] x [-2,-1].

    Row j=0 is the outer Dirichlet boundary y=-2, row j=ny-1 the fluid
    interface y=-1.  Columns i=0 and i=nx-1 (x=+-5) are Dirichlet.
    """

    def __init__(self, nx: int, ny: int):
        self.nx = nx
        self.ny = ny
        self.x = _interface_nodes(nx, ny)
        self.y = np.linspace(-2.0, -1.0, ny)
        self.hx = 10.0 / (nx - 1)
        self.hy = 1.0 / (ny - 1)
        # index of the node x = 0, read by every functional(); None for even nx
        try:
            self._midpoint = _midpoint_node(self.x)
        except GridAlignmentError:
            self._midpoint = None
        # delta_weight(x) on the interface nodes; growth vanishes where the
        # weight does, so every growth evaluation reads only its support
        self.weight = delta_weight(self.x)
        self.support = _support(self.weight)
        self.support_weight = self.weight[self.support]
        # eigenbases of the negated 1-D Laplacians on the unknown nodes, ascending, read by
        # every fast IMEX solve: -Lx = Sx diag(x_eigenvalues) Sx, Sx = sqrt(2/(nxi+1))
        # sin(i k pi/(nxi+1)) its own inverse, and -Ly = V diag(y_eigenvalues) V^-1 with
        # V = sin(j (2k-1) pi/(2n)), V^-1 = (2/n) V^T diag(1, ..., 1, 1/2) (_sine_eigenpairs)
        nxi, n = nx - 2, ny - 1
        self.x_eigenvalues, self.sine_basis = _sine_eigenpairs(
            np.arange(1, nxi + 1), nxi + 1, self.hx, math.sqrt(2.0 / (nxi + 1)))
        self.y_eigenvalues, self.y_basis = _sine_eigenpairs(np.arange(1, 2 * n, 2), 2 * n,
                                                            self.hy, 1.0)
        self.y_basis_inv = self.y_basis.T * (2.0 / n)
        self.y_basis_inv[:, -1] *= 0.5
        # eigenvalues of -(Lx (+) Ly) in the solve's layout; both factors
        # ascend, so the first sum is the smallest
        self.eigenvalue_sum = self.y_eigenvalues[:, None] + self.x_eigenvalues
        self.eigenvalue_sum_min = float(self.eigenvalue_sum[0, 0])
        self.dx = np.diff(self.x)  # spacings of interface_mean's trapezoid rule
        for name in ("x", "weight", "support_weight", "x_eigenvalues", "sine_basis",
                     "y_eigenvalues", "y_basis", "y_basis_inv", "eigenvalue_sum", "dx"):
            getattr(self, name).flags.writeable = False

    def midpoint_index(self) -> int:
        """Index of the interface node at x = 0; GridAlignmentError when there is none."""
        # without one, searching again raises the error that names the closest node
        return _midpoint_node(self.x) if self._midpoint is None else self._midpoint


# Most unknowns per direction, nx - 2 and ny - 1: SolidGrid keeps a dense
# eigenbasis of each direction, about 32 MB at this bound
_MAX_BASIS = 2000


def _interface_nodes(nx: int, ny: int) -> np.ndarray:
    """The x nodes of an nx x ny grid; ConfigError when the grid is too small or too large."""
    # ny >= 3 keeps an interior row between the Dirichlet row and the
    # interface, which the ghost elimination couples to
    if not (is_integer(nx) and is_integer(ny) and nx >= 3 and ny >= 3):
        raise ConfigError(f"grid needs integers nx >= 3 and ny >= 3, "
                          f"got {shown(nx)} x {shown(ny)}")
    if nx - 2 > _MAX_BASIS or ny - 1 > _MAX_BASIS:
        raise ConfigError(f"grid needs nx <= {_MAX_BASIS + 2} and ny <= {_MAX_BASIS + 1} "
                          f"(dense eigenbases), got {shown(nx)} x {shown(ny)}")
    return np.linspace(-5.0, 5.0, nx)


def _midpoint_node(x: np.ndarray) -> int:
    """Index of the node at x = 0 of the nodes x; GridAlignmentError when there is none."""
    i = int(np.argmin(np.abs(x)))
    if abs(x[i]) > 1e-12:
        raise GridAlignmentError(f"grid has no node at x=0 (closest: {x[i]:g}); use odd nx")
    return i


def _support(weight: np.ndarray) -> slice:
    """The contiguous run of non-zero weights around x = 0 (empty when no node lies in (-1, 1))."""
    nonzero = np.flatnonzero(weight)
    return slice(int(nonzero[0]), int(nonzero[-1]) + 1) if nonzero.size else slice(0, 0)


def check_grid(nx: int, ny: int) -> int:
    """Raise what ``SolidGrid(nx, ny).midpoint_index()`` raises, from the x nodes alone.

    ConfigError when the grid is too small or too large or, as
    GridAlignmentError, when no node lies at x = 0 (even nx); builds none of
    the grid's eigenbases.  Returns the number of nodes on the grid's damage
    support, where each micro problem evaluates wall shear stress.
    """
    x = _interface_nodes(nx, ny)
    _midpoint_node(x)
    support = _support(delta_weight(x))
    return support.stop - support.start


def _sine_eigenpairs(m: np.ndarray, d: int, h: float, scale: float):
    """Eigenvalues (4/h^2) sin^2(theta_k/2), ascending, and basis V[j-1, k] = scale
    sin(j theta_k), j = 1..len(m), of theta_k = pi m_k / d: the eigenpairs of the n-node
    -(-1, 2, -1)/h^2 with a Dirichlet node below and, on top, a Dirichlet node (m_k = k,
    d = n + 1) or the ghost-eliminated Neumann row 2 (c_top - c_below)/h^2 (m_k = 2k - 1,
    d = 2n).  Each sine is looked up in the table of sin(pi i / d), i < 2d, by j m_k mod 2d,
    an exact integer reduction to an argument below 2 pi, so the basis stays accurate at
    2000 unknowns, where sin(j theta_k) would carry the rounding of arguments up to 2000 pi.
    """
    eigenvalues = 4.0 / h**2 * np.sin(0.5 * np.pi * m / d) ** 2
    sines = scale * np.sin(np.pi * np.arange(2 * d) / d)
    return eigenvalues, sines[np.outer(np.arange(1, m.size + 1), m) % (2 * d)]


@dataclass(frozen=True)
class ScalarState:
    """Macro state of the ODE growth model: concentration c_s at time t (s).

    The two state classes are the one place that knows which growth
    model runs: each names the trajectory ``columns`` its
    ``observables`` fill and carries the operations the micro solver,
    the two-scale driver and the parareal engine apply to it.  ``step``
    calls ``macro_step_ode``/``macro_step_pde`` through the module
    globals, so a wrapper set on those module attributes (as the span
    tracer in ``perfbench`` does) sees every growth-model solve.
    Growth values of this model are Python floats.
    """

    columns: ClassVar[tuple] = ("c_s",)

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

    def observables(self) -> tuple:
        """The trajectory values named by ``columns``: (c_s,)."""
        return (self.c_s,)

    def half_width(self) -> float:
        """Channel half-width law of the surrogate, h = 1 - c_s (uniform)."""
        return 1.0 - self.c_s

    def on_support(self, values: float) -> float:
        """The values where growth is evaluated: all of them, as this model has one node."""
        return values

    def average_growth(self, wss_sq: np.ndarray, p: GrowthParams) -> float | list:
        """Growth rate averaged over the last (sample) axis of the array wss_sq
        of squared wall shear stress values.

        Returns a float for samples of shape (N_s,), and a list with one
        float per cycle for a block of shape (k, N_s).  The squares come
        from ``microflow``, so they are not checked for sign.
        """
        gamma = _gamma_ode(wss_sq, self.c_s, p)
        # the sum and division of np.mean, without its per-call dispatch
        return (np.add.reduce(gamma, axis=-1) / gamma.shape[-1]).tolist()

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

    columns: ClassVar[tuple] = ("c_mid", "c_mean")

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

    def observables(self) -> tuple:
        """The trajectory values named by ``columns``: interface midpoint and mean."""
        return (interface_midpoint(self), interface_mean(self))

    def half_width(self) -> np.ndarray:
        """Channel half-width law h(x) = 1 - c(x), one value per interface node."""
        return 1.0 - self.interface

    def on_support(self, values: np.ndarray) -> np.ndarray:
        """The entries of a per-node array (nodes on the last axis) on the damage support."""
        return values[..., self.grid.support]

    def average_growth(self, wss_sq: np.ndarray, p: GrowthParams) -> np.ndarray | list:
        """Interface growth flux averaged over the sample axis of the array wss_sq.

        wss_sq holds the squared wall shear stress on the grid's damage
        support (last axis, see ``on_support``) at each sample (the axis
        before it); the squares come from ``microflow``, so they are not
        checked for sign.  Returns one flux per interface node, exact
        zeros off the support, which is what the full-width mean gives
        there: an (nx,) array for samples of shape (N_s, m), and a list
        with one such array per cycle for a block of shape (k, N_s, m).
        """
        grid = self.grid
        if wss_sq.shape[-1] != grid.support_weight.size:
            raise ValueError(f"wss_sq must hold one value per support node "
                             f"({grid.support_weight.size}), got shape {wss_sq.shape}")
        g = _gamma_pde(wss_sq, grid.support_weight, p)
        # numpy sums a sample axis with more than one node beside it in
        # sample order, as the full-width mean does, but a single node's
        # samples pairwise, which cumsum avoids
        total = (np.add.reduce(g, axis=-2) if g.shape[-1] != 1
                 else g.cumsum(axis=-2)[..., -1, :])
        gamma = np.zeros(total.shape[:-1] + (grid.nx,))
        gamma[..., grid.support] = total / g.shape[-2]
        # an array of its own per cycle, so that a kept value keeps no other
        return gamma if gamma.ndim == 1 else [row.copy() for row in gamma]

    def growth_change(self, new: np.ndarray, old: np.ndarray) -> float:
        """Largest nodewise distance |new - old| of two growth values of this model."""
        return float(np.maximum.reduce(np.abs(new - old)))

    def combine(self, fine: "FieldState", prev: "FieldState") -> "FieldState":
        """Predictor-corrector update self + fine - prev, at this state's time."""
        return FieldState(self.grid, self.c + fine.c - prev.c, self.t)


def gamma_ode(wss_l2, c_s, p: GrowthParams):
    """Growth rate alpha / ((1 + c_s)(1 + ||wss||^2 / sigma0^2)) in 1/s.

    Strictly positive, bounded by alpha, and decreasing in both the wall
    shear stress and the concentration.  Vectorizes over wss_l2.
    """
    wss_l2 = np.asarray(wss_l2, dtype=float)
    if not np.all(wss_l2 >= 0):
        raise ValueError("wall shear stress norm must be non-negative")
    if not np.all(np.asarray(c_s) >= 0):
        raise ValueError("concentration must be non-negative")
    return _gamma_ode(np.square(wss_l2), c_s, p)


def _gamma_ode(wss_sq, c_s, p: GrowthParams):
    """The ODE growth law on the squared wall shear stress wss_sq, unchecked."""
    return (p.alpha / (1.0 + c_s)) / (1.0 + wss_sq / p.sigma0**2)


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
    if not np.all(wss >= 0):
        raise ValueError("wall shear stress must be non-negative")
    return _gamma_pde(np.square(wss), delta_weight(x), p)


def _gamma_pde(wss_sq, weight, p: GrowthParams):
    """The PDE growth law on the squared wall shear stress wss_sq, unchecked,
    given weight = delta_weight(x)."""
    return (p.alpha * weight) / (1.0 + wss_sq / p.sigma0**2)


def macro_step_ode(state: ScalarState, gamma_bar: float, dt: float) -> ScalarState:
    """One forward-Euler macro step c^n = c^{n-1} + dt * gamma_bar."""
    if not dt > 0:
        raise ValueError(f"dt must be positive, got {dt}")
    return ScalarState(state.c_s + dt * gamma_bar, state.t + dt)


def imex_system(state: FieldState, gamma_bar: np.ndarray, dt: float, p: GrowthParams,
                forcing: np.ndarray | None = None) -> np.ndarray:
    """Right-hand side of one IMEX step on the unknown nodes.

    The step solves A c_new = b with

        A = (1/dt) I - D_s L - s R_s theta diag(1 - c_old)
            + s R_s (1 - theta) diag(c_old),
        b = (1/dt) c_old + s R_s (1 - theta) c_old
            + (2/h_y) gamma_bar  (interface row)  [+ forcing].

    L is the ghost-eliminated Laplacian of the grid.  ``forcing`` is an
    optional volume source on the full (ny, nx) grid, used by
    manufactured-solution tests.  Returns b in the grid layout of the
    unknowns, shape (ny-1, nx-2) for the nodes j=1..ny-1, i=1..nx-2.
    The solve needs nothing else of A.  ``macro_step_pde`` calls this
    function through the module global, so a wrapper set on
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
    return b


# Largest a-priori contraction rate that macro_step_pde solves; a weaker
# bound raises ImexStepError.  At the limit a step takes 3,656 sweeps (about
# 0.1 s on the 101 x 11 grid), and the count grows without bound as the rate
# approaches 1.  The coarse steps of the PDE presets at P = 2..10 stay below
# 0.4, and the longest steps that run (200 days, pde_paper cut to 400 days at
# P = 2) reach 0.898.
_MAX_CONTRACTION = 0.99


def macro_step_pde(state: FieldState, gamma_bar: np.ndarray, dt: float, p: GrowthParams,
                   forcing: np.ndarray | None = None) -> FieldState:
    """One IMEX step of the reaction-diffusion model; returns the new state.

    Assembles the right-hand side with ``imex_system``, called as the
    module global so that the span tracer sees every assembly, and solves
    the system by fast diagonalization (Lynch, Rice and Thomas 1964) with
    numpy only.  The matrix splits into the Kronecker sum

        M0 = (1/dt + sigma) I - D_s (Lx (+) Ly),
        sigma = s R_s (c_mid - theta),  c_mid the midrange of c_old,

    which the grid's cached eigenbases and eigenvalue sums invert with
    four small matrix products per sweep, plus the diagonal
    E = s R_s (c_old - c_mid) that the reaction leaves over.  The
    Richardson iteration u <- M0^-1 (b - E u) contracts by at most
    rho = max|E| / lambda_min(M0) per sweep in the weighted norm that
    makes the ghost row symmetric, and runs exactly
    ceil(log 2^-53 / log rho) sweeps, so the result agrees with a direct
    solve to round-off, far below the 1e-10 relative residual the model
    requires.  When lambda_min(M0) is not safely positive or rho
    exceeds ``_MAX_CONTRACTION``, the step raises ``ImexStepError``.

    Returns the FieldState at t + dt with zero Dirichlet boundary
    values.  With reaction_sign=+1 and non-negative influx the field
    stays non-negative as long as the system matrix keeps its M-matrix
    structure, i.e. for dt below roughly 1/(R_s theta) (about 33 days at
    the default parameters); the fast solve then projects its round-off
    onto c >= 0.
    """
    b = imex_system(state, gamma_bar, dt, p, forcing)
    grid = state.grid
    u = _fast_imex_solve(grid, state.c[1:, 1:-1], b, dt, p)
    if not np.logical_and.reduce(np.isfinite(u), axis=None):
        raise ImexStepError("IMEX linear solve produced non-finite values")
    c = np.zeros((grid.ny, grid.nx))
    c[1:, 1:-1] = u
    return FieldState._from_checked(grid, c, state.t + dt)


def _fast_imex_solve(grid: SolidGrid, c_old: np.ndarray, b: np.ndarray, dt: float,
                     p: GrowthParams):
    """Solve the IMEX system for the (ny-1, nx-2) unknowns by fast diagonalization."""
    lo = float(np.minimum.reduce(c_old, axis=None))
    hi = float(np.maximum.reduce(c_old, axis=None))
    c_mid = 0.5 * (lo + hi)
    s = float(p.reaction_sign)
    shift = 1.0 / dt + s * p.R_s * (c_mid - p.theta)
    e_max = 0.5 * p.R_s * (hi - lo)
    lam_min = shift + p.D_s * grid.eigenvalue_sum_min
    rho = e_max / lam_min if lam_min > 1e-8 / dt else math.inf
    if rho > _MAX_CONTRACTION:
        raise ImexStepError(f"IMEX linear solve: the {dt / 86400.0:g}-day step has "
                            f"contraction bound {rho:.3g}, above the limit {_MAX_CONTRACTION}")
    sweeps = 1 if rho <= 2.0**-53 else math.ceil(-53.0 * math.log(2.0) / math.log(rho))
    inv = 1.0 / (shift + p.D_s * grid.eigenvalue_sum)
    sx, v, v_inv = grid.sine_basis, grid.y_basis, grid.y_basis_inv
    e = s * p.R_s * (c_old - c_mid)
    # v @ ((v_inv @ r @ sx) * inv) @ sx: np.dot gives @'s bits on these 2-D
    # arrays and skips matmul's ufunc dispatch, 0.5-0.8 us per product at these sizes
    u = np.dot(np.dot(v, np.dot(np.dot(v_inv, b), sx) * inv), sx)
    for _ in range(sweeps - 1):
        u = np.dot(np.dot(v, np.dot(np.dot(v_inv, b - e * u), sx) * inv), sx)
    # with 1/dt + min(reaction) >= 0 the matrix is an M-matrix, so b >= 0
    # makes the exact solution non-negative and the projection can only
    # remove round-off; forced solutions may be legitimately negative
    if shift - e_max >= 0.0 and np.minimum.reduce(b, axis=None) >= 0.0:
        np.maximum(u, 0.0, out=u)
    return u


def interface_midpoint(state: FieldState) -> float:
    """Concentration at the center of the interface (node x=0, y=-1)."""
    return float(state.c[-1, state.grid.midpoint_index()])


def interface_mean(state: FieldState) -> float:
    """Trapezoidal average of the concentration along the interface."""
    grid = state.grid
    c = state.c[-1]  # np.trapezoid's own expression, with cached spacings
    return float(np.add.reduce(grid.dx * (c[1:] + c[:-1]) / 2.0) / (grid.x[-1] - grid.x[0]))


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
