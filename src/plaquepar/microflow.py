"""Surrogate micro-scale problem: pulsating channel flow amplitude.

The expensive periodic flow solve of the two-scale method is replaced by
a single flow amplitude q(tau) relaxing toward the pulsating inflow,

    dq/dtau = -lambda_relax * (q - V(tau)),
    V(tau)  = amplitude * (offset + sin^2(pi tau)),

whose periodic orbit is known in closed form.  The linear ODE is
advanced with the exact integrating-factor update

    q(tau + dtau) = q_p(tau + dtau) + (q(tau) - q_p(tau)) e^{-lambda dtau},

so one cycle contracts deviations from the orbit by exactly
e^{-lambda_relax}, matching the observed per-cycle reduction of the flow
problem it stands in for.  Wall shear stress is evaluated from a
quasi-Poiseuille wall gradient with constant-flux narrowing
amplification, wss = c_geo * 2 rho_f nu_f * q / h^2.

The cycle-until-periodic loop stops once consecutive cycle-averaged
growth values agree to eps_p in units of alpha (the criterion is applied
to gamma_bar / alpha, which makes the tolerance scale-free).

Everything of a cycle that does not depend on the state (the orbit at
the sample times, the decay factors and the WSS prefactor) is
computed once per ``MicroParams`` instance and kept on it read-only, so
one cycle is a handful of array operations.  The two cycles that every
micro problem runs go through those operations as one array block.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import growth
from .errors import ChannelClosureError, MicroNonConvergenceError

__all__ = [
    "MicroParams",
    "MicroState",
    "GrowthSample",
    "inflow_velocity",
    "periodic_orbit",
    "wall_shear_stress",
    "advance_cycle",
    "solve_micro_problem",
    "solve_stationary_surrogate",
]

TWO_PI = 2.0 * np.pi
# Most samples a cycle may hold, so delta_tau >= 1e-5; a two-cycle PDE block
# at this limit takes about 30 MB
_MAX_SAMPLES = 100_000


class _CycleData(NamedTuple):
    """State-independent data of one cycle, sampled at tau_m = m * delta_tau, m = 1..N_s."""

    orbit0: float       # periodic_orbit(0)
    orbit: np.ndarray   # periodic_orbit(tau)
    decay: np.ndarray   # exp(-lambda_relax * tau)
    orbit_end: float    # orbit[-1]
    decay_end: float    # decay[-1]
    wss_factor: float   # c_geo * 2 rho_f nu_f, as wall_shear_stress groups it


@dataclass(frozen=True)
class MicroParams:
    """Physical and numerical parameters of the surrogate micro problem.

    rho_f in g/cm^3, nu_f in cm^2/s, lambda_relax in 1/s, delta_tau in
    s; one cycle is the inflow's 1-s period, so delta_tau must divide 1.
    c_geo is the dimensionless calibration constant chosen so that wss
    equals the flow amplitude at unit half-width
    (c_geo * 2 rho_f nu_f = 1 with the defaults).  inflow_offset is 0
    for the ODE example and 1 for the PDE example.  A micro problem
    cycles until consecutive averaged growth values agree to eps_p, for
    at most max_cycles cycles.  These fields are the one definition of
    the micro problem; the macro ``Schedule`` holds none of them.
    """

    rho_f: float = 1.0
    nu_f: float = 0.04
    lambda_relax: float = 9.0
    c_geo: float = 12.5
    inflow_amplitude: float = 30.0
    inflow_offset: float = 0.0
    delta_tau: float = 0.02
    h_min: float = 0.05
    eps_p: float = 1e-3
    max_cycles: int = 10

    def __post_init__(self):
        for name in ("rho_f", "nu_f", "c_geo", "inflow_amplitude", "delta_tau",
                     "h_min", "eps_p"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite, "
                                 f"got {getattr(self, name)}")
        if not 0 <= self.lambda_relax < math.inf:
            raise ValueError(f"lambda_relax must be non-negative and finite, "
                             f"got {self.lambda_relax}")
        if not (isinstance(self.max_cycles, int) and self.max_cycles >= 2):
            raise ValueError(f"max_cycles must be an integer >= 2, got {self.max_cycles}")
        if self.inflow_offset not in (0.0, 1.0, 0, 1):
            raise ValueError(f"inflow_offset must be 0 or 1, got {self.inflow_offset}")
        if self.delta_tau < 1.0 / _MAX_SAMPLES:
            raise ValueError(f"delta_tau={self.delta_tau} must be at least "
                             f"{1.0 / _MAX_SAMPLES:g} (at most {_MAX_SAMPLES} samples "
                             f"per cycle)")
        ns = 1.0 / self.delta_tau
        if not abs(ns - round(ns)) <= 1e-9:
            raise ValueError(f"delta_tau={self.delta_tau} must divide the 1-s period exactly")
        tau = self.delta_tau * np.arange(1, self.n_steps + 1)
        orbit, decay = periodic_orbit(tau, self), np.exp(-self.lambda_relax * tau)
        cycle = _CycleData(
            orbit0=float(periodic_orbit(0.0, self)),
            orbit=orbit,
            decay=decay,
            orbit_end=float(orbit[-1]),
            decay_end=float(decay[-1]),
            wss_factor=self.c_geo * 2.0 * self.rho_f * self.nu_f,
        )
        for array in (cycle.orbit, cycle.decay):
            array.flags.writeable = False
        object.__setattr__(self, "_cycle", cycle)

    @property
    def n_steps(self) -> int:
        """Micro steps per cycle, N_s = 1 / delta_tau."""
        return int(round(1.0 / self.delta_tau))

    @property
    def mean_inflow(self) -> float:
        """Time average of V over one period: amplitude * (offset + 1/2)."""
        return self.inflow_amplitude * (self.inflow_offset + 0.5)


@dataclass(frozen=True)
class MicroState:
    """Flow amplitude q (cm/s) carried between cycles as warm start."""

    q: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.q < math.inf:
            raise ValueError(f"flow amplitude must be finite and >= 0, got {self.q}")


@dataclass(frozen=True)
class GrowthSample:
    """Cycle-averaged growth value(s) of one micro problem.

    gamma_bar is a scalar (1/s, ODE model) or a per-interface-node array
    (cm/s, PDE model).  cycles_used is the number of cycles run; the
    stationary surrogate reports 0 since it integrates no cycle.
    gamma_history holds the per-cycle averages, mainly for testing the
    stabilization of the periodicity criterion.
    """

    gamma_bar: object
    cycles_used: int
    gamma_history: tuple = ()


def inflow_velocity(tau: float, params: MicroParams):
    """Pulsating inflow V(tau) = amplitude * (offset + sin^2(pi tau)), cm/s."""
    return params.inflow_amplitude * (
        params.inflow_offset + np.sin(np.pi * np.asarray(tau)) ** 2
    )


def periodic_orbit(tau, params: MicroParams):
    """Closed-form periodic orbit of the relaxation ODE.

    With V(tau) = Vbar - (A/2) cos(2 pi tau), A = inflow_amplitude:

        q_p(tau) = Vbar - (A/2) lam (lam cos(2 pi tau) + 2 pi sin(2 pi tau))
                   / (lam^2 + 4 pi^2).

    For lambda_relax = 0 the orbit degenerates to the constant Vbar.
    """
    lam = params.lambda_relax
    tau = np.asarray(tau, dtype=float)
    osc = lam * (lam * np.cos(TWO_PI * tau) + TWO_PI * np.sin(TWO_PI * tau))
    return params.mean_inflow - 0.5 * params.inflow_amplitude * osc / (lam**2 + 4.0 * np.pi**2)


def wall_shear_stress(q, h_local, params: MicroParams):
    """Wall shear stress c_geo * 2 rho_f nu_f * q / h^2 in g/(cm s^2).

    Linear in the flow amplitude and strictly decreasing in the local
    half-width h (narrowing amplifies the wall gradient at constant
    flux).  Broadcasts over arrays of q and h.
    """
    h_local = np.asarray(h_local, dtype=float)
    if np.any(h_local <= 0):
        raise ValueError("half-width must be positive")
    return params.c_geo * 2.0 * params.rho_f * params.nu_f * np.asarray(q) / h_local**2


def _check_open(h, params: MicroParams):
    """Raise ChannelClosureError unless h > h_min (> 0) everywhere; h is a float or an array."""
    h_low = h if isinstance(h, float) else np.min(h, initial=math.inf)
    if h_low <= params.h_min:
        raise ChannelClosureError(
            f"channel half-width {h_low:g} cm at or below h_min={params.h_min:g} cm"
        )


def advance_cycle(w0: MicroState, h, params: MicroParams, cycles: int | None = None):
    """Integrate one period and return (final state, per-step WSS values).

    The trajectory is sampled at tau_m = m * delta_tau, m = 1..N_s.  For
    scalar h the WSS series has shape (N_s,); for a half-width profile
    of length n it has shape (N_s, n).  The values equal those of
    ``periodic_orbit`` and ``wall_shear_stress`` bit for bit; the
    returned WSS array is the caller's own.

    With ``cycles=k`` it integrates k consecutive periods from w0 as one
    array block and returns (the k end states, WSS values of shape
    (k, N_s) or (k, N_s, n)).  Each period starts from the end value of
    the one before, computed with the same expression, so row r equals
    the r-th of k one-period calls bit for bit.
    """
    if not isinstance(h, float):
        h = np.asarray(h, dtype=float)
        if h.ndim == 0:
            h = float(h)
    if cycles is not None and cycles < 1:
        raise ValueError(f"cycles must be at least 1, got {cycles}")
    _check_open(h, params)  # also guarantees h > 0 for the division below
    cycle = params._cycle
    # each period's deviation from the orbit at its start, and its end state:
    # the last sample of q_traj below, computed with the same float operations
    deviations, ends, q = [], [], w0.q
    for _ in range(1 if cycles is None else cycles):
        deviations.append(q - cycle.orbit0)
        q = cycle.orbit_end + deviations[-1] * cycle.decay_end
        ends.append(MicroState(q))
    deviation = deviations[0] if cycles is None else np.array(deviations)[:, None]
    q_traj = cycle.orbit + deviation * cycle.decay
    if isinstance(h, float):
        wss = cycle.wss_factor * q_traj / (h * h)
    else:
        wss = cycle.wss_factor * q_traj[..., None] / (h * h)
    return (ends[0] if cycles is None else tuple(ends)), wss


def _growth_half_width(macro_state, params: MicroParams):
    """The half-width on the damage support, after the closure check on the full interface."""
    h = macro_state.half_width()
    _check_open(h, params)
    return macro_state.on_support(h)


def solve_micro_problem(w0: MicroState, macro_state, params: MicroParams,
                        growth_params: growth.GrowthParams):
    """Cycle until the averaged growth value stabilizes.

    The criterion compares consecutive averages, so the first two cycles
    always run: they run as one block of :func:`advance_cycle` (called
    through the module global, so a wrapper set on it sees the block),
    averaged in one pass.  Each further cycle is one more call, until

        max |gamma_bar^r - gamma_bar^{r-1}| / alpha < params.eps_p.

    The closure check runs once, on the full interface; the cycles
    evaluate WSS and growth on the damage support only (``on_support``).
    Returns (GrowthSample, final MicroState); the final state serves as
    warm start for the next macro step.  The callers count the micro
    problem (``cycles_used`` cycles of ``params.n_steps`` steps each).

    Raises MicroNonConvergenceError when params.max_cycles is exhausted
    and ChannelClosureError when the channel is too narrow.
    """
    h = _growth_half_width(macro_state, params)
    scale = growth_params.alpha if growth_params.alpha > 0 else 1.0
    states, wss = advance_cycle(w0, h, params, cycles=2)
    history = macro_state.average_growth(wss, growth_params)  # one value per cycle
    state = states[-1]
    while not macro_state.growth_change(history[-1], history[-2]) / scale < params.eps_p:
        if len(history) == params.max_cycles:
            raise MicroNonConvergenceError(
                f"averaged growth value did not stabilize within {params.max_cycles} cycles "
                f"(lambda_relax={params.lambda_relax:g})"
            )
        state, wss = advance_cycle(state, h, params)
        history.append(macro_state.average_growth(wss, growth_params))
    return GrowthSample(history[-1], len(history), tuple(history)), state


def solve_stationary_surrogate(macro_state, params: MicroParams,
                               growth_params: growth.GrowthParams):
    """Heuristic averaging: steady state with time-averaged inflow.

    Sets q_stat to the time average of V over one period and evaluates
    the growth rate at the corresponding stationary wall shear stress.
    Costs no micro problem (the stationary solve is treated as free,
    roughly a factor 100 cheaper than a resolved cycle).
    """
    h = _growth_half_width(macro_state, params)
    wss = wall_shear_stress(params.mean_inflow, h, params)
    # one stationary sample: the average over it is the sample itself
    return GrowthSample(macro_state.average_growth(wss[np.newaxis], growth_params), 0)
