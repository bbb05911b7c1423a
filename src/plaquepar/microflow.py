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
amplification, wss = c_geo * 2 rho_f nu_f * q / h^2.  Both growth laws
read the WSS only as wss^2 / sigma0^2, so the cycles hand them the
squared WSS, (c_geo * 2 rho_f nu_f * q)^2 * (1 / h^2)^2.

The cycle-until-periodic loop stops once consecutive cycle-averaged
growth values agree to eps_p in units of alpha (the criterion is applied
to gamma_bar / alpha, which makes the tolerance scale-free).

One cycle is a handful of array operations on the orbit at the sample
times, the decay factors and the WSS prefactor.  The two cycles that
every micro problem runs go through those operations as one array block.

Warm starts converge: once the macro state changes slowly, each micro
problem starts from the very float that ended the one before.  So the
part of a block that depends on its start q alone (the end states and
the squared flux (wss_factor * q(tau))^2) is kept on the ``MicroParams``
instance too, as a one-entry memo that the next block with the same q
(value and type) and the same number of cycles reuses.  Only the
multiplication by (1 / h^2)^2 runs again, the same float operation as
in a fresh block, so a reused block gives the same bits as a fresh one.
A memo miss computes the orbit and the decay factors from the
``MicroParams`` fields; misses are 1-2% of the calls of a
warm-started run, so those arrays have no cache of their own.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import growth
from .errors import (ChannelClosureError, ConfigError, MicroNonConvergenceError,
                     check_choice, check_integer, check_number, shown)

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
# Most samples a cycle may hold, so delta_tau >= 1e-5
_MAX_SAMPLES = 100_000
# Most entries of a micro problem's first two cycles' squared-WSS block, 2 N_s per
# support node, about 32 MB of floats; the preset grid's 19 support nodes
# stay below it at _MAX_SAMPLES
_MAX_BLOCK = 4_000_000
# Largest lambda_relax.  Up to it, one cycle's contraction e^-lambda_relax stays a
# normal float, and the orbit's minimum, about A pi^2 / lambda_relax^2 >= 2e-5 A
# (A the inflow amplitude), stays far above its rounding error; at 3e10 the orbit
# sample at tau = 0 rounds below 0
_MAX_LAMBDA = 700


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
            check_number(name, getattr(self, name))
        check_number("lambda_relax", self.lambda_relax, zero_ok=True)
        if self.lambda_relax > _MAX_LAMBDA:
            raise ConfigError(f"lambda_relax must be at most {_MAX_LAMBDA}, "
                              f"got {shown(self.lambda_relax)}")
        check_integer("max_cycles", self.max_cycles, 2)
        check_choice("inflow_offset", self.inflow_offset, (0, 1))
        if self.delta_tau < 1.0 / _MAX_SAMPLES:
            raise ConfigError(f"delta_tau={self.delta_tau} must be at least "
                              f"{1.0 / _MAX_SAMPLES:g} (at most {_MAX_SAMPLES} samples "
                              f"per cycle)")
        ns = 1.0 / self.delta_tau
        if not abs(ns - round(ns)) <= 1e-9:
            raise ConfigError(f"delta_tau={self.delta_tau} must divide the 1-s period exactly")
        object.__setattr__(self, "_block", None)  # advance_cycle's one-entry memo

    @property
    def n_steps(self) -> int:
        """Micro steps per cycle, N_s = 1 / delta_tau."""
        return int(round(1.0 / self.delta_tau))

    def check_block(self, nodes: int):
        """ConfigError when a micro problem on ``nodes`` support nodes would ask for
        a two-cycle WSS block of more than _MAX_BLOCK entries."""
        entries = 2 * self.n_steps * nodes
        if entries > _MAX_BLOCK:
            raise ConfigError(f"delta_tau={self.delta_tau} on {nodes} support nodes needs "
                              f"a two-cycle wall shear stress block of 2 x {self.n_steps} x "
                              f"{nodes} = {entries} values per micro problem, more than "
                              f"{_MAX_BLOCK}; use a larger delta_tau or a smaller nx")

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


class GrowthSample(NamedTuple):
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
    if not np.all(h_local > 0):
        raise ValueError("half-width must be positive")
    return params.c_geo * 2.0 * params.rho_f * params.nu_f * np.asarray(q) / h_local**2


def _check_open(h, params: MicroParams):
    """Raise ChannelClosureError unless h > h_min (> 0) everywhere; h is a float or an array."""
    h_low = h if isinstance(h, float) else np.minimum.reduce(h, axis=None, initial=math.inf)
    if not h_low > params.h_min:
        raise ChannelClosureError(
            f"channel half-width {h_low:g} cm at or below h_min={params.h_min:g} cm"
        )


def advance_cycle(w0: MicroState, h, params: MicroParams, cycles: int | None = None):
    """Integrate one period and return (final state, per-step squared WSS values).

    The trajectory is sampled at tau_m = m * delta_tau, m = 1..N_s.  For
    scalar h the squared WSS series has shape (N_s,); for a half-width
    profile of length n it has shape (N_s, n).  Each value is
    (wss_factor * q)^2 * (1 / h^2)^2, the square of ``wall_shear_stress``
    to within a few ulp; the growth laws read nothing else of the WSS.
    The returned array is the caller's own.

    With ``cycles=k`` it integrates k consecutive periods from w0 as one
    array block and returns (the k end states, squared WSS values of
    shape (k, N_s) or (k, N_s, n)).  Each period starts from the end
    value of the one before, computed with the same expression, so row r
    equals the r-th of k one-period calls bit for bit.

    The end states and the read-only squared flux
    ``(wss_factor * q_traj)**2`` of the last block are kept on ``params``
    (one entry, replaced whole, so threads sharing ``params`` read a
    consistent one).  A call whose ``w0.q`` equals the kept start in
    value and type, with the same ``cycles``, reuses them; it still
    checks the channel and multiplies by (1 / h^2)^2 anew, which is the
    last operation of the fresh computation too, so every bit stays the
    same.
    """
    if not isinstance(h, float):
        h = np.asarray(h, dtype=float)
        if h.ndim == 0:
            h = float(h)
    if cycles is not None and cycles < 1:
        raise ValueError(f"cycles must be at least 1, got {cycles}")
    _check_open(h, params)  # also guarantees h > 0 for the division below
    # one read of the memo: another thread may replace it, never change it
    block, q0 = params._block, w0.q
    # a hit needs the same q in value and type (a numpy float32 q computes in float32);
    # 0.0 and -0.0 give the same block, since both minus orbit0 give -orbit0 exactly
    # (orbit0 > 0: the orbit stays above mean_inflow - inflow_amplitude / 2 >= 0)
    if (block is None or block[1] != cycles or type(block[0]) is not type(q0)
            or block[0] != q0):
        block = _state_block(q0, params, cycles)
        object.__setattr__(params, "_block", block)
    _, _, ends, flux_sq = block
    inv = 1.0 / (h * h)
    if isinstance(h, float):
        wss_sq = flux_sq * (inv * inv)
    else:
        wss_sq = flux_sq[..., None] * (inv * inv)
    return ends, wss_sq


def _state_block(q, params: MicroParams, cycles: int | None):
    """The part of an ``advance_cycle`` block that depends on its start q only:
    (q, cycles, end state(s) as returned, read-only squared flux
    (wss_factor * q_traj)**2).  The orbit and decay factors at the sample times
    tau_m = m * delta_tau, m = 1..N_s, are computed here from ``params``."""
    tau = params.delta_tau * np.arange(1, params.n_steps + 1)
    orbit, decay = periodic_orbit(tau, params), np.exp(-params.lambda_relax * tau)
    orbit0 = float(periodic_orbit(0.0, params))
    orbit_end, decay_end = float(orbit[-1]), float(decay[-1])
    # each period's deviation from the orbit at its start, and its end state:
    # the last sample of q_traj below, computed with the same float operations
    deviations, ends, q_end = [], [], q
    for _ in range(1 if cycles is None else cycles):
        deviation = q_end - orbit0
        q_end = orbit_end + deviation * decay_end
        deviations.append(deviation)
        ends.append(MicroState(q_end))
    if cycles is None:
        q_traj = orbit + deviation * decay
    else:
        q_traj = orbit + np.multiply.outer(deviations, decay)
    flux_sq = np.square(params.c_geo * 2.0 * params.rho_f * params.nu_f * q_traj)
    flux_sq.flags.writeable = False
    return q, cycles, (ends[0] if cycles is None else tuple(ends)), flux_sq


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

    The closure check runs on the full interface, and ``advance_cycle`` repeats it on
    the damage support, where the cycles evaluate WSS and growth (``on_support``).
    Returns (GrowthSample, final MicroState); the final state serves as
    warm start for the next macro step.  Nothing is counted here: the
    parareal engine counts the micro problem from the sample's
    ``cycles_used`` (cycles of ``params.n_steps`` steps each).

    Raises MicroNonConvergenceError when params.max_cycles is exhausted
    and ChannelClosureError when the channel is too narrow.
    """
    h = _growth_half_width(macro_state, params)
    scale = growth_params.alpha if growth_params.alpha > 0 else 1.0
    states, wss_sq = advance_cycle(w0, h, params, cycles=2)
    history = macro_state.average_growth(wss_sq, growth_params)  # one value per cycle
    state = states[-1]
    while not macro_state.growth_change(history[-1], history[-2]) / scale < params.eps_p:
        if len(history) == params.max_cycles:
            raise MicroNonConvergenceError(
                f"averaged growth value did not stabilize within {params.max_cycles} cycles "
                f"(lambda_relax={params.lambda_relax:g})"
            )
        state, wss_sq = advance_cycle(state, h, params)
        history.append(macro_state.average_growth(wss_sq, growth_params))
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
    wss_sq = np.square(wall_shear_stress(params.mean_inflow, h, params))
    # one stationary sample: the average over it is the sample itself
    return GrowthSample(macro_state.average_growth(wss_sq[np.newaxis], growth_params), 0)
