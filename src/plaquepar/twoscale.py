"""Serial two-scale driver: macro loop with one micro problem per step.

Each macro step first solves the (warm-started) periodic micro problem
at the current growth state, then advances the foam-cell concentration
with the cycle-averaged growth value through the state's own ``step``:
forward Euler for the scalar ODE model, one IMEX step for the
reaction-diffusion model.
"""

import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import growth, microflow
from .errors import ConfigError

__all__ = [
    "DAY",
    "Schedule",
    "TrajectoryRecord",
    "channel_width",
    "advance_two_scale",
    "run_serial",
    "run_coarse_step",
    "trajectory_to_csv",
]

DAY = 86400.0  # seconds per day


@dataclass(frozen=True)
class Schedule:
    """Macro and coarse time grids; the micro grid belongs to MicroParams.

    T_end in seconds; N_l and P are integers (not bool).  The fine step
    is dt = T_end / N_l (always derived, never configured independently).  P coarse intervals cover the
    horizon; when P does not divide N_l the first N_l mod P intervals
    carry one extra fine step, so interval boundaries stay on the fine
    grid and the per-process maximum is ceil(N_l / P).
    """

    T_end: float
    N_l: int
    P: int = 1

    def __post_init__(self):
        if not 0 < self.T_end < math.inf:
            raise ConfigError(f"T_end must be positive and finite, got {self.T_end}")
        for name in ("N_l", "P"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
        if self.N_l < 1:
            raise ConfigError(f"N_l must be at least 1, got {self.N_l}")
        if not 1 <= self.P <= self.N_l:
            raise ConfigError(f"P must satisfy 1 <= P <= N_l={self.N_l}, got {self.P}")

    @property
    def dt(self) -> float:
        return self.T_end / self.N_l

    def interval_steps(self) -> list:
        """Fine steps per coarse interval (first N_l mod P get the extra one)."""
        q, r = divmod(self.N_l, self.P)
        return [q + 1] * r + [q] * (self.P - r)

    def boundaries(self) -> list:
        """Fine-step indices of the interval boundaries, length P + 1."""
        b = [0]
        for n in self.interval_steps():
            b.append(b[-1] + n)
        return b


def channel_width(state) -> float:
    """Channel width 2h at the domain center."""
    return 2.0 * (1.0 - state.functional())


def _gamma_scalar(gamma_bar) -> float:
    g = np.asarray(gamma_bar)
    return float(g) if g.ndim == 0 else float(g.mean())


@dataclass
class TrajectoryRecord:
    """Per-macro-step scalar history of a two-scale run.

    Index n describes the state after n fine steps; gamma_scalar[n] and
    cycles[n] describe the micro problem that produced step n (NaN and 0
    at n=0).  The record keeps no states: a caller that needs a field at
    some step advances to it with ``advance_two_scale``.
    """

    model: str
    t: np.ndarray
    functionals: np.ndarray
    gamma_scalar: np.ndarray
    width: np.ndarray
    cycles: np.ndarray
    means: np.ndarray | None = None

    def __len__(self):
        return len(self.t)

    @property
    def endpoint(self) -> float:
        return float(self.functionals[-1])

    @classmethod
    def from_steps(cls, state0, steps) -> "TrajectoryRecord":
        """Record of state0 followed by the (state, GrowthSample) pairs of steps."""
        states = [state0] + [state for state, _ in steps]
        samples = [sample for _, sample in steps]
        return cls(
            model=state0.model,
            t=np.array([s.t for s in states]),
            functionals=np.array([s.functional() for s in states]),
            gamma_scalar=np.array([np.nan] + [_gamma_scalar(s.gamma_bar) for s in samples]),
            width=np.array([channel_width(s) for s in states]),
            cycles=np.array([0] + [s.cycles_used for s in samples], dtype=int),
            means=(np.array([growth.interface_mean(s) for s in states])
                   if state0.model == "pde" else None),
        )


def advance_two_scale(macro, micro, n_steps: int, dt: float,
                      growth_params: growth.GrowthParams,
                      micro_params: microflow.MicroParams,
                      ledger=None, process=None):
    """Advance n_steps of the two-scale loop; the fine propagator.

    Returns (macro, micro, steps) where steps is the per-step list of
    (new state, GrowthSample).  Every step solves one micro problem and
    performs one growth-model update; with a ledger, both are counted
    here as fine work of ``process``, the micro problem with its cycles.
    """
    steps = []
    for _ in range(n_steps):
        sample, micro = microflow.solve_micro_problem(micro, macro, micro_params,
                                                      growth_params)
        if ledger is not None:
            ledger.add_micro("fine", sample.cycles_used, micro_params.n_steps, process)
        macro = macro.step(sample.gamma_bar, dt, growth_params)
        if ledger is not None:
            ledger.add_rd("fine", process=process)
        steps.append((macro, sample))
    return macro, micro, steps


def run_serial(schedule: Schedule, growth_params: growth.GrowthParams,
               micro_params: microflow.MicroParams, macro0, micro0,
               ledger=None) -> TrajectoryRecord:
    """Serial reference run over all N_l macro steps.

    The micro state is warm-started across steps from the quasi-periodic
    state of the previous one; the ledger counts exactly N_l micro
    problems.
    """
    _, _, steps = advance_two_scale(
        macro0, micro0, schedule.N_l, schedule.dt, growth_params, micro_params,
        ledger=ledger, process=0,
    )
    return TrajectoryRecord.from_steps(macro0, steps)


def run_coarse_step(macro, micro, dT: float, mode: str,
                    growth_params: growth.GrowthParams,
                    micro_params: microflow.MicroParams, ledger=None):
    """One coarse-propagator step of size dT.

    mode "two_scale" solves one micro problem and counts it (ledger: +1
    coarse micro with its cycles);
    mode "heuristic" uses the stationary surrogate instead (+0 micro).
    Returns (new macro state, new micro state, GrowthSample).
    """
    if not dT > 0:
        raise ValueError(f"dT must be positive, got {dT}")
    if mode == "two_scale":
        sample, micro = microflow.solve_micro_problem(micro, macro, micro_params,
                                                      growth_params)
        if ledger is not None:
            ledger.add_micro("coarse", sample.cycles_used, micro_params.n_steps)
    elif mode == "heuristic":
        sample = microflow.solve_stationary_surrogate(macro, micro_params, growth_params)
        micro = microflow.MicroState(micro_params.mean_inflow)
    else:
        raise ValueError(f"unknown coarse mode {mode!r}")
    macro = macro.step(sample.gamma_bar, dT, growth_params)
    if ledger is not None:
        ledger.add_rd("coarse")
    return macro, micro, sample


def trajectory_to_csv(rec: TrajectoryRecord, path):
    """Write the trajectory time series as CSV.

    Columns: t_days, c_s (ODE) or c_mid, c_mean (PDE), gamma_bar (mean
    over the interface for the PDE model), width (2h at the center) and
    cycles of the micro problem behind each step.
    """
    def r(v):
        return repr(float(v))

    with open(path, "w", encoding="utf-8") as f:
        if rec.model == "ode":
            f.write("t_days,c_s,gamma_bar,width,cycles\n")
            for n in range(len(rec)):
                f.write(
                    f"{r(rec.t[n] / DAY)},{r(rec.functionals[n])},"
                    f"{r(rec.gamma_scalar[n])},{r(rec.width[n])},{rec.cycles[n]}\n"
                )
        else:
            f.write("t_days,c_mid,c_mean,gamma_bar,width,cycles\n")
            for n in range(len(rec)):
                f.write(
                    f"{r(rec.t[n] / DAY)},{r(rec.functionals[n])},{r(rec.means[n])},"
                    f"{r(rec.gamma_scalar[n])},{r(rec.width[n])},{rec.cycles[n]}\n"
                )
