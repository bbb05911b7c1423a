"""Serial two-scale driver: macro loop with one micro problem per step.

Each macro step first solves the (warm-started) periodic micro problem
at the current growth state, then advances the foam-cell concentration
with the cycle-averaged growth value through the state's own ``step``:
forward Euler for the scalar ODE model, one IMEX step for the
reaction-diffusion model.
"""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import growth, microflow
from .errors import check_number, check_processes

__all__ = [
    "DAY",
    "Schedule",
    "StepRow",
    "TrajectoryRecord",
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
    is dt = T_end / N_l (always derived, never configured independently).
    P coarse intervals cover the horizon; when P does not divide N_l the
    first N_l mod P intervals carry one extra fine step, so interval
    boundaries stay on the fine grid and the per-process maximum is
    ceil(N_l / P).
    """

    T_end: float
    N_l: int
    P: int

    def __post_init__(self):
        check_number("T_end", self.T_end)
        check_processes(self.P, self.N_l)

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


def _gamma_scalar(gamma_bar) -> float:
    """A row's growth value as one float: itself (ODE) or its interface mean (PDE)."""
    return gamma_bar if isinstance(gamma_bar, float) else float(gamma_bar.mean())


class StepRow(NamedTuple):
    """What one fine step leaves behind: the values a trajectory reads.

    t is the time after the step, values the new state's
    ``observables()``, gamma_bar the growth value the step used (a float
    for the ODE model, one value per interface node for the PDE model)
    and cycles the cycle count of the micro problem behind it.  The row
    keeps no macro state.
    """

    t: float
    values: tuple
    gamma_bar: object
    cycles: int


@dataclass
class TrajectoryRecord:
    """Per-macro-step scalar history of a two-scale run.

    Row n describes the state after n fine steps: its time t[n] and
    values[n], the state's observables named by ``columns`` (the first
    is the stopping functional).  gamma_scalar[n] and cycles[n] describe
    the micro problem that produced step n (NaN and 0 at n=0).  The
    record keeps no states: a caller that needs a field at some step
    advances to it with ``advance_two_scale``.
    """

    columns: tuple
    t: np.ndarray
    values: np.ndarray
    gamma_scalar: np.ndarray
    cycles: np.ndarray

    def __len__(self):
        return len(self.t)

    @property
    def functionals(self) -> np.ndarray:
        return self.values[:, 0]

    @property
    def width(self) -> np.ndarray:
        """Channel width 2h at the domain center."""
        return 2.0 * (1.0 - self.functionals)

    @property
    def endpoint(self) -> float:
        return float(self.functionals[-1])

    @classmethod
    def from_steps(cls, state0, steps) -> "TrajectoryRecord":
        """Record of state0 followed by the ``StepRow``s of steps."""
        return cls(
            columns=state0.columns,
            t=np.array([state0.t] + [row.t for row in steps]),
            values=np.array([state0.observables()] + [row.values for row in steps]),
            gamma_scalar=np.array([np.nan] + [_gamma_scalar(row.gamma_bar) for row in steps]),
            cycles=np.array([0] + [row.cycles for row in steps], dtype=int),
        )


def advance_two_scale(macro, micro, n_steps: int, dt: float,
                      growth_params: growth.GrowthParams,
                      micro_params: microflow.MicroParams):
    """Advance n_steps of the two-scale loop; the fine propagator.

    Returns (macro, micro, steps) where steps holds one ``StepRow`` per
    step; only the end states outlive the call.  Every step solves one
    micro problem and performs one growth-model update.  The call counts
    nothing; ``parareal`` counts each finished sweep from its rows'
    cycles.
    """
    steps = []
    for _ in range(n_steps):
        sample, micro = microflow.solve_micro_problem(micro, macro, micro_params,
                                                      growth_params)
        macro = macro.step(sample.gamma_bar, dt, growth_params)
        steps.append(StepRow(macro.t, macro.observables(), sample.gamma_bar,
                             sample.cycles_used))
    return macro, micro, steps


def run_serial(schedule: Schedule, growth_params: growth.GrowthParams,
               micro_params: microflow.MicroParams, macro0, micro0) -> TrajectoryRecord:
    """Serial reference run over all N_l macro steps.

    The micro state is warm-started across steps from the quasi-periodic
    state of the previous one.  The record's ``cycles[1:]`` are the
    cycles of its N_l micro problems, from which ``parareal.run`` counts
    the serial run.
    """
    _, _, steps = advance_two_scale(
        macro0, micro0, schedule.N_l, schedule.dt, growth_params, micro_params,
    )
    return TrajectoryRecord.from_steps(macro0, steps)


def run_coarse_step(macro, micro, dT: float, mode: str,
                    growth_params: growth.GrowthParams,
                    micro_params: microflow.MicroParams):
    """One coarse-propagator step of size dT.

    mode "two_scale" solves one micro problem; mode "heuristic" uses the
    stationary surrogate instead, which integrates no cycle.  Returns
    (new macro state, new micro state, GrowthSample); the caller counts
    the step from the sample's ``cycles_used``.
    """
    if not dT > 0:
        raise ValueError(f"dT must be positive, got {dT}")
    if mode == "two_scale":
        sample, micro = microflow.solve_micro_problem(micro, macro, micro_params,
                                                      growth_params)
    elif mode == "heuristic":
        sample = microflow.solve_stationary_surrogate(macro, micro_params, growth_params)
        micro = microflow.MicroState(micro_params.mean_inflow)
    else:
        raise ValueError(f"unknown coarse mode {mode!r}")
    return macro.step(sample.gamma_bar, dT, growth_params), micro, sample


def trajectory_to_csv(rec: TrajectoryRecord, path):
    """Write the trajectory time series as CSV.

    Columns: t_days, the record's ``columns`` (c_s for the ODE model,
    c_mid and c_mean for the PDE model), gamma_bar (mean over the
    interface for the PDE model), width (2h at the center) and cycles of
    the micro problem behind each step.
    """
    def r(v):
        return repr(float(v))

    width = rec.width
    with open(path, "w", encoding="utf-8") as f:
        f.write(",".join(("t_days", *rec.columns, "gamma_bar,width,cycles")) + "\n")
        for n in range(len(rec)):
            cells = (rec.t[n] / DAY, *rec.values[n], rec.gamma_scalar[n], width[n])
            f.write(",".join(map(r, cells)) + f",{rec.cycles[n]}\n")
