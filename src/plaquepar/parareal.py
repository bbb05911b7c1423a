"""Parareal engine on the macro scale with three coarse-propagator variants.

Modes:

* "standard": the coarse propagator is one two-scale step of size dT per
  interval; the predictor-corrector update is
  c^{k+1}(T_{p+1}) = C(c^{k+1}(T_p)) + F(c^k(T_p)) - C(c^k(T_p)),
  with the last term cached from the previous iteration.
* "heuristic": same update, but C uses the stationary (heuristically
  averaged) surrogate and costs no micro problems.
* "reusage": the fine sweeps store their cycle-averaged growth values at
  every fine step; the coarse propagation then re-runs the growth model
  over the whole fine grid from those stored values (no corrector terms
  and no coarse micro problems after initialization).

The P fine sweeps of one iteration are independent; the paper runs them
on P processes, and the engine runs them one after another in interval
order in the calling thread, counting the same micro problems, growth
solves and messages per process.  Warm starts follow the written
algorithms: standard/heuristic sweeps reuse the interval's
initialization micro state on the same process each iteration, while
re-usage passes the micro state of the neighboring interval's last fine
step across processes.

With P=1 ``run`` is the serial two-scale run: it returns the report of
``twoscale.run_serial`` and never builds the engine.  That is the only
serial path; the CLI's "serial" mode goes through it.
"""

import dataclasses
import math
from dataclasses import dataclass

from . import growth, microflow
from .costs import CostLedger, estimate_parallel_runtime, speedup_efficiency
from .errors import ConfigError, PararealNonConvergenceError
from .twoscale import (Schedule, TrajectoryRecord, advance_two_scale,
                       run_coarse_step, run_serial)

__all__ = ["PararealEngine", "PararealReport", "run"]

_MODES = ("standard", "heuristic", "reusage")


class PararealEngine:
    """Coordinator/worker implementation of the parareal iteration.

    Holds the interval-boundary iterate values, the cached coarse
    results, warm-start micro states and (for re-usage) the stored
    growth values.  ``initialize`` runs the coarse sweep of step (I);
    each ``iterate`` performs one full parareal iteration.
    """

    def __init__(self, schedule: Schedule, growth_params: growth.GrowthParams,
                 micro_params: microflow.MicroParams, macro0, micro0, *,
                 mode: str = "standard"):
        if mode not in _MODES:
            raise ConfigError(f"mode must be one of {_MODES}, got {mode!r}")
        if schedule.P < 2:
            raise ConfigError("the parareal engine needs P >= 2; run() takes P=1 "
                              "as the serial path")
        self.sched = schedule
        self.gp = growth_params
        self.mp = micro_params
        self.macro0 = macro0
        self.micro0 = micro0
        self.mode = mode
        self.ledger = CostLedger(schedule.P)

        self._steps = schedule.interval_steps()
        self._bounds = schedule.boundaries()
        self._coarse_kind = "heuristic" if mode == "heuristic" else "two_scale"

        self.k = 0
        self.c_bar = None         # iterate values at T_0..T_P
        self.w_init = None        # micro states of the initialization sweep
        self.c_coarse = None      # C(c^{(k)}(T_p)) of the latest coarse sweep at index p
        self.fine_end_w = None    # per-interval final micro states (re-usage)
        self.last_steps = None    # StepRow per fine step, latest iteration
        self.endpoints = {"fine": [], "coarse": []}  # stopping functionals per variant

    # -- coarse sweep: step (I) and the update of (II) ----------------------

    def _coarse_sweep(self, fine_ends=None):
        """One coarse sweep over the P intervals from ``macro0``.

        The master's warm-start micro chain starts at ``micro0``.  Without
        ``fine_ends`` the interval values are the plain coarse values of
        step (I); with the fine end states of the latest iteration each one
        is corrected to C(c^{(k+1)}(T_p)) + F(c^{(k)}(T_p)) - C(c^{(k)}(T_p)).
        Keeps the new coarse values as the C(c^{(k)}) of the next sweep and
        returns (values at T_0..T_P, micro states at T_0..T_P).
        """
        values, micro, coarse = [self.macro0], [self.micro0], []
        for p in range(self.sched.P):
            c, w, _ = run_coarse_step(
                values[p], micro[p], self._steps[p] * self.sched.dt, self._coarse_kind,
                self.gp, self.mp, self.ledger,
            )
            values.append(c if fine_ends is None
                          else c.combine(fine_ends[p], self.c_coarse[p]))
            micro.append(w)
            coarse.append(c)
        self.c_coarse = coarse
        return values, micro

    def initialize(self):
        """Step (I): the coarse sweep filling c^{(0)}(T_p) and the warm starts."""
        self.c_bar, self.w_init = self._coarse_sweep()
        endpoint = self.c_bar[-1].functional()
        self.endpoints = {"fine": [endpoint], "coarse": [endpoint]}
        self.k = 0
        return self

    # -- fine sweeps (II.a) -------------------------------------------------

    def _restart(self, p):
        """Interval start state at T_p with the boundary time stamped on it."""
        return dataclasses.replace(self.c_bar[p], t=self._bounds[p] * self.sched.dt)

    def _warm_starts(self):
        """Initialization micro states, or the neighbors' last fine ones once
        re-usage has stored them."""
        if self.fine_end_w is not None:
            return [self.micro0] + self.fine_end_w[: self.sched.P - 1]
        return self.w_init[: self.sched.P]

    # -- one parareal iteration (II) ----------------------------------------

    def iterate(self):
        """Fine sweeps from the current iterate, then the master's update."""
        if self.c_bar is None:
            raise RuntimeError("call initialize() before iterate()")
        P = self.sched.P
        ends, end_micro, steps = [], [], []
        for p, warm in enumerate(self._warm_starts()):
            end, w, interval_steps = advance_two_scale(
                self._restart(p), warm, self._steps[p], self.sched.dt,
                self.gp, self.mp, ledger=self.ledger, process=p,
            )
            ends.append(end)
            end_micro.append(w)
            steps += interval_steps
        if self.mode == "reusage":
            new_c = self._reusage_update(end_micro, steps)
        else:
            new_c = self._standard_update(ends)
        self.ledger.add_message(P)  # broadcast updated interval starts

        self.c_bar = new_c
        self.last_steps = steps
        self.k += 1
        self.endpoints["fine"].append(ends[-1].functional())
        self.endpoints["coarse"].append(new_c[-1].functional())
        return self

    def _standard_update(self, fine_ends):
        """Corrected coarse sweep: C(new) + F(old) - C(old) per interval."""
        self.ledger.add_message(self.sched.P)  # fine endpoints to the master
        return self._coarse_sweep(fine_ends)[0]

    def _reusage_update(self, end_micro, steps):
        """Coarse re-propagation on the fine grid from the stored growth values."""
        P = self.sched.P
        self.fine_end_w = end_micro
        self.ledger.add_message(P)  # stored growth values to the master
        self.ledger.add_message(P)  # micro states to the neighboring process

        stored = [row.gamma_bar for row in steps]
        assert len(stored) == self.sched.N_l
        c = self.macro0
        new_c = [c]
        for p in range(P):
            for j in range(self._bounds[p], self._bounds[p + 1]):
                c = c.step(stored[j], self.sched.dt, self.gp)
                self.ledger.add_rd("coarse")
            new_c.append(c)
        return new_c

    # -- assembled output ----------------------------------------------------

    def trajectory(self) -> TrajectoryRecord:
        """Concatenated fine trajectory of the latest iteration."""
        if self.last_steps is None:
            raise RuntimeError("no fine sweeps have been run yet")
        return TrajectoryRecord.from_steps(self.macro0, self.last_steps)


@dataclass
class PararealReport:
    """Outcome of a parareal run, serializable for report.json."""

    mode: str
    P: int
    N_l: int
    k_par: int
    converged: bool
    stopping: str
    eps_par: float
    per_iteration: list
    ledger: CostLedger
    endpoint: float
    reference_endpoint: float
    speedup: float
    efficiency: float
    estimated_runtime: float
    trajectory: TrajectoryRecord

    def to_dict(self) -> dict:
        led = self.ledger
        return {
            "mode": self.mode,
            "P": self.P,
            "N_l": self.N_l,
            "k_par": self.k_par,
            "converged": self.converged,
            "stopping": self.stopping,
            "eps_par": self.eps_par,
            "per_iteration_errors": self.per_iteration,
            "micro_problems_fine": led.micro_fine,
            "micro_problems_coarse": led.micro_coarse,
            "micro_problems_serial_equivalent": led.micro_serial_equivalent,
            "rd_solves_fine": led.rd_fine,
            "rd_solves_coarse": led.rd_coarse,
            "per_process_micro": list(led.per_process_micro),
            "messages": led.messages,
            "speedup": self.speedup,
            "efficiency": self.efficiency,
            "estimated_runtime": self.estimated_runtime,
            "endpoint": self.endpoint,
            "reference_endpoint": self.reference_endpoint,
        }


def run(schedule: Schedule, growth_params: growth.GrowthParams,
        micro_params: microflow.MicroParams, macro0, micro0, *,
        mode: str = "standard", stopping: str = "fine", eps_par: float = 1e-3,
        max_iters: int = 20,
        reference: TrajectoryRecord | None = None) -> PararealReport:
    """Run the parareal algorithm until |s_k - s_{k-1}| <= eps_par.

    The stopping functional s_k is the fine endpoint value (stopping
    "fine") or the coarse iterate endpoint ("coarse"); s_0 comes from
    the initialization sweep.  Per-iteration errors are reported against
    a serial reference trajectory (computed here unless supplied).
    P=1 is the serial path: one ``run_serial`` call whose trajectory is
    also the reference, k_par = 0, labelled with ``mode`` as given (one
    of the engine modes, or "serial", which only P=1 accepts).

    Raises ConfigError when a supplied reference does not have N_l + 1
    points ending at T_end, and PararealNonConvergenceError (with the
    partial report attached) when max_iters is exhausted.
    """
    if mode not in _MODES and not (mode == "serial" and schedule.P == 1):
        raise ConfigError(f"mode must be one of {_MODES} (or 'serial' at P=1), "
                          f"got {mode!r}")
    if max_iters < 1:
        raise ConfigError(f"max_iters must be at least 1, got {max_iters}")
    if stopping not in ("fine", "coarse"):
        raise ConfigError(f"stopping must be 'fine' or 'coarse', got {stopping!r}")
    if not eps_par > 0:
        raise ConfigError(f"eps_par must be positive, got {eps_par}")
    if reference is not None and (
            len(reference) != schedule.N_l + 1
            or not math.isclose(reference.t[-1], schedule.T_end, rel_tol=1e-9)):
        raise ConfigError(
            f"reference has {len(reference)} points ending at t={reference.t[-1]!r}; "
            f"the schedule needs N_l + 1 = {schedule.N_l + 1} ending at "
            f"T_end={schedule.T_end!r}")
    if schedule.P == 1:
        ledger = CostLedger(1)
        trajectory = run_serial(schedule, growth_params, micro_params, macro0,
                                micro0, ledger)
        k, converged, per_iteration = 0, True, []
        endpoint = ref_end = trajectory.endpoint
    else:
        if reference is None:
            reference = run_serial(schedule, growth_params, micro_params,
                                   macro0, micro0)
        ref_end = reference.endpoint
        engine = PararealEngine(
            schedule, growth_params, micro_params, macro0, micro0, mode=mode,
        ).initialize()
        per_iteration = []
        converged = False
        while engine.k < max_iters:
            engine.iterate()
            values = engine.endpoints[stopping]
            delta = abs(values[-1] - values[-2])
            per_iteration.append({
                "k": engine.k,
                "fine_error": abs(engine.endpoints["fine"][-1] - ref_end),
                "coarse_error": abs(engine.endpoints["coarse"][-1] - ref_end),
                "stopping_delta": delta,
            })
            if delta <= eps_par:
                converged = True
                break
        ledger, k, trajectory = engine.ledger, engine.k, engine.trajectory()
        endpoint = values[-1]

    speedup, efficiency = speedup_efficiency(ledger.micro_serial_equivalent,
                                             schedule.N_l, schedule.P)
    report = PararealReport(
        mode=mode, P=schedule.P, N_l=schedule.N_l, k_par=k,
        converged=converged, stopping=stopping, eps_par=eps_par,
        per_iteration=per_iteration, ledger=ledger, endpoint=endpoint,
        reference_endpoint=ref_end, speedup=speedup, efficiency=efficiency,
        estimated_runtime=estimate_parallel_runtime(ledger),
        trajectory=trajectory,
    )
    if not converged:
        raise PararealNonConvergenceError(
            f"parareal ({mode}) did not converge within {max_iters} iterations",
            report=report,
        )
    return report
