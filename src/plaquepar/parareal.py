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
solves and messages per process.  The engine does all cost counting,
one ledger call per event: ``add_fine_sweep`` per finished fine sweep,
from the cycles of the ``StepRow``s that ``advance_two_scale`` returns,
and ``add_coarse_step`` per coarse step, with the cycles of the
``GrowthSample`` of ``run_coarse_step`` (0 for the stationary surrogate
and for the re-usage master's steps); the propagators count nothing.
Warm starts follow the written algorithms and live in one list,
``PararealEngine.warm``, the micro state starting each interval's fine
sweep: ``initialize`` fills it with the initialization's coarse micro
states, which standard/heuristic sweeps reuse on the same process each
iteration, while each re-usage iteration replaces it with ``micro0``
and the neighboring intervals' last fine micro states, passed across
processes.

``run`` takes the serial reference run first: the one supplied, or one
``twoscale.run_serial`` call.  With P=1 that reference is the run: its
record is the report's trajectory, its endpoint both endpoints, and the
ledger counts its cycles; the engine is never built.  So a P=1 run is
one serial computation, and the CLI's "serial" mode goes through it.

A run failure inside the iteration (any ``RunError``, such as
``ChannelClosureError``, ``MicroNonConvergenceError`` or
``ImexStepError``) leaves ``run`` with the partial report attached, as
``PararealNonConvergenceError`` does: the completed iterations, the
ledger of every completed sweep and coarse step, and the latest
completed iteration's trajectory.
"""

import dataclasses
import math
from dataclasses import dataclass

from . import growth, microflow
from .costs import CostLedger, estimate_parallel_runtime, speedup_efficiency
from .errors import ConfigError, PararealNonConvergenceError, RunError, is_integer
from .twoscale import (Schedule, TrajectoryRecord, advance_two_scale,
                       run_coarse_step, run_serial)

__all__ = ["PararealEngine", "PararealReport", "check_run_settings", "run"]

MODES = ("standard", "heuristic", "reusage")
STOPPING = ("fine", "coarse")
# scenario mode -> engine mode; "serial" is the P = 1 run
ENGINE_MODE = {"serial": "serial", "parareal": "standard", "reusage": "reusage",
               "heuristic": "heuristic"}


def check_run_settings(P, mode, stopping="fine", eps_par=1e-3, max_iters=20):
    """The one check of the run settings, with run's defaults; raises ConfigError."""
    if mode not in MODES and not (mode == "serial" and P == 1):
        raise ConfigError(f"mode must be one of {MODES} (or 'serial' at P=1), got {mode!r}")
    if stopping not in STOPPING:
        raise ConfigError(f"stopping must be one of {STOPPING}, got {stopping!r}")
    if not 0 < eps_par < math.inf:
        raise ConfigError(f"eps_par must be positive and finite, got {eps_par}")
    if not (is_integer(max_iters) and max_iters >= 1):
        raise ConfigError(f"max_iters must be an integer >= 1, got {max_iters!r}")


class PararealEngine:
    """Coordinator/worker implementation of the parareal iteration.

    Holds the interval-boundary iterate values ``c_bar``, the cached
    coarse results and the micro states ``warm`` that start the P fine
    sweeps.  ``initialize`` runs the coarse sweep of step (I);
    each ``iterate`` performs one full parareal iteration.  ``ledger``
    counts every finished fine sweep and coarse step.
    """

    def __init__(self, schedule: Schedule, growth_params: growth.GrowthParams,
                 micro_params: microflow.MicroParams, macro0, micro0, *,
                 mode: str = "standard"):
        check_run_settings(schedule.P, mode)
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
        self._n_s = micro_params.n_steps

        self._steps = schedule.interval_steps()
        self._bounds = schedule.boundaries()
        self._coarse_kind = "heuristic" if mode == "heuristic" else "two_scale"

        self.k = 0
        self.c_bar = None         # iterate values at T_0..T_P
        self.warm = None          # micro states starting the P fine sweeps
        self.c_coarse = None      # C(c^{(k)}(T_p)) of the latest coarse sweep at index p
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
            c, w, sample = run_coarse_step(
                values[p], micro[p], self._steps[p] * self.sched.dt, self._coarse_kind,
                self.gp, self.mp,
            )
            self.ledger.add_coarse_step(sample.cycles_used, self._n_s)
            values.append(c if fine_ends is None
                          else c.combine(fine_ends[p], self.c_coarse[p]))
            micro.append(w)
            coarse.append(c)
        self.c_coarse = coarse
        return values, micro

    def initialize(self):
        """Step (I): the coarse sweep filling c^{(0)}(T_p) and the warm starts."""
        self.c_bar, micro = self._coarse_sweep()
        self.warm = micro[: self.sched.P]
        endpoint = self.c_bar[-1].functional()
        self.endpoints = {"fine": [endpoint], "coarse": [endpoint]}
        self.k = 0
        return self

    # -- one parareal iteration (II) ----------------------------------------

    def iterate(self):
        """Fine sweeps from the current iterate, then the master's update."""
        if self.c_bar is None:
            raise RuntimeError("call initialize() before iterate()")
        P = self.sched.P
        ends, end_micro, steps = [], [], []
        for p, warm in enumerate(self.warm):
            start = dataclasses.replace(self.c_bar[p], t=self._bounds[p] * self.sched.dt)
            end, w, interval_steps = advance_two_scale(
                start, warm, self._steps[p], self.sched.dt, self.gp, self.mp,
            )
            self.ledger.add_fine_sweep(p, [row.cycles for row in interval_steps], self._n_s)
            ends.append(end)
            end_micro.append(w)
            steps += interval_steps
        if self.mode == "reusage":
            # stored growth values to the master, micro states to the neighbor
            self.ledger.add_message(2 * P)
            self.warm = [self.micro0] + end_micro[: P - 1]
            new_c = self._reusage_update(steps)
        else:
            self.ledger.add_message(P)  # fine endpoints to the master
            new_c = self._coarse_sweep(ends)[0]
        self.ledger.add_message(P)  # broadcast updated interval starts

        self.c_bar = new_c
        self.last_steps = steps
        self.k += 1
        self.endpoints["fine"].append(ends[-1].functional())
        self.endpoints["coarse"].append(new_c[-1].functional())
        return self

    def _reusage_update(self, steps):
        """Coarse re-propagation on the fine grid from the stored growth values."""
        stored = [row.gamma_bar for row in steps]
        assert len(stored) == self.sched.N_l
        c = self.macro0
        new_c = [c]
        for p in range(self.sched.P):
            for j in range(self._bounds[p], self._bounds[p + 1]):
                c = c.step(stored[j], self.sched.dt, self.gp)
                self.ledger.add_coarse_step(0, self._n_s)
            new_c.append(c)
        return new_c

    # -- assembled output ----------------------------------------------------

    def trajectory(self) -> TrajectoryRecord:
        """Concatenated fine trajectory of the latest completed iteration.

        Before the first one completes, the one-row record of ``macro0``.
        """
        return TrajectoryRecord.from_steps(self.macro0, self.last_steps or [])


@dataclass
class PararealReport:
    """Outcome of a parareal run, serializable for report.json.

    ``speedup``, ``efficiency`` and ``estimated_runtime`` are derived
    from ``ledger``, ``N_l`` and ``P``; speedup and efficiency are NaN
    while no micro problem has been counted.
    """

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
    trajectory: TrajectoryRecord

    @property
    def speedup(self) -> float:
        count = self.ledger.micro_serial_equivalent
        return speedup_efficiency(count, self.N_l, self.P)[0] if count else math.nan

    @property
    def efficiency(self) -> float:
        return self.speedup / self.P

    @property
    def estimated_runtime(self) -> float:
        return estimate_parallel_runtime(self.ledger)

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
    At P=1 that reference is returned as the serial report: its record
    as the trajectory, its endpoint as both endpoints, its cycles in the
    ledger, k_par = 0, labelled with ``mode`` as given.

    Raises ConfigError from ``check_run_settings``, the one check of the
    run settings, or when a supplied reference does not have N_l + 1
    points ending at T_end, and PararealNonConvergenceError when
    max_iters is exhausted.  That error, and any RunError raised by the
    engine (ChannelClosureError, MicroNonConvergenceError, ImexStepError),
    carry the partial report (``converged`` False, k_par the completed
    iterations, the last completed iteration's trajectory, or the
    initial state's one-row record before the first).  A failure of the
    serial reference run carries none.
    """
    check_run_settings(schedule.P, mode, stopping, eps_par, max_iters)
    if reference is None:
        reference = run_serial(schedule, growth_params, micro_params, macro0, micro0)
    elif (len(reference) != schedule.N_l + 1
            or not math.isclose(reference.t[-1], schedule.T_end, rel_tol=1e-9)):
        raise ConfigError(
            f"reference has {len(reference)} points ending at t={reference.t[-1]!r}; "
            f"the schedule needs N_l + 1 = {schedule.N_l + 1} ending at "
            f"T_end={schedule.T_end!r}")
    ref_end = reference.endpoint
    if schedule.P == 1:
        ledger = CostLedger(1)
        ledger.add_fine_sweep(0, reference.cycles[1:], micro_params.n_steps)
        return PararealReport(
            mode=mode, P=1, N_l=schedule.N_l, k_par=0, converged=True, stopping=stopping,
            eps_par=eps_par, per_iteration=[], ledger=ledger, endpoint=ref_end,
            reference_endpoint=ref_end, trajectory=reference)

    engine = PararealEngine(schedule, growth_params, micro_params, macro0, micro0,
                            mode=mode)

    def report(converged):
        fine, coarse = engine.endpoints["fine"], engine.endpoints["coarse"]
        values = engine.endpoints[stopping]
        per_iteration = [{"k": k,
                          "fine_error": abs(fine[k] - ref_end),
                          "coarse_error": abs(coarse[k] - ref_end),
                          "stopping_delta": abs(values[k] - values[k - 1])}
                         for k in range(1, engine.k + 1)]
        endpoint = values[-1] if values else macro0.functional()
        return PararealReport(
            mode=mode, P=schedule.P, N_l=schedule.N_l, k_par=engine.k, converged=converged,
            stopping=stopping, eps_par=eps_par, per_iteration=per_iteration,
            ledger=engine.ledger, endpoint=endpoint, reference_endpoint=ref_end,
            trajectory=engine.trajectory())

    try:
        engine.initialize()
        while engine.k < max_iters:
            values = engine.iterate().endpoints[stopping]
            if abs(values[-1] - values[-2]) <= eps_par:
                return report(True)
    except RunError as exc:
        exc.report = report(False)
        raise
    raise PararealNonConvergenceError(
        f"parareal ({mode}) did not converge within {max_iters} iterations",
        report=report(False),
    )
