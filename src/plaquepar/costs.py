"""Cost accounting: ledger, closed-form counts, speedup and runtime models.

Computational cost is measured in micro problems (the unit of expensive
work) and growth-model solves ("rd" counters: reaction-diffusion steps
for the PDE model, scalar concentration updates for the ODE model).
Serial-equivalent counts follow the convention of counting fine-level
work once per process row (it runs in parallel over P processes) and
coarse-level work in full:

    standard parareal:  k * ceil(N_l/P) + (k+1) * P   micro problems
    heuristic coarse:   k * ceil(N_l/P)
    re-usage variant:   k * ceil(N_l/P) + P
    re-usage rd solves: k * (N_l + ceil(N_l/P)) + P

The synthetic runtime model charges FSI_STEP_COST (one unit) per micro
time step (N_s * cycles per micro problem) and T_RD per growth-model
solve, and estimates the parallel runtime as coarse (serial master) time
plus the maximum fine time over the processes.
"""

import math
import threading

from .errors import ConfigError, is_integer

__all__ = [
    "CostLedger",
    "count_standard",
    "count_reusage",
    "count_heuristic",
    "count_rd_reusage",
    "ratio_bound",
    "speedup_efficiency",
    "estimate_parallel_runtime",
    "optimal_processes",
    "format_sweep_table",
    "sweep_table_csv",
]


def _check_count(name: str, value, message: str | None = None):
    """The one integer rule for a count: an integer >= 1, else ConfigError."""
    if not is_integer(value):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    if value < 1:
        raise ConfigError(f"{message or name + ' must be >= 1'}, got {value}")


def _check_kp(k: int, P: int, N_l: int):
    for name, value in (("iteration count", k), ("P", P), ("N_l", N_l)):
        if not is_integer(value):
            raise ConfigError(f"{name} must be an integer, got {value!r}")
    if k < 1:
        raise ConfigError(f"iteration count must be >= 1, got {k}")
    if not 1 <= P <= N_l:
        raise ConfigError(f"P must satisfy 1 <= P <= N_l={N_l}, got {P}")


def count_standard(k: int, P: int, N_l: int) -> int:
    """Serial-equivalent micro problems of standard parareal."""
    _check_kp(k, P, N_l)
    return k * math.ceil(N_l / P) + (k + 1) * P


def count_reusage(k: int, P: int, N_l: int) -> int:
    """Micro problems of the re-usage variant (coarse solves only at init)."""
    _check_kp(k, P, N_l)
    return k * math.ceil(N_l / P) + P


def count_heuristic(k: int, P: int, N_l: int) -> int:
    """Micro problems with the heuristic (stationary) coarse propagator."""
    _check_kp(k, P, N_l)
    return k * math.ceil(N_l / P)


def count_rd_reusage(k: int, P: int, N_l: int) -> int:
    """Growth-model solves of the re-usage variant, k (N_l + ceil(N_l/P)) + P."""
    _check_kp(k, P, N_l)
    return k * (N_l + math.ceil(N_l / P)) + P


def ratio_bound(N_l: int) -> float:
    """Upper bound sqrt(N_l)/2 + 1 on rd solves per micro problem (re-usage)."""
    _check_count("N_l", N_l)
    return math.sqrt(N_l) / 2.0 + 1.0


def speedup_efficiency(count: int, N_l: int, P: int):
    """Speedup N_l/count versus the serial reference and efficiency speedup/P."""
    _check_count("micro-problem count", count, "micro-problem count must be positive")
    _check_count("N_l", N_l)
    _check_count("P", P, "need at least one process")
    speedup = N_l / count
    return speedup, speedup / P


def optimal_processes(N_l: int, mode: str = "standard", k: int | None = None) -> int:
    """Process count minimizing the cost model (k assumed P-independent).

    standard: P ~ sqrt(N_l);  reusage: P ~ sqrt(k * N_l).
    """
    _check_count("N_l", N_l)
    if mode == "standard":
        return max(1, round(math.sqrt(N_l)))
    if mode == "reusage":
        if k is None:
            raise ConfigError("reusage optimum needs the iteration count k")
        _check_count("iteration count k", k)
        return max(1, round(math.sqrt(k * N_l)))
    raise ConfigError(f"unknown mode {mode!r}")


# Synthetic unit costs: a micro problem of `cycles` cycles costs
# N_s * cycles * FSI_STEP_COST, so it dominates T_RD by far.
FSI_STEP_COST = 1.0
T_RD = 0.01


class CostLedger:
    """Thread-safe counters for micro problems and growth-model solves.

    One call per counted event: ``add_fine_sweep`` per finished fine
    sweep, ``add_coarse_step`` per coarse step, ``add_message`` per batch
    of messages; every total is derived from these.  Fine work is
    attributed to its process, so that parallel runtimes (max over
    processes) and serial-equivalent counts can be derived after the
    run; each fine step is one micro problem plus one growth-model solve.
    Increments are commutative, which keeps totals independent of the
    worker scheduling.  ``parareal.run`` and its engine fill the ledger;
    the propagators count nothing.
    """

    def __init__(self, n_processes: int):
        _check_count("n_processes", n_processes, "need at least one process")
        self._lock = threading.Lock()
        self.per_process_micro = [0] * n_processes
        self.per_process_fsi_steps = [0] * n_processes
        self.micro_coarse = 0
        self.fsi_steps_coarse = 0
        self.rd_coarse = 0
        self.messages = 0

    def add_fine_sweep(self, process: int, cycles, n_steps: int):
        """Count one finished fine sweep of ``process`` from its per-step cycle counts.

        Each step is one micro problem of ``cycles[i]`` cycles with
        n_steps steps each plus one growth-model solve.
        """
        n = len(cycles)
        steps = int(sum(cycles)) * n_steps
        with self._lock:
            self.per_process_micro[process] += n
            self.per_process_fsi_steps[process] += steps

    def add_coarse_step(self, cycles: int, n_steps: int):
        """Count one coarse growth-model solve, after a micro problem of
        ``cycles`` cycles with n_steps steps each; 0 cycles means the step
        solved none (stationary surrogate, re-usage re-propagation)."""
        with self._lock:
            self.rd_coarse += 1
            if cycles > 0:
                self.micro_coarse += 1
                self.fsi_steps_coarse += cycles * n_steps

    def add_message(self, n: int = 1):
        with self._lock:
            self.messages += n

    @property
    def micro_fine(self) -> int:
        return sum(self.per_process_micro)

    @property
    def rd_fine(self) -> int:
        return self.micro_fine

    @property
    def per_process_rd(self) -> list:
        return list(self.per_process_micro)

    @property
    def micro_total(self) -> int:
        return self.micro_fine + self.micro_coarse

    @property
    def micro_serial_equivalent(self) -> int:
        """max-per-process fine count plus all coarse micro problems."""
        return max(self.per_process_micro) + self.micro_coarse

    @property
    def rd_serial_equivalent(self) -> int:
        return max(self.per_process_rd) + self.rd_coarse

    def synthetic_time_fine_max(self) -> float:
        """Largest per-process fine time under the synthetic cost model."""
        return max(FSI_STEP_COST * steps + T_RD * rd
                   for steps, rd in zip(self.per_process_fsi_steps, self.per_process_rd))

    def synthetic_time_coarse(self) -> float:
        return FSI_STEP_COST * self.fsi_steps_coarse + T_RD * self.rd_coarse


def estimate_parallel_runtime(ledger: CostLedger | None = None, *,
                              coarse_seconds: float | None = None,
                              fine_max_seconds: float | None = None) -> float:
    """Estimated parallel runtime: serial coarse part + slowest fine process.

    With measured master/slave times supplied via ``coarse_seconds`` and
    ``fine_max_seconds`` those are recombined directly; otherwise both
    parts are derived from the ledger under the synthetic cost model.
    """
    if coarse_seconds is not None or fine_max_seconds is not None:
        if coarse_seconds is None or fine_max_seconds is None:
            raise ValueError("measured mode needs both coarse_seconds and fine_max_seconds")
        return coarse_seconds + fine_max_seconds
    if ledger is None:
        raise ValueError("either a ledger or measured seconds are required")
    return ledger.synthetic_time_coarse() + ledger.synthetic_time_fine_max()


def _fmt(v):
    if v is None:
        return "-"
    if isinstance(v, int):
        return str(v)
    if isinstance(v, float):
        return f"{v:.3g}" if (v != 0 and (abs(v) < 1e-2 or abs(v) >= 1e4)) else f"{v:.4g}"
    return str(v)


def _sweep_rows(columns):
    """Shared row layout of the sweep table: iterations block + footer.

    A failed column has no errors and shows its "failed" entry, the
    error type name, in every footer row; it is never the best.
    """
    max_iters = max(len(c["errors"]) for c in columns)
    rows = []
    for k in range(max_iters):
        cells = [c["errors"][k] if k < len(c["errors"]) else None for c in columns]
        rows.append((str(k + 1), cells, None))
    for key, label in (("mp", "# mp"), ("speedup", "speedup"),
                       ("efficiency", "efficiency"), ("runtime", "est. runtime")):
        vals = [c.get("failed", c.get(key)) for c in columns]
        if all(v is None for v in vals):
            continue
        best = None
        numeric = [(i, c[key]) for i, c in enumerate(columns) if c.get(key) is not None]
        if len(numeric) > 1:
            pick = min if key in ("mp", "runtime") else max
            best = pick(numeric, key=lambda t: t[1])[0]
        rows.append((label, vals, best))
    return rows


def format_sweep_table(columns, n_l: int) -> str:
    """Aligned-text table over P: error rows per iteration, cost footer.

    ``columns`` is a list of dicts with keys P, errors (list per
    iteration), mp, speedup, efficiency and optionally runtime, or, for
    a run that failed, P, errors (empty) and failed (the error type
    name, shown in each footer cell); the best footer entry per row is
    marked with ``*`` (the paper prints it bold).  The last column is
    the serial reference of ``n_l`` micro problems, speedup 1 and
    efficiency 1.
    """
    reference = {"# mp": n_l, "speedup": 1.0, "efficiency": 1.0}
    header = ["k"] + [f"P={c['P']}" for c in columns] + ["ref. (serial)"]
    body = []
    for label, cells, best in _sweep_rows(columns):
        row = [label]
        for i, v in enumerate(cells):
            mark = "*" if best is not None and i == best else ""
            if label == "efficiency" and isinstance(v, float):
                row.append(f"{100.0 * v:.0f}%" + mark)
            else:
                row.append(_fmt(v) + mark)
        row.append(_fmt(reference.get(label)))
        body.append(row)
    widths = [max(len(r[i]) for r in [header] + body) for i in range(len(header))]
    lines = ["  ".join(h.ljust(w) for h, w in zip(header, widths))]
    lines.append("  ".join("-" * w for w in widths))
    for row in body:
        lines.append("  ".join(c.rjust(w) for c, w in zip(row, widths)))
    return "\n".join(lines) + "\n"


def _csv_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, str):
        return v
    return repr(v if isinstance(v, int) else float(v))


def sweep_table_csv(columns) -> str:
    """CSV version of the sweep table with an explicit best-marker field."""
    lines = ["row," + ",".join(f"P={c['P']}" for c in columns) + ",best"]
    for label, cells, best in _sweep_rows(columns):
        marker = f"P={columns[best]['P']}" if best is not None else ""
        lines.append(
            label.replace(" ", "_") + ","
            + ",".join(_csv_cell(v) for v in cells)
            + f",{marker}"
        )
    return "\n".join(lines) + "\n"
