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

The synthetic runtime model charges one unit per micro time step
(N_s * cycles per micro problem) and t_rd per growth-model solve, and
estimates the parallel runtime as coarse (serial master) time plus the
maximum fine time over the processes.
"""

import math
import threading
import warnings
from dataclasses import dataclass

__all__ = [
    "CostLedger",
    "CostModelParams",
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


def _check_kp(k: int, P: int, N_l: int):
    if k < 1:
        raise ValueError(f"iteration count must be >= 1, got {k}")
    if not 1 <= P <= N_l:
        raise ValueError(f"P must satisfy 1 <= P <= N_l={N_l}, got {P}")


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
    return math.sqrt(N_l) / 2.0 + 1.0


def speedup_efficiency(count: int, N_l: int, P: int):
    """Speedup N_l/count versus the serial reference and efficiency speedup/P."""
    if count <= 0:
        raise ValueError(f"micro-problem count must be positive, got {count}")
    speedup = N_l / count
    return speedup, speedup / P


def optimal_processes(N_l: int, mode: str = "standard", k: int | None = None) -> int:
    """Process count minimizing the cost model (k assumed P-independent).

    standard: P ~ sqrt(N_l);  reusage: P ~ sqrt(k * N_l).
    """
    if mode == "standard":
        return max(1, round(math.sqrt(N_l)))
    if mode == "reusage":
        if k is None:
            raise ValueError("reusage optimum needs the iteration count k")
        return max(1, round(math.sqrt(k * N_l)))
    raise ValueError(f"unknown mode {mode!r}")


@dataclass
class CostModelParams:
    """Synthetic unit costs of the runtime model.

    fsi_step_cost is charged per micro time step, so a micro problem
    costs N_s * cycles * fsi_step_cost; t_rd is charged per growth-model
    solve.
    """

    fsi_step_cost: float = 1.0
    t_rd: float = 0.01

    def __post_init__(self):
        for name in ("fsi_step_cost", "t_rd"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite, "
                                 f"got {getattr(self, name)}")
        per_micro = self.fsi_step_cost * 100
        if per_micro < 10 * self.t_rd:
            warnings.warn(
                "cost model assumes micro problems dominate (per-micro cost >> t_rd); "
                f"got per-micro {per_micro:g} vs t_rd {self.t_rd:g}",
                stacklevel=2,
            )


class CostLedger:
    """Thread-safe counters for micro problems and growth-model solves.

    Fine-level work is attributed to a process index so that parallel
    runtimes (max over processes) and serial-equivalent counts can be
    derived after the run.  Increments are commutative, which keeps
    totals independent of the worker scheduling.
    """

    def __init__(self, n_processes: int = 1):
        if n_processes < 1:
            raise ValueError(f"need at least one process, got {n_processes}")
        self._lock = threading.Lock()
        self.n_processes = n_processes
        self.micro_fine = 0
        self.micro_coarse = 0
        self.rd_fine = 0
        self.rd_coarse = 0
        self.messages = 0
        self.per_process_micro = [0] * n_processes
        self.per_process_fsi_steps = [0] * n_processes
        self.per_process_rd = [0] * n_processes
        self.fsi_steps_coarse = 0

    def add_micro(self, level: str, cycles: int, n_steps: int, process=None):
        """Count one micro problem of `cycles` cycles with n_steps steps each."""
        steps = cycles * n_steps
        with self._lock:
            if level == "fine":
                p = 0 if process is None else process
                self.micro_fine += 1
                self.per_process_micro[p] += 1
                self.per_process_fsi_steps[p] += steps
            elif level == "coarse":
                self.micro_coarse += 1
                self.fsi_steps_coarse += steps
            else:
                raise ValueError(f"unknown level {level!r}")

    def add_rd(self, level: str, process=None):
        """Count one growth-model solve (ODE update or IMEX step)."""
        with self._lock:
            if level == "fine":
                self.rd_fine += 1
                self.per_process_rd[0 if process is None else process] += 1
            elif level == "coarse":
                self.rd_coarse += 1
            else:
                raise ValueError(f"unknown level {level!r}")

    def add_message(self, n: int = 1):
        with self._lock:
            self.messages += n

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

    def synthetic_time_fine_max(self, params: CostModelParams) -> float:
        """Largest per-process fine time under the synthetic cost model."""
        return max(
            self._fine_seconds(p, params) for p in range(self.n_processes)
        )

    def synthetic_time_coarse(self, params: CostModelParams) -> float:
        return (params.fsi_step_cost * self.fsi_steps_coarse
                + params.t_rd * self.rd_coarse)

    def _fine_seconds(self, p: int, params: CostModelParams) -> float:
        return (params.fsi_step_cost * self.per_process_fsi_steps[p]
                + params.t_rd * self.per_process_rd[p])


def estimate_parallel_runtime(ledger: CostLedger | None = None,
                              params: CostModelParams | None = None, *,
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
    params = params or CostModelParams()
    return ledger.synthetic_time_coarse(params) + ledger.synthetic_time_fine_max(params)


def _fmt(v):
    if v is None:
        return "-"
    if isinstance(v, int):
        return str(v)
    if isinstance(v, float):
        return f"{v:.3g}" if (v != 0 and (abs(v) < 1e-2 or abs(v) >= 1e4)) else f"{v:.4g}"
    return str(v)


def _sweep_rows(columns):
    """Shared row layout of the sweep table: iterations block + footer."""
    max_iters = max(len(c["errors"]) for c in columns)
    rows = []
    for k in range(max_iters):
        cells = [c["errors"][k] if k < len(c["errors"]) else None for c in columns]
        rows.append((str(k + 1), cells, None))
    for key, label in (("mp", "# mp"), ("speedup", "speedup"),
                       ("efficiency", "efficiency"), ("runtime", "est. runtime")):
        if all(c.get(key) is None for c in columns):
            continue
        vals = [c.get(key) for c in columns]
        best = None
        numeric = [(i, v) for i, v in enumerate(vals) if v is not None]
        if len(numeric) > 1:
            pick = min if key in ("mp", "runtime") else max
            best = pick(numeric, key=lambda t: t[1])[0]
        rows.append((label, vals, best))
    return rows


def format_sweep_table(columns, reference=None) -> str:
    """Aligned-text table over P: error rows per iteration, cost footer.

    ``columns`` is a list of dicts with keys P, errors (list per
    iteration), mp, speedup, efficiency and optionally runtime; the best
    footer entry per row is marked with ``*`` (the paper prints it
    bold).  ``reference`` adds a serial reference column.
    """
    header = ["k"] + [f"P={c['P']}" for c in columns]
    if reference is not None:
        header.append("ref. (serial)")
    body = []
    for label, cells, best in _sweep_rows(columns):
        row = [label]
        for i, v in enumerate(cells):
            mark = "*" if best is not None and i == best else ""
            if label == "efficiency" and v is not None:
                row.append(f"{100.0 * v:.0f}%" + mark)
            else:
                row.append(_fmt(v) + mark)
        if reference is not None:
            row.append(_fmt(reference.get(label)))
        body.append(row)
    widths = [max(len(r[i]) for r in [header] + body) for i in range(len(header))]
    lines = ["  ".join(h.ljust(w) for h, w in zip(header, widths))]
    lines.append("  ".join("-" * w for w in widths))
    for row in body:
        lines.append("  ".join(c.rjust(w) for c, w in zip(row, widths)))
    return "\n".join(lines) + "\n"


def sweep_table_csv(columns) -> str:
    """CSV version of the sweep table with an explicit best-marker field."""
    lines = ["row," + ",".join(f"P={c['P']}" for c in columns) + ",best"]
    for label, cells, best in _sweep_rows(columns):
        marker = f"P={columns[best]['P']}" if best is not None else ""
        lines.append(
            label.replace(" ", "_") + ","
            + ",".join("" if v is None else repr(v if isinstance(v, int) else float(v))
                       for v in cells)
            + f",{marker}"
        )
    return "\n".join(lines) + "\n"
