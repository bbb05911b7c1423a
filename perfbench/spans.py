"""Span tracing of plaquepar's public functions and the per-layer metrics.

The tracer swaps each function in ``TRACED`` for a timing wrapper on its
module attribute, and on every plaquepar module that imported it by name
(``parareal`` imports ``advance_two_scale``, ``run_coarse_step`` and
``run_serial`` that way).  Each span records name, start, end, parent
span (a thread-local stack) and thread id.  Spans stay in memory and are
written to a file when the traced call returns; ``layer_metrics`` turns
that file into the per-layer numbers and reconciles the call counts with
the cost ledger.
"""

import functools
import importlib
import itertools
import json
import sys
import threading
import time
from collections import defaultdict, namedtuple

# (module, attribute) pairs; a dotted attribute names a method.
TRACED = (
    ("microflow", "solve_micro_problem"),
    ("microflow", "advance_cycle"),
    ("growth", "macro_step_ode"),
    ("growth", "macro_step_pde"),
    ("growth", "imex_system"),
    ("twoscale", "run_serial"),
    ("twoscale", "advance_two_scale"),
    ("twoscale", "run_coarse_step"),
    ("twoscale", "trajectory_to_csv"),
    ("parareal", "run"),
    ("parareal", "PararealEngine.initialize"),
    ("parareal", "PararealEngine.iterate"),
)

# Ledger fields of each parareal.run report that the reconciliation uses.
_REPORT_KEYS = ("N_l", "k_par", "micro_problems_fine", "micro_problems_coarse",
                "rd_solves_fine", "rd_solves_coarse", "messages")

Span = namedtuple("Span", "id name parent thread start end")


class Tracer:
    """Records spans of the wrapped functions in memory."""

    def __init__(self):
        self.spans = []
        self.reports = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def wrap(self, name, fn, on_return=None):
        local, ids, spans = self._local, self._ids, self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            sid = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans.append((sid, name, parent, threading.get_ident(), start, end))
            if on_return is not None:
                on_return(result)
            return result
        return traced

    def _keep_report(self, report):
        data = report.to_dict()
        self.reports.append({k: data[k] for k in _REPORT_KEYS})

    def install(self):
        """Wrap every TRACED function on its owner and on its by-name importers."""
        for module_name, attr in TRACED:
            module = importlib.import_module(f"plaquepar.{module_name}")
            *owner_path, fname = attr.split(".")
            owner = functools.reduce(getattr, owner_path, module)
            original = getattr(owner, fname)
            on_return = (self._keep_report if (module_name, attr) == ("parareal", "run")
                         else None)
            wrapper = self.wrap(f"{module_name}.{fname}", original, on_return)
            setattr(owner, fname, wrapper)
            if owner_path:
                continue
            for name, other in list(sys.modules.items()):
                if name.startswith("plaquepar") and getattr(other, fname, None) is original:
                    setattr(other, fname, wrapper)

    def dump(self, path, wall_s):
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"wall_s": wall_s, "reports": self.reports,
                       "spans": self.spans}, f)


def _safe_div(a, b):
    return a / b if b else 0.0


def layer_metrics(trace: dict):
    """Per-layer metrics of one traced run.

    Returns (metrics, failures); ``failures`` lists every count that does
    not reconcile exactly with the cost ledger of the parareal reports.
    """
    spans = [Span(*s) for s in trace["spans"]]
    by_id = {s.id: s for s in spans}
    by_name = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)
    reports = trace["reports"]
    wall = trace["wall_s"]

    def dur(s):
        return s.end - s.start

    def total(name):
        return sum((dur(s) for s in by_name[name]), 0.0)

    def mean_us(group):
        return 1e6 * _safe_div(sum(dur(s) for s in group), len(group))

    def inside(s, name):
        p = s.parent
        while p:
            if by_id[p].name == name:
                return True
            p = by_id[p].parent
        return False

    micro = by_name["microflow.solve_micro_problem"]
    cycles = by_name["microflow.advance_cycle"]
    rd = by_name["growth.macro_step_ode"] + by_name["growth.macro_step_pde"]
    imex_child = defaultdict(float)
    for s in by_name["growth.imex_system"]:
        imex_child[s.parent] += dur(s)
    pde_steps = by_name["growth.macro_step_pde"]
    imex_solve_us = 1e6 * _safe_div(sum(dur(s) - imex_child[s.id] for s in pde_steps),
                                    len(pde_steps))

    reference_s = total("twoscale.run_serial")
    sweeps = [s for s in by_name["twoscale.advance_two_scale"]
              if not inside(s, "twoscale.run_serial")]
    iterates = by_name["parareal.iterate"]
    phase_s = fine_max_s = busy_s = mean_sum_s = 0.0
    for it in iterates:
        own = [s for s in sweeps if it.start <= s.start <= it.end]
        if own:
            phase_s += max(s.end for s in own) - min(s.start for s in own)
            fine_max_s += max(dur(s) for s in own)
            busy = sum(dur(s) for s in own)
            busy_s += busy
            mean_sum_s += busy / len(own)
    init_s = total("parareal.initialize")
    master_s = total("parareal.iterate") - phase_s
    parallel_s = init_s + master_s + fine_max_s
    n_runs = len(by_name["parareal.run"])
    outside_run_reference = sum(dur(s) for s in by_name["twoscale.run_serial"]
                                if not inside(s, "parareal.run"))

    ledger = {k: sum(r[k] for r in reports) for k in _REPORT_KEYS}
    metrics = {
        "microflow.micro_calls": len(micro),
        "microflow.us_per_micro": mean_us(micro),
        "microflow.us_per_cycle": mean_us(cycles),
        "microflow.cycles_per_micro": _safe_div(len(cycles), len(micro)),
        "growth.rd_calls": len(rd),
        "growth.us_per_rd": mean_us(rd),
        "growth.us_per_imex_assembly": mean_us(by_name["growth.imex_system"]),
        "growth.us_per_imex_solve": imex_solve_us,
        "twoscale.reference_s": reference_s,
        "twoscale.reference_share": _safe_div(reference_s, wall),
        "twoscale.fine_sweep_s": sum(dur(s) for s in sweeps),
        "twoscale.us_per_coarse_step": mean_us(by_name["twoscale.run_coarse_step"]),
        "twoscale.csv_s": total("twoscale.trajectory_to_csv"),
        "parareal.init_s": init_s,
        "parareal.iterations": len(iterates),
        "parareal.fine_phase_s": phase_s,
        "parareal.fine_max_s": fine_max_s,
        "parareal.master_s": master_s,
        "parareal.measured_parallel_s": parallel_s,
        # each parareal run replaces one serial reference run
        "parareal.measured_speedup": _safe_div(reference_s * n_runs, parallel_s),
        "parareal.thread_overlap": _safe_div(busy_s, phase_s),
        "parareal.load_imbalance": _safe_div(fine_max_s, mean_sum_s),
        "costs.micro_fine": ledger["micro_problems_fine"],
        "costs.micro_coarse": ledger["micro_problems_coarse"],
        "costs.rd_fine": ledger["rd_solves_fine"],
        "costs.rd_coarse": ledger["rd_solves_coarse"],
        "costs.messages": ledger["messages"],
        "cli.overhead_s": wall - total("parareal.run") - outside_run_reference,
    }

    failures = []
    if not reports:
        return metrics, ["no parareal.run call was recorded"]
    n_l = {r["N_l"] for r in reports}
    if len(n_l) != 1:
        return metrics, [f"parareal runs disagree on N_l: {sorted(n_l)}"]
    reference_steps = n_l.pop() * len(by_name["twoscale.run_serial"])
    checks = (
        ("microflow.micro_calls", len(micro),
         ledger["micro_problems_fine"] + ledger["micro_problems_coarse"] + reference_steps),
        ("growth.rd_calls", len(rd),
         ledger["rd_solves_fine"] + ledger["rd_solves_coarse"] + reference_steps),
        ("parareal.iterations", len(iterates), ledger["k_par"]),
    )
    for name, counted, expected in checks:
        if counted != expected:
            failures.append(f"{name} = {counted} does not reconcile with the ledger "
                            f"({expected})")
    return metrics, failures
