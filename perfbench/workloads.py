"""Benchmark workloads: pinned scenario inputs, CLI arguments and the output gate.

Every workload writes out a complete scenario (every ``Scenario`` field)
rather than naming a preset, so a later preset change cannot silently
change what is measured.  The paper problem has no random part, so the
inputs do not depend on the benchmark seed.

All workloads use ``stopping = coarse``: the ``fine`` rule stops
``ode_paper`` at k=1 with an error above ``eps_par`` (a known defect), and
a workload built on it would penalise the fix.
"""

import csv
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

THREADS = 2

# Relative tolerance of the recorded reference values.  The sweep records
# its per-column final errors instead (the sweep writes no reference
# endpoint); those are differences of two O(1) endpoints, so a last-bit
# change of either moves them by far more than 1e-9 relative.
REFERENCE_RTOL = 1e-9
SWEEP_ERROR_RTOL = 1e-6

_ODE_PAPER = {
    "model": "ode", "T_end_days": 300.0, "dt_days": 0.3, "P": 20,
    "delta_tau": 0.02, "eps_p": 0.001, "eps_par": 0.001, "max_iters": 20,
    "max_cycles": 10, "alpha": 5e-07, "sigma0": 30.0, "D_s": 1.2e-07,
    "R_s": 5e-07, "theta": 0.7, "reaction_sign": 1, "rho_f": 1.0,
    "nu_f": 0.04, "rho_s": 1.0, "lambda_relax": 9.0, "c_geo": 12.5,
    "inflow_amplitude": 30.0, "inflow_offset": 0.0, "h_min": 0.05,
    "nx": 101, "ny": 11, "mode": "parareal", "stopping": "coarse",
    "threads": THREADS, "out_dir": "out",
}

# pde_paper cut to 60 days at the preset's 0.2-day step (N_l = 300).
_PDE_60_DAYS = {
    "model": "pde", "T_end_days": 60.0, "dt_days": 0.2, "P": 10,
    "delta_tau": 0.02, "eps_p": 0.001, "eps_par": 0.0001, "max_iters": 20,
    "max_cycles": 10, "alpha": 5e-08, "sigma0": 30.0, "D_s": 1.2e-07,
    "R_s": 5e-07, "theta": 0.7, "reaction_sign": 1, "rho_f": 1.0,
    "nu_f": 0.04, "rho_s": 1.0, "lambda_relax": 9.0, "c_geo": 12.5,
    "inflow_amplitude": 30.0, "inflow_offset": 1.0, "h_min": 0.05,
    "nx": 101, "ny": 11, "mode": "parareal", "stopping": "coarse",
    "threads": THREADS, "out_dir": "out",
}

# The acceptance-criterion-2 setup (ODE, N_l = 16, P = 4); harness self-test only.
_TINY = {**_ODE_PAPER, "T_end_days": 24.0, "dt_days": 1.5, "P": 4}


@dataclass(frozen=True)
class Workload:
    """One benchmark input: a CLI command over a pinned scenario."""

    name: str
    command: str          # "run" or "sweep"
    scenario: dict
    mode: str             # CLI mode name
    P: tuple
    reference_endpoint: float | None = None  # recorded serial endpoint (run)
    final_errors: tuple | None = None        # recorded last-row errors (sweep)

    @property
    def N_l(self) -> int:
        return round(self.scenario["T_end_days"] / self.scenario["dt_days"])

    @property
    def eps_par(self) -> float:
        return self.scenario["eps_par"]

    def cli_args(self, scenario_path, out_dir) -> list:
        return [self.command, "--scenario", str(scenario_path),
                "--mode", self.mode, "--P", ",".join(str(p) for p in self.P),
                "--threads", str(THREADS), "--stopping", "coarse",
                "--out", str(out_dir)]


WORKLOADS = {w.name: w for w in (
    Workload("ode_sweep", "sweep", _ODE_PAPER, "parareal", (20, 30, 40, 50),
             final_errors=(0.0003237522653977143, 7.528514710630763e-05,
                           0.00015081937036898196, 7.763199658161746e-05)),
    Workload("pde_standard", "run", _PDE_60_DAYS, "parareal", (10,),
             reference_endpoint=0.12868409240352466),
    Workload("pde_reusage", "run", {**_PDE_60_DAYS, "mode": "reusage"},
             "reusage", (10,), reference_endpoint=0.12868409240352466),
    Workload("tiny", "run", _TINY, "parareal", (4,),
             reference_endpoint=0.4806406785960499),
)}


def write_scenario(workload: Workload, directory: Path) -> Path:
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"{workload.name}.json"
    path.write_text(json.dumps(workload.scenario, indent=2) + "\n", encoding="utf-8")
    return path


# Closed-form micro-problem counts of the cost model, kept independent of
# plaquepar.costs so that the gate does not check the program against itself.
def count_standard(k, P, N_l):
    return k * math.ceil(N_l / P) + (k + 1) * P


def count_reusage(k, P, N_l):
    return k * math.ceil(N_l / P) + P


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else part.encode())
        h.update(b"\0")
    return h.hexdigest()


def _close(a, b, rtol) -> bool:
    return abs(a - b) <= rtol * abs(b)


def check_outputs(workload: Workload, out_dir: Path):
    """Check one sample's output files.

    Returns (values, failures, digest): the deterministic end-to-end
    values, a list of failed checks (empty when all pass) and a digest of
    every output except the ``wall_clock`` block, which must be equal
    across the samples of a set.
    """
    if workload.command == "sweep":
        return _check_sweep(workload, Path(out_dir))
    return _check_run(workload, Path(out_dir))


def _check_run(w: Workload, out: Path):
    failures = []
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    report.pop("wall_clock", None)
    k, P, N_l = report["k_par"], report["P"], report["N_l"]
    if not report["converged"]:
        failures.append("not converged")
    if (P, N_l) != (w.P[0], w.N_l):
        failures.append(f"P, N_l = {P}, {N_l}; expected {w.P[0]}, {w.N_l}")
    count = count_reusage if w.mode == "reusage" else count_standard
    mp = report["micro_problems_serial_equivalent"]
    if k < 1 or mp != count(k, P, N_l):
        failures.append(f"micro_problems_serial_equivalent {mp} != "
                        f"{count.__name__}({k}, {P}, {N_l})")
    if w.mode == "reusage" and report["rd_solves_coarse"] != k * N_l + P:
        failures.append(f"rd_solves_coarse {report['rd_solves_coarse']} != "
                        f"k_par * N_l + P = {k * N_l + P}")
    err = abs(report["endpoint"] - report["reference_endpoint"])
    if not err <= w.eps_par:
        failures.append(f"endpoint error {err!r} > eps_par {w.eps_par!r}")
    if not _close(report["reference_endpoint"], w.reference_endpoint, REFERENCE_RTOL):
        failures.append(f"reference_endpoint {report['reference_endpoint']!r} differs "
                        f"from the recorded {w.reference_endpoint!r}")
    values = {"endpoint_err": err, "k_par": k, "micro_serial_eq": mp,
              "synthetic_runtime": report["estimated_runtime"]}
    digest = _digest(json.dumps(report, sort_keys=True),
                     (out / "trajectory.csv").read_bytes(),
                     (out / "table.txt").read_bytes())
    return values, failures, digest


def _check_sweep(w: Workload, out: Path):
    failures = []
    with open(out / "sweep.csv", newline="", encoding="utf-8") as f:
        rows = list(csv.reader(f))
    header, body = rows[0], {r[0]: r[1:] for r in rows[1:]}
    expected_header = ["row"] + [f"P={p}" for p in w.P] + ["best"]
    if header != expected_header:
        return {}, [f"sweep.csv header {header} != {expected_header}"], ""
    iter_rows = [body[key] for key in sorted((k for k in body if k.isdigit()), key=int)]
    values = {"endpoint_err": 0.0, "k_par": 0, "micro_serial_eq": 0,
              "synthetic_runtime": 0.0}
    for i, P in enumerate(w.P):
        errors = [float(r[i]) for r in iter_rows if r[i] != ""]
        k = len(errors)
        mp = int(body["#_mp"][i])
        if k < 1 or mp != count_standard(k, P, w.N_l):
            failures.append(f"P={P}: # mp {mp} != count_standard({k}, {P}, {w.N_l})")
            continue
        if not errors[-1] <= w.eps_par:
            failures.append(f"P={P}: final error {errors[-1]!r} > eps_par {w.eps_par!r}")
        if not _close(errors[-1], w.final_errors[i], SWEEP_ERROR_RTOL):
            failures.append(f"P={P}: final error {errors[-1]!r} differs from the "
                            f"recorded {w.final_errors[i]!r}")
        values["endpoint_err"] = max(values["endpoint_err"], errors[-1])
        values["k_par"] += k
        values["micro_serial_eq"] += mp
        values["synthetic_runtime"] += float(body["est._runtime"][i])
    digest = _digest((out / "sweep.csv").read_bytes(), (out / "table.txt").read_bytes())
    return values, failures, digest
