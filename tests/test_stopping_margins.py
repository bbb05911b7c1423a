"""The count decisions' margins on the benchmark inputs stay above a floor.

Every ledger count hangs on a comparison:

* the stopping rule ``|s_k - s_{k-1}| <= eps_par`` (k_par);
* the periodicity rule ``growth_change / scale < eps_p`` (cycles per
  micro problem, scale = alpha);
* the closure check ``h <= h_min`` (a failed run);
* the IMEX failure rule ``rho > growth._MAX_CONTRACTION`` (a failed run),
  rho the a-priori contraction bound of ``macro_step_pde``'s docstring.

A change that moves last bits (a batched sweep, another summation order,
another float grouping of the growth law) leaves the counts alone only if
no compared value sits within round-off of its threshold.  This test runs
the ``ode_sweep`` and ``pde_reusage`` benchmark inputs, read from
``perfbench/workloads.py``, column by column against one serial
reference each, records every compared value through wrappers set on
``ScalarState.growth_change``, ``FieldState.growth_change``,
``microflow._check_open`` and ``growth._fast_imex_solve`` (which
recomputes rho from the call's arguments), and asserts that the smallest
``|value / threshold - 1|`` of each rule, over the reference run and
every column, is at least MARGIN_FLOOR.  Only ``pde_reusage`` takes IMEX
steps.

Measured minima: eps_par 1.8e-2 on ``ode_sweep`` (P = 30, k = 2) and
0.35 on ``pde_reusage`` (P = 10, k = 3); eps_p 0.99 on both; closure
h / h_min = 2.65 on ``ode_sweep`` and 17.4 on ``pde_reusage``; IMEX
rho at most 0.0154 over the 2,110 steps of ``pde_reusage``, a margin of
0.98.
"""

import functools
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from plaquepar import cli, growth, microflow, twoscale
from plaquepar.growth import FieldState, ScalarState
from plaquepar.scenario import Scenario

ROOT = Path(__file__).resolve().parents[1]
MARGIN_FLOOR = 1e-3
WORKLOADS = ["ode_sweep", "pde_reusage"]


def _workloads():
    spec = importlib.util.spec_from_file_location("workloads",
                                                  ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WORKLOADS


@functools.cache
def margins(name):
    """Rule -> (smallest |value / threshold - 1| of the workload, where it was taken)."""
    w = _workloads()[name]
    # the scenario as the workload's command line sets it, P aside
    base = Scenario.from_dict({**w.scenario, "mode": w.mode, "stopping": "coarse", "P": 1})
    gp, mp = base.growth_params(), base.micro_params()
    scale = gp.alpha if gp.alpha > 0 else 1.0
    where = ["the reference"]
    found = {"eps_par": [], "eps_p": [], "closure": [], "imex": []}

    def check_open(h, params, _original=microflow._check_open):
        _original(h, params)
        found["closure"].append((float(np.min(h)) / params.h_min - 1.0, where[0]))

    def fast_imex_solve(grid, c_old, b, dt, p, _original=growth._fast_imex_solve):
        # rho = max|E| / lambda_min(M0), E = s R_s (c_old - c_mid),
        # lambda_min(M0) = 1/dt + s R_s (c_mid - theta) + D_s min(eigenvalue sum)
        c_mid = 0.5 * (float(np.min(c_old)) + float(np.max(c_old)))
        s = float(p.reaction_sign)
        e_max = float(np.max(np.abs(s * p.R_s * (c_old - c_mid))))
        lam_min = 1.0 / dt + s * p.R_s * (c_mid - p.theta) + p.D_s * grid.eigenvalue_sum_min
        rho = e_max / lam_min
        found["imex"].append((abs(rho / growth._MAX_CONTRACTION - 1.0), where[0], rho))
        return _original(grid, c_old, b, dt, p)

    with pytest.MonkeyPatch.context() as patch:
        for cls in (ScalarState, FieldState):
            def growth_change(self, new, old, _original=cls.growth_change):
                change = _original(self, new, old)
                found["eps_p"].append((abs(change / scale / mp.eps_p - 1.0), where[0]))
                return change
            patch.setattr(cls, "growth_change", growth_change)
        patch.setattr(microflow, "_check_open", check_open)
        patch.setattr(growth, "_fast_imex_solve", fast_imex_solve)
        reference = twoscale.run_serial(base.schedule(), gp, mp, *base.initial_states())
        for P in w.P:
            where[0] = f"P={P}"
            report = cli._run(Scenario.from_dict({**base.to_dict(), "P": P}), reference)
            for it in report.per_iteration:
                found["eps_par"].append((abs(it["stopping_delta"] / w.eps_par - 1.0),
                                         f"P={P}, k={it['k']}"))
    assert all(found[rule] for rule in ("eps_par", "eps_p", "closure")), name
    assert bool(found["imex"]) == (name == "pde_reusage"), name
    return {rule: min(values) for rule, values in found.items() if values}


@pytest.mark.parametrize("name", WORKLOADS)
def test_stopping_margin_floor(name):
    margin, where = margins(name)["eps_par"]
    assert margin >= MARGIN_FLOOR, (
        f"{name}: the stopping rule at {where} is {margin:.3g} from eps_par, "
        f"below the floor {MARGIN_FLOOR:g}")


@pytest.mark.parametrize("name", WORKLOADS)
def test_periodicity_margin_floor(name):
    margin, where = margins(name)["eps_p"]
    assert margin >= MARGIN_FLOOR, (
        f"{name}: a periodicity test in {where} is {margin:.3g} from eps_p, "
        f"below the floor {MARGIN_FLOOR:g}")


@pytest.mark.parametrize("name", WORKLOADS)
def test_closure_margin_floor(name):
    margin, where = margins(name)["closure"]
    assert margin >= MARGIN_FLOOR, (
        f"{name}: a closure check in {where} has h / h_min = {1.0 + margin:.6g}, "
        f"within {MARGIN_FLOOR:g} of the closure threshold")


def test_imex_contraction_margin_floor():
    margin, where, rho = margins("pde_reusage")["imex"]
    assert margin >= MARGIN_FLOOR, (
        f"pde_reusage: an IMEX step in {where} has contraction bound {rho:.6g}, "
        f"within {MARGIN_FLOOR:g} of the limit {growth._MAX_CONTRACTION}")
