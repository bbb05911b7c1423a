"""The stopping rule's margin on the benchmark inputs stays above a floor.

Each parareal iteration stops once ``|s_k - s_{k-1}| <= eps_par``.  A
change that moves last bits (a batched sweep, another summation order)
leaves k_par alone only if no iteration's ``stopping_delta`` sits within
round-off of ``eps_par``.  This test runs the ``ode_sweep`` and
``pde_reusage`` benchmark inputs, read from ``perfbench/workloads.py``,
column by column against one serial reference each, and asserts that
the smallest ``|stopping_delta / eps_par - 1|`` over every column and
iteration is at least MARGIN_FLOOR.

Measured minima: 1.8e-2 on ``ode_sweep`` (P = 30, k = 2) and 0.35 on
``pde_reusage`` (P = 10, k = 3).
"""

import importlib.util
from pathlib import Path

import pytest

from plaquepar import cli, twoscale
from plaquepar.scenario import Scenario

ROOT = Path(__file__).resolve().parents[1]
MARGIN_FLOOR = 1e-3


def _workloads():
    spec = importlib.util.spec_from_file_location("workloads",
                                                  ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WORKLOADS


@pytest.mark.parametrize("name", ["ode_sweep", "pde_reusage"])
def test_stopping_margin_floor(name):
    w = _workloads()[name]
    # the scenario as the workload's command line sets it, P aside
    base = Scenario.from_dict({**w.scenario, "mode": w.mode, "stopping": "coarse", "P": 1})
    reference = twoscale.run_serial(base.schedule(), base.growth_params(),
                                    base.micro_params(), *base.initial_states())
    margins = {}
    for P in w.P:
        report = cli._run(Scenario.from_dict({**base.to_dict(), "P": P}), reference)
        for it in report.per_iteration:
            margins[P, it["k"]] = abs(it["stopping_delta"] / w.eps_par - 1.0)
    (P, k), margin = min(margins.items(), key=lambda item: item[1])
    assert margin >= MARGIN_FLOOR, (
        f"{name}: the stopping rule at P={P}, k={k} is {margin:.3g} from eps_par, "
        f"below the floor {MARGIN_FLOOR:g}")
