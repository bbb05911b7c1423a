"""One-ulp perturbations move no count: the count decisions are not at round-off.

Every ledger count, k_par and cycle count hangs on a comparison (the
periodicity rule, the stopping rule, the closure check, the IMEX limit).
A change that moves last bits leaves them alone only if none of these
comparisons sits within round-off of its threshold.  So the eight 24-day
ODE inputs of ``test_pinned_outputs`` and the eight 6-day PDE inputs of
``test_pde_golden`` run again with every growth value of
``ScalarState.average_growth`` and ``FieldState.average_growth`` and every
``macro_step_pde`` solution moved one ulp up, then one ulp down.  Exact
zeros stay, so the Dirichlet rows stay zero.  The trajectory values must
move, and k_par, every ledger count and the ``cycles`` column must equal
those of the unperturbed run.
"""

import functools

import numpy as np
import pytest

from plaquepar import growth
from plaquepar.cli import run_scenario
from plaquepar.growth import FieldState, ScalarState
from plaquepar.scenario import preset
from test_pde_golden import CASES, counts, pde_scenario

SCENARIOS = {
    "ode": lambda mode, stopping: preset("ode_paper", T_end_days=24.0, dt_days=1.5,
                                         mode=mode, P=4, stopping=stopping),
    "pde": pde_scenario,
}


def outcome(scn):
    """The counts of scn's run (k_par, ledger and cycles column) and its trajectory values."""
    report, rec, _ = run_scenario(scn)
    return counts(report, rec), rec.values


@functools.cache
def unperturbed(model, mode, stopping):
    return outcome(SCENARIOS[model](mode, stopping))


def nudge(values, toward):
    """values (a float, an array or a list of either) one ulp toward ``toward``; zeros stay."""
    if isinstance(values, list):
        return [nudge(v, toward) for v in values]
    if isinstance(values, float):
        return values if values == 0.0 else float(np.nextafter(values, toward))
    return np.where(values == 0.0, values, np.nextafter(values, toward))


def nudged(average_growth, toward):
    """average_growth with its result nudged one ulp toward ``toward``."""
    def wrapper(self, wss, p):
        return nudge(average_growth(self, wss, p), toward)
    return wrapper


@pytest.mark.parametrize("direction", ["up", "down"])
@pytest.mark.parametrize("mode, stopping", CASES)
@pytest.mark.parametrize("model", list(SCENARIOS))
def test_one_ulp_moves_no_count(monkeypatch, model, mode, stopping, direction):
    expected, values = unperturbed(model, mode, stopping)
    toward = np.inf if direction == "up" else -np.inf
    for cls in (ScalarState, FieldState):
        monkeypatch.setattr(cls, "average_growth", nudged(cls.average_growth, toward))
    step = growth.macro_step_pde

    def nudged_step(*args, **kwargs):
        state = step(*args, **kwargs)
        return FieldState._from_checked(state.grid, nudge(state.c, toward), state.t)

    monkeypatch.setattr(growth, "macro_step_pde", nudged_step)
    actual, nudged_values = outcome(SCENARIOS[model](mode, stopping))
    case = f"{model} {mode}, {stopping} stopping, one ulp {direction}"
    assert not np.array_equal(nudged_values, values), f"{case}: the trajectory did not move"
    assert actual == expected, case
