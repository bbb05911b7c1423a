"""The parareal engine against the textbook loops of ``_parareal_oracle``.

After the initialization and after every iteration the engine's iterate
at T_0..T_P and both endpoint lists equal the oracle's to 1e-15
relative, and its ledger holds the oracle's own tally of per-process
micro problems, micro time steps and rd solves, coarse work and
messages.  N_l in {16, 17} covers P dividing N_l and not dividing it.
"""

import numpy as np
import pytest

from _parareal_oracle import concentration, textbook_parareal
from plaquepar.growth import FieldState, GrowthParams, ScalarState, SolidGrid
from plaquepar.microflow import MicroParams, MicroState
from plaquepar.parareal import PararealEngine
from plaquepar.twoscale import DAY, Schedule

RTOL = 1e-15


def _check_against_oracle(schedule, gp, mp, u0, mode, iterations):
    engine = PararealEngine(schedule, gp, mp, u0, MicroState(0.0), mode=mode)
    oracle = textbook_parareal(schedule, gp, mp, u0, MicroState(0.0), mode, iterations)
    for k, expected in enumerate(oracle):
        if k == 0:
            engine.initialize()
        else:
            engine.iterate()
        assert engine.k == k
        assert len(engine.c_bar) == schedule.P + 1
        for p, (state, value) in enumerate(zip(engine.c_bar, expected.values)):
            np.testing.assert_allclose(concentration(state), value, rtol=RTOL, atol=0,
                                       err_msg=f"k={k}, T_{p}")
        np.testing.assert_allclose(engine.endpoints["fine"], expected.fine_endpoints,
                                   rtol=RTOL, atol=0, err_msg=f"fine endpoints, k={k}")
        np.testing.assert_allclose(engine.endpoints["coarse"], expected.coarse_endpoints,
                                   rtol=RTOL, atol=0, err_msg=f"coarse endpoints, k={k}")
        led, tally = engine.ledger, expected.tally
        assert led.per_process_micro == tally.per_process_micro, k
        assert led.per_process_fsi_steps == tally.per_process_fsi_steps, k
        assert led.per_process_micro == tally.per_process_rd, k  # one rd solve per fine step
        assert (led.micro_coarse, led.rd_coarse, led.messages) == (
            tally.micro_coarse, tally.rd_coarse, tally.messages), k
    assert k == iterations


@pytest.mark.parametrize("mode", ["standard", "heuristic", "reusage"])
@pytest.mark.parametrize("P", [2, 3, 4, 7])
@pytest.mark.parametrize("n_l", [16, 17])
def test_engine_matches_textbook_parareal_ode(mode, P, n_l):
    # 1.5-day steps: the iterate still moves after P iterations
    schedule = Schedule(n_l * 1.5 * DAY, n_l, P)
    _check_against_oracle(schedule, GrowthParams(), MicroParams(), ScalarState(0.0),
                          mode, iterations=min(P + 1, 5))


@pytest.mark.parametrize("mode", ["standard", "reusage"])
def test_engine_matches_textbook_parareal_pde(mode):
    schedule = Schedule(17 * DAY, 17, 3)
    _check_against_oracle(schedule, GrowthParams(alpha=5e-8), MicroParams(inflow_offset=1.0),
                          FieldState.zero(SolidGrid(21, 5)), mode, iterations=3)
