"""The paper's sweep grid: every cell converges or fails with a typed error and its report.

Both presets × the three parareal modes × P = 10..50 × both stopping
rules, through ``cli._run`` with one serial reference per preset:
``ode_paper`` over its full horizon, ``pde_paper`` cut to 20 days.  A
failing cell must raise a ``RunError`` subclass that carries the partial
``PararealReport``; any other exception fails the test.

Off the grid, 40 seeded random scenarios (both models, all four modes,
P in {2, 3, 5}, 4 to 10 steps, varied growth and micro parameters, each
value invalid with probability 0.03) must each run, raise
``ConfigError`` when built, or raise a ``RunError`` subclass.  Seeds
0-39 give 14 runs, 12 configuration errors and 14 run failures.
"""

import random

import pytest

from plaquepar import cli, twoscale
from plaquepar.errors import ConfigError, RunError
from plaquepar.parareal import PararealReport
from plaquepar.scenario import MODES, STOPPING, preset

PRESETS = {"ode_paper": {}, "pde_paper": {"T_end_days": 20.0}}


@pytest.fixture(scope="module")
def references():
    refs = {}
    for name, cut in PRESETS.items():
        scn = preset(name, **cut)
        refs[name] = twoscale.run_serial(scn.schedule(), scn.growth_params(),
                                         scn.micro_params(), *scn.initial_states())
    return refs


@pytest.mark.parametrize("stopping", ["fine", "coarse"])
@pytest.mark.parametrize("P", [10, 20, 30, 40, 50])
@pytest.mark.parametrize("mode", ["parareal", "reusage", "heuristic"])
@pytest.mark.parametrize("name", list(PRESETS))
def test_cell_converges_or_fails_with_typed_error_and_report(references, name, mode, P,
                                                              stopping):
    scn = preset(name, mode=mode, P=P, stopping=stopping, **PRESETS[name])
    try:
        report = cli._run(scn, references[name])
    except RunError as exc:
        assert type(exc) is not RunError, "a failure names its kind"
        report = exc.report
        assert isinstance(report, PararealReport), f"{type(exc).__name__} without a report"
        assert not report.converged
        assert 0 <= report.k_par <= scn.max_iters
    else:
        assert report.converged
        assert 1 <= report.k_par <= scn.max_iters
    assert (report.mode, report.P, report.N_l, report.stopping) == (
        cli._ENGINE_MODE[mode], P, scn.N_l, stopping)
    assert len(report.per_iteration) == report.k_par


def _random_scenario(seed):
    """A preset name and field overrides drawn from random.Random(seed)."""
    rng = random.Random(seed)

    def pick(valid, invalid):
        return invalid if rng.random() < 0.03 else rng.choice(valid)

    name = rng.choice(list(PRESETS))
    dt_days = preset(name).dt_days
    return name, dict(
        T_end_days=dt_days * rng.choice([4, 6, 10]), mode=rng.choice(MODES),
        P=rng.choice([2, 3, 5]), stopping=rng.choice(STOPPING),
        alpha=pick([0.0, 5e-8, 5e-7, 5e-6, 5e-5], -5e-7),
        c_geo=pick([1.0, 12.5, 40.0], 0.0),
        lambda_relax=pick([0.0, 0.5, 9.0, 50.0], -9.0),
        h_min=pick([0.05, 0.5, 0.95], 0.0),
        max_cycles=pick([2, 3, 10], 1),
        reaction_sign=pick([-1, 1], 0),
        theta=pick([0.0, 0.7, 1.0], 1.5),
    )


@pytest.mark.parametrize("seed", range(40))
def test_random_scenario_runs_or_fails_typed(seed):
    name, fields = _random_scenario(seed)
    try:
        scn = preset(name, **fields)
    except ConfigError:
        return
    try:
        report = cli._run(scn)
    except RunError as exc:
        assert type(exc) is not RunError, "a failure names its kind"
        assert exc.report is None or not exc.report.converged
    else:
        assert report.converged and report.N_l == scn.N_l
