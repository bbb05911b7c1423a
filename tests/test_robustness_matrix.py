"""The paper's sweep grid: every cell converges or fails with a typed error and its report.

Both presets × the three parareal modes × P = 10..50 × both stopping
rules, through ``cli._run`` with one serial reference per preset:
``ode_paper`` over its full horizon, ``pde_paper`` cut to 20 days.  A
failing cell must raise a ``RunError`` subclass that carries the partial
``PararealReport``; any other exception fails the test.
"""

import pytest

from plaquepar import cli, twoscale
from plaquepar.errors import RunError
from plaquepar.parareal import PararealReport
from plaquepar.scenario import preset

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
