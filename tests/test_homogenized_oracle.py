"""The engine's ODE iteration counts and failures against the homogenized reduced model.

``_homogenized_oracle.run`` carries out parareal on the two scalar
growth laws alone, with no micro problem.  In every ODE cell of the sweep
grid of ``test_robustness_matrix`` (``ode_paper`` over its full horizon,
the three modes × P = 10..50 × both stopping rules), at the default
``c_geo`` and at the calibrated ``c_geo = 58.674785451`` (serial endpoint
0.638), the engine run through ``cli._run`` with one serial reference per
``c_geo`` must end as the reduced model does: converged after the same
k_par, or failed with the same error after the same number of completed
iterations.  The smallest stopping margin |delta_k - eps_par| / eps_par
over all 60 cells is 0.018, in the default standard coarse-stopping cell
at P = 30.
"""

import pytest

import _homogenized_oracle
from plaquepar import cli, twoscale
from plaquepar.errors import RunError
from plaquepar.scenario import preset

C_GEO = {"default": preset("ode_paper").c_geo, "calibrated": 58.674785451}
LAW_FIELDS = ("alpha", "sigma0", "c_geo", "rho_f", "nu_f", "lambda_relax",
              "inflow_amplitude", "inflow_offset", "delta_tau")


@pytest.fixture(scope="module")
def references():
    refs = {}
    for name, c_geo in C_GEO.items():
        scn = preset("ode_paper", c_geo=c_geo)
        refs[name] = twoscale.run_serial(scn.schedule(), scn.growth_params(),
                                         scn.micro_params(), *scn.initial_states())
    return refs


def reduced_outcome(scn):
    """The reduced model's outcome of scenario scn, from its values as plain numbers."""
    return _homogenized_oracle.run(
        T_end=scn.schedule().T_end, N_l=scn.N_l, P=scn.P, mode=cli._ENGINE_MODE[scn.mode],
        stopping=scn.stopping, eps_par=scn.eps_par, max_iters=scn.max_iters,
        h_min=scn.h_min, **{name: getattr(scn, name) for name in LAW_FIELDS})


@pytest.mark.parametrize("stopping", ["fine", "coarse"])
@pytest.mark.parametrize("P", [10, 20, 30, 40, 50])
@pytest.mark.parametrize("mode", ["parareal", "reusage", "heuristic"])
@pytest.mark.parametrize("c_geo", list(C_GEO))
def test_engine_ends_as_the_reduced_model(references, c_geo, mode, P, stopping):
    scn = preset("ode_paper", c_geo=C_GEO[c_geo], mode=mode, P=P, stopping=stopping)
    try:
        report = cli._run(scn, references[c_geo])
        engine = ("converged", report.k_par)
    except RunError as exc:
        engine = (type(exc).__name__, exc.report.k_par)
    reduced = reduced_outcome(scn)
    assert engine == reduced[:2], (f"{c_geo} c_geo, {mode}, P={P}, {stopping} stopping: "
                                   f"engine {engine}, reduced model {reduced}")
