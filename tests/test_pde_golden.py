"""A numeric golden of the PDE model in every mode.

``pde_paper`` cut to 6 days (N_l = 30) at P = 10 runs in serial,
parareal, reusage and heuristic mode under both stopping rules, through
``cli.run_scenario`` as ``plaquepar run`` does; all eight runs converge.
k_par, every ledger count of ``report.json`` and the ``cycles`` column
of ``trajectory.csv`` must equal the recorded values exactly, and every
other trajectory column must agree to 1e-10 relative: the last bits of
the PDE go through BLAS matrix products, which may round differently
elsewhere (``test_pinned_outputs`` pins the ODE byte for byte instead).

Parareal and reusage with fine stopping converge at k_par = 3.  The
``fine`` rule tests its delta from k = 2 on: at k = 1 the fine endpoint
and the initialization's coarse endpoint start from the same coarse
value, so their difference says nothing about convergence.  ``python
tests/test_pde_golden.py`` re-records every cell.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from plaquepar.cli import run_scenario
from plaquepar.scenario import preset
from plaquepar.twoscale import DAY

GOLDEN = Path(__file__).with_name("pde_golden.json")
CASES = [(mode, stopping) for mode in ("serial", "parareal", "reusage", "heuristic")
         for stopping in ("fine", "coarse")]
# report.json keys compared exactly
EXACT = ("k_par", "converged", "micro_problems_fine", "micro_problems_coarse",
         "micro_problems_serial_equivalent", "rd_solves_fine", "rd_solves_coarse",
         "per_process_micro", "messages")
# trajectory.csv columns compared to 1e-10 relative
COLUMNS = ("t_days", "c_mid", "c_mean", "gamma_bar", "width")


def pde_scenario(mode, stopping):
    return preset("pde_paper", T_end_days=6.0, mode=mode, P=10, stopping=stopping)


def counts(report, rec) -> dict:
    """The values of a run compared exactly: those of EXACT and the cycles column."""
    return {**{key: report[key] for key in EXACT}, "cycles": rec.cycles.tolist()}


def outputs(scn) -> dict:
    """The counts of scn's run and its other trajectory columns."""
    report, rec, _ = run_scenario(scn)
    columns = (rec.t / DAY, *rec.values.T, rec.gamma_scalar, rec.width)
    return {**counts(report, rec),
            **{name: column.tolist() for name, column in zip(COLUMNS, columns)}}


def _key(mode, stopping):
    return f"{mode}/{stopping}"


@pytest.mark.parametrize("mode, stopping", CASES)
def test_pde_outputs_match_the_golden(mode, stopping):
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))[_key(mode, stopping)]
    actual = outputs(pde_scenario(mode, stopping))
    for key in EXACT + ("cycles",):
        assert actual[key] == expected[key], key
    for name in COLUMNS:
        np.testing.assert_allclose(actual[name], expected[name], rtol=1e-10, atol=0.0,
                                   err_msg=name)


if __name__ == "__main__":
    # re-record the golden from the plaquepar on the path, one line per value
    cases = []
    for case in CASES:
        lines = (f"  {json.dumps(key)}: {json.dumps(value)}"
                 for key, value in outputs(pde_scenario(*case)).items())
        cases.append(f" {json.dumps(_key(*case))}: {{\n" + ",\n".join(lines) + "\n }")
    GOLDEN.write_text("{\n" + ",\n".join(cases) + "\n}\n", encoding="utf-8")
