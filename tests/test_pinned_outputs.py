"""The ODE outputs of every mode, pinned byte for byte.

``plaquepar run`` goes in-process over ``ode_paper`` cut to 24 days at
1.5-day steps (N_l = 16, P = 4) in each mode and under both stopping
rules; all eight runs converge.  The test compares sha256 digests of
``report.json`` without its ``wall_clock`` block (keys sorted),
``trajectory.csv`` and ``table.txt`` with the recorded ones.  A live
``plaquepar sweep`` of the full ``ode_paper`` at P = 20, 30, 40, 50
with coarse stopping pins ``sweep.csv`` and ``table.txt`` the same way;
it is the benchmark's ``ode_sweep`` input, with the same digests.  A change
that means to alter these outputs updates the digests below and says so
in CHANGES.md.  Only the ODE is pinned: the last bits of the PDE go
through BLAS matrix products, which may round differently elsewhere.
"""

import hashlib
import json

import pytest

from plaquepar.cli import main
from plaquepar.scenario import preset

# (mode, stopping) -> digests of (report.json, trajectory.csv, table.txt)
DIGESTS = {
    ("serial", "fine"): (
        "b0df02515185dbf88d68c62ab7caa9bafc91eecca7684a7b8b51ba44f292126d",
        "17849fe56336bd19bbf2046832037548a92f89a4a683faeaf5cdfff466fc222c",
        "22453851afd227cc6eee14ff3bd3bcd067b619408ce2790d2f4662fbf04f9a5e"),
    ("serial", "coarse"): (
        "be4ef3847b2200543de6b09d8fe05d9d344c507289e1bcfd187da57bb38174c7",
        "17849fe56336bd19bbf2046832037548a92f89a4a683faeaf5cdfff466fc222c",
        "22453851afd227cc6eee14ff3bd3bcd067b619408ce2790d2f4662fbf04f9a5e"),
    ("parareal", "fine"): (
        "4a83b6a875a4cfcadc07b0ba65c959027fbcdd9a84e119af9803d89f4d2dd6e9",
        "7238c812eccb263833b7d5d1946677d01e5fc8b91325d6510c98c09f073bf0d4",
        "c3ed8304b49868dd16b783593cb3778ddfbfd43752084eeee4a8e7a97861cf93"),
    ("parareal", "coarse"): (
        "cc65d956edfe61575e0261bc03de070c98a0c657071f04b041cdf8c67f2325f6",
        "d90b4a60fd16b67f3168923dba1dcb5caa926d4c2126caedc6f4cf046faeba5c",
        "cfc4f5c7fa4d22db8d559d771599afeb0866792dc197a78f3e1479cb1a256133"),
    ("reusage", "fine"): (
        "b8be4e5972a3ca65c9c64a1b71aa26a4ce36fb51e29a87c96f1317535ef57ab5",
        "17849fe56336bd19bbf2046832037548a92f89a4a683faeaf5cdfff466fc222c",
        "f1fe49d8aa4584d3af652f814798a7bdc1d8cb56738864577c14765bc5843fb6"),
    ("reusage", "coarse"): (
        "8d47f3077672d0ba42269b5d6cc811013f73fb1038f5b1e7d21d17a312820668",
        "17849fe56336bd19bbf2046832037548a92f89a4a683faeaf5cdfff466fc222c",
        "b5305dadd11d6ac39d30791a4a568d3827d8138ce028bcf8c28ecbca4efb3f4d"),
    ("heuristic", "fine"): (
        "849449cadbcda74d7ce818db60b3f55d5872c485f76fafc9b470f32db7633f81",
        "5d577d5d9e7f6e556813a03a8cb12ae3cc130a0d2e7525c084deb53baa451f05",
        "869db0c60b3b368be9b9575749110d33fbee54f13416598b123deae0facb1b4d"),
    ("heuristic", "coarse"): (
        "c56b234b89831cc5b58fe587ddd71232e767b981c1fb8b7184b3b4f512ae8bfa",
        "3b5fe3aba8c61581102706e4bfe68d4b1b3390c1e6e37f4901265dd9ba42eb40",
        "845738e7b762eadbcd0dcb6f41b45cd369d99cc0efec19610753539687bbc502"),
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("mode, stopping", list(DIGESTS))
def test_ode_outputs_are_byte_identical(tmp_path, capsys, mode, stopping):
    scenario = tmp_path / "scenario.json"
    preset("ode_paper", T_end_days=24.0, dt_days=1.5).to_json(scenario)
    out = tmp_path / "out"
    assert main(["run", "--scenario", str(scenario), "--mode", mode, "--P", "4",
                 "--stopping", stopping, "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    del report["wall_clock"]
    assert (_sha256(json.dumps(report, sort_keys=True).encode()),
            _sha256((out / "trajectory.csv").read_bytes()),
            _sha256((out / "table.txt").read_bytes())) == DIGESTS[mode, stopping]


# digests of (sweep.csv, table.txt)
SWEEP_DIGESTS = ("045b8f5d46092e6d416f4126bae93278e770e377f37a70bc8e1fe75d01c0cabd",
                 "fea08690dd6a6e77096e746166322c89fa2d5726b52db81fdf08253723bee449")


def test_ode_sweep_outputs_are_byte_identical(tmp_path, capsys):
    scenario = tmp_path / "scenario.json"
    preset("ode_paper").to_json(scenario)
    out = tmp_path / "out"
    assert main(["sweep", "--scenario", str(scenario), "--mode", "parareal",
                 "--P", "20,30,40,50", "--stopping", "coarse", "--out", str(out)]) == 0
    assert (_sha256((out / "sweep.csv").read_bytes()),
            _sha256((out / "table.txt").read_bytes())) == SWEEP_DIGESTS
