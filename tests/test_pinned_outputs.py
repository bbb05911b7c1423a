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
        "ca6ce9b970aff94adc10f5756f143b36f5efc193e47b1752517b8de76544bd4e",
        "1914f0c28c42aeaebb88bd57399470eb86b6994655fae7558c5e20b1c5cc87a8",
        "22453851afd227cc6eee14ff3bd3bcd067b619408ce2790d2f4662fbf04f9a5e"),
    ("serial", "coarse"): (
        "82775d44dd4af759bdff2991a042e93cce705eebdf655094e44b8c8b2764a15c",
        "1914f0c28c42aeaebb88bd57399470eb86b6994655fae7558c5e20b1c5cc87a8",
        "22453851afd227cc6eee14ff3bd3bcd067b619408ce2790d2f4662fbf04f9a5e"),
    ("parareal", "fine"): (
        "20d522b53574f996c7c15afca8d54e53d1b0e9569671cae32f1fcff50cf82a50",
        "d03a2217fc13f8d3304cbfc837cbaef37b3cc93844c5784d131ab4a78261d5ef",
        "f1c6b2b4a121b91d7784146c8f353d12f2719f9ea2a4aa6ee0c2848e1b895a3b"),
    ("parareal", "coarse"): (
        "cf264fdfa28217a75b266ac5cfeda97cfcc225c0049303e183612038cf8e8051",
        "7c12984bc6dede7b8184c8e630a58eeca482daab584b8f70dc394c17f06dddc9",
        "cfc4f5c7fa4d22db8d559d771599afeb0866792dc197a78f3e1479cb1a256133"),
    ("reusage", "fine"): (
        "4d1203b082d9eb56228edeea5895270f1b0328c4eb3b58c2af7fcfdf943986ac",
        "1914f0c28c42aeaebb88bd57399470eb86b6994655fae7558c5e20b1c5cc87a8",
        "f1fe49d8aa4584d3af652f814798a7bdc1d8cb56738864577c14765bc5843fb6"),
    ("reusage", "coarse"): (
        "42e7f00df85a47550a3d7e8994d12185d8e2c7101b1609344f286ea58d365f9a",
        "1914f0c28c42aeaebb88bd57399470eb86b6994655fae7558c5e20b1c5cc87a8",
        "b5305dadd11d6ac39d30791a4a568d3827d8138ce028bcf8c28ecbca4efb3f4d"),
    ("heuristic", "fine"): (
        "7fc191da3c134f9ba1987cf362662f70a22180f71e65a5f3cf5515470272171e",
        "f65d75c2d094df34c981d82f3d512b4812012a864284724f5f148b98652e7465",
        "869db0c60b3b368be9b9575749110d33fbee54f13416598b123deae0facb1b4d"),
    ("heuristic", "coarse"): (
        "1250c50581f06e7aa9233c38af69065894ce1aed8a2ab6d1d54a83d9b09d188e",
        "7e26aa9552053314d6a1ad9b733aecc0a9bbe031660053e6c0eb82b788394302",
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
SWEEP_DIGESTS = ("5ad6dacb6e362f95c8daa5cb746c1c8108a175966ea423ecdf1cbb0942cdb715",
                 "fea08690dd6a6e77096e746166322c89fa2d5726b52db81fdf08253723bee449")


def test_ode_sweep_outputs_are_byte_identical(tmp_path, capsys):
    scenario = tmp_path / "scenario.json"
    preset("ode_paper").to_json(scenario)
    out = tmp_path / "out"
    assert main(["sweep", "--scenario", str(scenario), "--mode", "parareal",
                 "--P", "20,30,40,50", "--stopping", "coarse", "--out", str(out)]) == 0
    assert (_sha256((out / "sweep.csv").read_bytes()),
            _sha256((out / "table.txt").read_bytes())) == SWEEP_DIGESTS
