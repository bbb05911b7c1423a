"""Compare the outputs of a base revision with those of this checkout.

    python tools/compare_outputs.py BASE_REV [--declared FILE] [--work DIR]

Exports BASE_REV with ``git archive`` (local git only) and runs the case
list below on the exported tree and on this checkout, each case in a
fresh interpreter with ``PYTHONPATH`` set to that tree's ``src``.  Every
case runs in its own empty directory with relative paths, so file names
in the output are the same on both trees.  A case records its exit code,
the sha256 of its stdout and stderr, and the sha256 of every file it
leaves behind; ``report.json`` is hashed without its ``wall_clock``
member, which holds the measured seconds.  One manifest per tree goes to
``WORK/base/manifest.json`` and ``WORK/change/manifest.json``, with the
sha256 of the case list as ``cases_digest``.

The scenario inputs come from this checkout: the ``perfbench`` workloads
from ``perfbench/workloads.py``, and the others from each tree's own
``plaquepar presets`` output plus the overrides listed here, so a changed
preset shows up as a changed output.  The demos are each tree's own.

Exits 0 when the cases that differ are exactly the declared ones, and 1
when a case differs that is not declared or a declared case does not
differ, since a stale declaration would wave through a later change of
that case.  A declared-changes file lists one case name per line; ``#``
starts a comment.  A declared case may differ in any recorded item.
For each case that differs it also reads the numbers of the case's
``report.json`` (without ``wall_clock``) and CSV files (``trajectory.csv``,
``sweep.csv``, the demos' files) on both trees, and says whether any
integer field moved (the ledger counts, ``k_par``, the ``cycles``
column) and the largest relative change of a float field, so a
last-bit change reads as one.
"""

import argparse
import csv
import hashlib
import importlib.util
import io
import json
import math
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path
from typing import NamedTuple

REPO = Path(__file__).resolve().parents[1]


class Case(NamedTuple):
    """One command run in a fresh process in an empty directory.

    argv starts with ``plaquepar`` (the CLI, run as ``python -m
    plaquepar.cli``) or with a demo path relative to the tree root.
    scenario, when given, is written to ``scn.json`` first: either a full
    scenario dict, or (preset name, overrides) applied to the tree's own
    preset JSON.
    """

    name: str
    argv: tuple
    scenario: object = None


def _workloads():
    spec = importlib.util.spec_from_file_location("workloads",
                                                  REPO / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WORKLOADS


ODE_30 = ("ode_paper", {"T_end_days": 30.0})
PDE_6 = ("pde_paper", {"T_end_days": 6.0})
# pde_paper with 6-day steps to 600 days: a 300-day coarse step at P = 2 fails
PDE_LONG = ("pde_paper", {"T_end_days": 600.0, "dt_days": 6.0, "nx": 21, "ny": 5,
                          "mode": "parareal"})


def cases() -> list:
    """The case list; a manifest records its cases_digest."""
    out = []
    for name, w in _workloads().items():
        out.append(Case(f"perfbench_{name}", ("plaquepar", *w.cli_args("scn.json", "out")),
                        dict(w.scenario)))

    def run_case(label, scenario, mode, P, stopping):
        return Case(f"run_{label}_{mode}{'' if P == 10 else f'_p{P}'}_{stopping}",
                    ("plaquepar", "run", "--scenario", "scn.json", "--mode", mode,
                     "--P", str(P), "--stopping", stopping, "--out", "out"), scenario)
    for label, scenario in (("ode30", ODE_30), ("pde6", PDE_6)):
        for mode in ("serial", "parareal", "reusage", "heuristic"):
            for stopping in ("fine", "coarse"):
                out.append(run_case(label, scenario, mode, 10, stopping))
    # P = 7 divides neither N_l (100 and 30): lanes of unequal length, also in
    # re-usage mode, whose warm starts pass end micro states to the next lane
    out += [run_case("ode30", ODE_30, "parareal", 7, "fine"),
            run_case("ode30", ODE_30, "reusage", 7, "coarse"),
            run_case("pde6", PDE_6, "reusage", 7, "fine")]
    out += [
        Case("sweep_ode30_parareal_coarse",
             ("plaquepar", "sweep", "--scenario", "scn.json", "--P", "1,2,5,10",
              "--stopping", "coarse", "--out", "out"), ODE_30),
        Case("sweep_ode30_reusage_fine",
             ("plaquepar", "sweep", "--scenario", "scn.json", "--mode", "reusage",
              "--P", "1,10", "--out", "out"), ODE_30),
        Case("sweep_pde6_parareal_coarse",
             ("plaquepar", "sweep", "--scenario", "scn.json", "--P", "1,10",
              "--stopping", "coarse", "--out", "out"), PDE_6),
    ]
    for mode in ("parareal", "reusage", "heuristic"):
        out.append(Case(f"formula_{mode}",
                        ("plaquepar", "sweep", "--scenario", "ode_paper", "--mode", mode,
                         "--P", "10,20,50", "--kpar", "3,4,5", "--out", "out")))
    # --kpar alone selects the closed-form footer
    out.append(Case("kpar_alone", ("plaquepar", "sweep", "--scenario", "scn.json", "--P", "2",
                                   "--kpar", "3", "--out", "out"), ODE_30))
    out.append(Case("presets", ("plaquepar", "presets", "--out", "out")))
    # exit 1: i/o and run failures
    out += [
        Case("missing_file", ("plaquepar", "run", "--scenario", "missing.json")),
        Case("imex_failure", ("plaquepar", "run", "--scenario", "scn.json", "--P", "2",
                              "--stopping", "coarse", "--out", "out"), PDE_LONG),
        Case("sweep_one_column_failed",
             ("plaquepar", "sweep", "--scenario", "scn.json", "--P", "2,10",
              "--stopping", "coarse", "--out", "out"), PDE_LONG),
        Case("sweep_every_column_failed",
             ("plaquepar", "sweep", "--scenario", "ode_paper", "--mode", "heuristic",
              "--P", "10,20", "--stopping", "coarse", "--out", "out")),
    ]
    # exit 2: configuration and usage errors
    run_scn = ("plaquepar", "run", "--scenario", "scn.json", "--out", "out")
    out += [
        Case("unknown_preset", ("plaquepar", "run", "--scenario", "nope")),
        Case("micro_block_bound", run_scn,
             ("pde_paper", {"T_end_days": 0.2, "nx": 105, "delta_tau": 1e-5})),
        Case("bad_sigma0", run_scn, ("ode_paper", {"sigma0": -30.0})),
        # finite values above the lambda_relax bound and with an overflowing sigma0^2
        Case("huge_lambda_relax", run_scn, ("ode_paper", {"lambda_relax": 3e10,
                                                          "T_end_days": 3.0})),
        Case("huge_sigma0", run_scn, ("ode_paper", {"sigma0": 1e200, "T_end_days": 3.0})),
        # an integer above the largest float
        Case("huge_int_c_geo", run_scn, ("ode_paper", {"c_geo": 10**400, "T_end_days": 3.0})),
        Case("bad_eps_par", run_scn, ("ode_paper", {"eps_par": 0.0})),
        Case("bad_rho_s", run_scn, ("ode_paper", {"rho_s": 0.0})),
        Case("even_nx", run_scn, ("pde_paper", {"nx": 100})),
        # a wrong-typed field meets its owner's rule; an ODE scenario's grid meets the grid rule
        Case("string_P", run_scn, ("ode_paper", {"P": "ten", "T_end_days": 3.0})),
        Case("ode_even_nx", run_scn, ("ode_paper", {"nx": 100, "T_end_days": 3.0})),
        # the fine test starts at k = 2, so one iteration cannot converge
        Case("fine_max_iters_one", run_scn, ("ode_paper", {"T_end_days": 30, "mode": "parareal",
                                                          "max_iters": 1, "eps_par": 1.0})),
        Case("unknown_key", run_scn, {"sigma_0": 30.0}),
        Case("oversized_P", ("plaquepar", "run", "--scenario", "ode_paper", "--mode",
                             "parareal", "--P", "1001", "--out", "out")),
        Case("kpar_mismatch", ("plaquepar", "sweep", "--scenario", "ode_paper", "--P",
                               "10,20", "--kpar", "3", "--out", "out")),
        Case("formula_only_flag", ("plaquepar", "sweep", "--scenario", "ode_paper", "--P",
                                   "10", "--kpar", "3", "--formula-only", "--out", "out")),
        Case("sweep_serial_mode", ("plaquepar", "sweep", "--scenario", "ode_paper",
                                   "--mode", "serial", "--P", "10", "--out", "out")),
    ]
    out += [Case(f"demo_{stem}", (f"demos/{stem}.py",))
            for stem in ("01_two_scale_serial", "02_parareal_ode", "03_cost_tables",
                         "04_reaction_diffusion", "05_runtime_model")]
    return out


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def cases_digest(case_list) -> str:
    """sha256 of a case list, so a manifest says which list made it."""
    return _sha(json.dumps(case_list, sort_keys=True).encode())


def file_digest(path: Path) -> str:
    """sha256 of a file; a report.json is hashed without its wall_clock member.

    Only a report in the CLI's own layout (``json.dump`` with indent 2 and
    a trailing newline) drops wall_clock; any other report is hashed as
    it is, so no other byte of it can go unnoticed.
    """
    raw = path.read_bytes()
    if path.name == "report.json":
        try:
            data = json.loads(raw)
        except ValueError:
            return _sha(raw)
        if (isinstance(data, dict) and "wall_clock" in data
                and (json.dumps(data, indent=2) + "\n").encode() == raw):
            del data["wall_clock"]
            raw = (json.dumps(data, indent=2) + "\n").encode()
    return _sha(raw)


def record(case_dir: Path, proc) -> dict:
    """The manifest entry of a finished case: exit code, output digests and the
    digest of every file in its directory but the scenario input ``scn.json``."""
    files = {p.relative_to(case_dir).as_posix(): file_digest(p)
             for p in sorted(case_dir.rglob("*")) if p.is_file()}
    files.pop("scn.json", None)
    return {"exit": proc.returncode, "stdout": _sha(proc.stdout), "stderr": _sha(proc.stderr),
            "files": files}


def _env(tree: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(tree / "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def _scenario_dict(scenario, presets: Path) -> dict:
    if isinstance(scenario, dict):
        return scenario
    name, overrides = scenario
    return {**json.loads((presets / f"{name}.json").read_text(encoding="utf-8")),
            **overrides}


def run_tree(tree: Path, work: Path, case_list) -> dict:
    """Run every case on the tree at ``tree``; returns the manifest's case records."""
    env = _env(tree)
    work.mkdir(parents=True, exist_ok=True)
    probe = subprocess.run([sys.executable, "-c", "import plaquepar; print(plaquepar.__file__)"],
                           env=env, cwd=work, capture_output=True, text=True, check=True)
    if not Path(probe.stdout.strip()).resolve().is_relative_to((tree / "src").resolve()):
        raise SystemExit(f"plaquepar resolves to {probe.stdout.strip()}, not into {tree}")
    presets = work / "presets"
    subprocess.run([sys.executable, "-m", "plaquepar.cli", "presets", "--out", str(presets)],
                   env=env, cwd=work, capture_output=True, check=True)
    records = {}
    for case in case_list:
        case_dir = work / "cases" / case.name
        case_dir.mkdir(parents=True)
        if case.scenario is not None:
            (case_dir / "scn.json").write_text(
                json.dumps(_scenario_dict(case.scenario, presets), indent=2) + "\n",
                encoding="utf-8")
        head, *rest = case.argv
        cmd = (["-m", "plaquepar.cli"] if head == "plaquepar" else [str(tree / head)]) + rest
        proc = subprocess.run([sys.executable, *cmd], env=env, cwd=case_dir,
                              capture_output=True, timeout=600)
        records[case.name] = record(case_dir, proc)
        print(f"  {case.name}: exit {proc.returncode}", flush=True)
    return records


def differences(base: dict, change: dict) -> dict:
    """Case name -> list of the items that differ between the case records of
    two manifests of the same case list."""
    diffs = {}
    for name in sorted(base):
        a, b = base[name], change[name]
        items = [f"exit {a['exit']} -> {b['exit']}"] if a["exit"] != b["exit"] else []
        items += [key for key in ("stdout", "stderr") if a[key] != b[key]]
        for path in sorted(set(a["files"]) | set(b["files"])):
            if a["files"].get(path) != b["files"].get(path):
                items.append(path if path in a["files"] and path in b["files"]
                             else f"{path} only in {'base' if path in a['files'] else 'change'}")
        if items:
            diffs[name] = items
    return diffs


def _value(cell: str):
    """A CSV cell as an int, else a float, else the text itself."""
    for kind in (int, float):
        try:
            return kind(cell)
        except ValueError:
            pass
    return cell


def _flatten(value, field: str, position: tuple, out: dict):
    if isinstance(value, dict):
        for key, item in value.items():
            _flatten(item, f"{field}.{key}" if field else key, position, out)
    elif isinstance(value, list):
        for i, item in enumerate(value):
            _flatten(item, field, position + (i,), out)
    else:
        out[field, position] = value


def numeric_fields(path: Path) -> dict:
    """(field, position) -> value of a report.json (without wall_clock) or a CSV file.

    A report's field is its dotted key path and its position the list
    indices on that path; a CSV file's field is its column name (from the
    header row) and its position the row number.
    """
    out = {}
    if path.suffix == ".json":
        data = json.loads(path.read_text(encoding="utf-8"))
        if isinstance(data, dict):
            data.pop("wall_clock", None)
        _flatten(data, "", (), out)
    else:
        header, *rows = csv.reader(path.read_text(encoding="utf-8").splitlines())
        for i, row in enumerate(rows):
            out.update(((name, (i,)), _value(cell)) for name, cell in zip(header, row))
    return out


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _relative_change(x: float, y: float) -> float:
    if x == y or (math.isnan(x) and math.isnan(y)):
        return 0.0
    if not (math.isfinite(x) and math.isfinite(y)):
        return math.inf
    return abs(x - y) / max(abs(x), abs(y))


def numeric_changes(base_dir: Path, change_dir: Path) -> dict:
    """What moved in the numbers of the report.json and CSV files both case directories hold.

    Returns {"files": how many files were compared, "integers": fields
    with a moved integer, "other": fields whose text, bool, type or
    layout moved, "float_rel": the largest relative change
    |a - b| / max(|a|, |b|) of a float (0 for equal values, nan
    included; inf when only one side is nan or infinite), "float_field":
    the field it was found in, or None}.  Fields are named ``file: field``.
    """
    integers, other, files = set(), set(), 0
    float_rel, float_field = 0.0, None
    for base_path in sorted(base_dir.rglob("*")):
        rel = base_path.relative_to(base_dir)
        change_path = change_dir / rel
        numeric = base_path.name == "report.json" or base_path.suffix == ".csv"
        if not (numeric and base_path.is_file() and change_path.is_file()):
            continue
        files += 1
        a, b = numeric_fields(base_path), numeric_fields(change_path)
        for key in sorted(a.keys() | b.keys()):
            name = f"{rel.as_posix()}: {key[0]}"
            x, y = a.get(key), b.get(key)
            if _is_int(x) and _is_int(y):
                if x != y:
                    integers.add(name)
            elif type(x) is float and type(y) is float:
                change = _relative_change(x, y)
                if change > float_rel:
                    float_rel, float_field = change, name
            elif key not in a or key not in b or type(x) is not type(y) or x != y:
                other.add(name)
    return {"files": files, "integers": sorted(integers), "other": sorted(other),
            "float_rel": float_rel, "float_field": float_field}


def describe_numbers(changes: dict) -> str:
    """One line of numeric_changes' findings."""
    if not changes["files"]:
        return "no report.json or CSV file to compare"
    parts = [f"integers moved: {', '.join(changes['integers'])}" if changes["integers"]
             else "no integer moved",
             f"largest relative float change {changes['float_rel']:.3g}"
             + (f" ({changes['float_field']})" if changes["float_field"] else "")]
    if changes["other"]:
        parts.append(f"other fields moved: {', '.join(changes['other'])}")
    return "; ".join(parts)


def read_declared(path) -> set:
    """Case names of a declared-changes file: one per line, '#' starts a comment."""
    if path is None:
        return set()
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    return {line.split("#", 1)[0].strip() for line in lines} - {""}


def verdict(diffs: dict, declared: set):
    """(exit code, undeclared, stale) of ``differences()``' result: the cases that
    differ undeclared and the declared cases that do not differ, each sorted; the
    code is 1 when either list holds a case, else 0."""
    undeclared, stale = sorted(set(diffs) - declared), sorted(declared - set(diffs))
    return (1 if undeclared or stale else 0), undeclared, stale


def export(rev: str, dest: Path):
    """Write the tree of ``rev`` to ``dest`` with local ``git archive``."""
    archive = subprocess.run(["git", "-C", str(REPO), "archive", "--format=tar", rev],
                             capture_output=True)
    if archive.returncode:
        raise SystemExit(f"git archive {rev} failed: {archive.stderr.decode().strip()}")
    with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
        tar.extractall(dest, filter="data")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base_rev", metavar="BASE_REV")
    parser.add_argument("--declared", help="file of case names whose outputs may differ")
    parser.add_argument("--work", help="empty or new directory for the trees' runs "
                                       "(default: a new temporary directory)")
    args = parser.parse_args(argv)
    declared = read_declared(args.declared)
    case_list = cases()
    unknown = declared - {case.name for case in case_list}
    if unknown:
        parser.error(f"--declared names no case {sorted(unknown)}")
    work = Path(args.work) if args.work else Path(tempfile.mkdtemp(prefix="compare_outputs-"))
    work.mkdir(parents=True, exist_ok=True)
    if any(work.iterdir()):
        parser.error(f"work directory {work} is not empty")
    base_tree = work / "base" / "tree"
    export(args.base_rev, base_tree)
    manifests = {}
    for label, tree in (("base", base_tree), ("change", REPO)):
        print(f"{label}: {tree}", flush=True)
        manifests[label] = run_tree(tree, work / label, case_list)
        (work / label / "manifest.json").write_text(
            json.dumps({"cases_digest": cases_digest(case_list), "tree": label,
                        "rev": args.base_rev if label == "base" else "checkout",
                        "cases": manifests[label]}, indent=2) + "\n", encoding="utf-8")
    diffs = differences(manifests["base"], manifests["change"])
    code, undeclared, stale = verdict(diffs, declared)
    for name, items in diffs.items():
        print(f"{'declared' if name in declared else 'DIFFERS'}: {name}: {', '.join(items)}")
        case_dirs = (work / label / "cases" / name for label in ("base", "change"))
        print(f"    {describe_numbers(numeric_changes(*case_dirs))}")
    for name in stale:
        print(f"STALE: declared, but unchanged: {name}")
    print(f"{len(case_list)} cases, {len(diffs)} differ, {len(undeclared)} undeclared, "
          f"{len(stale)} declared but unchanged; manifests in {work}")
    return code


if __name__ == "__main__":
    sys.exit(main())
