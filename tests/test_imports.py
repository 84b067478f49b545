"""What a fresh interpreter loads: ``import ftsolve`` loads no submodule, the
CLI loads only what its subcommand runs, and the first public name binds
every export.  Each test runs in its own process, so nothing imported here
leaks into what it measures."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

# prints the ftsolve modules and the stdlib modules of interest that the
# given statements load, as one JSON object
PROBE = """
import json, sys
extra = None  # what the statements want to report
before = set(sys.modules)
{body}
new = set(sys.modules) - before
print(json.dumps({{
    "ftsolve": sorted(m for m in new if m.split(".")[0] == "ftsolve"),
    "stdlib": sorted(m for m in new & {{"dataclasses", "decimal", "inspect"}}),
    "extra": extra,
}}))
"""


def fresh(body: str) -> dict:
    proc = subprocess.run(
        [sys.executable, "-c", PROBE.format(body=body)],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_import_ftsolve_loads_no_submodule():
    assert fresh("import ftsolve")["ftsolve"] == ["ftsolve"]


SYMMETRIC = {"mode": "symmetric-regular", "a": 1.0, "b1": 2.5, "b4": 1.0}
GENERAL = {"mode": "general", "vertices": [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]], "weights": [1.1, 0.7, 2.0, 1.3]}
CLOSED_FORMS = ["cli", "analytic", "geom_core", "errors"]


def test_import_cli_loads_only_the_closed_forms():
    out = fresh("import ftsolve.cli")
    assert out["ftsolve"] == sorted(["ftsolve"] + [f"ftsolve.{m}" for m in CLOSED_FORMS])
    assert out["stdlib"] == []


# (instance, subcommand and options, the modules it loads beyond the CLI's)
SUBCOMMANDS = [
    (SYMMETRIC, ["solve"], []),
    (SYMMETRIC, ["quartic"], []),
    (SYMMETRIC, ["complementary"], []),
    (SYMMETRIC, ["classify"], ["equilibrium"]),
    (SYMMETRIC, ["angles"], ["angles"]),
    (SYMMETRIC, ["sweep", "--ratio-min", "0.5", "--ratio-max", "2", "--steps", "5"], ["angles"]),
    (SYMMETRIC, ["plasticity", "--lambda", "1,1,2,2"], ["equilibrium", "numeric", "plasticity"]),
    (GENERAL, ["solve"], ["equilibrium", "numeric"]),
    (GENERAL, ["classify"], ["equilibrium"]),
]


@pytest.mark.parametrize(
    "instance, argv, modules", SUBCOMMANDS, ids=[f"{i['mode'].split('-')[0]}-{a[0]}" for i, a, _ in SUBCOMMANDS]
)
def test_each_subcommand_loads_only_what_it_runs(tmp_path, instance, argv, modules):
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(instance))
    body = f"""
import contextlib, io
from ftsolve.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    extra = main({argv[:1] + ["--input", str(path)] + argv[1:]!r})
"""
    out = fresh(body)
    assert out["extra"] == 0
    assert out["ftsolve"] == sorted(["ftsolve"] + [f"ftsolve.{m}" for m in CLOSED_FORMS + modules])
    assert "decimal" not in out["stdlib"]


def test_only_the_heavy_pair_finish_loads_decimal():
    # the general solver's decimal finish imports decimal itself: a floating
    # and an absorbed solve, a ray-stretch re-solve at moderate weights and
    # the symmetric op load none of it, a re-solve at b4/b1 = 4.0e7 does
    body = """
import ftsolve
unit = [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]]
t = ftsolve.WeightedTetrahedron(unit, [1.1, 0.7, 2.0, 1.3])
sol = ftsolve.weiszfeld(t)
ftsolve.weiszfeld(ftsolve.WeightedTetrahedron(unit, [5.0, 1.0, 1.0, 1.0]))
ftsolve.verify_invariance(ftsolve.PlasticityInstance(t, sol.point, [1.0, 1.5, 2.0, 0.8]))
inst = ftsolve.SymmetricInstance(1.0, 2.5, 1.0)
ftsolve.angles_at(inst.a, ftsolve.solve_symmetric(inst).y)
ftsolve.complementary_axial(inst)
light = "decimal" in sys.modules
heavy = ftsolve.SymmetricInstance(0.18324062329160828, 2.8592731359453207, 115062469.94217965)
stretch = [0.6969549259990532, 1.2575260385039744, 1.0061621604045787, 2.1976962491682817]
a0 = ftsolve.solve_symmetric(heavy).point
ftsolve.verify_invariance(ftsolve.PlasticityInstance(heavy.tetrahedron(), a0, stretch))
extra = [light, "decimal" in sys.modules]
"""
    out = fresh(body)
    assert out["extra"] == [False, True]
    assert "decimal" in out["stdlib"]


def test_first_public_name_binds_every_export():
    body = """
import ftsolve
ftsolve.ft_axial
extra = [name for name in ftsolve.__all__ if name not in vars(ftsolve)]
"""
    out = fresh(body)
    assert out["extra"] == []
    assert "ftsolve.plasticity" in out["ftsolve"] and "ftsolve.cli" not in out["ftsolve"]


def test_star_import_and_unknown_names():
    body = """
ns = {}
exec("from ftsolve import *", ns)
import ftsolve
try:
    ftsolve.no_such_name
    unknown = None
except AttributeError as e:
    unknown = str(e)
extra = [sorted(k for k in ns if not k.startswith("__")), sorted(ftsolve.__all__), unknown]
"""
    names, exported, unknown = fresh(body)["extra"]
    assert names == exported and "solve_symmetric" in names and "WeightedTetrahedron" in names
    assert unknown == "module 'ftsolve' has no attribute 'no_such_name'"


def test_export_table_matches_the_submodules():
    # the package's table is the one list of public names: it lists, name
    # for name, the functions and classes each submodule but cli defines
    # without a leading underscore
    body = """
import importlib, inspect, pkgutil, ftsolve
table = {}
for name, module in ftsolve._EXPORTS.items():
    table.setdefault(module, []).append(name)
defined = {}
for m in {m.name for m in pkgutil.iter_modules(ftsolve.__path__)} - {"cli", "__main__"}:
    mod = importlib.import_module("ftsolve." + m)
    defined[m] = sorted(
        k
        for k, v in vars(mod).items()
        if (inspect.isfunction(v) or inspect.isclass(v)) and v.__module__ == mod.__name__ and not k.startswith("_")
    )
extra = [{m: sorted(names) for m, names in table.items()}, defined]
"""
    table, defined = fresh(body)["extra"]
    assert table == defined
