"""What a fresh interpreter loads: ``import ftsolve`` loads no submodule, the
CLI loads only what its subcommand runs, and the first public name binds
every export.  Each test runs in its own process, so nothing imported here
leaks into what it measures."""

import json
import os
import subprocess
import sys
from pathlib import Path

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


def test_import_cli_loads_only_the_closed_forms():
    out = fresh("import ftsolve.cli")
    assert out["ftsolve"] == sorted(
        ["ftsolve", "ftsolve.cli", "ftsolve.errors", "ftsolve.geom_core", "ftsolve.analytic"]
    )
    assert out["stdlib"] == []


def test_symmetric_solve_loads_no_numeric_or_plasticity(tmp_path):
    path = tmp_path / "inst.json"
    path.write_text(json.dumps({"mode": "symmetric-regular", "a": 1.0, "b1": 2.5, "b4": 1.0}))
    body = f"""
import contextlib, io
from ftsolve.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    extra = main(["solve", "--input", {str(path)!r}])
"""
    out = fresh(body)
    assert out["extra"] == 0
    assert "ftsolve.numeric" not in out["ftsolve"]
    assert "ftsolve.plasticity" not in out["ftsolve"]


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
    # the package's table repeats, name for name, the __all__ of each
    # submodule but cli and the FtSolveError subclasses in errors (which has
    # no __all__)
    body = """
import importlib, pkgutil, ftsolve
from ftsolve import errors
table = {}
for name, module in ftsolve._EXPORTS.items():
    table.setdefault(module, []).append(name)
modules = {m.name for m in pkgutil.iter_modules(ftsolve.__path__)} - {"cli", "errors", "__main__"}
listed = {m: sorted(importlib.import_module("ftsolve." + m).__all__) for m in modules}
listed["errors"] = sorted(
    k for k, v in vars(errors).items() if isinstance(v, type) and issubclass(v, errors.FtSolveError)
)
extra = [{m: sorted(names) for m, names in table.items()}, listed]
"""
    table, listed = fresh(body)["extra"]
    assert table == listed
