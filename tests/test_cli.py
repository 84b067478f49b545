import io
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from ftsolve import (
    FtSolveError,
    SymmetricInstance,
    angles_at,
    complementary_axial,
    embed_regular,
    objective,
    solve_symmetric,
)
from ftsolve.cli import SWEEP_BLOCK, _ratios, fmt, main

NINE_SIG = re.compile(r"^-?(\d+(\.\d+)?|\d*\.\d+)(e[+-]?\d+)?$|^nan$")


@pytest.fixture
def symmetric_file(tmp_path):
    def write(a=1.0, b1=2.5, b4=1.0):
        path = tmp_path / "instance.json"
        path.write_text(
            json.dumps({"mode": "symmetric-regular", "a": a, "b1": b1, "b4": b4})
        )
        return str(path)

    return write


@pytest.fixture
def general_file(tmp_path):
    path = tmp_path / "general.json"
    path.write_text(
        json.dumps(
            {
                "mode": "general",
                "vertices": [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]],
                "weights": [1.0, 1.0, 1.0, 1.0],
            }
        )
    )
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_solve_reference(capsys, symmetric_file):
    code, out, _ = run(capsys, ["solve", "--input", symmetric_file()])
    assert code == 0
    assert "case=floating" in out
    y = float(next(l for l in out.splitlines() if l.startswith("y=")).split("=")[1])
    assert y == pytest.approx(0.198358, abs=1e-5)


def test_solve_json_round_trip(capsys, symmetric_file):
    code, out, _ = run(capsys, ["solve", "--input", symmetric_file(), "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["case"] == "floating"
    # re-evaluating the objective at the printed point reproduces the
    # printed objective
    from ftsolve import embed_regular

    val = objective(embed_regular(1.0), [2.5, 2.5, 1.0, 1.0], payload["point"])
    assert val == pytest.approx(payload["objective"], rel=1e-9)


def test_solve_general_instance(capsys, general_file):
    code, out, _ = run(capsys, ["solve", "--input", general_file, "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["case"] == "floating"
    assert payload["residual"] < 1e-6


def test_classify_output(capsys, symmetric_file):
    code, out, _ = run(capsys, ["classify", "--input", symmetric_file(), "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["case"] == "floating"
    assert len(payload["margins"]) == 4


def test_angles_equal_weights_degrees(capsys, symmetric_file):
    code, out, _ = run(
        capsys, ["angles", "--input", symmetric_file(b1=1.0, b4=1.0), "--json"]
    )
    assert code == 0
    payload = json.loads(out)
    expected = math.degrees(math.acos(-1.0 / 3.0))
    for key in ("alpha102_deg", "alpha304_deg", "alpha_cross_deg"):
        assert payload[key] == pytest.approx(expected, abs=1e-6)


def test_complementary(capsys, symmetric_file):
    code, out, _ = run(capsys, ["complementary", "--input", symmetric_file(), "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["y_complementary"] == pytest.approx(0.539791, abs=1e-5)
    assert abs(payload["stationarity_defect"]) < 1e-9


@pytest.mark.parametrize("a", [1e-3, 1.0, 1e3])
@pytest.mark.parametrize("ratio", [1 + 1e-12, 1.001, 3.0, 1e6])
@pytest.mark.parametrize("heavy", ["b1", "b4"])
def test_complementary_defect_for_either_weight_order(capsys, symmetric_file, a, ratio, heavy):
    # the defect once printed as nan when b1 < b4; the worst seen over a
    # grid of ratios and edges is 1.3e-16 * (b1 + b4) in either order
    b1, b4 = (ratio, 1.0) if heavy == "b1" else (1.0, ratio)
    path = symmetric_file(a=a, b1=b1, b4=b4)
    code, out, _ = run(capsys, ["complementary", "--input", path, "--json"])
    assert code == 0
    payload = json.loads(out)
    assert math.copysign(1.0, payload["y_complementary"]) == (1.0 if b1 > b4 else -1.0)
    assert abs(payload["stationarity_defect"]) <= 4e-16 * (b1 + b4)


def test_quartic(capsys, symmetric_file):
    code, out, _ = run(capsys, ["quartic", "--input", symmetric_file(), "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["coefficients"][0] == pytest.approx(336.0)
    assert payload["roots"] == pytest.approx([0.198358, 0.539791], abs=1e-5)


def test_plasticity(capsys, symmetric_file):
    code, out, _ = run(
        capsys,
        [
            "plasticity",
            "--input",
            symmetric_file(),
            "--lambda",
            "1,1,1,2",
            "--json",
        ],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["predicted_a04p"] == pytest.approx(2 * 0.744719, abs=2e-5)
    assert payload["displacement"] < 1e-6


@pytest.mark.parametrize("lam", ["0,1,1,1", "nan,1,1,1", "inf,1,1,1", "-1,1,1,1"])
def test_plasticity_rejects_stretch_factors_not_finite_positive(capsys, symmetric_file, lam):
    # each printed a ValueError traceback with exit 1; inf was accepted by
    # PlasticityInstance, the others were rejected there but not caught
    code, out, err = run(capsys, ["plasticity", "--input", symmetric_file(), f"--lambda={lam}"])
    assert (code, out) == (1, "")
    assert err == "error: --lambda expects four comma-separated positive numbers\n"


def test_plasticity_stretch_beyond_the_float_range(capsys, symmetric_file):
    # a finite factor that sends a vertex past the float range printed a
    # ValueError traceback with exit 1
    argv = ["plasticity", "--input", symmetric_file(a=10.0), "--lambda", "1e308,1,1,1"]
    code, out, err = run(capsys, argv)
    assert (code, out) == (2, "")
    assert err == "solver error: a stretched vertex exceeds the float range\n"


def test_plasticity_stretch_whose_edge_squares_overflow(capsys, symmetric_file):
    # the stretched edge is about 5e200, but its square overflowed and the
    # message read "the largest edge, inf"
    argv = ["plasticity", "--input", symmetric_file(a=10.0), "--lambda", "1e200,1,1,1"]
    code, out, err = run(capsys, argv)
    assert (code, out) == (2, "")
    assert err.startswith("solver error: the largest edge, ") and "inf" not in err
    assert 4e200 < float(err.split(", ")[1]) < 6e200


@pytest.mark.parametrize("ratio", [5.0, 25.0, 200.0])
def test_plasticity_when_foot_lies_beyond_a2(capsys, symmetric_file, ratio):
    # the foot of the height from A0 onto line A1'A2' lies beyond A2' here;
    # taken unsigned, it put predicted_a04p off by 7 % at ratio 5 up to 34 %
    # at 200
    argv = ["plasticity", "--input", symmetric_file(b1=1.0, b4=ratio), "--lambda", "6,1,1,1"]
    code, out, err = run(capsys, argv + ["--json"])
    assert code == 0, err
    payload = json.loads(out)
    a0 = solve_symmetric(SymmetricInstance(a=1.0, b1=1.0, b4=ratio)).point
    direct = math.dist(a0, payload["stretched_vertices"][3])
    assert abs(payload["predicted_a04p"] - direct) <= 1e-9 * direct


def plasticity_payload(capsys, path, lam):
    code, out, err = run(capsys, ["plasticity", "--input", path, "--lambda", lam, "--json"])
    assert code == 0, err
    return json.loads(out)


@pytest.mark.parametrize("b1, lam", [(1.5, "1.5,1.2,0.8,2.0"), (2.5, "1,1,1,2"), (0.7, "0.5,3,1.1,2.2")])
def test_plasticity_scales_exactly_with_the_edge(capsys, symmetric_file, b1, lam):
    # the formulas squared the lengths at the caller's scale: a = 1e-80 lost
    # 5 digits of predicted_a04p, 1e-100 gave "height must be positive",
    # and 1e100 an OverflowError; the displacement's squares lost it below
    # a = 2^-450.  Scaling a by 2^k is exact, so the answers must follow it
    # exactly (every k from -490 to 490 was checked; the test strides by 7)
    unit = plasticity_payload(capsys, symmetric_file(a=1.0, b1=b1), lam)
    for k in range(-490, 491, 7):
        payload = plasticity_payload(capsys, symmetric_file(a=math.ldexp(1.0, k), b1=b1), lam)
        for key in ("predicted_a04p", "displacement"):
            assert payload[key] == math.ldexp(unit[key], k), (k, key)
    for a in (1e-100, 1e-80, 1e100):
        payload = plasticity_payload(capsys, symmetric_file(a=a, b1=b1), lam)
        assert payload["predicted_a04p"] == pytest.approx(a * unit["predicted_a04p"], rel=1e-14)


# (a, b1, b4, lambdas) of the cli benchmark's large_ratio plasticity inputs
LARGE_RATIO = [
    (0.18324062329160828, 2.8592731359453207, 115062469.94217965,
     (0.6969549259990532, 1.2575260385039744, 1.0061621604045787, 2.1976962491682817)),
    (0.35934575707970523, 373590.8641162879, 12.601850937605471,
     (1.7727050302113232, 2.741871151085337, 2.8920951675740696, 1.9489856366479599)),
    (10.776218041100401, 2177047.878462987, 20.017840795481494,
     (0.6275728467974134, 1.1265052562728795, 0.543175726816472, 1.0543157654241844)),
]


@pytest.mark.parametrize("a, b1, b4, lambdas", LARGE_RATIO)
def test_plasticity_at_large_weight_ratios(capsys, symmetric_file, a, b1, b4, lambdas):
    # the re-solve of the stretched tetrahedron was 0.3*a off for the first
    # input and exited 2 with NoConvergence for the others
    lam = ",".join(repr(x) for x in lambdas)
    argv = ["plasticity", "--input", symmetric_file(a=a, b1=b1, b4=b4), "--lambda", lam]
    code, out, err = run(capsys, argv + ["--json"])
    assert code == 0, err
    assert abs(json.loads(out)["displacement"]) <= 1e-9 * a


@pytest.mark.parametrize(
    "a, b1, b4",
    [
        pytest.param(1e200, 2.5, 1.0, id="1e+200-2.5"),  # the ids they had with b4 fixed at 1
        pytest.param(1.0, 1e200, 1.0, id="1.0-1e+200"),
        (1e-100, 2.5, 1.0),  # c0 underflows to 0.0
        (1e-80, 2.5, 1.0),  # c0 subnormal
        (1e-250, 2.5, 1.0),  # c1 underflows to -0.0
        (1.0, 2e-160, 1e-160),  # all three subnormal
    ],
)
def test_quartic_coefficients_out_of_float_range(capsys, symmetric_file, a, b1, b4):
    # a**3 raised a bare OverflowError at a = 1e200, b1 = 1e200 printed
    # infinite coefficients with exit 0, and coefficients that underflowed
    # printed as 0.0 or subnormals with exit 0
    path = symmetric_file(a=a, b1=b1, b4=b4)
    code, out, err = run(capsys, ["quartic", "--input", path])
    assert code == 2 and out == ""
    assert err.startswith("solver error: quartic coefficients are not representable")
    assert "Traceback" not in err
    code, out, err = run(capsys, ["solve", "--input", path, "--json"])
    assert code == 0, err
    payload = json.loads(out)
    assert payload["case"] == "floating" and math.isfinite(payload["y"])


def test_angles_at_a_huge_edge(capsys, symmetric_file):
    # alpha_cross_deg read 135 at a = 1e300, against 104.913833678 at a = 1
    payloads = []
    for a in (1.0, 1e300):
        code, out, err = run(capsys, ["angles", "--input", symmetric_file(a=a, b1=2.0), "--json"])
        assert code == 0, err
        payloads.append(json.loads(out))
    assert payloads[0]["y"] * 1e300 == pytest.approx(payloads[1]["y"], rel=1e-15)
    for key in ("alpha102_deg", "alpha304_deg", "alpha_cross_deg"):
        assert payloads[1][key] == payloads[0][key]
    assert fmt(payloads[1]["alpha_cross_deg"]) == "104.913834"


@pytest.mark.parametrize(
    "argv", [["classify"], ["plasticity", "--lambda", "1,1,2,2"]], ids=["classify", "plasticity"]
)
def test_symmetric_edge_outside_the_tetrahedron_range(capsys, symmetric_file, argv):
    # the tetrahedron's [2^-500, 2^500] edge check raised a bare ValueError
    code, out, err = run(capsys, [argv[0], "--input", symmetric_file(a=1e300, b1=2.0)] + argv[1:])
    assert code == 2 and out == ""
    assert err.startswith("solver error: the largest edge")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "sub, a, b1",
    [("complementary", 1e307, 1.000000000000001), ("solve", 1e308, 2.0), ("classify", 1.0, 1.7e308)],
)
def test_answers_beyond_the_float_range(capsys, symmetric_file, sub, a, b1):
    # complementary printed "y_complementary": Infinity, solve
    # "objective": Infinity and classify "margins": [..., Infinity, ...],
    # which is not JSON, with exit 0
    code, out, err = run(capsys, [sub, "--input", symmetric_file(a=a, b1=b1), "--json"])
    assert code == 2 and out == ""
    assert err.startswith("solver error: the ") and "exceeds the float range" in err
    assert "Traceback" not in err


def refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


@pytest.mark.parametrize("b1, b4", [(1.6999999999999997e308, 1.7e308), (1.7e308, 1.6999999999999997e308)])
def test_complementary_defect_near_the_top_of_the_float_range(capsys, symmetric_file, b1, b4):
    # the defect printed as -Infinity, which is not JSON, with exit 0: the
    # slope formed b4 c y at |y| ~ 1e5 before it divided
    code, out, err = run(capsys, ["complementary", "--input", symmetric_file(a=1.0, b1=b1, b4=b4), "--json"])
    assert code == 0, err
    payload = json.loads(out, parse_constant=refuse_constant)
    assert abs(payload["stationarity_defect"]) <= 1e-15 * abs(b1 - b4)


@pytest.mark.parametrize(
    "argv",
    [
        ["solve"],
        ["classify"],
        ["angles"],
        ["complementary"],
        ["quartic"],
        ["plasticity", "--lambda", "1,1,1,2"],
        ["sweep", "--ratio-min", "1", "--ratio-max", "2", "--steps", "2"],
    ],
    ids=lambda argv: argv[0],
)
def test_no_subcommand_accepts_tol(capsys, symmetric_file, argv):
    # the general solver's step tolerance is fixed; solve once took --tol
    # and the other subcommands accepted it and ignored it
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--input", symmetric_file(), "--tol", "1e-6"])
    assert exc.value.code == 2
    assert "--tol" in capsys.readouterr().err


def test_sweep_has_no_json_flag(capsys, symmetric_file):
    # sweep always prints CSV; it once accepted --json and ignored it
    argv = ["sweep", "--input", symmetric_file(), "--ratio-min", "1", "--ratio-max", "2"]
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--steps", "2", "--json"])
    assert exc.value.code == 2
    assert "--json" in capsys.readouterr().err


@pytest.mark.parametrize(
    "lo, hi", [("1", "inf"), ("1", "nan"), ("nan", "2"), ("inf", "inf"), ("0", "2"), ("2", "1")]
)
def test_sweep_rejects_bad_ratio_ranges(capsys, symmetric_file, lo, hi):
    # non-finite ratios once printed the CSV header and then a traceback
    argv = ["sweep", "--input", symmetric_file(b1=1.0, b4=1.0), "--steps", "3"]
    code, out, err = run(capsys, argv + [f"--ratio-min={lo}", f"--ratio-max={hi}"])
    assert code == 1 and out == ""
    assert err == "error: need finite 0 < ratio-min <= ratio-max\n"
    assert "Traceback" not in err


@pytest.mark.parametrize("b, lo, hi", [(10.0, "1", "1e308"), (1e-300, "1e-300", "1")])
def test_sweep_rejects_row_weights_outside_float_range(capsys, symmetric_file, b, lo, hi):
    # the row weight ratio * b4 overflowed to inf, which printed a row of
    # nan with exit 0, or underflowed to 0, which printed the CSV header and
    # then a traceback
    argv = ["sweep", "--input", symmetric_file(b1=b, b4=b), "--steps", "2"]
    code, out, err = run(capsys, argv + [f"--ratio-min={lo}", f"--ratio-max={hi}"])
    assert code == 1 and out == ""
    assert err == "error: ratio-min * b4 and ratio-max * b4 must be positive finite weights\n"
    assert "Traceback" not in err


def test_sweep_single_step(capsys, symmetric_file):
    code, out, _ = run(
        capsys,
        [
            "sweep",
            "--input",
            symmetric_file(b1=1.0, b4=1.0),
            "--ratio-min",
            "1",
            "--ratio-max",
            "1",
            "--steps",
            "1",
        ],
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "ratio,y,y_complementary,objective,alpha102,alpha304,alpha_cross"
    row = lines[1].split(",")
    assert float(row[1]) == 0.0


def test_sweep_schema_and_monotonicity(capsys, symmetric_file):
    code, out, _ = run(
        capsys,
        [
            "sweep",
            "--input",
            symmetric_file(b1=1.0, b4=1.0),
            "--ratio-min",
            "1.05",
            "--ratio-max",
            "20",
            "--steps",
            "40",
        ],
    )
    assert code == 0
    assert out.endswith("\n")
    lines = out.splitlines()
    assert lines[0] == "ratio,y,y_complementary,objective,alpha102,alpha304,alpha_cross"
    assert len(lines) == 41
    ys = []
    for line in lines[1:]:
        cells = line.split(",")
        assert len(cells) == 7
        for cell in cells:
            assert NINE_SIG.match(cell), cell
            # at most 9 significant digits
            digits = re.sub(r"[^0-9]", "", cell.split("e")[0]).lstrip("0")
            assert len(digits) <= 9
        ys.append(float(cells[1]))
    assert all(a < b for a, b in zip(ys, ys[1:]))


@pytest.mark.parametrize("lo, hi", [(1.0001, 50.0), (1e-7, 1e7)])
@pytest.mark.parametrize("steps", [1, 2, 3000])
def test_sweep_ratios_match_linspace(lo, hi, steps):
    assert list(_ratios(lo, hi, steps)) == np.linspace(lo, hi, steps).tolist()


def test_sweep_ratios_are_not_held_in_memory():
    # as a list, a million ratios peaked at 40 MB before the first row
    tracemalloc.start()
    try:
        last = None
        for last in _ratios(1.0, 2.0, 10**6):
            pass
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert last == 2.0
    assert peak < 2**20


SWEEP_HEADER = "ratio,y,y_complementary,objective,alpha102,alpha304,alpha_cross\n"


def reference_sweep(a, b1, b4, lo, hi, steps):
    """The CSV as sweep once wrote it, one row at a time with fmt on each
    cell, and the error that ended it (None if it ran to the end)."""
    out = [SWEEP_HEADER]
    for r in _ratios(lo, hi, steps):
        row = SymmetricInstance(a, r * b4, b4)
        try:
            sol = solve_symmetric(row)
        except FtSolveError as e:
            return "".join(out), e
        try:
            yp = complementary_axial(row)
        except FtSolveError:
            yp = float("nan")
        aset = angles_at(a, sol.y)
        cells = [r, sol.y, yp, sol.objective, aset.alpha_102, aset.alpha_304, aset.alpha_cross]
        out.append(",".join(fmt(v) for v in cells) + "\n")
    return "".join(out), None


class CountingStdout(io.StringIO):
    """stdout that counts the non-empty writes it receives."""

    writes = 0

    def write(self, text):
        self.writes += bool(text)
        return super().write(text)


@pytest.mark.parametrize("steps", [1, 511, 512, 513, 1025])
def test_sweep_rows_match_per_row_formatting(monkeypatch, symmetric_file, steps):
    # rows go out SWEEP_BLOCK lines (the header counts) per write, with the
    # bytes of fmt on each cell; 0.5..1.5 passes ratio 1 (equal weights, no
    # exterior point) at 1025 steps, and the mirrored b4-heavy rows below it
    path = symmetric_file(a=2.0, b1=1.0, b4=0.75)
    expected, error = reference_sweep(2.0, 1.0, 0.75, 0.5, 1.5, steps)
    assert error is None
    out = CountingStdout()
    monkeypatch.setattr(sys, "stdout", out)
    argv = ["sweep", "--input", path, "--ratio-min", "0.5", "--ratio-max", "1.5", "--steps", str(steps)]
    assert main(argv) == 0
    assert out.getvalue() == expected
    assert out.writes == -(-(steps + 1) // SWEEP_BLOCK)
    if steps == 1025:
        assert "\n1,0,nan," in expected


@pytest.mark.parametrize("steps", [2000, 50000])
def test_sweep_failing_mid_way_writes_the_rows_before_the_error(capsys, symmetric_file, steps):
    # the objective overflows near ratio 1.8e8: after 36 rows of 2000, and
    # after 899 rows of 50000, past the first block
    path = symmetric_file(a=1e300, b1=1.0, b4=1.0)
    expected, error = reference_sweep(1e300, 1.0, 1.0, 1.0, 1e10, steps)
    assert str(error) == "the objective exceeds the float range at a = 1e+300"
    assert (expected.count("\n") - 1 > SWEEP_BLOCK) == (steps == 50000)
    argv = ["sweep", "--input", path, "--ratio-min", "1", "--ratio-max", "1e10", "--steps", str(steps)]
    code, out, err = run(capsys, argv)
    assert (code, out, err) == (2, expected, f"solver error: {error}\n")


# runs every subcommand in a process where importing numpy fails
WITHOUT_NUMPY = """
import json, sys
sys.modules["numpy"] = None
from ftsolve.cli import main
print(json.dumps([main(argv) for argv in json.loads(sys.argv[1])]))
"""


def test_no_subcommand_needs_numpy(symmetric_file, general_file):
    sym = symmetric_file()
    argvs = [
        ["solve", "--input", sym],
        ["solve", "--input", general_file],
        ["classify", "--input", general_file],
        ["angles", "--input", sym],
        ["complementary", "--input", sym],
        ["quartic", "--input", sym],
        ["plasticity", "--input", sym, "--lambda", "6,1,1,1"],
        ["sweep", "--input", sym, "--ratio-min", "0.5", "--ratio-max", "2", "--steps", "5"],
    ]
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-c", WITHOUT_NUMPY, json.dumps(argvs)],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == [0] * len(argvs)


def test_bad_file_exit_code(capsys, tmp_path):
    missing = str(tmp_path / "nope.json")
    code, _, err = run(capsys, ["solve", "--input", missing])
    assert code == 1
    assert "error" in err


def test_bad_schema_exit_code(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"mode": "symmetric-regular", "a": -1, "b1": 1, "b4": 1}))
    code, _, err = run(capsys, ["solve", "--input", str(path)])
    assert code == 1


UNIT_VERTICES = [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]]
MALFORMED_GENERAL = {
    "three-vertices": (UNIT_VERTICES[:3], [1.0] * 4),
    "ragged-rows": ([[0, 0, 0], [1, 0], [0, 1, 0], [0, 0, 1]], [1.0] * 4),
    "rows-too-deep": ([[[c] for c in row] for row in UNIT_VERTICES], [1.0] * 4),
    "scalar-vertices": (1.0, [1.0] * 4),
    "null-vertices": (None, [1.0] * 4),
    "object-vertices": ({"A1": [0, 0, 0]}, [1.0] * 4),
    "string-coordinate": ([[0, 0, 0], [1, "x", 0], [0, 1, 0], [0, 0, 1]], [1.0] * 4),
    "infinite-coordinate": ([[0, 0, 0], [1, math.inf, 0], [0, 1, 0], [0, 0, 1]], [1.0] * 4),
    "five-weights": (UNIT_VERTICES, [1.0] * 5),
    "nan-weight": (UNIT_VERTICES, [1.0, math.nan, 1.0, 1.0]),
    "infinite-weight": (UNIT_VERTICES, [math.inf, 1.0, 1.0, 1.0]),
    "zero-weight": (UNIT_VERTICES, [1.0, 0.0, 1.0, 1.0]),
    # these two solved with exit 0: an object was read as the list of its keys
    "object-weights": (UNIT_VERTICES, {"1": 0, "2": 0, "3": 0, "4": 0}),
    "object-vertex": ([{"0": "a", "1": True, "2": None}] + UNIT_VERTICES[1:], [1.0] * 4),
}


@pytest.mark.parametrize("sub", ["solve", "classify"])
@pytest.mark.parametrize("vertices, weights", MALFORMED_GENERAL.values(), ids=MALFORMED_GENERAL)
def test_malformed_general_instance(capsys, tmp_path, sub, vertices, weights):
    path = tmp_path / "general.json"
    # json.dumps writes the non-finite numbers as Infinity and NaN, which
    # json.load reads back
    path.write_text(json.dumps({"mode": "general", "vertices": vertices, "weights": weights}))
    code, out, err = run(capsys, [sub, "--input", str(path)])
    assert code == 1 and out == ""
    assert err.startswith("error: bad general instance")
    assert "Traceback" not in err


NOT_NUMBERS = {
    "true-weight": {"mode": "general", "vertices": UNIT_VERTICES, "weights": [True, 1, 1, 1]},
    "string-weight": {"mode": "general", "vertices": UNIT_VERTICES, "weights": [1, "1", 1, 1]},
    "false-coordinate": {
        "mode": "general",
        "vertices": [[0, 0, 0], [1, False, 0], [0, 1, 0], [0, 0, 1]],
        "weights": [1, 1, 1, 1],
    },
    "true-edge": {"mode": "symmetric-regular", "a": True, "b1": 2.5, "b4": 1},
    "string-weight-b4": {"mode": "symmetric-regular", "a": 1, "b1": 2.5, "b4": "1"},
}


@pytest.mark.parametrize("sub", ["solve", "classify"])
@pytest.mark.parametrize("instance", NOT_NUMBERS.values(), ids=NOT_NUMBERS)
def test_booleans_and_strings_are_not_numbers(capsys, tmp_path, sub, instance):
    # float() read true as 1 and "1" as 1, and these solved with exit 0
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(instance))
    code, out, err = run(capsys, [sub, "--input", str(path)])
    assert (code, out) == (1, "")
    assert err.startswith("error: bad ") and "expected a number" in err


@pytest.mark.parametrize("field", ["a", "b1", "b4"])
@pytest.mark.parametrize("sign", ["", "-"])
def test_integer_too_large_for_a_float(capsys, tmp_path, field, sign):
    # float(int) raised OverflowError, reported as a solver failure (exit 2)
    values = {"a": "1", "b1": "2.5", "b4": "1", field: sign + "9" * 400}
    text = '{"mode": "symmetric-regular", ' + ", ".join(f'"{k}": {v}' for k, v in values.items())
    path = tmp_path / "instance.json"
    path.write_text(text + "}")
    code, out, err = run(capsys, ["solve", "--input", str(path)])
    assert (code, out) == (1, "")
    assert err.startswith("error: bad symmetric-regular instance")
    assert "Traceback" not in err


def test_json_nested_too_deep(capsys, tmp_path):
    # json.load raises RecursionError, which escaped as a traceback
    path = tmp_path / "instance.json"
    path.write_text("[" * 100_000)
    code, out, err = run(capsys, ["solve", "--input", str(path)])
    assert (code, out) == (1, "")
    assert err.startswith("error: invalid JSON")


@pytest.mark.parametrize("sub", ["solve", "classify", "sweep"])
@pytest.mark.parametrize(
    "field, value", [("a", math.inf), ("b1", math.inf), ("b4", math.inf), ("b1", math.nan)]
)
def test_non_finite_symmetric_instance(capsys, symmetric_file, sub, field, value):
    # b1 = Infinity once made solve print y=nan and exit 0
    argv = [sub, "--input", symmetric_file(**{field: value})]
    if sub == "sweep":
        argv += ["--ratio-min", "1", "--ratio-max", "2", "--steps", "2"]
    code, out, err = run(capsys, argv)
    assert code == 1 and out == ""
    assert err.startswith("error: bad symmetric-regular instance")
    assert "Traceback" not in err


def test_solver_failure_exit_code(capsys, tmp_path):
    # equal weights: the complementary critical point escapes to infinity
    path = tmp_path / "equal.json"
    path.write_text(json.dumps({"mode": "symmetric-regular", "a": 1, "b1": 1, "b4": 1}))
    code, _, err = run(capsys, ["complementary", "--input", str(path)])
    assert code == 2


def test_entry_point_runs(capsys, symmetric_file):
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-m", "ftsolve", "solve", "--input", symmetric_file()],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "case=floating" in proc.stdout


@pytest.mark.parametrize("sub", ["solve", "angles", "complementary"])
@pytest.mark.parametrize("b1, b4", [(1.0 + 1e-9, 1.0), (1.0, 1.0 + 1e-9)])
def test_near_equal_weights_solve(capsys, symmetric_file, sub, b1, b4):
    # the expanded (b1^2 - b4^2)^2 rounded to zero here and the CLI exited
    # 1 with a ZeroDivisionError traceback
    code, out, err = run(capsys, [sub, "--input", symmetric_file(b1=b1, b4=b4), "--json"])
    assert code == 0, err
    assert "Traceback" not in err
    payload = json.loads(out)
    y = payload.get("y", payload.get("y_complementary"))
    assert math.isfinite(y) and (y > 0) == (b1 > b4)


def test_arithmetic_error_is_a_solver_failure(capsys, symmetric_file, monkeypatch):
    import ftsolve.cli

    def overflow(inst):
        raise OverflowError("math range error")

    monkeypatch.setattr(ftsolve.cli, "solve_symmetric", overflow)
    code, out, err = run(capsys, ["solve", "--input", symmetric_file()])
    assert code == 2
    assert out == ""
    assert err == "solver error: math range error\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["angles"],
        ["complementary"],
        ["quartic"],
        ["plasticity", "--lambda", "1,1,1,2"],
        ["sweep", "--ratio-min", "1", "--ratio-max", "2", "--steps", "2"],
    ],
    ids=lambda argv: argv[0],
)
def test_symmetric_subcommands_reject_a_general_instance(capsys, general_file, argv):
    code, out, err = run(capsys, [argv[0], "--input", general_file] + argv[1:])
    assert (code, out) == (1, "")
    assert err == "error: this subcommand requires a symmetric-regular instance\n"


NO_MODE = "error: instance file must be an object with a 'mode' field"
SWEEP_NO_STEPS = ["sweep", "--ratio-min", "1", "--ratio-max", "2", "--steps", "0"]


@pytest.mark.parametrize(
    "content, message, argv",
    [
        (None, "error: cannot read ", ["solve"]),
        (b'{"mode": "regular"}', "error: unknown mode 'regular'", ["solve"]),
        # the UnicodeDecodeError escaped as a traceback
        (b'\xff\xfe{"mode": "general"}', "error: invalid JSON in ", ["solve"]),
        (b"[1.0, 2.5, 1.0]", NO_MODE, ["solve"]),
        (b'{"a": 1.0, "b1": 2.5, "b4": 1.0}', NO_MODE, ["solve"]),
        # a valid file, and an option that sweep refuses
        (
            b'{"mode": "symmetric-regular", "a": 1.0, "b1": 2.5, "b4": 1.0}',
            "error: --steps must be at least 1\n",
            SWEEP_NO_STEPS,
        ),
    ],
    ids=["missing-file", "unknown-mode", "not-utf8", "json-array", "no-mode", "sweep-no-steps"],
)
def test_instance_file_errors(capsys, tmp_path, content, message, argv):
    path = tmp_path / "instance.json"
    if content is not None:
        path.write_bytes(content)
    code, out, err = run(capsys, [argv[0], "--input", str(path)] + argv[1:])
    assert (code, out) == (1, "")
    assert err.startswith(message)
    assert "Traceback" not in err


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out == "0.1.0\n"


def test_classify_at_the_largest_edges(capsys, symmetric_file):
    # c = a * sqrt(2) / 4 overflowed to inf at a = 1.5e308, and classify
    # printed a ValueError traceback with exit 1
    code, out, err = run(capsys, ["classify", "--input", symmetric_file(a=1.5e308)])
    assert (code, out) == (2, "")
    assert err == "solver error: the largest edge, 1.5e+308, is outside [2^-500, 2^500]\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--json"],
        ["sweep", "--ratio-min", "1", "--ratio-max", "2", "--steps", "50000"],
    ],
    ids=lambda argv: argv[0],
)
def test_closed_stdout(symmetric_file, argv):
    # a reader that closed stdout (`ftsolve solve ... | true`) gave a
    # BrokenPipeError traceback
    src = Path(__file__).resolve().parent.parent / "src"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "ftsolve", argv[0], "--input", symmetric_file()] + argv[1:],
            env={**os.environ, "PYTHONPATH": str(src)},
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr == ""


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


@pytest.fixture
def absorbed_file(tmp_path):
    path = tmp_path / "absorbed.json"
    weights = [10.0, 1.0, 1.0, 1.0]
    path.write_text(json.dumps({"mode": "general", "vertices": UNIT_VERTICES, "weights": weights}))
    return str(path)


SYMMETRIC_ARGVS = [
    ["solve"],
    ["classify"],
    ["angles"],
    ["complementary"],
    ["quartic"],
    ["plasticity", "--lambda", "1,1,1,2"],
]
# floating instances at weights far from 1: with the weights unscaled,
# solve said absorbed at A1 with objective 4e-200 at 1e-200 (the answer
# floats at 2.99e-200) and exited 2 after 100 steps at 1e200, where
# classify printed "margins": [Infinity, ...]; at b1 = b4 = 1e-200 solve
# said floating and classify absorbed
SCALED_WEIGHTS = {"tiny-general": 1e-200, "huge-general": 1e200, "tiny-symmetric": 1e-200}
JSON_CASES = [("symmetric", argv) for argv in SYMMETRIC_ARGVS] + [
    (mode, [sub])
    for mode in ("floating-general", "absorbed-general", *SCALED_WEIGHTS)
    for sub in ("solve", "classify")
]


@pytest.mark.parametrize("mode, argv", JSON_CASES, ids=[f"{m}-{a[0]}" for m, a in JSON_CASES])
def test_json_output_is_strict_json(
    capsys, tmp_path, symmetric_file, general_file, absorbed_file, mode, argv
):
    # solve on an absorbed general instance printed "residual": NaN
    if mode == "tiny-symmetric":
        path = symmetric_file(b1=1e-200, b4=1e-200)
    elif mode in SCALED_WEIGHTS:
        path = tmp_path / "scaled.json"
        weights = [w * SCALED_WEIGHTS[mode] for w in (1.1, 0.7, 2.0, 1.3)]
        path.write_text(json.dumps({"mode": "general", "vertices": embed_regular(1.0), "weights": weights}))
    else:
        path = {
            "symmetric": symmetric_file(),
            "floating-general": general_file,
            "absorbed-general": absorbed_file,
        }[mode]
    code, out, err = run(capsys, [argv[0], "--input", str(path), "--json"] + argv[1:])
    assert code == 0, err
    payload = json.loads(out, parse_constant=_reject_constant)
    if argv[0] == "solve":
        assert ("residual" in payload) == (payload["case"] == "floating")
    if mode in SCALED_WEIGHTS:
        assert payload["case"] == "floating"
        if mode == "tiny-general" and argv[0] == "solve":
            assert payload["objective"] == pytest.approx(2.99e-200, rel=1e-3)


def test_absorbed_solve_prints_no_residual(capsys, absorbed_file):
    code, out, _ = run(capsys, ["solve", "--input", absorbed_file])
    assert code == 0
    assert out == "case=absorbed\npoint=0 0 0\nobjective=3\nvertex=0\n"
