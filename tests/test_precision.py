"""The two-pairs solution against the independent 50-digit mpmath oracle
in perfbench/oracle.py.

The oracle imports nothing from ftsolve: the axial roots are roots of the
unsquared stationarity equations

    b1 (y - c)/a01 + b4 (y + c)/a04 = 0    (minimizer, |y| < c)
    b1 (y - c)/a01 - b4 (y + c)/a04 = 0    (signed twin, beyond the heavier
                                            pair's edge)

found by bracketed Newton steps at 50 digits, and the objective and the
angles come from the 3-D vectors to the four vertices.
"""

import json
import math
import sys

import pytest
from oracle import quartic_coefficients, regular_vertices, residual, symmetric_reference

from ftsolve import (
    FtSolveError,
    SymmetricInstance,
    WeightedTetrahedron,
    angles_at,
    classify,
    complementary_axial,
    equilibrium_residual,
    ft_axial,
    minimize_reduced,
    solve_symmetric,
)
from ftsolve.cli import main

REL_TOL = 1e-9

BAND = {f"1+1e-{k}": 1.0 + 10.0**-k for k in range(1, 11)}
BROAD = {f"10^{x:g}": 10.0**x for x in [0.05] + [j / 4 for j in range(1, 49)]}
RATIOS = {**BAND, **BROAD}
EDGES = (1e-3, 1.0, 1e3)


def relative_errors(a, b1, b4):
    """Relative error of every output of the axis path against the oracle."""
    ref = symmetric_reference(a, b1, b4)
    inst = SymmetricInstance(a=a, b1=b1, b4=b4)
    sol = solve_symmetric(inst)
    ang = angles_at(a, sol.y)
    got = {
        "y": (sol.y, ref.y),
        "point": (sol.point[2], ref.y),
        "y'": (complementary_axial(inst), ref.yp),
        "objective": (sol.objective, ref.objective),
        "alpha_102": (ang.alpha_102, ref.alpha_102),
        "alpha_304": (ang.alpha_304, ref.alpha_304),
        "alpha_cross": (ang.alpha_cross, ref.alpha_cross),
    }
    return {name: abs(v - r) / abs(r) for name, (v, r) in got.items()}


@pytest.mark.parametrize("ratio", RATIOS.values(), ids=RATIOS.keys())
def test_axis_path_matches_50_digit_oracle(ratio):
    for a in EDGES:
        for b1, b4 in ((ratio, 1.0), (1.0, ratio)):
            errors = relative_errors(a, b1, b4)
            worst = max(errors, key=errors.get)
            assert errors[worst] <= REL_TOL, (a, b1, b4, worst, errors[worst])


@pytest.mark.parametrize("ratio", RATIOS.values(), ids=RATIOS.keys())
def test_slope_bisection_matches_50_digit_oracle(ratio):
    # minimize_reduced stops at a bracket of 1e-14 a
    for a in EDGES:
        for b1, b4 in ((ratio, 1.0), (1.0, ratio)):
            y = minimize_reduced(SymmetricInstance(a=a, b1=b1, b4=b4))
            assert abs(y - symmetric_reference(a, b1, b4).y) <= 1e-14 * a, (a, b1, b4)


def test_ratio_1_001_interior_root_to_full_precision():
    # the expanded (b1^2 - b4^2)^2 cost 4e-7 relative on y here
    errors = relative_errors(1.0, 1.001, 1.0)
    assert errors["y"] <= 1e-13
    assert max(errors.values()) <= REL_TOL


def test_ratio_1_plus_1e_9_solves():
    # the expanded (b1^2 - b4^2)^2 rounded to zero here: ZeroDivisionError
    for b1, b4 in ((1.0 + 1e-9, 1.0), (1.0, 1.0 + 1e-9)):
        errors = relative_errors(1.0, b1, b4)
        assert max(errors.values()) <= REL_TOL


@pytest.mark.parametrize("k", [1, 2, 3, 7, 2**10, 2**20, 2**30, 2**40])
def test_both_roots_within_two_ulps_near_equal_weights(k):
    # X is a cube root of up to 2^113 here; v ** (1/3) alone is off by up
    # to about 6 units of 2^-52 relative on either root
    ratio = 1.0 + k * 2.0**-52
    for a in EDGES:
        for b1, b4 in ((ratio, 1.0), (1.0, ratio)):
            ref = symmetric_reference(a, b1, b4)
            inst = SymmetricInstance(a=a, b1=b1, b4=b4)
            roots = ((solve_symmetric(inst).y, ref.y), (complementary_axial(inst), ref.yp))
            for got, want in roots:
                assert abs(got - want) <= 2 * 2.0**-52 * abs(want), (a, b1, b4, got, want)


@pytest.mark.parametrize("a, k", [(1.0, 1e-30), (1.0, 1e30), (1e-200, 1.0), (1e200, 1.0)])
def test_scales_far_from_unit(a, k):
    # y scales with a and depends on the weights only through their ratio;
    # s grows like a^6 b^16 and left the float range at these scales
    ref = SymmetricInstance(a=1.0, b1=2.5, b4=1.0)
    inst = SymmetricInstance(a=a, b1=2.5 * k, b4=k)
    sol = solve_symmetric(inst)
    assert sol.y / a == pytest.approx(solve_symmetric(ref).y, rel=1e-14)
    assert complementary_axial(inst) / a == pytest.approx(complementary_axial(ref), rel=1e-14)
    assert sol.residual <= 1e-13 * (inst.b1 + inst.b4)


@pytest.mark.parametrize("a, b1, b4", [(1e-310, 1e20, 1e19), (5e-324, 1e308, 1e-160)])
def test_solve_symmetric_at_subnormal_edges(a, b1, b4):
    # the distances ran on subnormals: the objective was 3.7e-14 off relative
    # at a = 1e-310 and read 0.0 at a = 5e-324.  Against 50 digits at the
    # returned y (itself subnormal); the residual, a sum of terms of the
    # weights' size that cancel, keeps the rounding it has at any edge: 0.64
    # u sum(w) at 1e-310
    sol = solve_symmetric(SymmetricInstance(a=a, b1=b1, b4=b4))
    ref_residual, ref_objective = residual(regular_vertices(a), (b1, b1, b4, b4), sol.point)
    u, total_w = 2.0**-53, 2.0 * (b1 + b4)
    assert abs(sol.objective - ref_objective) <= 2.0 * u * ref_objective
    assert abs(sol.residual - ref_residual) <= 2.0 * u * total_w


def test_solve_symmetric_refuses_a_residual_beyond_the_float_range():
    # y rounds to 0.0 at a = 5e-324, where 50 digits put the residual above
    # the largest float: it read inf, and the objective 0.0
    a, b1, b4 = 5e-324, 1.7e308, 1e-160
    inst = SymmetricInstance(a=a, b1=b1, b4=b4)
    ref_residual, _ = residual(regular_vertices(a), (b1, b1, b4, b4), (0.0, 0.0, ft_axial(inst)))
    assert ref_residual > sys.float_info.max
    with pytest.raises(FtSolveError, match="the residual exceeds the float range"):
        solve_symmetric(inst)


@pytest.mark.parametrize("ratio", [1.0 + 1e-10, 1.001, 2.5, 1e4, 1e12])
def test_margin_identity_keeps_every_vertex_floating(ratio):
    # the pull at a b1 vertex has squared norm b1^2 + 2 b1 b4 + 3 b4^2 (unit
    # edge vectors meet at 60 degrees), so its margin
    # sqrt(b1^2 + 2 b1 b4 + 3 b4^2) - b1 = b4 (2 b1 + 3 b4)/(sqrt(...) + b1)
    # is positive for any positive weights; the same holds mirrored at the
    # b4 vertices.  solve_symmetric therefore has no absorbed case.
    for b1, b4 in ((ratio, 1.0), (1.0, ratio)):
        label = classify(SymmetricInstance(a=1.0, b1=b1, b4=b4).tetrahedron())
        assert label.floating
        for heavy, light, i in ((b1, b4, 0), (b4, b1, 2)):
            root = math.sqrt(heavy**2 + 2 * heavy * light + 3 * light**2)
            margin = light * (2 * heavy + 3 * light) / (root + heavy)
            assert margin > 0
            for j in (i, i + 1):
                assert label.margins[j] == pytest.approx(margin, rel=1e-9, abs=1e-14 * (b1 + b4))


@pytest.mark.parametrize("b1, b4", [(2.5, 1.0), (1.0, 2.5), (1.0 + 1e-9, 1.0), (1e7, 1.0)])
def test_solve_stays_on_the_axis(monkeypatch, b1, b4):
    inst = SymmetricInstance(a=1.0, b1=b1, b4=b4)
    tet = inst.tetrahedron()

    def no_tetrahedron(self, *args, **kwargs):
        raise AssertionError("the axis path built a tetrahedron")

    monkeypatch.setattr(WeightedTetrahedron, "__init__", no_tetrahedron)
    sol = solve_symmetric(inst)
    monkeypatch.undo()
    assert sol.case == "floating" and sol.vertex is None
    assert list(sol.point[:2]) == [0.0, 0.0]
    # the axial residual 2|f(y)| and the full 3-D norm both vanish to
    # rounding at the root
    assert sol.residual <= 1e-13 * (b1 + b4)
    assert equilibrium_residual(tet, sol.point) <= 1e-13 * (b1 + b4)


@pytest.mark.parametrize("ratio", [1e7, 1e-7, 1.0 + 1e-8, 2.5, 0.5, 1.0])
def test_quartic_subcommand_prints_both_roots(tmp_path, capsys, ratio):
    # a general quartic solver merged the two roots into one double root at
    # 1e7 and 1e-7, and lost 5e-9 relative at 1 + 1e-8
    path = tmp_path / "inst.json"
    path.write_text(json.dumps({"mode": "symmetric-regular", "a": 1.0, "b1": ratio, "b4": 1.0}))
    assert main(["quartic", "--input", str(path), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    # from exact products of the float inputs; b1*b1 - b4*b4 in floats lost
    # 5e-9 relative on c4 and c0 at 1 + 1e-8
    coefficients = quartic_coefficients(1.0, ratio, 1.0)
    for got, ref in zip(payload["coefficients"], coefficients):
        assert abs(got - ref) <= REL_TOL * abs(ref)
    if ratio == 1.0:
        # equal weights: the quartic is linear, c1*y = 0
        assert payload["roots"] == [0.0] and payload["multiplicities"] == [1]
        return
    oracle = symmetric_reference(1.0, ratio, 1.0)
    assert payload["multiplicities"] == [1, 1]
    assert len(payload["roots"]) == 2
    for got, ref in zip(payload["roots"], sorted((oracle.y, oracle.yp))):
        assert abs(got - ref) <= REL_TOL * abs(ref)
