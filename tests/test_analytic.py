import math

import numpy as np
import pytest

from ftsolve import (
    FtSolveError,
    SymmetricInstance,
    complementary_axial,
    equilibrium_residual,
    ft_axial,
    minimize_reduced,
    quartic_coefficients,
    solve_symmetric,
    stationarity_defect,
)

REF = SymmetricInstance(a=1.0, b1=2.5, b4=1.0)


def random_instances(n, seed=0):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        a = rng.uniform(0.1, 10.0)
        b4 = rng.uniform(0.2, 5.0)
        ratio = max(rng.uniform(1.0, 20.0), 1.001)
        out.append(SymmetricInstance(a=a, b1=ratio * b4, b4=b4))
    return out


def test_quartic_coefficients_reference():
    q = quartic_coefficients(REF)
    assert q.c4 == pytest.approx(336.0, abs=1e-9)
    assert q.c3 == 0.0
    assert q.c2 == 0.0
    assert q.c1 == pytest.approx(-82.02438, abs=1e-5)
    assert q.c0 == pytest.approx(15.75, abs=1e-9)


def test_quartic_coefficients_equal_weights_degenerate():
    q = quartic_coefficients(SymmetricInstance(a=1.0, b1=1.0, b4=1.0))
    assert q.c4 == 0.0
    assert q.c0 == 0.0
    assert q.c1 == pytest.approx(-16.0 * math.sqrt(2.0), abs=1e-12)
    assert ft_axial(SymmetricInstance(a=1.0, b1=1.0, b4=1.0)) == 0.0


def test_quartic_coefficients_scaling():
    q1 = quartic_coefficients(REF)
    q2 = quartic_coefficients(SymmetricInstance(a=2.0, b1=2.5, b4=1.0))
    assert q2.c1 == pytest.approx(8.0 * q1.c1, rel=1e-14)
    assert q2.c0 == pytest.approx(16.0 * q1.c0, rel=1e-14)
    assert q2.c4 == q1.c4


def test_ft_axial_weight_scaling():
    k = 3.7
    assert ft_axial(SymmetricInstance(a=1.0, b1=k * 2.5, b4=k * 1.0)) == pytest.approx(
        ft_axial(REF), rel=1e-12
    )


def test_ft_axial_reference():
    assert ft_axial(REF) == pytest.approx(0.198358, abs=1e-5)


def test_ft_axial_equal_weights():
    assert ft_axial(SymmetricInstance(a=1.0, b1=1.5, b4=1.5)) == 0.0


def test_ft_axial_scales_with_edge():
    assert ft_axial(SymmetricInstance(a=2.0, b1=2.5, b4=1.0)) == pytest.approx(
        0.396716, abs=2e-5
    )
    # derivative-bisection oracle at a=2
    assert ft_axial(SymmetricInstance(a=2.0, b1=2.5, b4=1.0)) == pytest.approx(
        minimize_reduced(SymmetricInstance(a=2.0, b1=2.5, b4=1.0)), abs=1e-7 * 2.0
    )


def test_ft_axial_mirror():
    mirrored = SymmetricInstance(a=1.0, b1=1.0, b4=2.5)
    assert ft_axial(mirrored) == pytest.approx(-ft_axial(REF), rel=1e-12)


def test_complementary_axial_reference():
    yp = complementary_axial(REF)
    assert yp == pytest.approx(0.539791, abs=1e-5)
    assert yp > math.sqrt(2.0) / 4.0


def test_complementary_signed_stationarity():
    yp = complementary_axial(REF)
    assert abs(stationarity_defect(REF, yp)) < 1e-9


def test_complementary_grows_as_weights_equalize():
    values = [
        complementary_axial(SymmetricInstance(a=1.0, b1=r, b4=1.0))
        for r in (1.5, 1.2, 1.1)
    ]
    assert values[0] < values[1] < values[2]


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
def test_quartic_coefficients_out_of_float_range(a, b1, b4):
    with pytest.raises(FtSolveError, match="c4=.*c1=.*c0="):
        quartic_coefficients(SymmetricInstance(a=a, b1=b1, b4=b4))


def test_solve_symmetric_reference():
    sol = solve_symmetric(REF)
    assert sol.case == "floating"
    assert sol.y == pytest.approx(0.198358, abs=1e-5)
    assert sol.objective == pytest.approx(4.10710, abs=1e-4)
    assert sol.residual < 1e-6


def test_solve_symmetric_equal_weights():
    sol = solve_symmetric(SymmetricInstance(a=1.0, b1=1.0, b4=1.0))
    assert sol.case == "floating"
    assert sol.y == 0.0
    assert np.allclose(sol.point, [0.0, 0.0, 0.0])


def test_solve_symmetric_mirrored_weights():
    # Weiszfeld oracle for the b4-dominant case
    from ftsolve import weiszfeld

    inst = SymmetricInstance(a=1.0, b1=1.0, b4=5.0)
    sol = solve_symmetric(inst)
    assert sol.case == "floating"
    assert sol.y < 0
    assert sol.y == pytest.approx(-ft_axial(SymmetricInstance(1.0, 5.0, 1.0)), rel=1e-12)
    num = weiszfeld(inst.tetrahedron())
    assert np.linalg.norm(np.subtract(num.point, sol.point)) < 1e-6


def test_quartic_membership_random():
    for inst in random_instances(500, seed=5):
        q = quartic_coefficients(inst)
        for y in (ft_axial(inst), complementary_axial(inst)):
            res = 64.0 * y**4 * (inst.b1**2 - inst.b4**2) - 8.0 * math.sqrt(
                2.0
            ) * inst.a**3 * y * (inst.b1**2 + inst.b4**2) + 3.0 * inst.a**4 * (
                inst.b1**2 - inst.b4**2
            )
            bound = 1e-9 * (abs(q.c4) * y**4 + abs(q.c1) * abs(y) + abs(q.c0))
            assert abs(res) < bound


def test_root_set_matches_quartic_solver():
    for inst in random_instances(100, seed=6):
        y_int = ft_axial(inst)
        y_ext = complementary_axial(inst)
        q = quartic_coefficients(inst)
        roots = [r.real for r in np.roots([q.c4, q.c3, q.c2, q.c1, q.c0]) if r.imag == 0.0]
        c = inst.c
        assert 0.0 < y_int < c
        assert y_ext > c
        for y in (y_int, y_ext):
            assert any(abs(y - r) < 1e-9 * max(1.0, inst.a) for r in roots)
        assert len(roots) == 2


def test_oracle_agreement_golden_section():
    for inst in random_instances(500, seed=7):
        assert abs(ft_axial(inst) - minimize_reduced(inst)) < 1e-7 * inst.a


def test_sign_flip_coincidence():
    # negating every weight flips each term of the equilibrium sum, so the
    # same point is critical; the quartic depends only on squared weights
    sol = solve_symmetric(REF)
    tet = REF.tetrahedron()
    total = np.zeros(3)
    for v, w in zip(np.asarray(tet.vertices), -np.asarray(tet.weights)):
        diff = v - sol.point
        total += w * diff / np.linalg.norm(diff)
    assert np.linalg.norm(total) < 1e-6 * np.sum(tet.weights)
    assert np.linalg.norm(total) == pytest.approx(
        equilibrium_residual(tet, sol.point), rel=1e-9
    )


MEMO_CASES = [
    (1.0, 2.5, 1.0),
    (3.0, 1.0, 2.5),  # mirrored: b4 heavier
    (1.0, 1.0 + 2.0**-52, 1.0),
    (1e-200, 1.0, 1e12),
    (0.7, 1e15, 1.0),
    (1.0, 1.5, 1.5),  # equal weights: nothing to keep
    (1e300, 2.0, 1.0),  # the exterior root overflows
]
ORDERS = [
    ("ft_axial", "complementary_axial", "solve_symmetric"),
    ("complementary_axial", "solve_symmetric", "ft_axial"),
    ("solve_symmetric", "ft_axial", "complementary_axial"),
]


def _answer(name, inst):
    """The bits of one call's answer, or the type and text of its error."""
    fn = {"ft_axial": ft_axial, "complementary_axial": complementary_axial, "solve_symmetric": solve_symmetric}
    try:
        out = fn[name](inst)
    except FtSolveError as e:
        return type(e).__name__, str(e)
    if name == "solve_symmetric":
        return tuple(float(v).hex() for v in (*out.point, out.objective, out.residual, out.y))
    return float(out).hex()


@pytest.mark.parametrize("order", ORDERS, ids=lambda o: o[0])
@pytest.mark.parametrize("a, b1, b4", MEMO_CASES)
def test_roots_kept_on_the_instance_match_a_fresh_solve(a, b1, b4, order):
    # the roots are solved once per instance and kept on it: every call on a
    # reused instance, in any order and repeated, answers bit for bit as on a
    # fresh instance
    reused = SymmetricInstance(a, b1, b4)
    for name in order + order:
        assert _answer(name, reused) == _answer(name, SymmetricInstance(a, b1, b4))


@pytest.mark.parametrize("a, b1, b4", MEMO_CASES)
def test_kept_roots_leave_equality_and_hash_alone(a, b1, b4):
    solved, unsolved = SymmetricInstance(a, b1, b4), SymmetricInstance(a, b1, b4)
    _answer("ft_axial", solved)
    assert solved == unsolved and hash(solved) == hash(unsolved)
    assert repr(solved) == repr(unsolved) == f"SymmetricInstance(a={a!r}, b1={b1!r}, b4={b4!r})"
    assert {solved: 1}[unsolved] == 1
