import math

import numpy as np
import pytest

from ftsolve import OutOfDomain, SymmetricInstance, angles_at, embed_regular, ft_axial, vertex_angle

Y_REF = 0.1983575549931425
TETRAHEDRAL_ANGLE = math.acos(-1.0 / 3.0)


def test_equal_weights_tetrahedral_angle():
    aset = angles_at(1.0, 0.0)
    assert aset.alpha_102 == pytest.approx(TETRAHEDRAL_ANGLE, abs=1e-12)
    assert aset.alpha_304 == pytest.approx(TETRAHEDRAL_ANGLE, abs=1e-12)
    assert aset.alpha_cross == pytest.approx(TETRAHEDRAL_ANGLE, abs=1e-12)


def test_reference_point_angles():
    # frozen from direct evaluation at y, confirmed by the vector oracle
    aset = angles_at(1.0, Y_REF)
    assert aset.alpha_102 == pytest.approx(2.5396667294, abs=1e-8)
    assert aset.alpha_304 == pytest.approx(1.4721779657, abs=1e-8)
    assert aset.alpha_cross == pytest.approx(1.7922947830, abs=1e-8)


@pytest.mark.parametrize("k", [-1000, -520, 520, 1000])
@pytest.mark.parametrize("a, b1, b4", [(1.0, 2.0, 1.0), (3.7, 1.0, 2.5), (0.6, 1.0 + 1e-9, 1.0)])
def test_angles_scale_exactly_with_the_edge(k, a, b1, b4):
    # (y - c)(y + c) and the hypot product overflowed or underflowed at the
    # caller's scale: alpha_cross read 135 degrees at a = 1e300 and 180 at
    # a = 1e-200 for weights (2, 1), against 104.9 at a = 1
    y = ft_axial(SymmetricInstance(a=a, b1=b1, b4=b4))
    assert angles_at(math.ldexp(a, k), math.ldexp(y, k)) == angles_at(a, y)


def test_angle_ordering_for_positive_y():
    aset = angles_at(1.0, Y_REF)
    assert aset.alpha_102 > aset.alpha_304


def test_limit_at_edge_midpoint():
    c = math.sqrt(2.0) / 4.0
    aset = angles_at(1.0, c)
    assert aset.alpha_102 == pytest.approx(math.pi, abs=1e-12)


@pytest.mark.parametrize("a", [1.0, 3.7, 1e-300, 1e100])
@pytest.mark.parametrize("m", [1.0 + 2.0**-20, 1.5, 2.0, 10.0, 1e6, 1e150, 1e200])
@pytest.mark.parametrize("side", [1, -1])
def test_angles_beyond_the_edge_midpoints_are_those_of_the_vectors(a, m, side):
    # beyond an edge midpoint (|y| > c) the half-angle atan2(a/2, c - y) took
    # the far quadrant: at a = 1 and y = 2c alpha_102 read 4.3726 (the reflex
    # angle), where the angle between the vectors is 1.9106.  From about
    # 1e154 edges y^2 - c^2 overflowed, and the cross angle read 0
    c = a * math.sqrt(2.0) / 4.0
    y = side * m * c
    v = embed_regular(a)
    x = (0.0, 0.0, y)
    aset = angles_at(a, y)
    for got, (i, j) in ((aset.alpha_102, (0, 1)), (aset.alpha_304, (2, 3)), (aset.alpha_cross, (0, 2))):
        assert 0.0 < got < math.pi
        assert got == pytest.approx(vertex_angle(x, v[i], v[j]), rel=4e-16)


def test_angles_within_the_edge_midpoints_are_unchanged():
    # |c - y| is c - y there, and the cross angle's scale is 1: the same
    # floats as the plain forms (an edge in [0.5, 1) is not rescaled)
    a = 0.75
    c, half = a * (math.sqrt(2.0) / 4.0), a / 2.0
    for y in np.linspace(-c, c, 401):
        y = float(y)
        aset = angles_at(a, y)
        assert aset.alpha_102 == 2.0 * math.atan2(half, c - y)
        assert aset.alpha_304 == 2.0 * math.atan2(half, c + y)
        assert aset.alpha_cross == math.atan2(half * math.sqrt(2.0) * math.hypot(half, y), (y - c) * (y + c))


@pytest.mark.parametrize("y", [math.nan, math.inf, -math.inf])
def test_angles_at_refuses_a_coordinate_that_is_not_finite(y):
    # nan gave nan angles and an infinity 2 pi, silently
    with pytest.raises(ValueError, match="axial coordinate must be finite"):
        angles_at(1.0, y)


@pytest.mark.parametrize("y", [1e10, -1e10, 1.7e308])
def test_angles_at_refuses_a_point_beyond_the_scaled_float_range(y):
    # scaled with an edge of 1e-300, y overflows: a bare OverflowError came
    # from math.ldexp.  Every angle there is below the normal float range
    with pytest.raises(OutOfDomain, match="2\\^1024 edge lengths"):
        angles_at(1e-300, y)


def test_vector_oracle_agreement():
    rng = np.random.default_rng(2)
    for _ in range(500):
        a = rng.uniform(0.1, 10.0)
        c = a * math.sqrt(2.0) / 4.0
        y = rng.uniform(-0.99 * c, 0.99 * c)
        v = embed_regular(a)
        x = np.array([0.0, 0.0, y])
        aset = angles_at(a, y)
        assert abs(aset.alpha_102 - vertex_angle(x, v[0], v[1])) < 1e-10
        assert abs(aset.alpha_304 - vertex_angle(x, v[2], v[3])) < 1e-10
        for i, j in ((0, 3), (1, 2), (0, 2), (1, 3)):
            assert abs(aset.alpha_cross - vertex_angle(x, v[i], v[j])) < 1e-10


def test_all_six_angles_equal_for_symmetric_point():
    v = embed_regular(1.0)
    x = np.array([0.0, 0.0, 0.0])
    for i in range(4):
        for j in range(i + 1, 4):
            assert vertex_angle(x, v[i], v[j]) == pytest.approx(
                TETRAHEDRAL_ANGLE, abs=1e-12
            )


def test_continuity_on_open_interval():
    # angle sum varies smoothly: neighboring samples stay close
    c = math.sqrt(2.0) / 4.0
    ys = np.linspace(-0.999 * c, 0.999 * c, 2001)
    sums = []
    for y in ys:
        aset = angles_at(1.0, y)
        sums.append(aset.alpha_102 + aset.alpha_304 + 2.0 * aset.alpha_cross)
    diffs = np.abs(np.diff(sums))
    assert np.max(diffs) < 0.01
