import math

import numpy as np
import pytest

from ftsolve import SymmetricInstance, angles_at, embed_regular, ft_axial, vertex_angle

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
