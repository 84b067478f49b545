import math

import numpy as np
import pytest

from ftsolve import (
    CoincidentPoints,
    DegenerateTetrahedron,
    WeightedTetrahedron,
    classify,
    embed_regular,
    equilibrium_residual,
)

Y_REF = 0.1983575549931425


def regular_tet(weights, a=1.0):
    return WeightedTetrahedron(embed_regular(a), weights)


def test_equal_weights_floating_margins():
    # three unit vectors pairwise at 60 degrees sum to norm sqrt(6)
    label = classify(regular_tet([1.0, 1.0, 1.0, 1.0]))
    assert label.floating
    assert label.vertex is None
    assert np.allclose(label.margins, math.sqrt(6) - 1, atol=1e-12)


def test_heavy_vertex_absorbed():
    label = classify(regular_tet([1.0, 1.0, 1.0, 3.0]))
    assert not label.floating
    assert label.vertex == 3
    assert label.margins[3] == pytest.approx(math.sqrt(6) - 3, abs=1e-9)
    assert label.margins[3] < 0


def test_reference_instance_floating():
    label = classify(regular_tet([2.5, 2.5, 1.0, 1.0]))
    assert label.floating
    assert np.all(np.asarray(label.margins) > 0)


def test_scale_invariance():
    w = np.array([2.0, 1.0, 1.5, 1.2])
    base = classify(regular_tet(w))
    scaled_vertices = classify(WeightedTetrahedron(embed_regular(7.5), w))
    assert base.floating == scaled_vertices.floating
    assert np.allclose(base.margins, scaled_vertices.margins, atol=1e-12)
    for k in (0.5, 4.0):
        scaled_weights = classify(regular_tet(k * w))
        assert base.floating == scaled_weights.floating
        assert np.allclose(k * np.asarray(base.margins), scaled_weights.margins, rtol=1e-12)


def test_boundary_perturbation_flips_classification():
    eps = 1e-3
    below = classify(regular_tet([1.0, 1.0, 1.0, math.sqrt(6) - eps]))
    above = classify(regular_tet([1.0, 1.0, 1.0, math.sqrt(6) + eps]))
    assert below.floating
    assert not above.floating
    assert above.vertex == 3


def test_boundary_tie_counts_as_absorbed():
    label = classify(regular_tet([1.0, 1.0, 1.0, math.sqrt(6)]))
    assert not label.floating
    assert label.vertex == 3


def test_residual_at_center_equal_weights():
    t = regular_tet([1.0, 1.0, 1.0, 1.0])
    assert equilibrium_residual(t, np.array([0.0, 0.0, 0.0])) < 1e-12


def test_residual_at_reference_point():
    t = regular_tet([2.5, 2.5, 1.0, 1.0])
    assert equilibrium_residual(t, np.array([0.0, 0.0, 0.198358])) < 1e-4


def test_residual_at_center_unequal_weights():
    # on the axis the lateral components cancel; the axial component is
    # 2*|b1*(c - y)/a01 - b4*(c + y)/a04|, which at y=0 gives sqrt(3) here
    t = regular_tet([2.5, 2.5, 1.0, 1.0])
    assert equilibrium_residual(t, np.array([0.0, 0.0, 0.0])) == pytest.approx(
        math.sqrt(3), abs=1e-12
    )


def test_residual_where_the_squares_overflow_is_the_weight_sum():
    # far from the vertices every unit vector is (1, 0, 0); the squares of
    # the offsets overflowed, the distances read inf and the residual 0.0
    t = WeightedTetrahedron(embed_regular(1.0), (1.1, 0.7, 2.0, 1.3))
    assert equilibrium_residual(t, (1e160, 0.0, 0.0)) == pytest.approx(5.1, rel=1e-15)


def test_residual_where_a_square_is_subnormal_is_the_scaled_residual():
    # x is 1e-160 from A1 at edge 2^-499, above the 1e-12 edge coincidence
    # bound, but the squared offset, 1e-320, is subnormal: a plain sqrt of
    # it reads 9.99994e-161.  The lengths fall back to hypot there, so the
    # residual is the one at the same configuration scaled by 2^600
    weights = (1.1, 0.7, 2.0, 1.3)
    t = WeightedTetrahedron(embed_regular(2.0**-499), weights)
    x = (t.vertices[0][0], 1e-160, t.vertices[0][2])
    scaled = WeightedTetrahedron(embed_regular(2.0**101), weights)
    assert equilibrium_residual(t, x) == equilibrium_residual(scaled, [math.ldexp(c, 600) for c in x])


def test_residual_at_vertex_raises():
    t = regular_tet([1.0, 1.0, 1.0, 1.0])
    with pytest.raises(CoincidentPoints):
        equilibrium_residual(t, t.vertices[2])


def per_vertex_margins(t):
    """The margins by the loop classify ran before the vertex pairs were
    stored: at each A_i, the offsets A_i - A_j to all four vertices, the
    pull summed in vertex order with the zero distance to A_i skipped."""
    margins = []
    for a, wa in zip(t.vertices, t.weights):
        px = py = pz = 0.0
        for b, wb in zip(t.vertices, t.weights):
            vx, vy, vz = a[0] - b[0], a[1] - b[1], a[2] - b[2]
            d = math.sqrt(vx * vx + vy * vy + vz * vz)
            if d:
                px += wb * vx / d
                py += wb * vy / d
                pz += wb * vz / d
        margins.append(math.sqrt(px * px + py * py + pz * pz) - wa)
    return tuple(margins)


def test_margins_from_the_stored_pairs_equal_the_per_vertex_loop():
    # classify reads each pair once and takes u_ji = -u_ij by negating the
    # weight, which is exact, so the margins must match bit for bit
    rng = np.random.default_rng(12)
    checked = absorbed = 0
    while checked < 1200:
        k = (0, 0, 400, -400)[checked % 4]
        vertices = [[math.ldexp(c, k) for c in p] for p in rng.uniform(-1.0, 1.0, size=(4, 3))]
        try:
            t = WeightedTetrahedron(vertices, np.exp(rng.uniform(-2.0, 2.0, size=4)))
        except DegenerateTetrahedron:
            continue
        label = classify(t)
        margins = per_vertex_margins(t)
        assert label.margins == margins
        assert label.vertex == next((i for i, m in enumerate(margins) if m <= 0.0), None)
        checked += 1
        absorbed += not label.floating
    assert 0 < absorbed < checked
