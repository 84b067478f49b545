"""Property-based checks of the core invariants."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ftsolve import (
    DegenerateTetrahedron,
    SymmetricInstance,
    classify,
    embed_regular,
    equilibrium_residual,
    ft_axial,
    minimize_reduced,
    objective,
    quartic_coefficients,
    WeightedTetrahedron,
)

finite_weights = st.floats(min_value=0.05, max_value=50.0, allow_nan=False)
edge_lengths = st.floats(min_value=1e-3, max_value=1e3, allow_nan=False)
jitter = st.lists(st.floats(min_value=-0.25, max_value=0.25), min_size=12, max_size=12)
offsets = st.lists(st.floats(min_value=-2.0, max_value=2.0), min_size=3, max_size=3)


def loop_pull(points, weights, x):
    """sum_j w_j (P_j - x)/|P_j - x|, one point at a time."""
    total = np.zeros(3)
    for p, w in zip(points, weights):
        diff = p - x
        total += w * diff / np.linalg.norm(diff)
    return total


@given(edge_lengths, finite_weights, finite_weights)
@settings(max_examples=200, deadline=None)
def test_ft_axial_inside_interval(a, b1, b4):
    inst = SymmetricInstance(a=a, b1=b1, b4=b4)
    y = ft_axial(inst)
    assert -inst.c < y < inst.c
    if b1 > b4:
        assert y >= 0
    elif b1 < b4:
        assert y <= 0


@given(edge_lengths, finite_weights, finite_weights)
@settings(max_examples=100, deadline=None)
def test_closed_form_matches_golden_section(a, b1, b4):
    inst = SymmetricInstance(a=a, b1=b1, b4=b4)
    assert abs(ft_axial(inst) - minimize_reduced(inst)) < 1e-6 * a


@given(finite_weights, finite_weights, finite_weights, finite_weights, edge_lengths)
@settings(max_examples=200, deadline=None)
def test_classification_scale_invariant(w1, w2, w3, w4, a):
    weights = np.array([w1, w2, w3, w4])
    base = classify(WeightedTetrahedron(embed_regular(1.0), weights))
    scaled = classify(WeightedTetrahedron(embed_regular(a), weights))
    assert base.floating == scaled.floating
    assert base.vertex == scaled.vertex


@given(jitter, st.lists(finite_weights, min_size=4, max_size=4), offsets, edge_lengths)
@settings(max_examples=200, deadline=None)
def test_vectorized_pulls_match_per_vertex_loop(dv, weights, x, a):
    # a jittered regular tetrahedron of edge ~a and a point within ~2a of it
    vertices = embed_regular(a) + a * np.reshape(dv, (4, 3))
    try:
        t = WeightedTetrahedron(vertices, weights)
    except DegenerateTetrahedron:
        assume(False)
    w = t.weights
    total_w = float(np.sum(w))
    margins = [
        np.linalg.norm(loop_pull(np.delete(vertices, i, 0), np.delete(w, i), vertices[i])) - w[i]
        for i in range(4)
    ]
    assert np.allclose(classify(t).margins, margins, rtol=0.0, atol=1e-12 * total_w)
    x = a * np.asarray(x)
    assume(np.min(np.linalg.norm(vertices - x, axis=1)) > 1e-6 * a)
    expected = np.linalg.norm(loop_pull(vertices, w, x))
    assert abs(equilibrium_residual(t, x) - expected) <= 1e-12 * total_w


@given(
    st.lists(st.floats(min_value=-5, max_value=5), min_size=3, max_size=3),
    finite_weights,
)
@settings(max_examples=100, deadline=None)
def test_objective_triangle_inequality_shift(x, k):
    # scaling all weights scales the objective; translating everything
    # leaves it unchanged
    pts = embed_regular(1.0)
    w = np.array([1.0, 2.0, 0.5, 1.5])
    x = np.asarray(x)
    base = objective(pts, w, x)
    assert objective(pts, k * w, x) == pytest.approx(k * base, rel=1e-12)
    shift = np.array([1.7, -2.2, 0.4])
    assert objective(pts + shift, w, x + shift) == pytest.approx(
        base, rel=1e-9, abs=1e-12
    )


@given(finite_weights, finite_weights)
@settings(max_examples=100, deadline=None)
def test_quartic_coefficients_odd_terms_vanish(b1, b4):
    q = quartic_coefficients(SymmetricInstance(a=1.0, b1=b1, b4=b4))
    assert q.c3 == 0.0
    assert q.c2 == 0.0
    assert q.c1 < 0.0
    assert math.copysign(1.0, q.c4) == math.copysign(1.0, q.c0) or q.c4 == q.c0 == 0.0
