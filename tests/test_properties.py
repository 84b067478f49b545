"""Property-based checks of the core invariants."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ftsolve import (
    SymmetricInstance,
    classify,
    embed_regular,
    ft_axial,
    minimize_reduced,
    objective,
    quartic_coefficients,
    WeightedTetrahedron,
)

finite_weights = st.floats(min_value=0.05, max_value=50.0, allow_nan=False)
edge_lengths = st.floats(min_value=1e-3, max_value=1e3, allow_nan=False)


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
    base = classify(WeightedTetrahedron(embed_regular(1.0).vertices, weights))
    scaled = classify(WeightedTetrahedron(embed_regular(a).vertices, weights))
    assert base.floating == scaled.floating
    assert base.vertex == scaled.vertex


@given(
    st.lists(st.floats(min_value=-5, max_value=5), min_size=3, max_size=3),
    finite_weights,
)
@settings(max_examples=100, deadline=None)
def test_objective_triangle_inequality_shift(x, k):
    # scaling all weights scales the objective; translating everything
    # leaves it unchanged
    pts = embed_regular(1.0).vertices
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
