"""Vertex angles subtended at the axial minimizer.

Closed forms in terms of the edge length a and the axial coordinate y.  By
symmetry there are three distinct values: the angle under edge A1A2, the
angle under edge A3A4, and the common cross angle between the pairs.

Each angle comes from atan2, which keeps full precision where a cosine
sits near -1 or 1 (y near the edge midpoints at +-c): the angle under A1A2
is twice the half-angle atan2(a/2, c - y), and the cross angle is atan2 of
the cross product (a/2) sqrt(2) hypot(a/2, y) and the dot product
y^2 - c^2 of the two vectors from the point to the vertices.  Every
angle is unchanged when a and y scale together, so both are first scaled
by the power of two (exact) that brings a into [0.5, 1): at the caller's
scale that product and the hypot overflow or underflow for a outside
about [1e-160, 1e154].
"""

from __future__ import annotations

import math

from .geom_core import SQRT2, _edge, _Record

__all__ = ["AngleSet", "angles_at"]


class AngleSet(_Record):
    """The three distinct vertex angles, in radians: under edge A1A2 (the b1
    pair), under edge A3A4 (the b4 pair), and the common value of the four
    cross angles."""

    __slots__ = ("alpha_102", "alpha_304", "alpha_cross")

    def __init__(self, alpha_102: float, alpha_304: float, alpha_cross: float):
        set_102, set_304, set_cross = self._setters
        set_102(self, alpha_102)
        set_304(self, alpha_304)
        set_cross(self, alpha_cross)


def angles_at(a: float, y: float) -> AngleSet:
    """Angles subtended by the edges at the axial point with coordinate y."""
    if not 0 < a < math.inf:
        _edge(a)  # raises its NonPositiveEdge
    a, e = math.frexp(a)
    y = math.ldexp(y, -e)
    c = a * (SQRT2 / 4.0)  # as _edge takes it, at the scaled edge
    half = a / 2.0
    return AngleSet(
        2.0 * math.atan2(half, c - y),
        2.0 * math.atan2(half, c + y),
        math.atan2(half * SQRT2 * math.hypot(half, y), (y - c) * (y + c)),
    )
