"""Vertex angles subtended at the axial minimizer.

Closed forms in terms of the edge length a and the axial coordinate y.  By
symmetry there are three distinct values: the angle under edge A1A2, the
angle under edge A3A4, and the common cross angle between the pairs.

Each angle comes from atan2, which keeps full precision where a cosine
sits near -1 or 1 (y near the edge midpoints at +-c): the angle under A1A2
is twice the half-angle atan2(a/2, |c - y|), at most pi/2 on either side
of the midpoint (and the angle under A3A4 uses |c + y|), and the cross
angle is atan2 of the cross product (a/2) sqrt(2) hypot(a/2, y) and the
dot product y^2 - c^2 of the two vectors from the point to the vertices.
Every angle is unchanged when a and y scale together, so both are first
scaled by the power of two (exact) that brings a into [0.5, 1): at the
caller's scale that product and the hypot overflow or underflow for a
outside about [1e-160, 1e154].
"""

from __future__ import annotations

import math

from .errors import OutOfDomain
from .geom_core import SQRT2, _edge, _float, _Record


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
    """Angles subtended by the edges at the axial point with coordinate y;
    ValueError unless y is finite, and OutOfDomain where y scaled with a
    overflows (|y| / a about 2^1024 or more, every angle below 2^-1022).
    Other numbers are taken as floats, a huge int as an infinity."""
    if not type(a) is type(y) is float:
        a, y = _float(a), _float(y)
    if not 0 < a < math.inf:
        _edge(a)  # raises its NonPositiveEdge
    if not math.isfinite(y):
        raise ValueError(f"the axial coordinate must be finite, got {y}")
    a, e = math.frexp(a)
    try:
        y = math.ldexp(y, -e)
    except OverflowError:
        raise OutOfDomain(f"the axial point y = {y} is more than 2^1024 edge lengths away") from None
    c = a * (SQRT2 / 4.0)  # as _edge takes it, at the scaled edge
    half = a / 2.0
    cross, dot = half * SQRT2 * math.hypot(half, y), (y - c) * (y + c)
    if dot > 1e300:  # |y| beyond about 1e150: both over |y|, as y^2 - c^2 overflows
        cross, dot = cross / abs(y), (y - c) / abs(y) * (y + c)
    atan2 = math.atan2
    return AngleSet(2.0 * atan2(half, abs(c - y)), 2.0 * atan2(half, abs(c + y)), atan2(cross, dot))
