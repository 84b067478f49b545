"""Floating/absorbed classification of the weighted Fermat-Torricelli point
and the vector-equilibrium residual.

At a vertex A_i the pull of the other three weighted unit vectors either
exceeds the vertex's own weight (the minimizer floats free of the vertices)
or not (the minimizer is absorbed at that vertex).  Ties classify as
absorbed.
"""

from __future__ import annotations

import math

from .errors import CoincidentPoints
from .geom_core import WeightedTetrahedron, _offsets, _point, _Record, _unscaled

__all__ = ["CaseLabel", "classify", "equilibrium_residual"]


class CaseLabel(_Record):
    """Classification outcome: the 0-based absorbed vertex (None if
    floating) and the four per-vertex margins
    ||sum_{j != i} B_j u(A_i, A_j)|| - B_i."""

    __slots__ = ("vertex", "margins")

    def __init__(self, vertex: int | None, margins: tuple[float, float, float, float]):
        set_vertex, set_margins = self._setters
        set_vertex(self, vertex)
        set_margins(self, margins)

    @property
    def floating(self) -> bool:
        return self.vertex is None

    @property
    def case(self) -> str:
        return "floating" if self.floating else "absorbed"


def _pull3(w, v, d) -> float:
    """Length of the weighted unit-vector pull sum_j w_j v_j / d_j over three
    terms, summed in order from the offsets v_j and distances d_j."""
    (w0, w1, w2), ((x0, y0, z0), (x1, y1, z1), (x2, y2, z2)), (d0, d1, d2) = w, v, d
    px = w0 * x0 / d0 + w1 * x1 / d1 + w2 * x2 / d2
    py = w0 * y0 / d0 + w1 * y1 / d1 + w2 * y2 / d2
    pz = w0 * z0 / d0 + w1 * z1 / d1 + w2 * z2 / d2
    return math.sqrt(px * px + py * py + pz * pz)


def classify(t: WeightedTetrahedron) -> CaseLabel:
    """Classify the minimizer as floating or absorbed at some vertex."""
    # the terms of each vertex's pull are laid out once, at construction,
    # with the weights scaled by 2^-e
    (w0, w1, w2, w3), e = t._units
    p0, p1, p2, p3 = t._pulls
    margins = [_pull3(*p0) - w0, _pull3(*p1) - w1, _pull3(*p2) - w2, _pull3(*p3) - w3]
    # uniqueness of the minimizer allows at most one non-positive margin
    vertex = None if min(margins) > 0.0 else next(i for i, m in enumerate(margins) if m <= 0.0)
    return CaseLabel(vertex, _unscaled(margins, e, "margin"))


def equilibrium_residual(t: WeightedTetrahedron, x) -> float:
    """Norm of the weighted unit-vector sum at x; zero exactly at a floating
    minimizer."""
    residual = _residual(t._units[0], *_offsets(t.vertices, _point(x)), t.max_edge())
    return _unscaled((residual,), t._units[1], "residual")[0]


def _residual(w, v, d, edge: float) -> float:
    """equilibrium_residual at the weights w scaled by 2^-e (see classify),
    from x's offsets v_i = x - A_i and distances d_i to the four vertices and
    the largest edge, in one frame; CoincidentPoints within 1e-12 edge."""
    (w0, w1, w2, w3), ((x0, y0, z0), (x1, y1, z1), (x2, y2, z2), (x3, y3, z3)) = w, v
    d0, d1, d2, d3 = d
    if min(d0, d1, d2, d3) <= 1e-12 * edge:
        raise CoincidentPoints("x coincides with a vertex; residual undefined")
    px = w0 * x0 / d0 + w1 * x1 / d1 + w2 * x2 / d2 + w3 * x3 / d3
    py = w0 * y0 / d0 + w1 * y1 / d1 + w2 * y2 / d2 + w3 * y3 / d3
    pz = w0 * z0 / d0 + w1 * z1 / d1 + w2 * z2 / d2 + w3 * z3 / d3
    return math.sqrt(px * px + py * py + pz * pz)
