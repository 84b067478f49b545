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


def _pull(w, v, d) -> float:
    """Length of the weighted unit-vector pull sum_j w_j (x - A_j)/|x - A_j|,
    summed in order from the offsets v_j = x - A_j and distances d_j."""
    px = py = pz = 0.0
    for wi, (vx, vy, vz), di in zip(w, v, d):
        px += wi * vx / di
        py += wi * vy / di
        pz += wi * vz / di
    return math.sqrt(px * px + py * py + pz * pz)


def classify(t: WeightedTetrahedron) -> CaseLabel:
    """Classify the minimizer as floating or absorbed at some vertex."""
    # the terms of each vertex's pull are laid out once, at construction,
    # with the weights scaled by 2^-e
    w, e = t._units
    margins = [_pull(*terms) - wi for terms, wi in zip(t._pulls, w)]
    # uniqueness of the minimizer allows at most one non-positive margin
    vertex = None if min(margins) > 0.0 else next(i for i, m in enumerate(margins) if m <= 0.0)
    return CaseLabel(vertex, _unscaled(margins, e, "margin"))


def equilibrium_residual(t: WeightedTetrahedron, x) -> float:
    """Norm of the weighted unit-vector sum at x; zero exactly at a floating
    minimizer."""
    residual = _residual(t, *_offsets(t.vertices, _point(x)))
    return _unscaled((residual,), t._units[1], "residual")[0]


def _residual(t: WeightedTetrahedron, v, d) -> float:
    """equilibrium_residual at the weights scaled by 2^-e (see classify), from
    the offsets and distances of x to the vertices."""
    if min(d) <= 1e-12 * t.max_edge():
        raise CoincidentPoints("x coincides with a vertex; residual undefined")
    return _pull(t._units[0], v, d)
