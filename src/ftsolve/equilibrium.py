"""Floating/absorbed classification of the weighted Fermat-Torricelli point
and the vector-equilibrium residual.

At a vertex A_i the pull of the other three weighted unit vectors either
exceeds the vertex's own weight (the minimizer floats free of the vertices)
or not (the minimizer is absorbed at that vertex).  Ties classify as
absorbed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import CoincidentPoints
from .geom_core import WeightedTetrahedron, _offsets, _point

__all__ = ["CaseLabel", "classify", "equilibrium_residual"]


@dataclass(frozen=True)
class CaseLabel:
    """Classification outcome with the per-vertex margins
    ||sum_{j != i} B_j u(A_i, A_j)|| - B_i."""

    vertex: int | None  # 0-based absorbed vertex, None if floating
    margins: tuple[float, float, float, float]

    @property
    def floating(self) -> bool:
        return self.vertex is None

    @property
    def case(self) -> str:
        return "floating" if self.floating else "absorbed"


def _pull(t: WeightedTetrahedron, x) -> tuple[float, list[float]]:
    """Length of the weighted unit-vector pull sum_j w_j (A_j - x)/|A_j - x|
    at x, summed in vertex order, and the distances |A_j - x|; a vertex at
    distance zero adds nothing."""
    v, d = _offsets(t.vertices, x)
    px = py = pz = 0.0
    for wi, (vx, vy, vz), di in zip(t.weights, v, d):
        if di:
            px += wi * vx / di
            py += wi * vy / di
            pz += wi * vz / di
    return math.sqrt(px * px + py * py + pz * pz), d


def classify(t: WeightedTetrahedron) -> CaseLabel:
    """Classify the minimizer as floating or absorbed at some vertex."""
    margins = tuple(_pull(t, a)[0] - w for a, w in zip(t.vertices, t.weights))
    # uniqueness of the minimizer allows at most one non-positive margin
    vertex = next((i for i, m in enumerate(margins) if m <= 0.0), None)
    return CaseLabel(vertex, margins)


def equilibrium_residual(t: WeightedTetrahedron, x) -> float:
    """Norm of the weighted unit-vector sum at x; zero exactly at a floating
    minimizer."""
    pull, d = _pull(t, _point(x))
    if min(d) <= 1e-12 * t.max_edge():
        raise CoincidentPoints("x coincides with a vertex; residual undefined")
    return pull
