"""Floating/absorbed classification of the weighted Fermat-Torricelli point
and the vector-equilibrium residual.

At a vertex A_i the pull of the other three weighted unit vectors either
exceeds the vertex's own weight (the minimizer floats free of the vertices)
or not (the minimizer is absorbed at that vertex).  Ties classify as
absorbed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CoincidentPoints
from .geom_core import WeightedTetrahedron, as_point

__all__ = ["CaseLabel", "classify", "equilibrium_residual"]


@dataclass(frozen=True)
class CaseLabel:
    """Classification outcome with the per-vertex margins
    ||sum_{j != i} B_j u(A_i, A_j)|| - B_i."""

    floating: bool
    vertex: int | None  # 0-based absorbed vertex, None if floating
    margins: np.ndarray  # (4,)

    @property
    def case(self) -> str:
        return "floating" if self.floating else "absorbed"


def _pulls(t: WeightedTetrahedron, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Weighted unit-vector pulls sum_j w_j (A_j - x)/|A_j - x| at each point
    of x (shape (..., 3)), summed in vertex order, with the distances
    |A_j - x|; a vertex at distance zero adds nothing."""
    diff = t.vertices - x[..., None, :]
    norm = np.linalg.norm(diff, axis=-1)
    pull = t.weights[:, None] * diff / np.where(norm == 0.0, 1.0, norm)[..., None]
    return pull.sum(axis=-2), norm


def classify(t: WeightedTetrahedron) -> CaseLabel:
    """Classify the minimizer as floating or absorbed at some vertex."""
    pull, _ = _pulls(t, t.vertices)
    margins = np.linalg.norm(pull, axis=1) - t.weights
    absorbed = np.flatnonzero(margins <= 0.0)
    if absorbed.size == 0:
        return CaseLabel(floating=True, vertex=None, margins=margins)
    # uniqueness of the minimizer allows at most one non-positive margin
    return CaseLabel(floating=False, vertex=int(absorbed[0]), margins=margins)


def equilibrium_residual(t: WeightedTetrahedron, x) -> float:
    """Norm of the weighted unit-vector sum at x; zero exactly at a floating
    minimizer."""
    pull, norm = _pulls(t, as_point(x))
    if norm.min() <= 1e-12 * t.max_edge():
        raise CoincidentPoints("x coincides with a vertex; residual undefined")
    return float(np.linalg.norm(pull))
