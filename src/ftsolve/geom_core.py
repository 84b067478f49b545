"""Core geometric types, the regular-tetrahedron axial embedding, and the
weighted distance-sum objective.

Points taken as input are anything numpy reads as a finite (3,) array;
solutions hand their point back as a plain 3-tuple of floats.  The canonical
embedding places the symmetry axis of the two-pair-weights problem on +z,
with the midpoint of the common perpendicular at the origin and the heavier
pair's edge (A1A2) on the +z side.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateTetrahedron, NonPositiveEdge

__all__ = [
    "WeightedTetrahedron",
    "SymmetricInstance",
    "FtSolution",
    "as_point",
    "objective",
    "embed_regular",
    "axial_distances",
]

COPLANARITY_RTOL = 1e-12


def as_point(p) -> np.ndarray:
    """Coerce to a finite (3,) float array."""
    arr = np.asarray(p, dtype=float)
    if arr.shape != (3,):
        raise ValueError(f"expected a 3-vector, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("point coordinates must be finite")
    return arr


@dataclass
class WeightedTetrahedron:
    """Four non-coplanar vertices with four positive weights."""

    vertices: np.ndarray  # (4, 3)
    weights: np.ndarray  # (4,)

    def __post_init__(self):
        self.vertices = np.asarray(self.vertices, dtype=float)
        self.weights = np.asarray(self.weights, dtype=float)
        if self.vertices.shape != (4, 3):
            raise ValueError("vertices must be a 4x3 array")
        if self.weights.shape != (4,):
            raise ValueError("weights must have length 4")
        if not np.all(np.isfinite(self.vertices)):
            raise ValueError("vertex coordinates must be finite")
        if not np.all(self.weights > 0):
            raise ValueError("weights must be positive")
        a = self.max_edge()
        v = self.vertices
        vol6 = abs(np.dot(v[1] - v[0], np.cross(v[2] - v[0], v[3] - v[0])))
        # scale-invariant coplanarity test on the signed volume
        if vol6 / 6.0 <= COPLANARITY_RTOL * a**3:
            raise DegenerateTetrahedron("vertices are coplanar within tolerance")

    def max_edge(self) -> float:
        v = self.vertices
        return float(np.linalg.norm(v[:, None] - v, axis=2).max())


@dataclass(frozen=True)
class SymmetricInstance:
    """Regular tetrahedron of edge ``a`` with weight pairs b1 (on A1, A2) and
    b4 (on A3, A4)."""

    a: float
    b1: float
    b4: float

    def __post_init__(self):
        if not (self.a > 0):
            raise NonPositiveEdge(f"edge length must be positive, got {self.a}")
        if not (self.b1 > 0 and self.b4 > 0):
            raise ValueError("weights must be positive")

    @property
    def c(self) -> float:
        """Half-length of the common perpendicular: a*sqrt(2)/4."""
        return self.a * math.sqrt(2.0) / 4.0

    def tetrahedron(self) -> WeightedTetrahedron:
        return WeightedTetrahedron(
            embed_regular(self.a), np.array([self.b1, self.b1, self.b4, self.b4])
        )


def embed_regular(a: float) -> np.ndarray:
    """Vertices (4, 3) of a regular tetrahedron of edge a in the canonical
    frame: the midpoints of edges A1A2 and A3A4 sit at +-c on the z axis,
    c = a*sqrt(2)/4."""
    if not (a > 0):
        raise NonPositiveEdge(f"edge length must be positive, got {a}")
    c = a * math.sqrt(2.0) / 4.0
    return np.array(
        [
            [-a / 2.0, 0.0, c],
            [a / 2.0, 0.0, c],
            [0.0, -a / 2.0, -c],
            [0.0, a / 2.0, -c],
        ]
    )


def axial_distances(a: float, y: float) -> tuple[float, float]:
    """Distances from the axial point at coordinate y to the A1/A2 pair
    (a01) and to the A3/A4 pair (a04)."""
    if not (a > 0):
        raise NonPositiveEdge(f"edge length must be positive, got {a}")
    c = a * math.sqrt(2.0) / 4.0
    a01 = math.hypot(a / 2.0, c - y)
    a04 = math.hypot(a / 2.0, c + y)
    return a01, a04


def objective(points, weights, x) -> float:
    """Weighted sum of Euclidean distances from x to the given points.

    Signed weights are permitted (complementary problems); a point coincident
    with x contributes zero regardless of its weight.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    w = np.asarray(weights, dtype=float)
    if pts.shape[0] == 0:
        raise ValueError("point list must be non-empty")
    if w.shape != (pts.shape[0],):
        raise ValueError("weights must match the number of points")
    d = np.linalg.norm(pts - as_point(x), axis=1)
    return float(np.dot(w, d))


@dataclass
class FtSolution:
    """Solution record: floating/absorbed label, location, axial coordinate
    (None off the symmetry axis or for absorbed cases), objective value and
    equilibrium defect."""

    case: str  # "floating" | "absorbed"
    point: tuple[float, float, float]
    objective: float
    residual: float
    y: float | None = None
    vertex: int | None = None  # 0-based, set iff absorbed

    def __post_init__(self):
        if self.case not in ("floating", "absorbed"):
            raise ValueError(f"unknown case label {self.case!r}")
        if (self.case == "absorbed") != (self.vertex is not None):
            raise ValueError("vertex index must be set exactly for absorbed cases")
