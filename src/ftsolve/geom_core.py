"""Core geometric types, the regular-tetrahedron axial embedding, and the
weighted distance-sum objective.

Points, vertices and weights are plain tuples of floats; inputs may be any
sequences of numbers.  The canonical embedding places the symmetry axis of
the two-pair-weights problem on +z, with the midpoint of the common
perpendicular at the origin and the heavier pair's edge (A1A2) on the +z
side.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DegenerateTetrahedron, NonPositiveEdge, OutOfDomain

__all__ = [
    "WeightedTetrahedron",
    "SymmetricInstance",
    "FtSolution",
    "objective",
    "embed_regular",
    "axial_distances",
]

COPLANARITY_RTOL = 1e-12


def _entries(values, n: int, what: str, entry=float) -> tuple:
    """The n entries of values, each passed through entry; else ValueError."""
    try:
        out = () if isinstance(values, str) else tuple(map(entry, values))
    except TypeError:
        out = ()
    if len(out) != n:
        raise ValueError(f"{what} must have {n} entries")
    return out


def _point(p) -> tuple[float, float, float]:
    """Coerce to a finite 3-tuple of floats."""
    x = _entries(p, 3, "a point")
    if not all(map(math.isfinite, x)):
        raise ValueError("point coordinates must be finite")
    return x


def _offsets(points, x):
    """Offsets x - A_i and distances |x - A_i| from x to each point A_i."""
    v = [(x[0] - a[0], x[1] - a[1], x[2] - a[2]) for a in points]
    return v, [math.sqrt(ox * ox + oy * oy + oz * oz) for ox, oy, oz in v]


@dataclass(frozen=True)
class WeightedTetrahedron:
    """Four non-coplanar vertices with four finite positive weights."""

    vertices: tuple[tuple[float, float, float], ...]  # 4 points
    weights: tuple[float, ...]  # 4 weights

    def __post_init__(self):
        v = _entries(self.vertices, 4, "vertices", _point)
        w = _entries(self.weights, 4, "weights")
        if not all(0 < wi < math.inf for wi in w):
            raise ValueError("weights must be positive and finite")
        # each vertex pair once: row i holds the offsets A_i - A_j and their
        # lengths for j < i (row 0 is empty)
        rows = [_offsets(v[:i], v[i]) for i in range(1, 4)]
        pairs = (((), ()),) + tuple([(tuple(o), tuple(d)) for o, d in rows])
        edge = max(max(d) for _, d in rows)
        object.__setattr__(self, "vertices", v)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "_pairs", pairs)
        object.__setattr__(self, "_max_edge", edge)
        if edge and not 2.0**-500 <= edge <= 2.0**500:  # _offsets' squares stay normal
            raise OutOfDomain(f"the largest edge, {edge}, is outside [2^-500, 2^500]")
        # the volume from edge vectors scaled by the power of two (exact)
        # that brings the largest edge into [0.5, 1), so a^3 stays in range
        a, e = math.frexp(edge)
        # of A_1 - A_0, A_2 - A_0 and A_3 - A_0
        edges = (o[0] for o, _ in rows)
        (ux, uy, uz), (vx, vy, vz), (wx, wy, wz) = ([math.ldexp(c, -e) for c in o] for o in edges)
        vol6 = abs(ux * (vy * wz - vz * wy) + uy * (vz * wx - vx * wz) + uz * (vx * wy - vy * wx))
        # scale-invariant coplanarity test on the signed volume
        if vol6 / 6.0 <= COPLANARITY_RTOL * a**3:
            raise DegenerateTetrahedron("vertices are coplanar within tolerance")

    def max_edge(self) -> float:
        """The largest edge length, measured once at construction."""
        return self._max_edge


@dataclass(frozen=True)
class SymmetricInstance:
    """Regular tetrahedron of edge ``a`` with weight pairs b1 (on A1, A2) and
    b4 (on A3, A4)."""

    a: float
    b1: float
    b4: float

    def __post_init__(self):
        if not 0 < self.a < math.inf:
            raise NonPositiveEdge(f"edge length must be positive and finite, got {self.a}")
        if not (0 < self.b1 < math.inf and 0 < self.b4 < math.inf):
            raise ValueError("weights must be positive and finite")

    @property
    def c(self) -> float:
        """Half-length of the common perpendicular: a*sqrt(2)/4."""
        return self.a * math.sqrt(2.0) / 4.0

    def tetrahedron(self) -> WeightedTetrahedron:
        return WeightedTetrahedron(embed_regular(self.a), (self.b1, self.b1, self.b4, self.b4))


def embed_regular(a: float) -> tuple[tuple[float, float, float], ...]:
    """The four vertices of a regular tetrahedron of edge a in the canonical
    frame: the midpoints of edges A1A2 and A3A4 sit at +-c on the z axis,
    c = a*sqrt(2)/4."""
    if not (a > 0):
        raise NonPositiveEdge(f"edge length must be positive, got {a}")
    c = a * math.sqrt(2.0) / 4.0
    h = a / 2.0
    return (-h, 0.0, c), (h, 0.0, c), (0.0, -h, -c), (0.0, h, -c)


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
    pts = [_point(p) for p in points]
    if not pts:
        raise ValueError("point list must be non-empty")
    w = _entries(weights, len(pts), "weights")
    _, d = _offsets(pts, _point(x))
    return math.fsum(wi * di for wi, di in zip(w, d))


@dataclass
class FtSolution:
    """Solution record: location, objective value, equilibrium defect, axial
    coordinate (None off the symmetry axis or for absorbed cases) and the
    absorbing vertex (None when the minimizer floats)."""

    point: tuple[float, float, float]
    objective: float
    residual: float
    y: float | None = None
    vertex: int | None = None  # 0-based, set iff absorbed

    @property
    def case(self) -> str:
        return "floating" if self.vertex is None else "absorbed"
