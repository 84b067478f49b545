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
SQRT2 = math.sqrt(2.0)


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


def _edge(a: float) -> float:
    """c = a*sqrt(2)/4 (see SymmetricInstance.c); NonPositiveEdge unless 0 < a < inf."""
    if not 0 < a < math.inf:
        raise NonPositiveEdge(f"edge length must be positive and finite, got {a}")
    return a * (SQRT2 / 4.0)  # a * SQRT2 overflows for a above about 1.27e308


def _axial_slope(b1: float, b4: float, y: float, sign4: int) -> float:
    """b1 (y-c)/a01 + sign4 b4 (y+c)/a04, the slope of b1 a01 + sign4 b4 a04 at
    a = 1 (and so at edge a and point a y), as (b1 - b4)(y-c)/a01 + b4 g: nothing
    cancels near b1 = b4.  Where the terms of g differ in sign (|y| < c for +1,
    |y| > c for -1), g is rationalized by (y+c)^2 a01^2 - (y-c)^2 a04^2 = c y;
    where they agree it is summed as is (rationalized, 0/0 at -1, y = 0)."""
    c = SQRT2 / 4.0
    a01, a04 = math.hypot(0.5, c - y), math.hypot(0.5, c + y)
    if (abs(y) < c) == (sign4 > 0):
        bg = b4 * c * y / (a01 * a04 * ((c - y) * a04 + sign4 * (c + y) * a01))
    else:
        bg = b4 * ((y - c) / a01 + sign4 * (y + c) / a04)
    return (b1 - b4) * (y - c) / a01 + bg


def _lengths(points):
    """Pairwise distances, without the squares that overflow or round to 0."""
    return [math.dist(p, q) for i, p in enumerate(points) for q in points[:i]]


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
        lengths = [x for _, d in rows for x in d]
        edge = max(lengths)
        object.__setattr__(self, "vertices", v)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "_pairs", pairs)
        object.__setattr__(self, "_max_edge", edge)
        # _offsets' squares stay normal; only coincident vertices measure 0
        if not 2.0**-500 <= edge <= 2.0**500 and (longest := max(_lengths(v))):
            raise OutOfDomain(f"the largest edge, {longest}, is outside [2^-500, 2^500]")
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
        # edges down to 7e-12 of the largest pass, and squares can round to 0 below 2.8e-162
        if 0.0 in lengths:
            raise OutOfDomain(f"the shortest edge, {min(_lengths(v))}, squares to 0")

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
        _edge(self.a)
        if not (0 < self.b1 < math.inf and 0 < self.b4 < math.inf):
            raise ValueError("weights must be positive and finite")

    @property
    def c(self) -> float:
        """Half-length of the common perpendicular: a*sqrt(2)/4."""
        return _edge(self.a)

    def tetrahedron(self) -> WeightedTetrahedron:
        return WeightedTetrahedron(embed_regular(self.a), (self.b1, self.b1, self.b4, self.b4))


def embed_regular(a: float) -> tuple[tuple[float, float, float], ...]:
    """The four vertices of a regular tetrahedron of edge a in the canonical
    frame: the midpoints of edges A1A2 and A3A4 sit at +-c on the z axis,
    c = a*sqrt(2)/4."""
    c = _edge(a)
    h = a / 2.0
    return (-h, 0.0, c), (h, 0.0, c), (0.0, -h, -c), (0.0, h, -c)


def axial_distances(a: float, y: float) -> tuple[float, float]:
    """Distances from the axial point at coordinate y to the A1/A2 pair
    (a01) and to the A3/A4 pair (a04)."""
    c = _edge(a)
    return math.hypot(a / 2.0, c - y), math.hypot(a / 2.0, c + y)


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
