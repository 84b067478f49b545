"""Floating/absorbed classification of the weighted Fermat-Torricelli point
and the vector-equilibrium residual.

At a vertex A_i the pull of the other three weighted unit vectors either
exceeds the vertex's own weight (the minimizer floats free of the vertices)
or not (the minimizer is absorbed at that vertex).  Ties classify as
absorbed.  The pulls are summed from the tetrahedron's flat table of its
six vertex pairs, each stored once as A_i - A_j for j < i, written out for
the four vertices.  One residual kernel serves equilibrium_residual at the
caller's scale and the general solver's finish in its scaled frame.
"""

from __future__ import annotations

import math

from .errors import CoincidentPoints, FtSolveError
from .geom_core import WeightedTetrahedron, _length, _point, _Record, _unscaled


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


def classify(t: WeightedTetrahedron) -> CaseLabel:
    """Classify the minimizer as floating or absorbed at some vertex.  From
    heavy/light weight ratios of about 4e15 (2^52) on, a heavy vertex's margin
    (about the light weight) is below its pull's rounding (about u times the
    heavy one) and may read 0.0: absorbed, though the minimizer floats."""
    vertex, m0, m1, m2, m3 = _margins(t)
    e, ldexp = t._units[1], math.ldexp
    try:
        return CaseLabel(vertex, (ldexp(m0, e), ldexp(m1, e), ldexp(m2, e), ldexp(m3, e)))
    except OverflowError:
        raise FtSolveError("the margin exceeds the float range") from None


def _margins(t: WeightedTetrahedron):
    """classify's answer at the weights scaled by 2^-e (see WeightedTetrahedron),
    as one tuple: the absorbing vertex (None if floating), then the four margins."""
    # the pull on A_i, sum_{j != i} w_j (A_i - A_j) / |A_i - A_j| in vertex
    # order, with w_j negated (exact) for j > i
    w0, w1, w2, w3 = t._units[0]
    (
        x10, y10, z10, x20, y20, z20, x21, y21, z21, x30, y30, z30, x31, y31, z31, x32, y32, z32,
        d10, d20, d21, d30, d31, d32,
    ) = t._pairs
    px0 = -w1 * x10 / d10 - w2 * x20 / d20 - w3 * x30 / d30
    py0 = -w1 * y10 / d10 - w2 * y20 / d20 - w3 * y30 / d30
    pz0 = -w1 * z10 / d10 - w2 * z20 / d20 - w3 * z30 / d30
    px1 = w0 * x10 / d10 - w2 * x21 / d21 - w3 * x31 / d31
    py1 = w0 * y10 / d10 - w2 * y21 / d21 - w3 * y31 / d31
    pz1 = w0 * z10 / d10 - w2 * z21 / d21 - w3 * z31 / d31
    px2 = w0 * x20 / d20 + w1 * x21 / d21 - w3 * x32 / d32
    py2 = w0 * y20 / d20 + w1 * y21 / d21 - w3 * y32 / d32
    pz2 = w0 * z20 / d20 + w1 * z21 / d21 - w3 * z32 / d32
    px3 = w0 * x30 / d30 + w1 * x31 / d31 + w2 * x32 / d32
    py3 = w0 * y30 / d30 + w1 * y31 / d31 + w2 * y32 / d32
    pz3 = w0 * z30 / d30 + w1 * z31 / d31 + w2 * z32 / d32
    sqrt = math.sqrt
    m0 = sqrt(px0 * px0 + py0 * py0 + pz0 * pz0) - w0
    m1 = sqrt(px1 * px1 + py1 * py1 + pz1 * pz1) - w1
    m2 = sqrt(px2 * px2 + py2 * py2 + pz2 * pz2) - w2
    m3 = sqrt(px3 * px3 + py3 * py3 + pz3 * pz3) - w3
    # uniqueness of the minimizer allows at most one non-positive margin
    vertex = 0 if m0 <= 0.0 else 1 if m1 <= 0.0 else 2 if m2 <= 0.0 else 3 if m3 <= 0.0 else None
    return vertex, m0, m1, m2, m3


def equilibrium_residual(t: WeightedTetrahedron, x) -> float:
    """Norm of the weighted unit-vector sum at x; zero exactly at a floating
    minimizer."""
    residual, _ = _residual(t._units[0], t.vertices, _point(x), t.max_edge())
    return _unscaled(residual, t._units[1], "residual")


def _residual(w, verts, x, edge: float):
    """equilibrium_residual at the weights w scaled by 2^-e (see classify), and
    the distances |x - A_i| to the vertices verts, in the frame of x, verts and
    the largest edge; CoincidentPoints within 1e-12 edge.  Each distance is
    _length's."""
    w0, w1, w2, w3 = w
    (x0, y0, z0), (x1, y1, z1), (x2, y2, z2), (x3, y3, z3) = verts
    px, py, pz = x
    ox0, oy0, oz0 = px - x0, py - y0, pz - z0
    ox1, oy1, oz1 = px - x1, py - y1, pz - z1
    ox2, oy2, oz2 = px - x2, py - y2, pz - z2
    ox3, oy3, oz3 = px - x3, py - y3, pz - z3
    d0, d1 = _length(ox0, oy0, oz0), _length(ox1, oy1, oz1)
    d2, d3 = _length(ox2, oy2, oz2), _length(ox3, oy3, oz3)
    if min(d0, d1, d2, d3) <= 1e-12 * edge:
        raise CoincidentPoints("x coincides with a vertex; residual undefined")
    rx = w0 * ox0 / d0 + w1 * ox1 / d1 + w2 * ox2 / d2 + w3 * ox3 / d3
    ry = w0 * oy0 / d0 + w1 * oy1 / d1 + w2 * oy2 / d2 + w3 * oy3 / d3
    rz = w0 * oz0 / d0 + w1 * oz1 / d1 + w2 * oz2 / d2 + w3 * oz3 / d3
    return math.sqrt(rx * rx + ry * ry + rz * rz), (d0, d1, d2, d3)
