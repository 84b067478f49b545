"""Geometric plasticity: sliding vertices outward along the rays from the
minimizer leaves the minimizer fixed, because the unit vectors in the
equilibrium sum do not change along a ray.

The module provides the ray-stretch construction, the triangle-height and
dihedral-angle formulas, and the generalized 3-D cosine law predicting the
distance to a stretched vertex.  Formula evaluators take *measured* lengths
and angles so the formulas themselves are what gets tested, independent of
the construction.
"""

from __future__ import annotations

import math

from .equilibrium import _margins
from .errors import DegenerateTriangle, FloatingViolated, OutOfDomain
from .geom_core import WeightedTetrahedron, _float, _length, _offsets, _point, _positive, _Record
from .numeric import _frame, _position_bound

CLAMP_SLACK = 1e-9


class PlasticityInstance(_Record):
    """A floating base tetrahedron, its minimizer a0, and per-vertex ray
    stretch factors (A_i' = a0 + lambda_i * (A_i - a0))."""

    __slots__ = ("base", "a0", "lambdas")

    def __init__(self, base: WeightedTetrahedron, a0, lambdas):
        a0 = _point(a0)
        lam = _positive(lambdas, "lambdas", "stretch factors")
        set_base, set_a0, set_lambdas = self._setters
        set_base(self, base)
        set_a0(self, a0)
        set_lambdas(self, lam)


class DihedralData(_Record):
    """Measured lengths and angles feeding the dihedral/cosine-law formulas.

    alpha_123 and alpha_124p are the vertex angles at A2 (toward A1/A3 and
    A1/A4'); alpha_g4p is the dihedral between the planes A3A1A2 and
    A4'A1A2 along edge A1A2.  Stored as floats; OutOfDomain unless the
    lengths are finite and not negative, a12 and a23 (divisors) positive, and
    the angles finite."""

    __slots__ = ("a01", "a02", "a03", "a23", "a12", "a24p", "alpha_123", "alpha_124p", "alpha_g4p")

    def __init__(self, a01, a02, a03, a23, a12, a24p, alpha_123, alpha_124p, alpha_g4p):
        values = tuple(map(_float, (a01, a02, a03, a23, a12, a24p, alpha_123, alpha_124p, alpha_g4p)))
        if not (all(0.0 <= x < math.inf for x in values[:6]) and min(values[3:5]) > 0.0):
            raise OutOfDomain("lengths must be finite and not negative, and a12 and a23 positive")
        if not all(map(math.isfinite, values[6:])):
            raise OutOfDomain("angles must be finite")
        for set_slot, value in zip(self._setters, values):
            set_slot(self, value)


def _unit(*lengths):
    """The lengths scaled by the power of two 2^-e (exact) that brings the
    largest into [0.5, 1), and e: the formulas' squares then neither
    overflow nor underflow, and a result of degree 1 is scaled back by 2^e."""
    e = math.frexp(max(lengths))[1]
    return [math.ldexp(x, -e) for x in lengths], e


def _divisor(x: float, name: str) -> None:
    """OutOfDomain naming the divisor x where, not 0 before _unit, it scaled
    to 0.0 beside the largest length."""
    if x == 0.0:
        raise OutOfDomain(f"{name} scales to 0 beside the largest length")


def height_012(a01: float, a02: float, a12: float) -> float:
    """Height of triangle A0A1A2 from A0 onto side A1A2.

    The paper's radicand 4 a01^2 a02^2 - (a01^2 + a02^2 - a12^2)^2 (16 times
    the squared area) is taken in Kahan's needle-triangle form ("Miscalculating
    Area and Angles of a Needle-like Triangle", 2014): with the sides sorted
    x >= y >= z, (x + (y + z))(z - (x - y))(z + (x - y))(x + (y - z)) keeps
    full precision for a needle-like triangle, where the radicand cancels.
    DegenerateTriangle unless a12 is positive and every side finite and not
    negative (a nan fails every test); other numbers are taken as floats, a
    huge int as an infinity."""
    if not type(a01) is type(a02) is type(a12) is float:
        a01, a02, a12 = _float(a01), _float(a02), _float(a12)
    inf = math.inf
    if not a12 > 0:
        raise DegenerateTriangle("base side a12 must be positive")
    if not (0 <= a01 < inf and 0 <= a02 < inf and a12 < inf):
        raise DegenerateTriangle("side lengths must be finite and not negative")
    (a01, a02, a12), e = _unit(a01, a02, a12)
    x, y, z = sorted((a01, a02, a12), reverse=True)
    radicand = (x + (y + z)) * (z - (x - y)) * (z + (x - y)) * (x + (y - z))
    if not radicand >= 0:
        raise DegenerateTriangle("side lengths violate the triangle inequality")
    return math.ldexp(math.sqrt(radicand) / (2.0 * a12), e)


def _foot(a01: float, a02: float, a12: float) -> float:
    """Signed distance from A2 toward A1 of the foot of the height from A0
    onto line A1A2; negative once the foot lies beyond A2."""
    return (a02**2 + a12**2 - a01**2) / (2.0 * a12)


def dihedral_alpha(d: DihedralData, h: float) -> float:
    """Dihedral angle between planes A0A1A2 and A3A1A2 along edge A1A2;
    OutOfDomain unless h is positive and finite, where a divisor (a23, a12
    or h sin(alpha_123)) scales to 0 beside the largest length, and where
    the arccos argument is nan or beyond the slack."""
    if not h > 0:
        raise OutOfDomain("height must be positive")
    if h == math.inf:
        raise OutOfDomain("height must be finite")
    sin123 = math.sin(d.alpha_123)
    if sin123 == 0.0:
        raise OutOfDomain("alpha_123 must not be 0 or pi")
    (a01, a02, a03, a23, a12, h), _ = _unit(d.a01, d.a02, d.a03, d.a23, d.a12, h)
    _divisor(a23, "a23")
    _divisor(a12, "a12")
    _divisor(h * sin123, "h sin(alpha_123)")
    arg = (_foot(a03, a02, a23) - _foot(a01, a02, a12) * math.cos(d.alpha_123)) / (h * sin123)
    if not abs(arg) <= 1.0 + CLAMP_SLACK:
        raise OutOfDomain(f"arccos argument {arg} out of range beyond slack")
    return math.acos(min(1.0, max(-1.0, arg)))


def predict_a04p(d: DihedralData, h: float, alpha: float) -> float:
    """Distance from A0 to the stretched vertex A4' by the generalized
    cosine law; collapses to the planar cosine law at h = 0.  OutOfDomain
    unless h is finite and not negative and alpha finite, where a12 scales to
    0 beside the largest length, and where the radicand is negative or nan."""
    if not 0 <= h < math.inf:
        raise OutOfDomain("height must be finite and not negative")
    if not -math.inf < alpha < math.inf:
        raise OutOfDomain("alpha must be finite")
    (a01, a02, a12, a24p, h), e = _unit(d.a01, d.a02, d.a12, d.a24p, h)
    _divisor(a12, "a12")
    proj = _foot(a01, a02, a12) * math.cos(d.alpha_124p)
    proj += h * math.sin(d.alpha_124p) * math.cos(d.alpha_g4p - alpha)
    radicand = a02**2 + a24p**2 - 2.0 * a24p * proj
    if not radicand >= 0:
        raise OutOfDomain("negative radicand; inconsistent inputs")
    return math.ldexp(math.sqrt(radicand), e)


def _angle(u, v) -> float:
    """The angle between the vectors u and v, in Kahan's form 2 atan2(|u' - v'|,
    |u' + v'|) on the unit vectors u' = u/|u| and v' = v/|v| ("How Futile are
    Mindless Assessments of Roundoff in Floating-Point Computation?", 2006):
    unlike acos of a cosine it keeps full precision near 0 and pi, with no clamp
    and at any scale.  OutOfDomain if |u| or |v| is 0 or overflows."""
    du, dv = _length(*u), _length(*v)
    if not (0.0 < du < math.inf and 0.0 < dv < math.inf):
        raise OutOfDomain("the angle is undefined: a direction has length 0 or beyond the float range")
    u, v = [c / du for c in u], [c / dv for c in v]
    return 2.0 * math.atan2(math.dist(u, v), math.dist(u, [-c for c in v]))


def vertex_angle(apex, p, q) -> float:
    """Angle at apex between the directions toward p and q."""
    return _angle(*_offsets((_point(p), _point(q)), _point(apex))[0])


def dihedral_angle(edge_p, edge_q, c1, c2) -> float:
    """Dihedral along edge pq between the half-planes containing c1 and c2:
    the angle between the normals n_k = e x o_k to the offsets o_k of c_k from
    p, with the offset e of q scaled by a power of two (exact) into [0.5, 1).
    With u = 2^-53 and normal products, n_k is within (2 + 2 sqrt 2) u |o_k|
    < 5u |o_k| of that of the exact vertices to first order: u from rounding
    each of o_k and e, and 2 sqrt 2 u from the products and the difference in
    each component of e x o_k.  So OutOfDomain is raised for |n_k| <= 8u |o_k|,
    as for p = q; elsewhere the angle is off by at most 5u sum_k |o_k|/|n_k|
    plus a few ulps.  An offset that overflows is refused (see _angle)."""
    p, q, c1, c2 = map(_point, (edge_p, edge_q, c1, c2))
    (e, o1, o2), (de, do1, do2) = _offsets((q, c1, c2), p)
    if de == 0.0:
        raise OutOfDomain("the angle is undefined: the edge has zero length")
    ex, ey, ez = [math.ldexp(c, -math.frexp(de)[1]) for c in e]
    normals = [(ey * oz - ez * oy, ez * ox - ex * oz, ex * oy - ey * ox) for ox, oy, oz in (o1, o2)]
    if any(_length(*n) <= 2.0**-50 * do < math.inf for n, do in zip(normals, (do1, do2))):
        raise OutOfDomain("the angle is undefined: c1 or c2 lies on the edge's line")
    return _angle(*normals)


def measure_dihedral_data(a0, a1, a2, a3, a4p) -> DihedralData:
    """Measure all lengths and angles the formulas need from an explicit
    configuration: the distances, and the angles at A2 by vertex_angle and
    dihedral_angle."""
    a0, a1, a2, a3, a4p = map(_point, (a0, a1, a2, a3, a4p))
    _, (a01, a02, a03) = _offsets((a1, a2, a3), a0)
    _, (a23, a12, a24p) = _offsets((a3, a1, a4p), a2)
    return DihedralData(
        a01, a02, a03, a23, a12, a24p,
        vertex_angle(a2, a1, a3), vertex_angle(a2, a1, a4p), dihedral_angle(a2, a1, a3, a4p),
    )


def stretch(p: PlasticityInstance) -> WeightedTetrahedron:
    """Slide each vertex along its ray from a0 by its stretch factor.

    The stretched tetrahedron keeps the base weights and must remain in the
    floating case; otherwise FloatingViolated is raised.  OutOfDomain is
    raised when a stretched vertex overflows.
    """
    # A_i' = a0 - lambda_i (a0 - A_i), the four vertices written out
    (x, y, z), (k0, k1, k2, k3) = p.a0, p.lambdas
    (x0, y0, z0), (x1, y1, z1), (x2, y2, z2), (x3, y3, z3) = p.base.vertices
    new_vertices = (
        (x - k0 * (x - x0), y - k0 * (y - y0), z - k0 * (z - z0)),
        (x - k1 * (x - x1), y - k1 * (y - y1), z - k1 * (z - z1)),
        (x - k2 * (x - x2), y - k2 * (y - y2), z - k2 * (z - z2)),
        (x - k3 * (x - x3), y - k3 * (y - y3), z - k3 * (z - z3)),
    )
    try:
        stretched = WeightedTetrahedron(new_vertices, p.base.weights)
    except ValueError as e:
        # the base weights are valid, so a coordinate is not finite
        raise OutOfDomain("a stretched vertex exceeds the float range") from e
    if _margins(stretched)[0] is not None:  # classify's vertex, without the label
        raise FloatingViolated("stretched tetrahedron left the floating case")
    return stretched


def verify_invariance(p: PlasticityInstance) -> float:
    """A certified upper bound on the distance from a0 to the minimizer of
    the stretched tetrahedron (0 up to rounding, by the paper's claim):
    numeric._position_bound at a0, one pass over the vertices in the frame
    scaled by a power of two (see numeric._frame), so the bound scales
    exactly with the tetrahedron.  Nothing is re-solved: the bound is the
    Newton step at a0 plus its truncation term, and the rounding of the
    gradient and of the step over a lower bound on the Hessian's least
    eigenvalue, on the decimal gradient for a heavy pair.  It computes no
    objective, so weights whose objective exceeds the float range still get
    an answer.  CoincidentPoints where a0 is on a stretched vertex, and
    FtSolveError, naming the reason, where the bound cannot be formed."""
    t = stretch(p)
    edge, e, verts = _frame(t)
    scale = 2.0**-e
    x, y, z = p.a0
    step, rounding = _position_bound(t._units[0], verts, (x * scale, y * scale, z * scale), edge)
    return math.ldexp(step + rounding, e)
