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

from .equilibrium import classify
from .errors import DegenerateTriangle, FloatingViolated, OutOfDomain
from .geom_core import _MIN_NORMAL, WeightedTetrahedron, _entries, _offsets, _point, _Record
from .numeric import _solve_floating

__all__ = [
    "PlasticityInstance",
    "DihedralData",
    "height_012",
    "dihedral_alpha",
    "predict_a04p",
    "stretch",
    "verify_invariance",
    "measure_dihedral_data",
    "dihedral_angle",
    "vertex_angle",
]

CLAMP_SLACK = 1e-9


class PlasticityInstance(_Record):
    """A floating base tetrahedron, its minimizer a0, and per-vertex ray
    stretch factors (A_i' = a0 + lambda_i * (A_i - a0))."""

    __slots__ = ("base", "a0", "lambdas")

    def __init__(self, base: WeightedTetrahedron, a0, lambdas):
        a0 = _point(a0)
        lam = _entries(lambdas, 4, "lambdas")
        if not all(0 < k < math.inf for k in lam):
            raise ValueError("stretch factors must be positive and finite")
        set_base, set_a0, set_lambdas = self._setters
        set_base(self, base)
        set_a0(self, a0)
        set_lambdas(self, lam)


class DihedralData(_Record):
    """Measured lengths and angles feeding the dihedral/cosine-law formulas.

    alpha_123 and alpha_124p are the vertex angles at A2 (toward A1/A3 and
    A1/A4'); alpha_g4p is the dihedral between the planes A3A1A2 and
    A4'A1A2 along edge A1A2.
    """

    __slots__ = ("a01", "a02", "a03", "a23", "a12", "a24p", "alpha_123", "alpha_124p", "alpha_g4p")

    def __init__(self, a01, a02, a03, a23, a12, a24p, alpha_123, alpha_124p, alpha_g4p):
        values = (a01, a02, a03, a23, a12, a24p, alpha_123, alpha_124p, alpha_g4p)
        for set_slot, value in zip(self._setters, values):
            set_slot(self, value)


def _unit(*lengths):
    """The lengths scaled by the power of two 2^-e (exact) that brings the
    largest into [0.5, 1), and e: the formulas' squares then neither
    overflow nor underflow, and a result of degree 1 is scaled back by 2^e."""
    e = math.frexp(max(lengths))[1]
    return [math.ldexp(x, -e) for x in lengths], e


def height_012(a01: float, a02: float, a12: float) -> float:
    """Height of triangle A0A1A2 from A0 onto side A1A2.

    The paper's radicand 4 a01^2 a02^2 - (a01^2 + a02^2 - a12^2)^2 (16 times
    the squared area) is taken in Kahan's needle-triangle form ("Miscalculating
    Area and Angles of a Needle-like Triangle", 2014): with the sides sorted
    x >= y >= z, (x + (y + z))(z - (x - y))(z + (x - y))(x + (y - z)) keeps
    full precision for a needle-like triangle, where the radicand cancels."""
    if a12 <= 0:
        raise DegenerateTriangle("base side a12 must be positive")
    (a01, a02, a12), e = _unit(a01, a02, a12)
    x, y, z = sorted((a01, a02, a12), reverse=True)
    radicand = (x + (y + z)) * (z - (x - y)) * (z + (x - y)) * (x + (y - z))
    if radicand < 0:
        raise DegenerateTriangle("side lengths violate the triangle inequality")
    return math.ldexp(math.sqrt(radicand) / (2.0 * a12), e)


def _clamped_acos(arg: float) -> float:
    if abs(arg) > 1.0 + CLAMP_SLACK:
        raise OutOfDomain(f"arccos argument {arg} out of range beyond slack")
    return math.acos(min(1.0, max(-1.0, arg)))


def _foot(a01: float, a02: float, a12: float) -> float:
    """Signed distance from A2 toward A1 of the foot of the height from A0
    onto line A1A2; negative once the foot lies beyond A2."""
    return (a02**2 + a12**2 - a01**2) / (2.0 * a12)


def dihedral_alpha(d: DihedralData, h: float) -> float:
    """Dihedral angle between planes A0A1A2 and A3A1A2 along edge A1A2."""
    if h <= 0:
        raise OutOfDomain("height must be positive")
    sin123 = math.sin(d.alpha_123)
    if sin123 == 0.0:
        raise OutOfDomain("alpha_123 must not be 0 or pi")
    (a01, a02, a03, a23, a12, h), _ = _unit(d.a01, d.a02, d.a03, d.a23, d.a12, h)
    arg = (
        (a02**2 + a23**2 - a03**2) / (2.0 * a23)
        - _foot(a01, a02, a12) * math.cos(d.alpha_123)
    ) / (h * sin123)
    return _clamped_acos(arg)


def predict_a04p(d: DihedralData, h: float, alpha: float) -> float:
    """Distance from A0 to the stretched vertex A4' by the generalized
    cosine law; collapses to the planar cosine law at h = 0."""
    (a01, a02, a12, a24p, h), e = _unit(d.a01, d.a02, d.a12, d.a24p, h)
    proj = _foot(a01, a02, a12) * math.cos(d.alpha_124p)
    proj += h * math.sin(d.alpha_124p) * math.cos(d.alpha_g4p - alpha)
    radicand = a02**2 + a24p**2 - 2.0 * a24p * proj
    if radicand < 0:
        raise OutOfDomain("negative radicand; inconsistent inputs")
    return math.ldexp(math.sqrt(radicand), e)


def _dot(u, v) -> float:
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def _cos_between(u, du: float, v, dv: float) -> float:
    """u.v / (du dv), the cosine of the angle between the vectors u and v of
    lengths du and dv; from the unit vectors where du dv leaves the normal
    range.  OutOfDomain if a length is 0: the angle is undefined."""
    if du == 0.0 or dv == 0.0:
        raise OutOfDomain("the angle is undefined: a direction has zero length")
    n = du * dv
    if _MIN_NORMAL <= n < math.inf:
        return _dot(u, v) / n
    return _dot([c / du for c in u], [c / dv for c in v])


def vertex_angle(apex, p, q) -> float:
    """Angle at apex between the directions toward p and q."""
    (u, v), (du, dv) = _offsets((_point(p), _point(q)), _point(apex))
    return _clamped_acos(_cos_between(u, du, v, dv))


def dihedral_angle(edge_p, edge_q, c1, c2) -> float:
    """Dihedral along edge pq between the half-planes containing c1 and c2;
    OutOfDomain if p = q or c1 or c2 lies on the line pq."""
    p, q, c1, c2 = map(_point, (edge_p, edge_q, c1, c2))
    (e, o1, o2), (de, _, _) = _offsets((q, c1, c2), p)
    if de == 0.0:
        raise OutOfDomain("the angle is undefined: the edge has zero length")
    # the parts of the offsets to c1 and c2 normal to the edge
    e = [ek / de for ek in e]
    v1 = [ok - _dot(o1, e) * ek for ok, ek in zip(o1, e)]
    v2 = [ok - _dot(o2, e) * ek for ok, ek in zip(o2, e)]
    return _clamped_acos(_cos_between(v1, math.hypot(*v1), v2, math.hypot(*v2)))


def measure_dihedral_data(a0, a1, a2, a3, a4p) -> DihedralData:
    """Measure all lengths and angles the formulas need from an explicit
    configuration (normal-vector dihedral, direct distances)."""
    a0, a1, a2, a3, a4p = map(_point, (a0, a1, a2, a3, a4p))
    _, (a01, a02, a03) = _offsets((a1, a2, a3), a0)
    _, (a23, a12, a24p) = _offsets((a3, a1, a4p), a2)
    return DihedralData(
        a01, a02, a03, a23, a12, a24p,
        alpha_123=vertex_angle(a2, a1, a3),
        alpha_124p=vertex_angle(a2, a1, a4p),
        alpha_g4p=dihedral_angle(a1, a2, a3, a4p),
    )


def stretch(p: PlasticityInstance) -> WeightedTetrahedron:
    """Slide each vertex along its ray from a0 by its stretch factor.

    The stretched tetrahedron keeps the base weights and must remain in the
    floating case; otherwise FloatingViolated is raised.  OutOfDomain is
    raised when a stretched vertex overflows.
    """
    # A_i' = a0 - lambda_i (a0 - A_i)
    (x, y, z), pairs = p.a0, zip(p.lambdas, p.base.vertices)
    new_vertices = [(x - k * (x - a), y - k * (y - b), z - k * (z - c)) for k, (a, b, c) in pairs]
    try:
        stretched = WeightedTetrahedron(new_vertices, p.base.weights)
    except ValueError as e:
        # the base weights are valid, so a coordinate is not finite
        raise OutOfDomain("a stretched vertex exceeds the float range") from e
    if not classify(stretched).floating:
        raise FloatingViolated("stretched tetrahedron left the floating case")
    return stretched


def verify_invariance(p: PlasticityInstance) -> float:
    """Re-solve the stretched tetrahedron numerically and report how far its
    minimizer moved from a0 (should be ~0), by math.dist: the squares of a
    displacement lose digits below 2^-511 and round to 0 below 2^-537."""
    return math.dist(p.a0, _solve_floating(stretch(p)).point)
