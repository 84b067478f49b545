"""Closed-form solutions on the symmetry axis.

For a regular tetrahedron with weight pairs (b1, b1, b4, b4) the axial
coordinate y of the minimizer satisfies the quartic

    64 y^4 (b1^2 - b4^2) - 8 sqrt(2) a^3 y (b1^2 + b4^2)
        + 3 a^4 (b1^2 - b4^2) = 0.

At a = 1 and b1 > b4 it reads y^4 - e y + 3/64 = 0 with
e = sqrt(2) (p + q) / (8 d), p = b1^2, q = b4^2, d = (b1 - b4)(b1 + b4).
Its resolvent cubic t^3 - 3t/16 = e^2 has exactly one real root,
t = (X + 1/X)/4 with X^3 = W/d^2 and W = (p + q)^2 + 2 sqrt(2) sqrt(p q
(p^2 + q^2)), so every radical is real.  The quartic splits into two
real quadratics over sqrt(t); the one with real roots gives both axial
roots, y = (sqrt(t) -+ sqrt(R))/2.  Each difference in that formula is
rewritten as a quotient (X - 1, R, and the interior root), so the
radicals are full precision on their own, with no Newton polish, for every
weight ratio; tests/test_symbolic.py proves each rewrite.  The signed-weight
stationarity defect, the slope of b1*a01(y) - b4*a04(y), checks the exterior
root.  Everything here is scalar arithmetic on the axis.
"""

from __future__ import annotations

import math

from .errors import EqualWeights, FtSolveError, OutOfDomain
from .geom_core import _MIN_NORMAL, SQRT2, FtSolution, SymmetricInstance, _axial_slope, _keep_roots, _Record, _unscaled


class QuarticCoefficients(_Record):
    """c4*y^4 + c3*y^3 + c2*y^2 + c1*y + c0."""

    __slots__ = ("c4", "c3", "c2", "c1", "c0")

    def __init__(self, c4: float, c3: float, c2: float, c1: float, c0: float):
        for set_slot, value in zip(self._setters, (c4, c3, c2, c1, c0)):
            set_slot(self, value)


def quartic_coefficients(inst: SymmetricInstance) -> QuarticCoefficients:
    """Coefficients of the axial stationarity quartic.

    Degenerates to linear (c4 = c0 = 0, forced root y = 0) when b1 = b4.
    b1^2 - b4^2 is kept factored: expanded, it cancels near b1 = b4.
    Raises FtSolveError unless each coefficient not forced to 0 is a normal float.
    """
    a, b1, b4 = inst.a, inst.b1, inst.b4
    d = (b1 - b4) * (b1 + b4)
    try:
        a3, a4 = a**3, a**4
    except OverflowError:  # float ** raises where float * returns inf
        a3 = a4 = math.inf
    q = QuarticCoefficients(
        c4=64.0 * d,
        c3=0.0,
        c2=0.0,
        c1=-8.0 * SQRT2 * a3 * (b1 * b1 + b4 * b4),
        c0=3.0 * a4 * d,
    )
    nonzero = (q.c4, q.c1, q.c0) if b1 != b4 else (q.c1,)
    if not all(_MIN_NORMAL <= abs(c) < math.inf for c in nonzero):  # and not nan
        raise FtSolveError(
            f"quartic coefficients are not representable as floats: "
            f"c4={q.c4}, c1={q.c1}, c0={q.c0}"
        )
    return q


def _axial_roots(inst: SymmetricInstance) -> tuple[float, float] | None:
    """(interior, exterior) roots of the quartic, None for equal weights.

    Solved for the heavier pair on +z and mirrored.  A root is a times the
    root at a = 1 and depends on the weights only through their ratio, so
    it is solved at a = 1 with the heavier weight scaled into [0.5, 1) by a
    power of two (exact, so b1 - b4 stays exact).  In that frame
    1 <= X^3 < 2^113 and no intermediate leaves the float range.  The
    exterior root times a may overflow to inf.  Solved once per instance:
    the roots are kept on it.
    """
    if inst.b1 == inst.b4:
        return None
    if inst._roots is not None:
        return inst._roots
    heavy, light, sign = (inst.b1, inst.b4, 1.0) if inst.b1 > inst.b4 else (inst.b4, inst.b1, -1.0)
    b1, exp = math.frexp(heavy)
    b4 = math.ldexp(light, -exp)
    p, q = b1 * b1, b4 * b4
    d = (b1 - b4) * (b1 + b4)
    dd = d * d
    root = 2.0 * SQRT2 * b1 * b4 * math.sqrt(p * p + q * q)  # 2 sqrt(2) sqrt(p q (p^2 + q^2))
    v = ((p + q) ** 2 + root) / dd  # X^3 = W / d^2
    x = v ** (1.0 / 3.0)
    x -= (x - v / (x * x)) / 3.0  # one Newton step on x^3 = v: the rounded exponent is not enough
    x_1 = (4.0 * p * q + root) / dd / (x * x + x + 1.0)  # X - 1 = (X^3 - 1)/(X^2 + X + 1)
    t = (x + 1.0 / x) / 4.0
    rt = math.sqrt(t)
    t32 = t * rt
    e = SQRT2 * (p + q) / (8.0 * d)
    # R = 2e/sqrt(t) - t, with t - 1/2 = (X - 1)^2 / (4X)
    r = 3.0 * t * (x_1 * x_1 / (4.0 * x)) * (t + 0.5) / ((2.0 * e + t32) * rt)
    s = rt + math.sqrt(r)
    scale = sign * inst.a
    roots = scale * (3.0 * rt / (16.0 * (t32 + e) * s)), scale * (0.5 * s)
    _keep_roots(inst, roots)
    return roots


def ft_axial(inst: SymmetricInstance) -> float:
    """Axial coordinate of the minimizer.

    Positive toward the heavier pair's edge; 0 for equal weights; the
    b1 < b4 case mirrors by swapping the pairs.  Full precision for every
    b1 != b4, down to b1/b4 = 1 + 2^-52.
    """
    roots = _axial_roots(inst)
    return 0.0 if roots is None else roots[0]


def complementary_axial(inst: SymmetricInstance) -> float:
    """Axial coordinate of the signed-weight critical point (one pair's sign
    flipped, |b1| > |b4|); lies strictly beyond c = a*sqrt(2)/4.  Raises
    FtSolveError when it does not fit in a float."""
    roots = _axial_roots(inst)
    if roots is None:
        raise EqualWeights("b1 and b4 are equal; the exterior critical point escapes")
    if not math.isfinite(roots[1]):
        raise FtSolveError(f"the exterior critical point exceeds the float range at a = {inst.a}")
    return roots[1]


def stationarity_defect(inst: SymmetricInstance, y: float) -> float:
    """Slope of b1*a01(y) - b4*a04(y); negative near y = c+, positive for
    large y when b1 > b4, and zero at the signed-weight critical point.  The
    heavier weight is scaled into [0.5, 1) by a power of two, as for the
    axial roots, so b4 c y cannot overflow; FtSolveError if the slope does.
    As angles_at, ValueError unless y is finite, and OutOfDomain where y / a
    overflows."""
    if not math.isfinite(y):
        raise ValueError(f"the axial coordinate must be finite, got {y}")
    ya = y / inst.a
    if math.isinf(ya):
        raise OutOfDomain(f"the axial point y = {y} is more than 2^1024 edge lengths away")
    _, e = math.frexp(max(inst.b1, inst.b4))
    slope = _axial_slope(math.ldexp(inst.b1, -e), math.ldexp(inst.b4, -e), ya, -1)
    return _unscaled(slope, e, "stationarity defect")


def solve_symmetric(inst: SymmetricInstance) -> FtSolution:
    """Full solve of the two-pairs instance: location, objective and
    equilibrium defect, all on the axis.

    The minimizer always floats: the margin at a b1 vertex is
    sqrt(b1^2 + 2 b1 b4 + 3 b4^2) - b1 > 0, and its mirror at a b4 vertex.
    By symmetry the weighted unit-vector sum at (0, 0, y) points along the
    axis with length 2 |f(y)|.  f does not change when a and y scale
    together, so it is evaluated at a = 1, where its a^3 terms stay in range.
    Raises FtSolveError when the objective or the residual does not fit in
    a float.
    """
    y = ft_axial(inst)
    a, ys, e = inst.a, y, 0
    if a < 2.0**-960:
        # on subnormals hypot(a/2, c - y) and y / a lose digits: a and y are
        # scaled by the power of two 2^-e (exact, for a subnormal y too) that
        # brings a into [1/8, 1/4), where 2 (b1 + b4) hypot stays in range at
        # any weights, and the objective is scaled back.  Above 2^-960 a, a/2
        # and c are normal, and the formula is the same unscaled
        e = math.frexp(a)[1] + 2
        a, ys = math.ldexp(a, -e), math.ldexp(y, -e)
    b1, b4 = inst.b1, inst.b4
    c = a * (SQRT2 / 4.0)  # axial_distances(a, y) without its edge check: the instance made it
    objective = math.ldexp(2.0 * (b1 * math.hypot(a / 2.0, c - ys) + b4 * math.hypot(a / 2.0, c + ys)), e)
    if not objective < math.inf:
        raise FtSolveError(f"the objective exceeds the float range at a = {inst.a}")
    # neither term of the slope at the minimizer can overflow (each is under
    # the weights), so an infinite residual is one beyond the float range
    residual = 2.0 * abs(_axial_slope(b1, b4, ys / a, 1))
    if not residual < math.inf:
        raise FtSolveError("the residual exceeds the float range")
    return FtSolution((0.0, 0.0, y), objective, residual, y)
