"""Closed-form solutions on the symmetry axis.

For a regular tetrahedron with weight pairs (b1, b1, b4, b4) the axial
coordinate y of the minimizer satisfies the quartic

    64 y^4 (b1^2 - b4^2) - 8 sqrt(2) a^3 y (b1^2 + b4^2)
        + 3 a^4 (b1^2 - b4^2) = 0.

The radical solution goes through intermediates s and t; s is negative for
valid inputs (casus irreducibilis), so the assembly must run in complex
arithmetic with principal branches and only cancels to a real value at the
very end.  Every power of b1^2 - b4^2 is kept factored as (b1 - b4)(b1 + b4),
and two Newton steps on the unsquared stationarity equation, evaluated
without cancellation, take the radical value to full precision for every
weight ratio.  Everything here is scalar arithmetic on the axis.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .errors import EqualWeights, FtSolveError
from .geom_core import FtSolution, SymmetricInstance, axial_distances

__all__ = [
    "QuarticCoefficients",
    "RadicalIntermediates",
    "quartic_coefficients",
    "radical_intermediates",
    "ft_axial",
    "complementary_axial",
    "solve_symmetric",
]

NEWTON_STEPS = 2

SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class QuarticCoefficients:
    """c4*y^4 + c3*y^3 + c2*y^2 + c1*y + c0."""

    c4: float
    c3: float
    c2: float
    c1: float
    c0: float


def quartic_coefficients(inst: SymmetricInstance) -> QuarticCoefficients:
    """Coefficients of the axial stationarity quartic.

    Degenerates to linear (c4 = c0 = 0, forced root y = 0) when b1 = b4.
    b1^2 - b4^2 is kept factored: expanded, it cancels near b1 = b4.
    Raises FtSolveError when a coefficient does not fit in a float.
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
    if not all(map(math.isfinite, (q.c4, q.c1, q.c0))):
        raise FtSolveError(
            f"quartic coefficients are not representable as floats: "
            f"c4={q.c4}, c1={q.c1}, c0={q.c0}"
        )
    return q


@dataclass(frozen=True)
class RadicalIntermediates:
    """The scalars s and t of the radical solution, with the imaginary
    residue surviving in the assembled roots (casus-irreducibilis
    bookkeeping)."""

    s: float
    s_cbrt: complex
    t: complex
    imag_defect: float


def _s_value(a: float, b1: float, b4: float) -> float:
    """The radical intermediate s.

    The printed form is a degree-12 polynomial plus 2*sqrt(2) times the
    square root of a degree-24 polynomial; both factor exactly,

        polynomial = -a^6 (p - q)^4 (p + q)^2,
        inner      =  a^12 p q (p - q)^8 (p^2 + q^2),

    with p = b1^2, q = b4^2, and the sum telescopes (difference of squares)
    to -a^6 (p - q)^8 / W with W = (p + q)^2 + 2*sqrt(2)*sqrt(p q (p^2 +
    q^2)) > 0.  The factored form is used because the printed one loses ~8
    digits to cancellation at moderate weight ratios; s < 0 always.
    """
    p2, q2 = b1 * b1, b4 * b4
    w = (p2 + q2) ** 2 + 2.0 * SQRT2 * math.sqrt(p2 * q2 * (p2 * p2 + q2 * q2))
    return -(a**6) * ((b1 - b4) * (b1 + b4)) ** 8 / w


def _assemble(a: float, b1: float, b4: float) -> tuple[complex, complex, float, complex]:
    """Both axial roots (interior, exterior) from the radical formulas.

    Returns (y_interior, y_exterior, s, t).  All intermediate square and
    cube roots are principal complex branches.  The printed b1^4 - 2 b1^2
    b4^2 + b4^4 is kept as d^2, d = (b1 - b4)(b1 + b4): expanded, it
    cancels to zero near b1 = b4.
    """
    s = _s_value(a, b1, b4)
    s_cbrt = complex(s) ** (1.0 / 3.0)
    d = (b1 - b4) * (b1 + b4)
    denom = 4.0 * d * d
    u = a**4 * d * d / (4.0 * s_cbrt)
    t = -u - s_cbrt / denom
    sqrt_t = cmath.sqrt(t)
    frac = -SQRT2 * a**3 * (b1 * b1 + b4 * b4) / (4.0 * d * sqrt_t)
    base = u + s_cbrt / denom
    y_int = -sqrt_t / 2.0 + cmath.sqrt(base + frac) / 2.0
    y_ext = sqrt_t / 2.0 + cmath.sqrt(base - frac) / 2.0
    return y_int, y_ext, s, t


def radical_intermediates(inst: SymmetricInstance) -> RadicalIntermediates:
    """Evaluate s, t and the imaginary defect of the assembled roots."""
    if inst.b1 == inst.b4:
        raise EqualWeights("b1 and b4 are equal; the quartic degenerates")
    y_int, y_ext, s, t = _assemble(inst.a, inst.b1, inst.b4)
    defect = max(abs(y_int.imag), abs(y_ext.imag))
    return RadicalIntermediates(
        s=s, s_cbrt=complex(s) ** (1.0 / 3.0), t=t, imag_defect=defect
    )


def _stationarity(a: float, b1: float, b4: float, y: float, exterior: bool) -> tuple[float, float]:
    """f(y) = b1 (y-c)/a01 + sign * b4 (y+c)/a04 and f'(y), sign = -1 for
    the exterior (signed-weight) equation.

    Both terms of the plain f are of the weights' size and nearly cancel
    at a root when b1 ~ b4.  Splitting b1 = (b1 - b4) + b4 and rationalizing
    (y-c)/a01 +- (y+c)/a04 leaves two terms that are each accurate, valid
    for either order of the weights.
    """
    c = a * SQRT2 / 4.0
    h = a * a / 4.0
    a01, a04 = math.hypot(a / 2.0, c - y), math.hypot(a / 2.0, c + y)
    sign = -1.0 if exterior else 1.0
    lead = (b1 - b4) * (y - c) / a01
    f = lead + sign * b4 * 4.0 * h * c * y / (a01 * a04 * ((c + y) * a01 + sign * (c - y) * a04))
    return f, h * (b1 / a01**3 + sign * b4 / a04**3)


def _axial_root(inst: SymmetricInstance, exterior: bool) -> float | None:
    """Interior or exterior root, None for equal weights: the radical value
    finished by NEWTON_STEPS Newton steps on the unsquared equation.

    Solved for the heavier pair on +z and mirrored.  The root is a times the
    root at a = 1 and depends on the weights only through their ratio, so
    it is solved at a = 1 with the heavier weight scaled into [0.5, 1) by a
    power of two (exact, so b1 - b4 stays exact): s grows like a^6 b^16.
    """
    if inst.b1 == inst.b4:
        return None
    heavy, light, sign = (inst.b1, inst.b4, 1.0) if inst.b1 > inst.b4 else (inst.b4, inst.b1, -1.0)
    b1, exp = math.frexp(heavy)
    b4 = math.ldexp(light, -exp)
    y_int, y_ext, _, _ = _assemble(1.0, b1, b4)
    y = (y_ext if exterior else y_int).real
    for _ in range(NEWTON_STEPS):
        f, df = _stationarity(1.0, b1, b4, y, exterior)
        y -= f / df
    return sign * inst.a * y


def ft_axial(inst: SymmetricInstance) -> float:
    """Axial coordinate of the minimizer.

    Positive toward the heavier pair's edge; 0 for equal weights; the
    b1 < b4 case mirrors by swapping the pairs.  Full precision for every
    b1 != b4, down to b1/b4 = 1 + 2^-52.
    """
    y = _axial_root(inst, exterior=False)
    return 0.0 if y is None else y


def complementary_axial(inst: SymmetricInstance) -> float:
    """Axial coordinate of the signed-weight critical point (one pair's sign
    flipped, |b1| > |b4|); lies strictly beyond c = a*sqrt(2)/4."""
    y = _axial_root(inst, exterior=True)
    if y is None:
        raise EqualWeights("b1 and b4 are equal; the exterior critical point escapes")
    return y


def solve_symmetric(inst: SymmetricInstance) -> FtSolution:
    """Full solve of the two-pairs instance: location, objective and
    equilibrium defect, all on the axis.

    The minimizer always floats: the margin at a b1 vertex is
    sqrt(b1^2 + 2 b1 b4 + 3 b4^2) - b1 > 0, and its mirror at a b4 vertex.
    By symmetry the weighted unit-vector sum at (0, 0, y) points along the
    axis with length 2 |f(y)|.  f does not change when a and y scale
    together, so it is evaluated at a = 1, where its a^3 terms stay in range.
    """
    y = ft_axial(inst)
    a01, a04 = axial_distances(inst.a, y)
    f, _ = _stationarity(1.0, inst.b1, inst.b4, y / inst.a, exterior=False)
    return FtSolution(
        point=(0.0, 0.0, y),
        objective=2.0 * (inst.b1 * a01 + inst.b4 * a04),
        residual=2.0 * abs(f),
        y=y,
    )
