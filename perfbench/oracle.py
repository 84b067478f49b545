"""50-digit mpmath references, independent of the ftsolve package.

Nothing here imports ftsolve.  The symmetric references solve the
*unsquared* axial stationarity equations directly, so they share no
formula with the closed form under test; angles come from 3-D vectors
rather than the cosine-law formulas; the general references check
first-order optimality of a returned point instead of re-solving.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from mpmath import mp, mpf

DPS = 50
REL_TOL = 1e-9  # an answer is wrong when its relative error exceeds this
TEXT_REL_TOL = REL_TOL + 5e-9  # 9-significant-digit CLI text adds rounding


@dataclass(frozen=True)
class SymmetricRef:
    """Reference answers for a regular tetrahedron with weight pairs b1, b4."""

    y: float  # interior root (the minimizer's axial coordinate)
    yp: float | None  # exterior root of the signed twin; None for equal weights
    objective: float
    alpha_102: float
    alpha_304: float
    alpha_cross: float


def _newton(fn, lo, hi, x, scale):
    """Root of an increasing fn on (lo, hi) with fn(lo) < 0 < fn(hi):
    Newton steps, bisecting whenever a step leaves the bracket, until a
    step is below 1e-30 of max(|x|, scale).  That is far below the 1e-9
    check, and it stays above the noise of fn near a far exterior root,
    where fn is a difference of two nearly equal terms."""
    for _ in range(400):
        f, df = fn(x)
        if f == 0:
            return x
        if f > 0:
            hi = x
        else:
            lo = x
        nxt = x - f / df if df > 0 else (lo + hi) / 2
        if abs(nxt - x) <= mpf(10) ** (20 - mp.dps) * max(abs(x), scale):
            return nxt
        x = nxt if lo < nxt < hi else (lo + hi) / 2
    raise ArithmeticError("reference root did not converge")


def _axial(a, b1, b4, sign, sqrt=mp.sqrt):
    """f(y) = b1 (y-c)/a01 + sign * b4 (y+c)/a04 and its derivative, in mp
    numbers or (with sqrt=math.sqrt and float arguments) in floats."""
    c = a * sqrt(2) / 4
    h = a * a / 4

    def fn(y):
        a01 = sqrt(h + (y - c) ** 2)
        a04 = sqrt(h + (y + c) ** 2)
        f = b1 * (y - c) / a01 + sign * b4 * (y + c) / a04
        return f, h * (b1 / a01**3 + sign * b4 / a04**3)

    return c, fn


def interior_root(a, b1, b4):
    """Minimizer of b1*a01 + b4*a04 on the axis, in (-c, c)."""
    if b1 == b4:
        return mpf(0)
    cf, ff = _axial(float(a), float(b1), float(b4), +1, math.sqrt)
    x0 = _bisect(ff, -cf, cf)
    c, fn = _axial(mpf(a), mpf(b1), mpf(b4), +1)
    return _newton(fn, -c, c, min(max(mpf(x0), -c), c), c)


def exterior_root(a, b1, b4):
    """Critical point of b1*a01 - b4*a04 beyond the heavier pair's edge
    (mirrored for b1 < b4); None when the weights are equal."""
    if b1 == b4:
        return None
    if b1 < b4:
        return -exterior_root(a, b4, b1)
    c, fn = _axial(mpf(a), mpf(b1), mpf(b4), -1)
    if b1 - b4 < 1e-6 * b4:
        # float evaluation cancels here; use the far field instead,
        # y^3 ~ (a^2/4) c (b1+b4)/(b1-b4) as b1/b4 -> 1
        x0 = mp.cbrt(mpf(a) ** 2 / 4 * c * (mpf(b1) + b4) / (mpf(b1) - b4))
    else:
        cf, ff = _axial(float(a), float(b1), float(b4), -1, math.sqrt)
        x0 = mpf(_bisect(ff, cf, _upper(ff, cf)))
    hi = _upper(fn, max(x0, c))
    return _newton(fn, c, hi, min(max(x0, c), hi), c)


def _upper(fn, x):
    # first doubling of x > 0 where the increasing fn turns positive
    x *= 2
    while fn(x)[0] <= 0:
        x *= 2
    return x


def _bisect(fn, lo, hi):
    # float bisection is cheap and lands the working-precision Newton
    # iteration in its quadratic range
    for _ in range(1100):
        mid = (lo + hi) / 2
        if not lo < mid < hi:
            break
        if fn(mid)[0] > 0:
            hi = mid
        else:
            lo = mid
    return (lo + hi) / 2


def _angle(u, v):
    cross = (
        (u[1] * v[2] - u[2] * v[1]) ** 2
        + (u[2] * v[0] - u[0] * v[2]) ** 2
        + (u[0] * v[1] - u[1] * v[0]) ** 2
    )
    return mp.atan2(mp.sqrt(cross), sum(p * q for p, q in zip(u, v)))


def regular_vertices(a):
    """The canonical regular tetrahedron: A1A2 at z=+c, A3A4 at z=-c."""
    a = mpf(a)
    c = a * mp.sqrt(2) / 4
    return [(-a / 2, 0, c), (a / 2, 0, c), (0, -a / 2, -c), (0, a / 2, -c)]


def symmetric_reference(a: float, b1: float, b4: float) -> SymmetricRef:
    """All reference answers for one symmetric instance, in 50 digits."""
    with mp.workdps(DPS):
        y = interior_root(a, b1, b4)
        yp = exterior_root(a, b1, b4)
        am = mpf(a)
        c = am * mp.sqrt(2) / 4
        a01 = mp.sqrt(am * am / 4 + (c - y) ** 2)
        a04 = mp.sqrt(am * am / 4 + (c + y) ** 2)
        u = [(vx, vy, vz - y) for vx, vy, vz in regular_vertices(a)]
        return SymmetricRef(
            y=float(y),
            yp=None if yp is None else float(yp),
            objective=float(2 * (b1 * a01 + b4 * a04)),
            alpha_102=float(_angle(u[0], u[1])),
            alpha_304=float(_angle(u[2], u[3])),
            alpha_cross=float(_angle(u[0], u[2])),
        )


def quartic_coefficients(a: float, b1: float, b4: float) -> list[float]:
    """c4..c0 of the squared axial stationarity equation, from exact
    products of the float inputs."""
    with mp.workdps(DPS):
        a, b1, b4 = mpf(a), mpf(b1), mpf(b4)
        d, s = (b1 - b4) * (b1 + b4), b1 * b1 + b4 * b4
        return [float(x) for x in (64 * d, 0, 0, -8 * mp.sqrt(2) * a**3 * s, 3 * a**4 * d)]


def margins(vertices, weights):
    """||sum_{j != i} w_j u(A_i, A_j)|| - w_i at each vertex; the minimizer
    is absorbed at a vertex whose margin is <= 0."""
    with mp.workdps(DPS):
        v = [[mpf(x) for x in p] for p in vertices]
        w = [mpf(x) for x in weights]
        out = []
        for i in range(4):
            pull = [mpf(0)] * 3
            for j in range(4):
                if j == i:
                    continue
                d = [v[j][k] - v[i][k] for k in range(3)]
                n = mp.sqrt(sum(x * x for x in d))
                pull = [pull[k] + w[j] * d[k] / n for k in range(3)]
            out.append(mp.sqrt(sum(x * x for x in pull)) - w[i])
        return out


def residual(vertices, weights, x):
    """Norm of the weighted unit-vector sum at x (zero at a floating
    minimizer; vertices at x are left out), and the objective at x."""
    with mp.workdps(DPS):
        x = [mpf(t) for t in x]
        total = [mpf(0)] * 3
        obj = mpf(0)
        for p, wi in zip(vertices, weights):
            d = [mpf(p[k]) - x[k] for k in range(3)]
            n = mp.sqrt(sum(t * t for t in d))
            if n == 0:  # x on a vertex: that term has no direction
                continue
            obj += mpf(wi) * n
            total = [total[k] + mpf(wi) * d[k] / n for k in range(3)]
        return mp.sqrt(sum(t * t for t in total)), obj


def rel_err(value: float, ref: float, scale: float = 0.0) -> float:
    """|value - ref| / |ref|; against a zero reference the error is taken
    relative to ``scale`` (the instance's length or weight scale)."""
    if not math.isfinite(value):
        return math.inf
    den = abs(ref) if ref != 0 else scale
    if den == 0:
        return 0.0 if value == 0 else math.inf
    return abs(value - ref) / den
