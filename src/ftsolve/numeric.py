"""Independent numerical solvers used as oracles for the closed forms.

Two routes to the minimizer: the general 3-D solver (a Newton finish with a
Weiszfeld fallback, run until a Newton step is under the step tolerance), and
bisection of the slope of the reduced axial objective.
"""

from __future__ import annotations

import math

from .equilibrium import _residual, classify
from .errors import NoConvergence
from .geom_core import (
    SQRT2,
    FtSolution,
    SymmetricInstance,
    WeightedTetrahedron,
    _axial_slope,
    _offsets,
    axial_distances,
)

__all__ = [
    "weiszfeld",
    "reduced_objective",
    "minimize_reduced",
    "stationarity_defect",
]

# step cap of the general solver (it took at most 13 steps on the general
# benchmark's inputs, seeds 11-13), how often a Newton step that does not
# lower the objective is halved before the Weiszfeld step replaces it, and
# the step length, relative to the largest edge, that ends the loop
MAX_ITER = 100
HALVINGS = 4
STEP_TOL = 1e-12


def weiszfeld(t: WeightedTetrahedron) -> FtSolution:
    """Weighted geometric median by a Newton finish with a Weiszfeld fallback.

    From the weighted mean, each step solves H s = -g for the gradient g and
    the Hessian H = sum_i w_i (I - u_i u_i^T) / d_i of the distance sum.  A
    step that does not lower the objective is halved up to HALVINGS times;
    if none of those does, or H is singular, or the trial point lands on a
    vertex, one plain Weiszfeld step (inverse-distance-weighted average,
    which always descends) is taken instead.  A Newton step shorter than
    STEP_TOL times the largest edge is taken in full and is the last one.
    NoConvergence is raised when the residual at the last point exceeds
    1e-6 * sum(w).

    It runs on the vertices scaled by a power of two (exact) into unit range,
    so the Hessian stays in range at any edge length.  Absorbed instances
    short-circuit to the absorbing vertex.
    """
    label = classify(t)
    if label.floating:
        return _solve_floating(t)
    i = label.vertex
    # the coefficients of A_i's pull are the other weights, some negated
    coefficients, _, d = t._pulls[i]
    return FtSolution(
        point=t.vertices[i],
        objective=math.fsum(abs(cj) * dj for cj, dj in zip(coefficients, d)),
        residual=float("nan"),
        vertex=i,
    )


def _solve_floating(t: WeightedTetrahedron) -> FtSolution:
    """weiszfeld on a tetrahedron already classified as floating."""
    edge, e = math.frexp(t.max_edge())
    stop = STEP_TOL * edge
    verts = [[math.ldexp(c, -e) for c in p] for p in t.vertices]
    w = t.weights
    total_w = math.fsum(w)
    x = [math.fsum(wi * p[k] for wi, p in zip(w, verts)) / total_w for k in range(3)]
    v, d = _offsets(verts, x)
    steps, step_len = 0, 0.0
    for _ in range(MAX_ITER):
        g, s, pull = _newton(w, v, d)
        if s is not None and math.hypot(*s) < stop:
            x = [xk + sk for xk, sk in zip(x, s)]
            steps, step_len = steps + 1, math.hypot(*s)
            break
        step = None if s is None else _damped(w, verts, x, v, d, s)
        if step is None:
            # x - g / sum(w_i / d_i) is the Weiszfeld average of the vertices
            trial = [xk - gk / pull for xk, gk in zip(x, g)]
            tv, td = _offsets(verts, trial)
            # a step that lands on a vertex, or leaves x where it is, would
            # only repeat this iteration
            if trial == x or not all(0.0 < di < math.inf for di in td):
                break
            step = trial, tv, td
        steps, step_len = steps + 1, math.dist(step[0], x)
        x, v, d = step
    point = tuple(math.ldexp(xk, e) for xk in x)
    # one pass over the vertices at the caller's scale for both the residual
    # and the objective
    v, d = _offsets(t.vertices, point)
    residual = _residual(t, v, d)
    if residual > 1e-6 * total_w:
        raise NoConvergence(
            f"residual {residual:.3e} above threshold after {steps} step(s), "
            f"the last {math.ldexp(step_len, e):.3e} long"
        )
    return FtSolution(
        point=point,
        objective=math.fsum(wi * di for wi, di in zip(w, d)),
        residual=residual,
    )


def _damped(w, verts, x, v, d, s):
    """The first of x + s, x + s/2, ... (HALVINGS halvings) that lies on no
    vertex and lowers the objective, with its offsets and distances; None
    if there is none.

    With t = trial - x, the change f(x + t) - f(x) is summed from the
    offsets v_i and distances d_i at x and the distances td_i at x + t as
    w_i t.(2 v_i + t) / (d_i + td_i), with the same t for every vertex:
    differencing f, or the offsets at the two points, would round away a
    change this small near the minimizer."""
    frac = 1.0
    for _ in range(HALVINGS + 1):
        trial = [xk + frac * sk for xk, sk in zip(x, s)]
        tx, ty, tz = trial
        sx, sy, sz = tx - x[0], ty - x[1], tz - x[2]
        tv, td = [], []
        change = 0.0
        for wi, (ax, ay, az), (vx, vy, vz), di in zip(w, verts, v, d):
            ox, oy, oz = tx - ax, ty - ay, tz - az
            ti = math.sqrt(ox * ox + oy * oy + oz * oz)
            # a trial on a vertex, or one that overflowed, is not taken
            if not 0.0 < ti < math.inf:
                break
            tv.append((ox, oy, oz))
            td.append(ti)
            dot = sx * (vx + vx + sx) + sy * (vy + vy + sy) + sz * (vz + vz + sz)
            change += wi * dot / (di + ti)
        else:
            if change < 0.0:
                return trial, tv, td
        frac *= 0.5
    return None


def _newton(w, v, d):
    """Gradient g = sum_i w_i u_i of the distance sum at x, the Newton step
    -H^{-1} g with H = sum_i (w_i / d_i) (I - u_i u_i^T), solved by its
    adjugate (None when H is singular or the solve is not finite), and
    sum_i w_i / d_i; u_i = v_i / d_i."""
    gx = gy = gz = pull = 0.0
    hxx = hyy = hzz = hxy = hxz = hyz = 0.0
    for wi, (vx, vy, vz), di in zip(w, v, d):
        ux, uy, uz = vx / di, vy / di, vz / di
        k = wi / di
        pull += k
        gx += wi * ux
        gy += wi * uy
        gz += wi * uz
        # the diagonal as a sum of squares, free of cancellation
        hxx += k * (uy * uy + uz * uz)
        hyy += k * (ux * ux + uz * uz)
        hzz += k * (ux * ux + uy * uy)
        hxy -= k * ux * uy
        hxz -= k * ux * uz
        hyz -= k * uy * uz
    g = (gx, gy, gz)
    cxx = hyy * hzz - hyz * hyz
    cxy = hxz * hyz - hxy * hzz
    cxz = hxy * hyz - hxz * hyy
    det = hxx * cxx + hxy * cxy + hxz * cxz
    if not (0.0 < det < math.inf):
        return g, None, pull
    cyy = hxx * hzz - hxz * hxz
    cyz = hxy * hxz - hxx * hyz
    czz = hxx * hyy - hxy * hxy
    s = (
        -(cxx * gx + cxy * gy + cxz * gz) / det,
        -(cxy * gx + cyy * gy + cyz * gz) / det,
        -(cxz * gx + cyz * gy + czz * gz) / det,
    )
    if not math.isfinite(s[0] + s[1] + s[2]):
        return g, None, pull
    return g, s, pull


def reduced_objective(inst: SymmetricInstance, y: float, sign4: int = 1) -> float:
    """Half-objective on the axis: b1*a01(y) + sign4*b4*a04(y)."""
    if sign4 not in (1, -1):
        raise ValueError("sign4 must be +1 or -1")
    a01, a04 = axial_distances(inst.a, y)
    return inst.b1 * a01 + sign4 * inst.b4 * a04


def minimize_reduced(inst: SymmetricInstance) -> float:
    """Minimizer of the reduced objective on [-c, c]: a times the bisection of
    its slope at a = 1 down to a bracket of 1e-14.  For positive weights the
    objective is strictly convex in y, so its slope increases from
    -2 b1 c / a01 < 0 at -c to 2 b4 c / a04 > 0 at c."""
    lo, hi = -SQRT2 / 4.0, SQRT2 / 4.0
    mid = 0.0
    while hi - lo > 1e-14:
        if _axial_slope(inst.b1, inst.b4, mid, 1) > 0.0:
            hi = mid
        else:
            lo = mid
        mid = 0.5 * (lo + hi)
    return inst.a * mid


def stationarity_defect(inst: SymmetricInstance, y: float) -> float:
    """Slope of b1*a01(y) - b4*a04(y); negative near y = c+, positive for
    large y when b1 > b4, and zero at the signed-weight critical point."""
    return _axial_slope(inst.b1, inst.b4, y / inst.a, -1)
