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
    _unscaled,
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

    It runs on the vertices and the weights scaled by powers of two (exact)
    into unit range, so the Hessian stays in range at any edge length and
    any weight.  Absorbed instances short-circuit to the absorbing vertex.
    """
    label = classify(t)
    if label.floating:
        return _solve_floating(t)
    i = label.vertex
    # the coefficients of A_i's pull are the other weights, some negated
    coefficients, _, d = t._pulls[i]
    objective = math.fsum([abs(cj) * dj for cj, dj in zip(coefficients, d)])
    (objective,) = _unscaled((objective,), t._units[1], "objective")
    return FtSolution(t.vertices[i], objective, residual=math.nan, vertex=i)


def _solve_floating(t: WeightedTetrahedron) -> FtSolution:
    """weiszfeld on a tetrahedron already classified as floating."""
    edge, e = math.frexp(t.max_edge())
    stop = STEP_TOL * edge
    scale = 2.0**-e  # the largest edge is in [2^-500, 2^500]
    verts = [(ax * scale, ay * scale, az * scale) for ax, ay, az in t.vertices]
    (x0, y0, z0), (x1, y1, z1), (x2, y2, z2), (x3, y3, z3) = verts
    w, we = t._units
    w0, w1, w2, w3 = w
    total_w = math.fsum(w)
    x = [
        math.fsum((w0 * x0, w1 * x1, w2 * x2, w3 * x3)) / total_w,
        math.fsum((w0 * y0, w1 * y1, w2 * y2, w3 * y3)) / total_w,
        math.fsum((w0 * z0, w1 * z1, w2 * z2, w3 * z3)) / total_w,
    ]
    # the start point, as a zero step from itself (any positive distances do)
    at = _visit(w, verts, x, x, w)
    steps, prev = 0, x
    while at is not None:
        x, d, _, g, s, pull = at
        if steps == MAX_ITER:
            break
        if s is not None and math.hypot(*s) < stop:
            # prev is None after this closing step, which is s
            prev, x = None, [x[0] + s[0], x[1] + s[1], x[2] + s[2]]
            steps += 1
            break
        at = None if s is None else _damped(w, verts, x, d, s)
        if at is None:
            # the Weiszfeld average x - g / sum(w_i / d_i); one on a vertex, or
            # at x itself, would only repeat this iteration
            trial = [x[0] - g[0] / pull, x[1] - g[1] / pull, x[2] - g[2] / pull]
            if trial == x or (at := _visit(w, verts, x, trial, d)) is None:
                break
        prev = x
        steps += 1
    point = (x[0] / scale, x[1] / scale, x[2] / scale)
    # one pass over the vertices at the caller's scale for both the residual
    # and the objective
    v, d = _offsets(t.vertices, point)
    residual = _residual(t, v, d)
    if residual > 1e-6 * total_w:
        last = math.hypot(*s) if prev is None else math.dist(x, prev)
        raise NoConvergence(
            f"residual {_unscaled((residual,), we, 'residual')[0]:.3e} above threshold after "
            f"{steps} step(s), the last {last / scale:.3e} long"
        )
    objective = math.fsum([wi * di for wi, di in zip(w, d)])
    # a residual under the threshold, at most 4e-6 here, stays in range
    objective, residual = _unscaled((objective, residual), we, "objective")
    return FtSolution(point=point, objective=objective, residual=residual)


def _damped(w, verts, x, d, s):
    """_visit at the first of x + s, x + s/2, ... (HALVINGS halvings) that
    lies on no vertex and lowers the objective; None if there is none."""
    frac = 1.0
    for _ in range(HALVINGS + 1):
        trial = [x[0] + frac * s[0], x[1] + frac * s[1], x[2] + frac * s[2]]
        at = _visit(w, verts, x, trial, d)
        if at is not None and at[2] < 0.0:
            return at
        frac *= 0.5
    return None


def _visit(w, verts, x, trial, d):
    """One pass over the vertices at trial, a step t = trial - x from a point x
    at distances d_i from them.  Returns trial, its distances td_i, the change
    f(trial) - f(x) summed as w_i t.(2 v_i + t) / (d_i + td_i) with v_i = x - A_i
    (differencing f would round away a change this small), the gradient
    g = sum_i w_i u_i for u_i = (trial - A_i) / td_i, the Newton step -H^{-1} g
    by the adjugate of H = sum_i (w_i / td_i) (I - u_i u_i^T) (None if H is
    singular or the step not finite) and sum_i w_i / td_i; None if trial lies
    on a vertex or a distance overflows."""
    px, py, pz = x
    tx, ty, tz = trial
    sx, sy, sz = tx - px, ty - py, tz - pz
    td = []
    change = gx = gy = gz = pull = 0.0
    hxx = hyy = hzz = hxy = hxz = hyz = 0.0
    for wi, (ax, ay, az), di in zip(w, verts, d):
        ox, oy, oz = tx - ax, ty - ay, tz - az
        ti = math.sqrt(ox * ox + oy * oy + oz * oz)
        if not 0.0 < ti < math.inf:
            return None
        td.append(ti)
        vx, vy, vz = px - ax, py - ay, pz - az
        change += wi * (sx * (vx + vx + sx) + sy * (vy + vy + sy) + sz * (vz + vz + sz)) / (di + ti)
        ux, uy, uz = ox / ti, oy / ti, oz / ti
        k = wi / ti
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
    if not 0.0 < det < math.inf:
        return trial, td, change, g, None, pull
    cyy = hxx * hzz - hxz * hxz
    cyz = hxy * hxz - hxx * hyz
    czz = hxx * hyy - hxy * hxy
    s = (
        -(cxx * gx + cxy * gy + cxz * gz) / det,
        -(cxy * gx + cyy * gy + cyz * gz) / det,
        -(cxz * gx + cyz * gy + czz * gz) / det,
    )
    return trial, td, change, g, s if math.isfinite(s[0] + s[1] + s[2]) else None, pull


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
