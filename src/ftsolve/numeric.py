"""Independent numerical solvers used as oracles for the closed forms.

Two routes to the minimizer: the general 3-D solver (a Newton finish with a
Weiszfeld fallback, run until a Newton step is under the step tolerance or
certified, and for heavy weight pairs run once more on a decimal gradient), and
bisection of the slope of the reduced axial objective.
"""

from __future__ import annotations

import math

from .equilibrium import _residual, classify
from .errors import FtSolveError, NoConvergence
from .geom_core import (
    SQRT2,
    FtSolution,
    SymmetricInstance,
    WeightedTetrahedron,
    _axial_slope,
    _unscaled,
    axial_distances,
)

# step cap of the general solver (on the general benchmark's inputs, seeds
# 11-13, weiszfeld took at most 12 steps, and verify_invariance's re-solves
# from a0 one each), how often a Newton step that does not lower the
# objective is halved before the Weiszfeld step replaces it, and the step
# length, relative to the largest edge, that ends the loop
MAX_ITER = 100
HALVINGS = 4
STEP_TOL = 1e-12
_TRIALS = tuple(0.5**k for k in range(HALVINGS + 1))  # 1, 1/2, ..., all exact


def weiszfeld(t: WeightedTetrahedron) -> FtSolution:
    """Weighted geometric median by a Newton finish with a Weiszfeld fallback.

    From two Weiszfeld averages of the weighted mean, over-relaxed by 1.5,
    each step solves H s = -g for the gradient g and the Hessian
    H = sum_i w_i (I - u_i u_i^T) / d_i of the distance sum.  A step that does
    not lower the objective is halved up to HALVINGS times; if none of those
    does, or H is singular, or the trial point lands on a vertex, one plain
    Weiszfeld step (inverse-distance-weighted average, which always descends)
    is taken instead.  A Newton step is taken in full and is the last one
    when it is shorter than STEP_TOL times the largest edge, or when a bound
    on the Hessian's change puts x + s within 2^-53 edge of the minimizer.
    That bound is on Newton's truncation only: the float gradient is off by
    up to 16 u sum(w), u = 2^-53, which moves the last step by up to that
    over mu <= lambda_min(H), so the answer is within about
    2^-53 edge + 16 u sum(w) / mu of the minimizer.  Where that rounding
    could exceed the tolerance (a heavy weight pair), the same Newton loop
    runs once more on a decimal gradient, whose rounding is under
    u^2 sum(w), up to weight ratios of 1e15; it halves steps as the float
    run does, but has neither the certified stop nor the Weiszfeld step.
    From ratios of about 4e15 on, classify may read a floating heavy pair as
    absorbed (see there), and the answer is then the heavy vertex.
    Solved cold, from the minimizer and from 0.1 and 2 edges off it,
    stretched two-pair tetrahedra (weights log-uniform in [0.2, 5], stretch
    factors in [0.5, 3]; 1,500 draws) gave answers up to 9.7 * 2^-52 edge
    apart.  NoConvergence is raised when the residual at the last point
    exceeds 1e-6 * sum(w).

    It runs on the vertices and the weights scaled by powers of two (exact)
    into unit range, so the Hessian stays in range at any edge length and
    any weight.  Absorbed instances short-circuit to the absorbing vertex.
    The loop is _solve_floating's; only here are the objective and the
    residual scaled back, with FtSolveError where the objective exceeds the
    float range.
    """
    label = classify(t)
    (w0, w1, w2, w3), we = t._units
    if label.floating:
        point, residual, (d0, d1, d2, d3) = _solve_floating(t)
        # f is at least w_max d_max >= 1/8 in the scaled frame, so 2^e alone
        # would leave it normal and exact: 2^(e + we) rounds it once, as 2^e
        # and then 2^we do, and is refused beyond the float range as the
        # absorbed objective is.  A residual under the threshold, at most 4e-6
        # there, stays in range
        e = math.frexp(t.max_edge())[1]
        objective = _unscaled(math.fsum((w0 * d0, w1 * d1, w2 * d2, w3 * d3)), e + we, "objective")
        return FtSolution(point, objective, math.ldexp(residual, we))
    i = label.vertex
    # f(A_i) from the lengths of the vertex pairs stored at construction
    d10, d20, d21, d30, d31, d32 = t._pairs[18:]
    terms = (
        (w1 * d10, w2 * d20, w3 * d30),
        (w0 * d10, w2 * d21, w3 * d31),
        (w0 * d20, w1 * d21, w3 * d32),
        (w0 * d30, w1 * d31, w2 * d32),
    )[i]
    objective = _unscaled(math.fsum(terms), we, "objective")
    return FtSolution(t.vertices[i], objective, residual=math.nan, vertex=i)


def _solve_floating(t: WeightedTetrahedron, start=None):
    """weiszfeld's loop on a tetrahedron already classified as floating: each
    step goes to the first x + f s, f in _TRIALS, on no vertex that lowers the
    objective, else to the Weiszfeld average.  Where the float gradient's
    rounding could move a step by more than the stop, the same loop body runs
    again from where it ended, with exact: on _visit's decimal gradient,
    without the certified stop or the Weiszfeld average, and a trial whose
    change is positive but within its rounding counts as lowering it.  It
    runs on the vertices scaled by 2^-e, e the exponent of the largest edge,
    exact in the normal range the edge bound keeps offsets and distances in,
    so the residual kernel's (w o)/d and fsum(w d) 2^e are the caller's-scale
    floats, and every step (the seed, the stop, the decimal run, whose
    base-10 rounding sees the same floats) commutes with scaling by a power
    of two.  A start point on no vertex replaces the averages as the first
    point; the stop rules are the same from any start, so it only saves
    passes: from the minimizer itself the first Newton step ends the loop.

    It ends at the gated point, with NoConvergence above the residual threshold
    and CoincidentPoints on a vertex (see _residual), and returns that point at
    the caller's scale, its residual at the weights scaled by 2^-we (see
    WeightedTetrahedron._units) and its four distances to the vertices scaled
    by 2^-e.  It computes no objective: weiszfeld builds the FtSolution, and
    verify_invariance reads only the point."""
    edge, e = math.frexp(t.max_edge())
    stop = STEP_TOL * edge
    scale = 2.0**-e  # the largest edge is in [2^-500, 2^500]
    (x0, y0, z0), (x1, y1, z1), (x2, y2, z2), (x3, y3, z3) = t.vertices
    verts = (x0, y0, z0), (x1, y1, z1), (x2, y2, z2), (x3, y3, z3) = (
        (x0 * scale, y0 * scale, z0 * scale),
        (x1 * scale, y1 * scale, z1 * scale),
        (x2 * scale, y2 * scale, z2 * scale),
        (x3 * scale, y3 * scale, z3 * scale),
    )
    w, we = t._units
    w0, w1, w2, w3 = w
    total_w = w0 + w1 + w2 + w3
    # the start point, as a zero step from itself (any positive distances do)
    at = None
    if start is not None:
        x = [start[0] * scale, start[1] * scale, start[2] * scale]
        at = _visit(w, verts, x, x, w)
    if at is None:
        # the Newton finish starts from two Weiszfeld averages of the weighted
        # mean (plain sums do: only the start point depends on its last bits):
        # on the general benchmark's inputs they save 1.9 passes per solve at
        # the cost of 0.8, and a third average would save less than it costs
        mean = [
            (w0 * x0 + w1 * x1 + w2 * x2 + w3 * x3) / total_w,
            (w0 * y0 + w1 * y1 + w2 * y2 + w3 * y3) / total_w,
            (w0 * z0 + w1 * z1 + w2 * z2 + w3 * z3) / total_w,
        ]
        x = _averages(w, verts, mean)
        # the mean, inside the hull, if the averages landed on a vertex
        at = _visit(w, verts, x, x, w) or _visit(w, verts, mean, mean, w)
    # _visit's gradient is off by at most 16 u sum(w), u = 2^-53 (see _visit),
    # and its Newton step by up to that over mu <= lambda_min(H).  Where that
    # exceeds stop (a heavy pair's unit vectors leave w_h u of rounding), no
    # float step is certified, one within it ends the float run untaken, and
    # the loop runs once more on the decimal gradient
    noise = 2.0**-49 * total_w
    # the certified stop's bound on |x + s - x*| (see _certified).  It can only
    # hold if pull n^2 <= cert sum(w) / sqrt(3): its L is at least
    # (2/sqrt(3)) pull^2 / sum(w) by Cauchy-Schwarz, and mu at most
    # trace(H) / 3 = 2 pull / 3.  The looser pull n^2 <= cert sum(w) is tested
    # first; it is cheap, and fails on the early steps
    cert = 2.0**-53 * edge
    cert_w = cert * total_w
    steps, prev = 0, x
    for exact in (False, True):
        if exact:
            # the heavy-pair finish, 2 to 5 steps at ratios 1e4 to 1e15: a step
            # over stop goes to the first x + f s whose change is under
            # 32 u sum(w) f |s| (above its rounding, see _visit), as one from
            # up to half an edge out at 1e15 can land next to a heavy vertex
            if not mu * stop < noise:
                break
            at = _visit(w, verts, x, x, d, True)
        while at is not None:
            x, d, _, g, s, pull, mu = at
            if steps == MAX_ITER:
                break
            px, py, pz = x
            at = None
            if s is not None:
                sx, sy, sz = s
                n = math.hypot(sx, sy, sz)
                noisy = mu * stop < noise
                if n < stop or not (exact or noisy) and n * n * pull <= cert_w and _certified(w, d, n, mu * cert):
                    # prev is None after this closing step, which is n long
                    prev, x = None, [px + sx, py + sy, pz + sz]
                    steps += 1
                    break
                if noisy and not exact and n * mu <= noise:
                    break
                for frac in _TRIALS:
                    at = _visit(w, verts, x, [px + frac * sx, py + frac * sy, pz + frac * sz], d, exact)
                    if at is not None and (at[2] < 0.0 or exact and at[2] <= 2.0 * noise * frac * n):
                        break
                    at = None
            if at is None:
                # the Weiszfeld average x - g / sum(w_i / d_i); one on a
                # vertex, or at x itself, would only repeat this iteration
                gx, gy, gz = g
                trial = [px - gx / pull, py - gy / pull, pz - gz / pull]
                if exact or trial == x or (at := _visit(w, verts, x, trial, d)) is None:
                    break
            prev = x
            steps += 1
    residual, d = _residual(w, verts, x, edge)
    if residual > 1e-6 * total_w:
        last = n if prev is None else math.dist(x, prev)
        raise NoConvergence(
            f"residual {_unscaled(residual, we, 'residual'):.3e} above threshold after "
            f"{steps} step(s), the last {last / scale:.3e} long"
        )
    return (x[0] / scale, x[1] / scale, x[2] / scale), residual, d


def _certified(w, d, n, bound):
    """Whether x + s, for the Newton step s of length n at x (distances d_i
    to the vertices), is within tol of the minimizer, for bound = mu tol and
    mu <= lambda_min(H(x)).

    The Hessian of w |x - A| changes at a rate of at most w c / |x - A|^2,
    c = max 3|t|(1 - t^2) = 2/sqrt(3) (its third derivative along a direction
    at cosine t from x - A), so within 2n of x, where |x - A_i| > d_i - 2n,
    it is L-Lipschitz for L = (2/sqrt(3)) sum_i w_i / (d_i - 2n)^2.  Then
    |g(x + s)| <= L n^2 / 2, the curvature within 2n of x is at least
    mu - 2 L n, and the minimizer is within L n^2 / mu of x + s while
    L n <= mu / 4, which holds for every n above 2^-51 edge that passes a
    bound of 2^-53 edge (the loop asks only for n of at least STEP_TOL edge).
    This bounds the truncation of Newton's method, not the rounding of g."""
    r = n + n
    d0, d1, d2, d3 = d
    if not (r < d0 and r < d1 and r < d2 and r < d3):
        return False
    w0, w1, w2, w3 = w
    d0, d1, d2, d3 = d0 - r, d1 - r, d2 - r, d3 - r
    lip = w0 / (d0 * d0) + w1 / (d1 * d1) + w2 / (d2 * d2) + w3 / (d3 * d3)
    return 1.1547005383792517 * lip * n * n <= bound  # 2/sqrt(3), rounded up


def _averages(w, verts, x):
    """Two Weiszfeld averages from x, each over-relaxed by 1.5: x + 1.5 (T(x) - x)
    for T(x) = sum_i (w_i / d_i) A_i / sum_i w_i / d_i, that is x - 1.5 g / pull
    in _visit's terms.  Every factor in [1, 2] lowers the objective (Ostresh,
    Oper. Res. 26, 1978); 1.5 sits in the middle of that range.  At a point on
    a vertex the averages are skipped.  The four vertices are written out."""
    w0, w1, w2, w3 = w
    (x0, y0, z0), (x1, y1, z1), (x2, y2, z2), (x3, y3, z3) = verts
    px, py, pz = x
    sqrt = math.sqrt
    for _ in (0, 1):
        ox0, oy0, oz0 = px - x0, py - y0, pz - z0
        ox1, oy1, oz1 = px - x1, py - y1, pz - z1
        ox2, oy2, oz2 = px - x2, py - y2, pz - z2
        ox3, oy3, oz3 = px - x3, py - y3, pz - z3
        d0 = sqrt(ox0 * ox0 + oy0 * oy0 + oz0 * oz0)
        d1 = sqrt(ox1 * ox1 + oy1 * oy1 + oz1 * oz1)
        d2 = sqrt(ox2 * ox2 + oy2 * oy2 + oz2 * oz2)
        d3 = sqrt(ox3 * ox3 + oy3 * oy3 + oz3 * oz3)
        if not (d0 and d1 and d2 and d3):
            break
        k0, k1, k2, k3 = w0 / d0, w1 / d1, w2 / d2, w3 / d3
        f = 1.5 / (k0 + k1 + k2 + k3)
        px, py, pz = (
            px - f * (k0 * ox0 + k1 * ox1 + k2 * ox2 + k3 * ox3),
            py - f * (k0 * oy0 + k1 * oy1 + k2 * oy2 + k3 * oy3),
            pz - f * (k0 * oz0 + k1 * oz1 + k2 * oz2 + k3 * oz3),
        )
    return [px, py, pz]


def _visit(w, verts, x, trial, d, exact=False):
    """One pass over the vertices at trial, a step t = trial - x from a point x
    at distances d_i from them.  Returns trial, its distances td_i, the change
    f(trial) - f(x) summed as w_i t.(2 v_i + t) / (d_i + td_i) with v_i = x - A_i
    (differencing f would round away a change this small), the gradient
    g = sum_i w_i u_i for u_i = (trial - A_i) / td_i, the Newton step -H^{-1} g
    by the adjugate of H = sum_i (w_i / td_i) (I - u_i u_i^T) (None if H is
    singular or the step not finite), sum_i w_i / td_i, and
    mu = det(H) / trace(adj H) = 1 / sum_k 1 / l_k over the eigenvalues l_k of
    H, so at most the least of them (0.0 if H is singular: H is a sum of
    semidefinite terms); None if trial lies on a vertex or a distance
    overflows.  Each component of g is off by at most 9 u sum(w), u = 2^-53:
    the offset, length, quotient and weight round w_i u_i by up to 6 u w_i,
    and the sum of four adds 3 u sum(w); so |g| is off by at most
    16 u sum(w).  The change is off by at most 20 u sum(w) |t|: with
    D_i = d_i + td_i >= |t|, |2 v_i + t|, a term is off by at most w_i |t|
    times 6 u from 2 v_i + t (its rounding 2 u (2 d_i + |t|) <= 6 u D_i),
    4 u from t and the dot product, 4.5 u from D_i and 2 u from weight and
    quotient, and the sum of four adds 3 u sum(w) |t|.  With exact (where H
    is regular), g is instead _gradient_wide, within u^2 sum(w) / 2, rounded
    to floats, and the step is its Newton step; the change, H, pull and mu
    are the same floats either way.  The four vertices are written out; each
    sum runs in vertex order, the signed ones from 0.0."""
    w0, w1, w2, w3 = w
    (x0, y0, z0), (x1, y1, z1), (x2, y2, z2), (x3, y3, z3) = verts
    d0, d1, d2, d3 = d
    px, py, pz = x
    tx, ty, tz = trial
    sx, sy, sz = tx - px, ty - py, tz - pz
    ox0, oy0, oz0 = tx - x0, ty - y0, tz - z0
    ox1, oy1, oz1 = tx - x1, ty - y1, tz - z1
    ox2, oy2, oz2 = tx - x2, ty - y2, tz - z2
    ox3, oy3, oz3 = tx - x3, ty - y3, tz - z3
    sqrt, inf = math.sqrt, math.inf
    t0 = sqrt(ox0 * ox0 + oy0 * oy0 + oz0 * oz0)
    t1 = sqrt(ox1 * ox1 + oy1 * oy1 + oz1 * oz1)
    t2 = sqrt(ox2 * ox2 + oy2 * oy2 + oz2 * oz2)
    t3 = sqrt(ox3 * ox3 + oy3 * oy3 + oz3 * oz3)
    if not (0.0 < t0 < inf and 0.0 < t1 < inf and 0.0 < t2 < inf and 0.0 < t3 < inf):
        return None
    if trial is x:  # a zero step, as at the start point: the sum below is 0.0
        change = 0.0
    else:
        # 2 v_i + t, with v_i + v_i taken as the exact 2.0 * v_i
        qx0, qy0, qz0 = 2.0 * (px - x0) + sx, 2.0 * (py - y0) + sy, 2.0 * (pz - z0) + sz
        qx1, qy1, qz1 = 2.0 * (px - x1) + sx, 2.0 * (py - y1) + sy, 2.0 * (pz - z1) + sz
        qx2, qy2, qz2 = 2.0 * (px - x2) + sx, 2.0 * (py - y2) + sy, 2.0 * (pz - z2) + sz
        qx3, qy3, qz3 = 2.0 * (px - x3) + sx, 2.0 * (py - y3) + sy, 2.0 * (pz - z3) + sz
        change = 0.0 + w0 * (sx * qx0 + sy * qy0 + sz * qz0) / (d0 + t0)
        change += w1 * (sx * qx1 + sy * qy1 + sz * qz1) / (d1 + t1)
        change += w2 * (sx * qx2 + sy * qy2 + sz * qz2) / (d2 + t2)
        change += w3 * (sx * qx3 + sy * qy3 + sz * qz3) / (d3 + t3)
    ux0, uy0, uz0, k0 = ox0 / t0, oy0 / t0, oz0 / t0, w0 / t0
    ux1, uy1, uz1, k1 = ox1 / t1, oy1 / t1, oz1 / t1, w1 / t1
    ux2, uy2, uz2, k2 = ox2 / t2, oy2 / t2, oz2 / t2, w2 / t2
    ux3, uy3, uz3, k3 = ox3 / t3, oy3 / t3, oz3 / t3, w3 / t3
    pull = k0 + k1 + k2 + k3
    gx = 0.0 + w0 * ux0 + w1 * ux1 + w2 * ux2 + w3 * ux3
    gy = 0.0 + w0 * uy0 + w1 * uy1 + w2 * uy2 + w3 * uy3
    gz = 0.0 + w0 * uz0 + w1 * uz1 + w2 * uz2 + w3 * uz3
    # the diagonal as a sum of squares, free of cancellation
    xx0, yy0, zz0 = ux0 * ux0, uy0 * uy0, uz0 * uz0
    xx1, yy1, zz1 = ux1 * ux1, uy1 * uy1, uz1 * uz1
    xx2, yy2, zz2 = ux2 * ux2, uy2 * uy2, uz2 * uz2
    xx3, yy3, zz3 = ux3 * ux3, uy3 * uy3, uz3 * uz3
    hxx = k0 * (yy0 + zz0) + k1 * (yy1 + zz1) + k2 * (yy2 + zz2) + k3 * (yy3 + zz3)
    hyy = k0 * (xx0 + zz0) + k1 * (xx1 + zz1) + k2 * (xx2 + zz2) + k3 * (xx3 + zz3)
    hzz = k0 * (xx0 + yy0) + k1 * (xx1 + yy1) + k2 * (xx2 + yy2) + k3 * (xx3 + yy3)
    hxy = 0.0 - k0 * ux0 * uy0 - k1 * ux1 * uy1 - k2 * ux2 * uy2 - k3 * ux3 * uy3
    hxz = 0.0 - k0 * ux0 * uz0 - k1 * ux1 * uz1 - k2 * ux2 * uz2 - k3 * ux3 * uz3
    hyz = 0.0 - k0 * uy0 * uz0 - k1 * uy1 * uz1 - k2 * uy2 * uz2 - k3 * uy3 * uz3
    cxx = hyy * hzz - hyz * hyz
    cxy = hxz * hyz - hxy * hzz
    cxz = hxy * hyz - hxz * hyy
    det = hxx * cxx + hxy * cxy + hxz * cxz
    if not 0.0 < det < inf:
        return trial, [t0, t1, t2, t3], change, (gx, gy, gz), None, pull, 0.0
    if exact:
        gx, gy, gz = map(float, _gradient_wide(w, verts, trial))
    cyy = hxx * hzz - hxz * hxz
    cyz = hxy * hxz - hxx * hyz
    czz = hxx * hyy - hxy * hxy
    s = (
        -(cxx * gx + cxy * gy + cxz * gz) / det,
        -(cxy * gx + cyy * gy + cyz * gz) / det,
        -(cxz * gx + cyz * gy + czz * gz) / det,
    )
    s = s if math.isfinite(s[0] + s[1] + s[2]) else None
    return trial, [t0, t1, t2, t3], change, (gx, gy, gz), s, pull, det / (cxx + cyy + czz)


def _gradient_wide(w, verts, x):
    """The gradient sum_i w_i (x - A_i) / |x - A_i| as three Decimals, for
    float inputs.  Decimal of a float is exact, and each operation after it
    rounds by at most e = 5e-34 relative: the length by 3.5 e, the quotient
    and product 3 e more, the sum of four 3 e sum(w), so a heavy pair's unit
    vectors cancel to 9.5 e sum(w) < u^2 sum(w) / 2, not to the float
    gradient's u.  decimal is imported here, off the float path; neither the
    caller's context (left as it was) nor DefaultContext's traps apply."""
    from decimal import ROUND_HALF_EVEN, Context, Decimal, localcontext

    # decimal128's 34 digits: e ~ u^2 / 25 at any float scale
    with localcontext(Context(prec=34, rounding=ROUND_HALF_EVEN, traps=[])):
        px, py, pz = map(Decimal, x)
        gx = gy = gz = Decimal(0)
        for wi, (ax, ay, az) in zip(w, verts):
            ox, oy, oz = px - Decimal(ax), py - Decimal(ay), pz - Decimal(az)
            k = Decimal(wi) / (ox * ox + oy * oy + oz * oz).sqrt()
            gx, gy, gz = gx + k * ox, gy + k * oy, gz + k * oz
    return gx, gy, gz


def reduced_objective(inst: SymmetricInstance, y: float, sign4: int = 1) -> float:
    """Half-objective on the axis: b1*a01(y) + sign4*b4*a04(y), if finite."""
    if sign4 not in (1, -1):
        raise ValueError("sign4 must be +1 or -1")
    a01, a04 = axial_distances(inst.a, y)
    value = inst.b1 * a01 + sign4 * inst.b4 * a04
    if not math.isfinite(value):
        raise FtSolveError("the objective exceeds the float range")
    return value


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
