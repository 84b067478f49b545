"""Independent numerical solvers used as oracles for the closed forms.

Two routes to the minimizer: the general 3-D solver (a Newton finish with a
Weiszfeld fallback, run until a Newton step is under the step tolerance or
certified, and for heavy weight pairs run once more on a decimal gradient), and
bisection of the slope of the reduced axial objective.  A third checks a given
point instead of finding one: _position_bound certifies, in one pass over the
vertices, how far the point can be from the minimizer (verify_invariance's
bound at a0).
"""

from __future__ import annotations

import math

from .equilibrium import _residual, classify
from .errors import CoincidentPoints, FtSolveError, NoConvergence
from .geom_core import (
    _MIN_NORMAL,
    SQRT2,
    FtSolution,
    SymmetricInstance,
    WeightedTetrahedron,
    _axial_slope,
    _unscaled,
    axial_distances,
)

# step cap of the general solver (on the general benchmark's inputs, seeds
# 11-13, weiszfeld took at most 12 steps), how often a Newton step that does
# not lower the objective is halved before the Weiszfeld step replaces it,
# and the step length, relative to the largest edge, that ends the loop (and
# above which _position_bound's float rounding part takes the decimal
# gradient)
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
    NoConvergence is raised when the residual at the last point exceeds
    1e-6 * sum(w).

    It runs on the vertices and the weights scaled by powers of two (exact)
    into unit range, so the Hessian stays in range at any edge length and
    any weight.  Absorbed instances short-circuit to the absorbing vertex,
    with a nan residual.  The loop is _solve_floating's; both cases take one
    answer path: the objective is one fsum of w d over four distances, scaled
    back with the residual, with FtSolveError where it exceeds the float range.
    """
    vertex = classify(t).vertex
    (w0, w1, w2, w3), we = t._units
    if vertex is None:
        point, residual, (d0, d1, d2, d3) = _solve_floating(t)
        # f >= w_max d_max >= 1/8 in the frame scaled by 2^-e, so 2^(e + we)
        # rounds it once, as 2^e (normal, exact) and then 2^we do.  A residual
        # under the threshold, at most 4e-6 there, stays in range
        e, residual = math.frexp(t.max_edge())[1] + we, math.ldexp(residual, we)
    else:
        # f(A_i) from the lengths of the vertex pairs stored at construction,
        # 0.0 at A_i itself: fsum is exactly rounded, so that term changes nothing
        d10, d20, d21, d30, d31, d32 = t._pairs[18:]
        rows = (0.0, d10, d20, d30), (d10, 0.0, d21, d31), (d20, d21, 0.0, d32), (d30, d31, d32, 0.0)
        point, residual, e, (d0, d1, d2, d3) = t.vertices[vertex], math.nan, we, rows[vertex]
    objective = _unscaled(math.fsum((w0 * d0, w1 * d1, w2 * d2, w3 * d3)), e, "objective")
    return FtSolution(point, objective, residual, vertex=vertex)


def _frame(t: WeightedTetrahedron):
    """The largest edge as 2^e times edge in [0.5, 1), and the vertices
    scaled by 2^-e: exact, as the edge bound keeps the largest edge in
    [2^-500, 2^500].  Returns edge, e and the scaled vertices."""
    edge, e = math.frexp(t.max_edge())
    scale = 2.0**-e
    (x0, y0, z0), (x1, y1, z1), (x2, y2, z2), (x3, y3, z3) = t.vertices
    return edge, e, (
        (x0 * scale, y0 * scale, z0 * scale),
        (x1 * scale, y1 * scale, z1 * scale),
        (x2 * scale, y2 * scale, z2 * scale),
        (x3 * scale, y3 * scale, z3 * scale),
    )


def _solve_floating(t: WeightedTetrahedron):
    """weiszfeld's loop on a tetrahedron already classified as floating: each
    step goes to the first x + f s, f in _TRIALS, on no vertex that lowers the
    objective, else to the Weiszfeld average.  Where the float gradient's
    rounding could move a step by more than the stop, the same loop body runs
    again from where it ended, with exact: on _visit's decimal gradient,
    without the certified stop or the Weiszfeld average, and a trial whose
    change is positive but within its rounding counts as lowering it.  It
    runs on the vertices scaled by 2^-e (see _frame), exact in the normal
    range the edge bound keeps offsets and distances in, so the residual
    kernel's (w o)/d and fsum(w d) 2^e are the caller's-scale floats, and
    every step (the seed, the stop, the decimal run, whose base-10 rounding
    sees the same floats) commutes with scaling by a power of two.

    It ends at the gated point, with NoConvergence above the residual threshold
    and CoincidentPoints on a vertex (see _residual), and returns that point at
    the caller's scale, its residual at the weights scaled by 2^-we (see
    WeightedTetrahedron._units) and its four distances to the vertices scaled
    by 2^-e.  It computes no objective: weiszfeld builds the FtSolution."""
    edge, e, verts = _frame(t)
    stop = STEP_TOL * edge
    scale = 2.0**-e
    (x0, y0, z0), (x1, y1, z1), (x2, y2, z2), (x3, y3, z3) = verts
    w, we = t._units
    w0, w1, w2, w3 = w
    total_w = w0 + w1 + w2 + w3
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
    # the start point, as a zero step from itself (any positive distances
    # do); the mean, inside the hull, if the averages landed on a vertex
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


def _position_bound(w, verts, x, edge):
    """A certified bound on the distance from x to the minimizer, as its two
    parts (step, rounding), in the frame of x, verts and the largest edge
    (see _frame).  One pass over the vertices at x forms the offsets
    o_i = x - A_i, the distances d_i, the gradient g = sum_i (w_i / d_i) o_i,
    the Hessian H = sum_i (w_i / d_i) I - (w_i / d_i^3) o_i o_i^T, its Newton
    step s and mu <= lambda_min(H) (see _eigen_floor).

    Let rho bound |g + H s| for the exact g and H at the float x and the
    float step s, and let m <= lambda_min(H(y)) for every y within R of x,
    R <= d_min / 2.  The Hessian of w |y - A| changes at a rate of at most
    (2/sqrt(3)) w / |y - A|^2 (see _certified), so on that ball it is
    L-Lipschitz for L = (8/sqrt(3)) sum_i w_i / d_i^2, |g(x + s)| <=
    rho + L |s|^2 / 2, and f is m-convex: the minimizer lies within
    |s| + L |s|^2 / (2 m) (step) + rho / m (rounding) of x, as long as that
    is at most R.  With R = 2 (|s| + (2 rho + L |s|^2) / mu) and
    m = mu - L R >= mu / 2 it is.  H is a sum of semidefinite terms, so the
    least eigenvalue of the terms of some of the vertices, less their own
    part of L times R, bounds the curvature too: where a heavy pair makes
    L R exceed mu / 2 (from weight ratios of about 1e14 on), the vertices of
    largest w_i / d_i^2 are left out of mu, one and then two.  So a pair's
    anisotropy stays out of the step part: at the minimizer it is about
    |x - x*|, where |g| / mu would be kappa(H) times that.

    rho is the gradient's rounding, the residual of the float solve, and the
    rounding of H and of that residual.  Each entry of the float H is off by
    at most 24 u sqrt(h_aa h_bb), u = 2^-53 (at most 15 u on each term, and
    |h_ab| <= sqrt(h_aa h_bb) for a sum of semidefinite terms), so
    |(H - float H) s| <= 24 u trace(H) |s|, and forming g + H s adds
    5 u (|g| + trace(H) |s|).  The float gradient is off by at most
    16 u sum(w) (as _visit's); where that over mu exceeds STEP_TOL edge (a
    heavy pair), the step is taken on _gradient_wide's, within
    u^2 sum(w) / 2 before its rounding to floats.  Each part is raised by
    2^-40 of itself for the rounding of the few operations that form it.

    CoincidentPoints where x is within 2^-511 edge of a vertex (a distance's
    square leaves the normal range); FtSolveError, naming the reason, where
    mu is not positive at the float entries, the ball reaches halfway to a
    vertex, or no choice of vertices keeps L R within mu / 2."""
    w0, w1, w2, w3 = w
    (x0, y0, z0), (x1, y1, z1), (x2, y2, z2), (x3, y3, z3) = verts
    px, py, pz = x
    ox0, oy0, oz0 = px - x0, py - y0, pz - z0
    ox1, oy1, oz1 = px - x1, py - y1, pz - z1
    ox2, oy2, oz2 = px - x2, py - y2, pz - z2
    ox3, oy3, oz3 = px - x3, py - y3, pz - z3
    xx0, yy0, zz0 = ox0 * ox0, oy0 * oy0, oz0 * oz0
    xx1, yy1, zz1 = ox1 * ox1, oy1 * oy1, oz1 * oz1
    xx2, yy2, zz2 = ox2 * ox2, oy2 * oy2, oz2 * oz2
    xx3, yy3, zz3 = ox3 * ox3, oy3 * oy3, oz3 * oz3
    q0, q1, q2, q3 = xx0 + yy0 + zz0, xx1 + yy1 + zz1, xx2 + yy2 + zz2, xx3 + yy3 + zz3
    tiny = _MIN_NORMAL
    if not (q0 >= tiny and q1 >= tiny and q2 >= tiny and q3 >= tiny):
        raise CoincidentPoints("the point lies on a vertex, or within 2^-511 edge of one")
    sqrt = math.sqrt
    t0, t1, t2, t3 = sqrt(q0), sqrt(q1), sqrt(q2), sqrt(q3)
    k0, k1, k2, k3 = w0 / t0, w1 / t1, w2 / t2, w3 / t3
    c0, c1, c2, c3 = k0 / q0, k1 / q1, k2 / q2, k3 / q3
    gx = k0 * ox0 + k1 * ox1 + k2 * ox2 + k3 * ox3
    gy = k0 * oy0 + k1 * oy1 + k2 * oy2 + k3 * oy3
    gz = k0 * oz0 + k1 * oz1 + k2 * oz2 + k3 * oz3
    # the diagonal as a sum of squares, free of cancellation
    hxx = c0 * (yy0 + zz0) + c1 * (yy1 + zz1) + c2 * (yy2 + zz2) + c3 * (yy3 + zz3)
    hyy = c0 * (xx0 + zz0) + c1 * (xx1 + zz1) + c2 * (xx2 + zz2) + c3 * (xx3 + zz3)
    hzz = c0 * (xx0 + yy0) + c1 * (xx1 + yy1) + c2 * (xx2 + yy2) + c3 * (xx3 + yy3)
    hxy = 0.0 - c0 * ox0 * oy0 - c1 * ox1 * oy1 - c2 * ox2 * oy2 - c3 * ox3 * oy3
    hxz = 0.0 - c0 * ox0 * oz0 - c1 * ox1 * oz1 - c2 * ox2 * oz2 - c3 * ox3 * oz3
    hyz = 0.0 - c0 * oy0 * oz0 - c1 * oy1 * oz1 - c2 * oy2 * oz2 - c3 * oy3 * oz3
    cxx, cyy, czz, cxy, cxz, cyz, det, mu = _eigen_floor(hxx, hyy, hzz, hxy, hxz, hyz)
    if not 0.0 < mu < math.inf:
        raise FtSolveError("the Hessian's least eigenvalue is not above its rounding")
    total_w = w0 + w1 + w2 + w3
    noise = 2.0**-49 * total_w
    if noise > STEP_TOL * edge * mu:
        # the decimal gradient, and its bound with the rounding to floats
        gx, gy, gz = map(float, _gradient_wide(w, verts, x))
        noise = 2.0**-106 * total_w + 2.0**-52 * sqrt(gx * gx + gy * gy + gz * gz)
    sx = -(cxx * gx + cxy * gy + cxz * gz) / det
    sy = -(cxy * gx + cyy * gy + cyz * gz) / det
    sz = -(cxz * gx + cyz * gy + czz * gz) / det
    rx = gx + hxx * sx + hxy * sy + hxz * sz
    ry = gy + hxy * sx + hyy * sy + hyz * sz
    rz = gz + hxz * sx + hyz * sy + hzz * sz
    n = sqrt(sx * sx + sy * sy + sz * sz)
    gn = sqrt(gx * gx + gy * gy + gz * gz)
    rho = noise + sqrt(rx * rx + ry * ry + rz * rz) + 2.0**-47 * ((hxx + hyy + hzz) * n + gn)
    # L, with 8/sqrt(3) rounded up, and R
    lip = 4.618802153517007 * (k0 / t0 + k1 / t1 + k2 / t2 + k3 / t3)
    r = 2.0 * (n + (2.0 * rho + lip * n * n) / mu)
    r2 = r + r
    if not (r2 <= t0 and r2 <= t1 and r2 <= t2 and r2 <= t3):
        raise FtSolveError("the certified ball reaches halfway to a vertex")
    if lip * r <= 0.5 * mu:
        m = mu - lip * r
    else:
        offsets = (ox0, oy0, oz0), (ox1, oy1, oz1), (ox2, oy2, oz2), (ox3, oy3, oz3)
        m = _kept_curvature((c0, c1, c2, c3), offsets, (t0, t1, t2, t3), n, rho, lip)
    slack = 1.0 + 2.0**-40
    return (n + lip * n * n / (2.0 * m)) * slack, rho / m * slack


def _eigen_floor(hxx, hyy, hzz, hxy, hxz, hyz):
    """The cofactors (xx, yy, zz, xy, xz, yz) and the determinant of the float
    symmetric H, and mu <= lambda_min of the exact H whose entries the float
    ones are within 24 u sqrt(h_aa h_bb) of (see _position_bound), where H is
    positive semidefinite: det / trace(adj H) = 1 / sum_k 1 / lambda_k,
    with det lowered by 2^-43 h_xx h_yy h_zz and trace(adj H) raised by
    2^-46 (h_xx h_yy + h_xx h_zz + h_yy h_zz).  Scaled by the diagonal, the
    entries are at most 1 in size and move by at most 24 u, which moves the
    determinant by at most 18 * 24 u h_xx h_yy h_zz and each 2 x 2 principal
    minor by 4 * 24 u of its diagonal product; rounding adds 42 u and 6 u of
    the same, under 2^-43 = 1024 u and 2^-46 = 128 u."""
    cxx = hyy * hzz - hyz * hyz
    cxy = hxz * hyz - hxy * hzz
    cxz = hxy * hyz - hxz * hyy
    cyy = hxx * hzz - hxz * hxz
    cyz = hxy * hxz - hxx * hyz
    czz = hxx * hyy - hxy * hxy
    det = hxx * cxx + hxy * cxy + hxz * cxz
    pxy, pxz, pyz = hxx * hyy, hxx * hzz, hyy * hzz
    mu = (det - 2.0**-43 * pxy * hzz) / (cxx + cyy + czz + 2.0**-46 * (pxy + pxz + pyz))
    return cxx, cyy, czz, cxy, cxz, cyz, det, mu


def _kept_curvature(c, offsets, t, n, rho, lip):
    """m for _position_bound where L R exceeds mu / 2: mu of the Hessian's
    terms of the vertices kept (see _eigen_floor), each entry summed as
    _position_bound sums all four, less their part of L times R, with the
    vertex of largest w_i / d_i^2 left out, and then the two; from the
    w_i / d_i^3, the offsets o_i and the distances d_i at x."""
    rates = [ci * ti for ci, ti in zip(c, t)]  # w_i / d_i^2
    kept = [0, 1, 2, 3]
    for _ in (1, 2):
        kept.remove(max(kept, key=rates.__getitem__))
        hxx = hyy = hzz = hxy = hxz = hyz = 0.0
        for i in kept:
            ci, (ox, oy, oz) = c[i], offsets[i]
            xx, yy, zz = ox * ox, oy * oy, oz * oz
            hxx += ci * (yy + zz)
            hyy += ci * (xx + zz)
            hzz += ci * (xx + yy)
            hxy -= ci * ox * oy
            hxz -= ci * ox * oz
            hyz -= ci * oy * oz
        mu = _eigen_floor(hxx, hyy, hzz, hxy, hxz, hyz)[-1]
        if not 0.0 < mu < math.inf:
            raise FtSolveError("the Hessian's least eigenvalue is not above its rounding")
        r = 2.0 * (n + (2.0 * rho + lip * n * n) / mu)
        if not r + r <= min(t):
            raise FtSolveError("the certified ball reaches halfway to a vertex")
        lip_kept = 4.618802153517007 * sum(rates[i] for i in kept)
        if lip_kept * r <= 0.5 * mu:
            return mu - lip_kept * r
    raise FtSolveError("the Hessian's change on the certified ball exceeds half its least eigenvalue")


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
