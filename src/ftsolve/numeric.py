"""Independent numerical solvers used as oracles for the closed forms.

Two routes to the minimizer: the general 3-D solver (a Newton finish with a
Weiszfeld fallback, run until a Newton step is under the step tolerance or
certified, with a double-double finish for heavy weight pairs), and bisection
of the slope of the reduced axial objective.
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

__all__ = [
    "weiszfeld",
    "reduced_objective",
    "minimize_reduced",
    "stationarity_defect",
]

# step cap of the general solver (it took at most 12 steps on the general
# benchmark's inputs, seeds 11-13), how often a Newton step that does not
# lower the objective is halved before the Weiszfeld step replaces it, and
# the step length, relative to the largest edge, that ends the loop
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
    Where the float gradient's rounding could move a step by more than the
    tolerance (a heavy weight pair), the solver instead ends with Newton
    steps on a double-double gradient, so the answer is right to about
    2^-53 edge at any weight ratio.  NoConvergence is raised when the
    residual at the last point exceeds 1e-6 * sum(w).

    It runs on the vertices and the weights scaled by powers of two (exact)
    into unit range, so the Hessian stays in range at any edge length and
    any weight.  Absorbed instances short-circuit to the absorbing vertex.
    """
    label = classify(t)
    if label.floating:
        return _solve_floating(t)
    i = label.vertex
    # f(A_i) from the lengths of the vertex pairs stored at construction
    (w0, w1, w2, w3), we = t._units
    d10, d20, d21, d30, d31, d32 = t._pairs[18:]
    terms = (
        (w1 * d10, w2 * d20, w3 * d30),
        (w0 * d10, w2 * d21, w3 * d31),
        (w0 * d20, w1 * d21, w3 * d32),
        (w0 * d30, w1 * d31, w2 * d32),
    )[i]
    (objective,) = _unscaled((math.fsum(terms),), we, "objective")
    return FtSolution(t.vertices[i], objective, residual=math.nan, vertex=i)


def _solve_floating(t: WeightedTetrahedron) -> FtSolution:
    """weiszfeld on a tetrahedron already classified as floating: each step goes
    to the first x + f s, f in _TRIALS, on no vertex that lowers the objective,
    else to the Weiszfeld average.  It runs on the vertices scaled by 2^-e, exact
    in the normal range the edge bound keeps offsets and distances in, so the
    residual kernel's (w o)/d and fsum(w d) 2^e are the caller's-scale floats,
    and every step (the seed, the stop, the double-double finish) commutes
    with scaling the input by a power of two."""
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
    # the Newton finish starts from two Weiszfeld averages of the weighted mean
    # (plain sums do: only the start point depends on its last bits): on the
    # general benchmark's inputs they save 1.9 passes per solve at the cost of
    # 0.8, and a third average would save less than it costs
    mean = [
        (w0 * x0 + w1 * x1 + w2 * x2 + w3 * x3) / total_w,
        (w0 * y0 + w1 * y1 + w2 * y2 + w3 * y3) / total_w,
        (w0 * z0 + w1 * z1 + w2 * z2 + w3 * z3) / total_w,
    ]
    x = _averages(w, verts, mean)
    # the start point, as a zero step from itself (any positive distances do);
    # the mean, inside the hull, if the averages landed on a vertex
    at = _visit(w, verts, x, x, w) or _visit(w, verts, mean, mean, w)
    # _visit's gradient is off by at most 16 u sum(w), u = 2^-53 (see _visit),
    # and its Newton step by up to that over mu <= lambda_min(H).  Where that
    # exceeds stop (a heavy pair, whose nearly opposite unit vectors leave
    # w_h u of rounding), no float step is certified, a step within that
    # bound ends the float loop untaken, and the double-double finish follows
    noise = 2.0**-49 * total_w
    # the certified stop's bound on |x + s - x*| (see _certified).  It can only
    # hold if pull n^2 <= cert sum(w) / sqrt(3): its L is at least
    # (2/sqrt(3)) pull^2 / sum(w) by Cauchy-Schwarz, and mu at most
    # trace(H) / 3 = 2 pull / 3.  The looser pull n^2 <= cert sum(w) is tested
    # first; it is cheap, and fails on the early steps
    cert = 2.0**-53 * edge
    cert_w = cert * total_w
    steps, prev = 0, x
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
            if n < stop or not noisy and n * n * pull <= cert_w and _certified(w, d, n, mu * cert):
                # prev is None after this closing step, which is s
                prev, x = None, [px + sx, py + sy, pz + sz]
                steps += 1
                break
            if noisy and n * mu <= noise:
                break
            for frac in _TRIALS:
                at = _visit(w, verts, x, [px + frac * sx, py + frac * sy, pz + frac * sz], d)
                if at is not None and at[2] < 0.0:
                    break
                at = None
        if at is None:
            # the Weiszfeld average x - g / sum(w_i / d_i); one on a vertex, or
            # at x itself, would only repeat this iteration
            gx, gy, gz = g
            trial = [px - gx / pull, py - gy / pull, pz - gz / pull]
            if trial == x or (at := _visit(w, verts, x, trial, d)) is None:
                break
        prev = x
        steps += 1
    if mu * stop < noise:
        # the heavy-pair finish: Newton steps on the double-double gradient,
        # right to about u^2 sum(w), each taken in full, until one is under
        # stop.  The float Hessian's rounding only slows their quadratic
        # convergence: from where the float steps turned to noise (up to 1e-1
        # of the largest edge), 2 to 5 steps at weight ratios from 1e4 to 1e15
        while steps < MAX_ITER and (at := _visit(w, verts, x, x, d, True)) and at[4]:
            x, d, _, g, s, pull, mu = at
            sx, sy, sz = s
            prev, x = None, [x[0] + sx, x[1] + sy, x[2] + sz]
            steps += 1
            if math.hypot(sx, sy, sz) < stop:
                break
    residual, (d0, d1, d2, d3) = _residual(w, verts, x, edge)
    if residual > 1e-6 * total_w:
        last = math.hypot(*s) if prev is None else math.dist(x, prev)
        raise NoConvergence(
            f"residual {_unscaled((residual,), we, 'residual')[0]:.3e} above threshold after "
            f"{steps} step(s), the last {last / scale:.3e} long"
        )
    # f is at least w_max d_max >= 1/8 here, so 2^e alone would leave it normal
    # and exact: 2^(e + we) rounds it once, as 2^e and then 2^we do, and is
    # refused beyond the float range as the absorbed objective is.  A residual
    # under the threshold, at most 4e-6 here, stays in range
    (objective,) = _unscaled((math.fsum((w0 * d0, w1 * d1, w2 * d2, w3 * d3)),), e + we, "objective")
    return FtSolution((x[0] / scale, x[1] / scale, x[2] / scale), objective, math.ldexp(residual, we))


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
    16 u sum(w).  With exact, g is instead _gradient_dd rounded to floats,
    and the step its Newton step.  The four vertices are written out; each
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
        (gx, _), (gy, _), (gz, _) = _gradient_dd(w, verts, trial)
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


# Double-double arithmetic (Dekker, Numer. Math. 18, 1971): a value is a pair
# (hi, lo) of floats with hi = fl(hi + lo), about 106 bits.  Products split
# each factor in halves by Veltkamp's 2^27 + 1 (math.fma exists only from
# Python 3.13); the factors stay below 2^996, so no split overflows.


def _two_sum(a, b):
    """a + b as s + e exactly (Knuth's TwoSum)."""
    s = a + b
    v = s - a
    return s, (a - (s - v)) + (b - v)


def _two_prod(a, b):
    """a * b as p + e exactly (Dekker's product, in the normal range)."""
    p = a * b
    c = 134217729.0 * a  # 2^27 + 1
    ah = c - (c - a)
    al = a - ah
    c = 134217729.0 * b
    bh = c - (c - b)
    bl = b - bh
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _dd_add(a, b):
    """a + b, within 3 u^2 |a + b| even where a and b cancel (Joldes, Muller
    and Popescu, ACM TOMS 44, 2017)."""
    s, e = _two_sum(a[0], b[0])
    t, f = _two_sum(a[1], b[1])
    s, e = _two_sum(s, e + t)
    return _two_sum(s, e + f)


def _dd_mul(a, b):
    """a * b, within a few u^2 |a b|."""
    p, e = _two_prod(a[0], b[0])
    return _two_sum(p, e + (a[0] * b[1] + a[1] * b[0]))


def _dd_sqrt(a):
    """sqrt(a) for a > 0, within a few u^2 of it: one Newton correction of the
    float root, whose square's rounding error _two_prod gives exactly."""
    r = math.sqrt(a[0])
    p, e = _two_prod(r, r)
    return _two_sum(r, ((a[0] - p) - e + a[1]) / (r + r))


def _dd_div(a, b):
    """a / b, within a few u^2 of it: the float quotient q corrected by the
    remainder a - q b."""
    q = a[0] / b[0]
    p, e = _two_prod(q, b[0])
    return _two_sum(q, ((a[0] - p) - e + a[1] - q * b[1]) / b[0])


def _gradient_dd(w, verts, x):
    """The gradient sum_i w_i (x - A_i) / |x - A_i| as three double-doubles,
    each within a few u^2 sum(w), for float weights, vertices and point: the
    offsets are exact (TwoSum), and each rounding after them is relative to
    its own term, so the nearly opposite unit vectors of a heavy pair cancel
    to their u^2 rounding, not to the float gradient's u."""
    px, py, pz = x
    gx = gy = gz = (0.0, 0.0)
    for wi, (ax, ay, az) in zip(w, verts):
        ox, oy, oz = _two_sum(px, -ax), _two_sum(py, -ay), _two_sum(pz, -az)
        square = _dd_add(_dd_add(_dd_mul(ox, ox), _dd_mul(oy, oy)), _dd_mul(oz, oz))
        k = _dd_div((wi, 0.0), _dd_sqrt(square))
        gx = _dd_add(gx, _dd_mul(k, ox))
        gy = _dd_add(gy, _dd_mul(k, oy))
        gz = _dd_add(gz, _dd_mul(k, oz))
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


def stationarity_defect(inst: SymmetricInstance, y: float) -> float:
    """Slope of b1*a01(y) - b4*a04(y); negative near y = c+, positive for
    large y when b1 > b4, and zero at the signed-weight critical point."""
    return _axial_slope(inst.b1, inst.b4, y / inst.a, -1)
