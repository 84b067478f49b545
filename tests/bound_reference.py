"""References for verify_invariance's certified bound on the distance from a0
to the minimizer of the stretched tetrahedron, both on the tetrahedron's
float vertices and weights:

- ``minimizer_distance``: the distance from a point to the minimizer, found
  by Newton's method at 80 digits from that point;
- ``rigorous_bound``: the bound's formula (see numeric._position_bound) at
  the point in mpmath.iv interval arithmetic, with no rounding to bound:
  the exact gradient g and Hessian H at the point, its Newton step
  s = -H^-1 g, L = (8/sqrt(3)) sum_i w_i / d_i^2, and for a set of kept
  vertices mu = det / trace(adj) <= lambda_min of their Hessian terms,
  R = 2 (|s| + L |s|^2 / mu), the part L_kept of L over the kept vertices,
  and m = mu - L_kept R; the bound is |s| + L |s|^2 / (2 m), as an
  interval.

The float bound must lie above the interval, and the 80-digit distance
below the float bound.
"""

from mpmath import iv, mp, mpf


def _terms(ctx, vertices, weights, x):
    """The distances, the gradient and the Hessian of the weighted distance
    sum at x, in the number type of ctx (mp or iv)."""
    grad = [ctx.mpf(0)] * 3
    hess = [[ctx.mpf(0)] * 3 for _ in range(3)]
    dists = []
    for v, w in zip(vertices, weights):
        o = [ctx.mpf(c) - ctx.mpf(a) for c, a in zip(x, v)]
        d = ctx.sqrt(o[0] * o[0] + o[1] * o[1] + o[2] * o[2])
        u = [c / d for c in o]
        k = ctx.mpf(w) / d
        dists.append(d)
        for a in range(3):
            grad[a] += ctx.mpf(w) * u[a]
            for b in range(3):
                hess[a][b] += k * ((1 if a == b else 0) - u[a] * u[b])
    return dists, grad, hess


def _adjugate(h):
    """The adjugate and the determinant of the symmetric 3 x 3 matrix h."""
    (a, b, c), (_, d, e), (_, _, f) = h
    adj = [[d * f - e * e, c * e - b * f, b * e - c * d],
           [c * e - b * f, a * f - c * c, b * c - a * e],
           [b * e - c * d, b * c - a * e, a * d - b * b]]
    return adj, a * adj[0][0] + b * adj[0][1] + c * adj[0][2]


def minimizer_distance(t, x):
    """The distance from x to the minimizer of the tetrahedron t, as an mpf:
    Newton steps at 80 digits from x until a step is under 1e-50 of the
    largest edge (the Hessian's condition number, up to 1e15 on a heavy
    pair, costs that many digits of each step)."""
    with mp.workdps(80):
        p = [mpf(c) for c in x]
        tol = mpf(10) ** -50 * t.max_edge()
        for _ in range(50):
            _, g, h = _terms(mp, t.vertices, t.weights, p)
            adj, det = _adjugate(h)
            s = [-sum(adj[a][b] * g[b] for b in range(3)) / det for a in range(3)]
            p = [c + sc for c, sc in zip(p, s)]
            if mp.sqrt(sum(c * c for c in s)) <= tol:
                return mp.sqrt(sum((c - mpf(xc)) ** 2 for c, xc in zip(p, x)))
    raise ArithmeticError("the 80-digit Newton iteration did not converge")


def rigorous_bound(t, x, prec=200):
    """The bound at the float point x on the tetrahedron t (see the module
    docstring), as an mpmath.iv interval at prec bits, on the first kept
    vertex set on which the ball can be formed, as the float bound takes
    them: all four, then without the one and the two of largest w_i / d_i^2;
    ArithmeticError where it cannot be formed on any."""
    old = iv.prec
    iv.prec = prec
    try:
        d, g, h = _terms(iv, t.vertices, t.weights, x)
        adj, det = _adjugate(h)
        s = [-sum(adj[a][b] * g[b] for b in range(3)) / det for a in range(3)]
        n = iv.sqrt(s[0] * s[0] + s[1] * s[1] + s[2] * s[2])
        w = [iv.mpf(wi) for wi in t.weights]
        rates = [wi / di**2 for wi, di in zip(w, d)]
        lip = 8 / iv.sqrt(3) * sum(rates)
        order = sorted(range(4), key=lambda i: rates[i].a, reverse=True)
        for dropped in range(3):
            keep = order[dropped:]
            kept_h = _terms(iv, [t.vertices[i] for i in keep], [t.weights[i] for i in keep], x)[2] if dropped else h
            kept_adj, kept_det = _adjugate(kept_h)
            mu = kept_det / (kept_adj[0][0] + kept_adj[1][1] + kept_adj[2][2])
            if not mu > 0:
                continue
            r = 2 * (n + lip * n * n / mu)
            lip_kept = 8 / iv.sqrt(3) * sum(rates[i] for i in keep)
            if r <= min(d, key=lambda di: di.a) / 2 and lip_kept * r <= mu / 2:
                return n + lip * n * n / (2 * (mu - lip_kept * r))
        raise ArithmeticError("the ball cannot be formed on any kept vertex set")
    finally:
        iv.prec = old
