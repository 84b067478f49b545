import collections
import decimal
import math

import numpy as np
import pytest
from mpmath import mp, mpf

from ftsolve import (
    FtSolveError,
    NoConvergence,
    OutOfDomain,
    SymmetricInstance,
    WeightedTetrahedron,
    classify,
    complementary_axial,
    embed_regular,
    equilibrium_residual,
    ft_axial,
    minimize_reduced,
    objective,
    reduced_objective,
    solve_symmetric,
    weiszfeld,
)
from ftsolve import analytic, numeric

REF = SymmetricInstance(a=1.0, b1=2.5, b4=1.0)
Y_REF = 0.1983575549931425
YP_REF = 0.5397907128397039


def regular_tet(weights, a=1.0):
    return WeightedTetrahedron(embed_regular(a), weights)


def test_solutions_hold_plain_tuple_points():
    floating = weiszfeld(REF.tetrahedron())
    absorbed = weiszfeld(regular_tet([1.0, 1.0, 1.0, 3.0]))
    assert (floating.case, absorbed.case) == ("floating", "absorbed")
    for sol in (solve_symmetric(REF), floating, absorbed):
        assert type(sol.point) is tuple and len(sol.point) == 3
        assert all(type(v) is float for v in sol.point)


def test_weiszfeld_symmetric_center():
    sol = weiszfeld(regular_tet([1.0, 1.0, 1.0, 1.0]))
    assert np.linalg.norm(sol.point) < 1e-9
    assert sol.case == "floating"


def test_weiszfeld_reference_instance():
    sol = weiszfeld(REF.tetrahedron())
    assert abs(sol.point[2] - 0.198358) < 1e-6
    assert np.linalg.norm(sol.point[:2]) < 1e-9


def test_weiszfeld_absorbed_short_circuit():
    t = regular_tet([1.0, 1.0, 1.0, 3.0])
    sol = weiszfeld(t)
    assert sol.case == "absorbed"
    assert sol.vertex == 3
    assert np.array_equal(sol.point, t.vertices[3])


def test_weiszfeld_descent():
    t = regular_tet([2.5, 2.5, 1.0, 1.0])
    x = np.average(t.vertices, axis=0, weights=t.weights)
    prev = objective(t.vertices, t.weights, x)
    for _ in range(200):
        d = np.linalg.norm(t.vertices - x, axis=1)
        inv = t.weights / d
        x = (t.vertices * inv[:, None]).sum(axis=0) / inv.sum()
        cur = objective(t.vertices, t.weights, x)
        assert cur <= prev + 1e-14
        prev = cur


def test_weiszfeld_off_axis_starts_agree():
    # uniqueness: perturbed-vertex starts all land on the same point
    rng = np.random.default_rng(12)
    t = regular_tet([2.0, 1.3, 1.1, 0.7])
    reference = weiszfeld(t).point

    # rerun the iteration by hand from each perturbed vertex
    def iterate(x0):
        x = x0.copy()
        for _ in range(20000):
            d = np.linalg.norm(t.vertices - x, axis=1)
            if np.any(d < 1e-13):
                x = x + 1e-9
                d = np.linalg.norm(t.vertices - x, axis=1)
            inv = t.weights / d
            x_new = (t.vertices * inv[:, None]).sum(axis=0) / inv.sum()
            if np.linalg.norm(x_new - x) < 1e-13:
                return x_new
            x = x_new
        return x

    for v in t.vertices:
        start = v + rng.normal(scale=1e-3, size=3)
        assert np.linalg.norm(iterate(start) - reference) < 1e-6


def test_reduced_objective_values():
    assert reduced_objective(REF, Y_REF) == pytest.approx(2.053549, abs=1e-5)
    inst = SymmetricInstance(a=1.0, b1=1.0, b4=1.0)
    assert reduced_objective(inst, 0.0) == pytest.approx(
        2.0 * math.sqrt(0.375), abs=1e-12
    )


def test_reduced_objective_signed_stationary():
    # central difference of the signed objective at the exterior point
    h = 1e-6
    deriv = (
        reduced_objective(REF, YP_REF + h, sign4=-1)
        - reduced_objective(REF, YP_REF - h, sign4=-1)
    ) / (2.0 * h)
    assert abs(deriv) < 1e-5


def test_reduced_objective_rejects_bad_sign():
    with pytest.raises(ValueError):
        reduced_objective(REF, 0.0, sign4=0)


@pytest.mark.parametrize("sign4", [1, -1])
@pytest.mark.parametrize("y", [math.nan, math.inf, -math.inf])
def test_reduced_objective_refuses_a_non_finite_y(y, sign4):
    # each raised FtSolveError("the objective exceeds the float range"), as
    # where a finite y's objective overflows
    with pytest.raises(ValueError, match="^the axial coordinate must be finite"):
        reduced_objective(REF, y, sign4)


@pytest.mark.parametrize("sign4", [1, -1])
def test_reduced_objective_out_of_float_range_is_a_solver_error(sign4):
    # it returned inf where solve_symmetric raises
    inst = SymmetricInstance(4.034765434510795e118, 5.477970488350911e207, 6.52484807605555)
    with pytest.raises(FtSolveError, match="^the objective exceeds the float range"):
        solve_symmetric(inst)
    with pytest.raises(FtSolveError, match="^the objective exceeds the float range$"):
        reduced_objective(inst, ft_axial(inst), sign4)


def test_minimize_reduced_reference():
    assert minimize_reduced(REF) == pytest.approx(0.198358, abs=1e-6)


def test_minimize_reduced_equal_weights():
    inst = SymmetricInstance(a=1.0, b1=1.7, b4=1.7)
    assert abs(minimize_reduced(inst)) < 1e-9


def test_minimize_reduced_mirror():
    inst = SymmetricInstance(a=1.0, b1=1.0, b4=2.5)
    assert minimize_reduced(inst) == pytest.approx(-0.198358, abs=1e-6)


def test_minimize_reduced_ends_at_subnormal_edges():
    # 1e-14 * a underflows to 0 here; the bisection stops once the bracket
    # can no longer be halved instead of looping forever
    inst = SymmetricInstance(a=1e-320, b1=2.5, b4=1.0)
    assert 0.0 < minimize_reduced(inst) < inst.c


def test_reduced_objective_convexity_grid():
    # empirical second differences stay positive on the bracket
    rng = np.random.default_rng(9)
    for _ in range(50):
        b1, b4 = rng.uniform(0.2, 5.0, size=2)
        inst = SymmetricInstance(a=1.0, b1=b1, b4=b4)
        ys = np.linspace(-inst.c, inst.c, 201)
        vals = np.array([reduced_objective(inst, y) for y in ys])
        second = np.diff(vals, 2)
        assert np.all(second > -1e-12)


def test_oracle_triangle_random():
    rng = np.random.default_rng(10)
    for _ in range(200):
        a = rng.uniform(0.1, 10.0)
        b4 = rng.uniform(0.2, 5.0)
        ratio = max(rng.uniform(1.0, 20.0), 1.001)
        inst = SymmetricInstance(a=a, b1=ratio * b4, b4=b4)
        y_closed = ft_axial(inst)
        y_bisect = minimize_reduced(inst)
        sol = weiszfeld(inst.tetrahedron())
        y_weis = sol.point[2]
        assert abs(y_weis - y_bisect) < 1e-6 * a
        assert abs(y_closed - y_weis) < 1e-6 * a
        assert abs(y_closed - y_bisect) < 1e-6 * a


def test_weiszfeld_residual_threshold():
    rng = np.random.default_rng(13)
    for _ in range(50):
        w = rng.uniform(0.5, 2.0, size=4)
        t = regular_tet(w)
        if not classify(t).floating:
            continue
        sol = weiszfeld(t)
        assert equilibrium_residual(t, sol.point) < 1e-6 * np.sum(w)


def test_no_convergence_reports_the_steps_taken(monkeypatch):
    # the message used to name the iteration cap whatever the loop did
    monkeypatch.setattr(numeric, "MAX_ITER", 1)
    with pytest.raises(NoConvergence, match=r"after 1 step\(s\), the last \d\.\d{3}e[-+]\d+ long"):
        weiszfeld(regular_tet([2.0, 1.3, 1.1, 0.7]))


def objective50(t, x):
    with mp.workdps(50):
        return sum(
            mpf(w) * mp.sqrt(sum((mpf(p) - mpf(q)) ** 2 for p, q in zip(v, x)))
            for v, w in zip(t.vertices, t.weights)
        )


@pytest.mark.parametrize("k", range(1, 10))
def test_weiszfeld_next_to_the_sqrt6_boundary(k):
    # weights (1, 1, 1, sqrt(6) - eps) float, with the minimizer about eps*a
    # from A4; the plain Weiszfeld iteration raised NoConvergence for k >= 3
    t = regular_tet([1.0, 1.0, 1.0, math.sqrt(6.0) - 10.0**-k])
    sol = weiszfeld(t)
    assert sol.case == "floating"
    # f(A4) - f(minimizer) is about eps^2/4, under one ulp of f for k >= 8,
    # so both objectives are evaluated in 50 digits
    assert objective50(t, sol.point) < objective50(t, t.vertices[3])
    if k <= 6:
        assert equilibrium_residual(t, sol.point) <= 1e-9 * np.sum(t.weights)


def test_weiszfeld_precision_on_jittered_tetrahedra():
    # the plain Weiszfeld iteration reached 1.8e-10 * sum(w) on these draws
    rng = np.random.default_rng(2024)
    base = embed_regular(1.0)
    solved = 0
    while solved < 200:
        t = WeightedTetrahedron(
            base + rng.uniform(-0.3, 0.3, size=(4, 3)),
            np.exp(rng.uniform(math.log(0.2), math.log(5.0), size=4)),
        )
        if not classify(t).floating:
            continue
        sol = weiszfeld(t)
        assert equilibrium_residual(t, sol.point) <= 1e-12 * np.sum(t.weights)
        solved += 1


def test_newton_passes_per_solve_within_budget(monkeypatch):
    # the draws of test_weiszfeld_precision_on_jittered_tetrahedra: from the
    # weighted mean with a confirming pass after the last step, the solver
    # made 6.28 passes per solve on them; from two over-relaxed Weiszfeld
    # averages and with the certified stop, 4.69
    visit = numeric._visit
    calls = []

    def counted(*args):
        calls.append(None)
        return visit(*args)

    monkeypatch.setattr(numeric, "_visit", counted)
    rng = np.random.default_rng(2024)
    base = embed_regular(1.0)
    solved = 0
    while solved < 200:
        t = WeightedTetrahedron(
            base + rng.uniform(-0.3, 0.3, size=(4, 3)),
            np.exp(rng.uniform(math.log(0.2), math.log(5.0), size=4)),
        )
        if not classify(t).floating:
            continue
        weiszfeld(t)
        solved += 1
    assert len(calls) / solved <= 4.8


@pytest.mark.parametrize("k", [-490, -60, 90, 490])
def test_weiszfeld_commutes_with_power_of_two_scaling(k):
    # the solve runs on vertices scaled by a power of two into unit range,
    # so scaling the input by 2^k scales the point by exactly 2^k; at edge
    # 1e-102 the Hessian determinant overflowed, and at 1e110 the
    # coplanarity test raised OverflowError
    rng = np.random.default_rng(31)
    base = embed_regular(1.0)
    for _ in range(30):
        t = WeightedTetrahedron(
            base + rng.uniform(-0.25, 0.25, size=(4, 3)),
            np.exp(rng.uniform(math.log(0.2), math.log(5.0), size=4)),
        )
        scaled = WeightedTetrahedron(
            [[math.ldexp(c, k) for c in p] for p in t.vertices], t.weights
        )
        assert classify(scaled) == classify(t)
        sol, ref = weiszfeld(scaled), weiszfeld(t)
        assert (sol.case, sol.vertex) == (ref.case, ref.vertex)
        assert sol.point == tuple(math.ldexp(c, k) for c in ref.point)


@pytest.mark.parametrize("k", [0, -400, 400])
def test_solution_objective_and_residual_are_those_of_the_point(k):
    # the finish computes the residual and the objective from one pass over
    # the vertices, and an absorbed objective comes from the stored pairs;
    # both must equal the public functions at the returned point bit for bit
    rng = np.random.default_rng(47)
    base = embed_regular(1.0)
    seen = {"floating": 0, "absorbed": 0}
    while min(seen.values()) < 40:
        t = WeightedTetrahedron(
            [[math.ldexp(c, k) for c in p] for p in base + rng.uniform(-0.3, 0.3, size=(4, 3))],
            np.exp(rng.uniform(math.log(0.2), math.log(5.0), size=4)),
        )
        sol = weiszfeld(t)
        seen[sol.case] += 1
        assert sol.objective == objective(t.vertices, t.weights, sol.point)
        if sol.case == "floating":
            assert sol.residual == equilibrium_residual(t, sol.point)
        else:
            assert sol.point == t.vertices[sol.vertex] and math.isnan(sol.residual)


@pytest.mark.parametrize("k", [0, -400, 400])
@pytest.mark.parametrize("heavy", range(4))
def test_absorbed_objective_at_each_vertex_is_that_of_the_point(heavy, k):
    # the absorbed objective reads the pair lengths stored once at
    # construction, written out per vertex; with each vertex made heavy in
    # turn, vertices and weights scaled by 2^k, it must equal objective()
    # at the vertex bit for bit
    rng = np.random.default_rng(59 + heavy)
    base = embed_regular(1.0)
    for _ in range(10):
        w = np.exp(rng.uniform(math.log(0.2), math.log(5.0), size=4))
        w[heavy] = rng.uniform(1.0, 3.0) * (w.sum() - w[heavy])  # beyond any pull of the others
        t = WeightedTetrahedron(
            [[math.ldexp(c, k) for c in p] for p in base + rng.uniform(-0.3, 0.3, size=(4, 3))],
            [math.ldexp(wi, k) for wi in w],
        )
        sol = weiszfeld(t)
        assert sol.vertex == heavy and sol.point == t.vertices[heavy]
        assert sol.objective == objective(t.vertices, t.weights, sol.point)


def test_newton_step_onto_a_vertex_falls_back(monkeypatch):
    # A1 is the origin.  The weights (1.6, 1, 1, 1) float (the margin at A1 is
    # sqrt(3) - 1.6), and f(A1) = 3 is below f = 3.12 at the weighted mean, so
    # a first Newton step onto A1 would lower f.  It must be refused, not
    # divided by its zero distance.
    t = WeightedTetrahedron(
        [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
        [1.6, 1.0, 1.0, 1.0],
    )
    visit = numeric._visit
    calls = []

    def onto_first_vertex(w, verts, x, trial, d, exact=False):
        # the pass at the start point proposes the first Newton step, here
        # the step from the start point onto A1
        at = visit(w, verts, x, trial, d, exact)
        calls.append((list(trial), at))
        if len(calls) == 1:
            trial, td, change, g, s, pull, mu = at
            at = trial, td, change, g, tuple(-c for c in trial), pull, mu
        return at

    monkeypatch.setattr(numeric, "_visit", onto_first_vertex)
    sol = weiszfeld(t)
    # the patched proposal ran, and its trial, A1 itself, was refused
    assert calls[0][1] is not None and calls[1] == ([0.0, 0.0, 0.0], None)
    assert sol.case == "floating" and all(0.0 not in at[1] for _, at in calls if at)
    assert equilibrium_residual(t, sol.point) <= 1e-12 * np.sum(t.weights)


@pytest.mark.parametrize("average", ["at_x", "on_a_vertex"])
def test_weiszfeld_average_that_would_repeat_the_iteration_ends_the_loop(monkeypatch, average):
    # The fallback's average at x itself, or on a vertex, would only repeat
    # the iteration.  No input is known to reach either, so the last pass of
    # a solve (its step within rounding of the minimizer) is patched to have
    # no Newton step and an average at x (g = 0), or on A1, the origin
    # (g = x, pull = 1, and x - x is exactly 0).  The loop must end at that
    # pass's point, after no pass or the one refused on A1.
    t = WeightedTetrahedron(
        [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
        [1.1, 0.7, 2.0, 1.3],
    )
    visit = numeric._visit
    calls = []

    def recorded(*args):
        at = visit(*args)
        calls.append((list(args[3]), at))
        return at

    monkeypatch.setattr(numeric, "_visit", recorded)
    weiszfeld(t)
    last = len(calls)
    calls.clear()

    def patched(*args):
        at = recorded(*args)
        if len(calls) == last:
            trial, td, change, g, s, pull, mu = at
            g, pull = ((0.0, 0.0, 0.0), pull) if average == "at_x" else (tuple(trial), 1.0)
            at = trial, td, change, g, None, pull, mu
        return at

    monkeypatch.setattr(numeric, "_visit", patched)
    sol = weiszfeld(t)
    trials = [trial for trial, _ in calls[last:]]
    assert trials == ([] if average == "at_x" else [[0.0, 0.0, 0.0]])
    assert calls[last:] == [] or calls[last][1] is None
    e = math.frexp(t.max_edge())[1]
    assert sol.point == tuple(math.ldexp(c, e) for c in calls[last - 1][0])
    assert equilibrium_residual(t, sol.point) <= 1e-6 * np.sum(t.weights)


@pytest.mark.parametrize("reach", [1.0, 1.5])
@pytest.mark.parametrize("i", range(4))
def test_certified_is_false_once_twice_the_step_reaches_a_vertex(i, reach):
    # the Lipschitz bound holds only where every |x - A_i| > d_i - 2n > 0, so
    # a step n with 2n at or past the nearest vertex is never certified, even
    # for an infinite bound; just short of it, that bound certifies it
    w = (1.1, 0.7, 2.0, 1.3)
    d = [2.0, 3.0, 4.0, 5.0]
    d[i] = 0.5
    assert numeric._certified(w, d, 0.49 / 2.0, math.inf)
    assert not numeric._certified(w, d, reach * 0.5 / 2.0, math.inf)


@pytest.mark.parametrize("i", range(4))
def test_averages_started_on_a_vertex_return_that_point(i):
    # a Weiszfeld average divides by each distance, so on a vertex it is
    # skipped and the start point comes back unchanged
    verts = [(0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.25, 1.0, 0.0), (0.5, 0.375, 1.0)]
    assert numeric._averages((1.1, 0.7, 2.0, 1.3), verts, list(verts[i])) == list(verts[i])


@pytest.mark.parametrize("k", [3, 6, 9, 12])
@pytest.mark.parametrize("a", [1e-3, 1.0, 1e3])
@pytest.mark.parametrize("heavy", ["b1", "b4"])
def test_stationarity_defect_is_relative_to_the_weight_difference(k, a, heavy, scale=1.0):
    # the plain slope at the caller's scale reached 1.1e-4 * |b1 - b4| at
    # k = 12, a = 1e3
    ratio = 1.0 + 10.0**-k
    b1, b4 = (ratio * scale, scale) if heavy == "b1" else (scale, ratio * scale)
    inst = SymmetricInstance(a=a, b1=b1, b4=b4)
    defect = analytic.stationarity_defect(inst, complementary_axial(inst))
    assert abs(defect) <= 1e-15 * abs(b1 - b4)


@pytest.mark.parametrize("k", [3, 6, 9, 12])
@pytest.mark.parametrize("a", [1e-3, 1.0, 1e3])
@pytest.mark.parametrize("heavy", ["b1", "b4"])
def test_stationarity_defect_near_the_top_of_the_float_range(k, a, heavy):
    # the same grid at weights scaled by 2^1020: b4 c y overflowed before
    # its division, and 18 of the 24 cases read -inf
    test_stationarity_defect_is_relative_to_the_weight_difference(k, a, heavy, 2.0**1020)


def test_stationarity_defect_beyond_the_float_range_is_a_solver_error():
    # -(b1 + b4) / sqrt(3) at the midpoint; it read -inf
    inst = SymmetricInstance(a=1.0, b1=1.7e308, b4=1.7e308)
    with pytest.raises(FtSolveError, match="^the stationarity defect exceeds the float range$"):
        analytic.stationarity_defect(inst, 0.0)


def test_stationarity_defect_at_the_midpoint():
    # the rationalized form of the signed slope is 0/0 at y = 0; there the
    # slope is -(b1 + b4) c / a01 = -(b1 + b4) / sqrt(3)
    defect = analytic.stationarity_defect(REF, 0.0)
    assert defect == pytest.approx(-(REF.b1 + REF.b4) / math.sqrt(3), rel=1e-15)


@pytest.mark.parametrize("y", [math.inf, -math.inf, math.nan])
def test_stationarity_defect_refuses_a_non_finite_y(y):
    # it returned nan, where angles_at refuses y and reduced_objective raises
    with pytest.raises(ValueError, match="^the axial coordinate must be finite"):
        analytic.stationarity_defect(SymmetricInstance(1.0, 2.0, 1.0), y)


@pytest.mark.parametrize("y", [1e308, -1e308])
def test_stationarity_defect_refuses_y_beyond_2_to_the_1024_edges(y):
    # y / a overflowed and the slope read nan; angles_at refuses it the same way
    with pytest.raises(OutOfDomain, match="^the axial point y = .* edge lengths away$"):
        analytic.stationarity_defect(SymmetricInstance(1e-10, 2.0, 1.0), y)


@pytest.mark.parametrize("w0", [(1.1, 0.7, 2.0, 1.3), (5.0, 1.0, 1.0, 1.0)], ids=["floating", "absorbed"])
def test_weights_at_any_scale(w0):
    # the pulls square sum_j w_j u_j and the Newton step's determinant is
    # cubic in w: with the weights scaled by 2^k, classify's margins were
    # exact only for k in [-512, 510], and weiszfeld returned another point,
    # raised NoConvergence or a bare OverflowError outside about [-341, 337].
    # The weights are scaled by a power of two into [0.5, 1), so every
    # answer at 2^k w0 is the answer at w0, its values scaled by 2^k
    def answers(weights):
        t = regular_tet(weights)
        label, sol = classify(t), weiszfeld(t)
        values = (*label.margins, sol.objective)
        if sol.case == "floating":
            values += (sol.residual, equilibrium_residual(t, sol.point))
        return (label.vertex, sol.vertex, sol.case, sol.point), values

    key0, values0 = answers(w0)
    assert key0[2] == ("floating" if w0[0] == 1.1 else "absorbed")
    for k in range(-1020, 1021, 3):
        key, values = answers([math.ldexp(w, k) for w in w0])
        assert key == key0
        for got, ref in zip(values, values0, strict=True):
            if abs(math.ldexp(ref, k)) >= 2.0**-1022:  # normal floats
                assert got == math.ldexp(ref, k)


def per_vertex_visit(w, verts, x, trial, d):
    """The Newton pass as the loop over the vertices that _visit ran before
    it was written out for four: every sum from 0.0, in vertex order, and
    mu = det / (cxx + cyy + czz) (0.0 where H is singular)."""
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
        return trial, td, change, g, None, pull, 0.0
    cyy = hxx * hzz - hxz * hxz
    cyz = hxy * hxz - hxx * hyz
    czz = hxx * hyy - hxy * hxy
    s = (
        -(cxx * gx + cxy * gy + cxz * gz) / det,
        -(cxy * gx + cyy * gy + cyz * gz) / det,
        -(cxz * gx + cyz * gy + czz * gz) / det,
    )
    mu = det / (cxx + cyy + czz)
    return trial, td, change, g, s if math.isfinite(s[0] + s[1] + s[2]) else None, pull, mu


def float_bits(value):
    """value with every float replaced by its hex form, so that -0.0 and 0.0
    differ; lists and tuples keep their type."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, (list, tuple)):
        return type(value)(float_bits(v) for v in value)
    return value


def test_newton_pass_equals_the_per_vertex_loop():
    # _visit is written out for the four vertices with each sum in the
    # loop's order, so every returned float must match bit for bit, signed
    # zeros included; trials on a vertex return None and collinear points a
    # singular Hessian (no step).  Points and weights are scaled by 2^k.
    rng = np.random.default_rng(20)
    kinds = collections.Counter()
    for n in range(1500):
        k = (0, 400, -400)[n % 3]
        verts = [tuple(math.ldexp(c, k) for c in p) for p in rng.uniform(-1.0, 1.0, size=(4, 3))]
        w = [math.ldexp(c, k) for c in np.exp(rng.uniform(-2.0, 0.0, size=4))]
        x = [math.ldexp(c, k) for c in rng.uniform(-1.0, 1.0, size=3)]
        trial = [c + math.ldexp(s, k) for c, s in zip(x, rng.normal(scale=0.1, size=3))]
        if n % 20 == 7:  # the vertices and both points on the x axis
            verts = [(v[0], 0.0, 0.0) for v in verts]
            x[1:], trial[1:] = [0.0, 0.0], [0.0, -0.0]
        elif n % 10 == 3:
            trial = list(verts[n % 4])
        elif n % 10 == 5:  # the start point: a zero step, the weights as distances
            trial = x
        d = w if trial is x else [math.dist(x, v) for v in verts]
        expected = per_vertex_visit(w, verts, x, trial, d)
        assert float_bits(numeric._visit(w, verts, x, trial, d)) == float_bits(expected)
        kinds[k, "on_vertex" if expected is None else "singular" if expected[4] is None else "step"] += 1
    assert len(kinds) == 9 and min(kinds.values()) >= 10


def test_floating_objective_beyond_the_float_range_is_a_solver_error():
    # it floats, and the scaled-back objective overflows; the refusal is the
    # absorbed objective's
    c = 2.0**400
    t = WeightedTetrahedron(
        [[0.0, 0.0, 0.0], [c, 0.0, 0.0], [0.0, c, 0.0], [0.0, 0.0, c]],
        [1e300, 0.7e300, 2e300, 1.3e300],
    )
    assert classify(t).floating
    with pytest.raises(FtSolveError, match="^the objective exceeds the float range$"):
        weiszfeld(t)


def gradient50(w, verts, x):
    with mp.workdps(50):
        g = [mpf(0)] * 3
        for wi, v in zip(w, verts):
            o = [mpf(p) - mpf(q) for p, q in zip(x, v)]
            d = mp.sqrt(sum(c * c for c in o))
            g = [gk + mpf(wi) * c / d for gk, c in zip(g, o)]
        return g


@pytest.mark.parametrize("k", [0, -400, 400])
def test_gradient_wide_within_u2_of_50_digits(k):
    # every other draw puts x within 1e-9 of the midpoint of A2A3, whose
    # weights are 1e12 times the others: there the float gradient's heavy
    # unit vectors cancel to about u w_h, and the 34-digit ones to about
    # u^2 / 25.  The docstring's bound is u^2 sum(w) / 2; over 1,800 draws of
    # this generator (seeds 0 to 9) the worst error is 0.069 u^2 sum(w), and
    # the double-double kernel this replaced reached 2.0 u^2 sum(w)
    rng = np.random.default_rng(83)
    u2 = 2.0**-106
    for n in range(60):
        verts = [tuple(math.ldexp(c, k) for c in p) for p in rng.uniform(-1.0, 1.0, size=(4, 3))]
        w = [float(c) for c in np.exp(rng.uniform(-2.0, 0.0, size=4))]
        if n % 2:
            w[0], w[1], w[2], w[3] = w[0] * 1e-12, w[1] * 1e-12, 1.0, 1.0
            mid = [(p + q) / 2.0 for p, q in zip(verts[2], verts[3])]
            x = [c + math.ldexp(o, k) for c, o in zip(mid, rng.normal(scale=1e-9, size=3))]
        else:
            x = [math.ldexp(c, k) for c in rng.uniform(-1.0, 1.0, size=3)]
        g = numeric._gradient_wide(w, verts, x)
        with mp.workdps(50):
            for gk, ref in zip(g, gradient50(w, verts, x)):
                assert abs(mpf(str(gk)) - ref) <= u2 * sum(w)


def test_heavy_pair_finish_ignores_decimal_traps(monkeypatch):
    # a new decimal Context copies what it does not set from DefaultContext:
    # with Inexact trapped there, the finish raised decimal.Inexact
    inst = SymmetricInstance(a=0.18324062329160828, b1=2.8592731359453207, b4=115062469.94217965)
    t = inst.tetrahedron()
    point = weiszfeld(t).point
    monkeypatch.setitem(decimal.DefaultContext.traps, decimal.Inexact, True)
    assert weiszfeld(t).point == point


@pytest.mark.parametrize("k", [-400, 400])
def test_heavy_pair_finish_commutes_with_power_of_two_scaling(monkeypatch, k):
    # the decimal finish runs in the scaled frame too: at b4/b1 = 4e7
    # the answer at 2^k times the vertices is 2^k times the answer
    inst = SymmetricInstance(a=0.18324062329160828, b1=2.8592731359453207, b4=115062469.94217965)
    t = inst.tetrahedron()
    scaled = WeightedTetrahedron([[math.ldexp(c, k) for c in p] for p in t.vertices], t.weights)
    visit = numeric._visit
    exact = []

    def recorded(*args):
        exact.append(args[5:] == (True,))
        return visit(*args)

    monkeypatch.setattr(numeric, "_visit", recorded)
    assert weiszfeld(scaled).point == tuple(math.ldexp(c, k) for c in weiszfeld(t).point)
    assert exact.count(True) >= 4  # two finishing passes or more per solve
