import math
import random

import numpy as np
import pytest
from bound_reference import minimizer_distance, rigorous_bound
from mpmath import mp, mpf
from test_axial_brackets import EDGES, RATIOS
from test_general_floats import heavy_draws, ray_stretch_draws
from workloads import invariance_instance

from ftsolve import (
    CoincidentPoints,
    DegenerateTriangle,
    DihedralData,
    FloatingViolated,
    FtSolveError,
    OutOfDomain,
    PlasticityInstance,
    SymmetricInstance,
    WeightedTetrahedron,
    classify,
    dihedral_alpha,
    dihedral_angle,
    embed_regular,
    equilibrium_residual,
    height_012,
    measure_dihedral_data,
    predict_a04p,
    solve_symmetric,
    stretch,
    verify_invariance,
    vertex_angle,
    weiszfeld,
)
from ftsolve import numeric
from ftsolve.plasticity import CLAMP_SLACK

REF = SymmetricInstance(a=1.0, b1=2.5, b4=1.0)


@pytest.fixture(scope="module")
def ref_setup():
    sol = solve_symmetric(REF)
    return REF.tetrahedron(), sol.point


def make_instance(base, a0, lambdas):
    return PlasticityInstance(base=base, a0=a0, lambdas=np.asarray(lambdas, float))


def warm_and_cold(base, a0, lambdas):
    """How far the minimizer of the stretched tetrahedron lies from a0: at
    most verify_invariance's certified bound, formed in one pass at a0, and
    as a cold weiszfeld of it finds it, from the averages of the weighted
    mean, with the step halvings and the decimal finish's trials."""
    p = make_instance(base, a0, lambdas)
    return verify_invariance(p), math.dist(weiszfeld(stretch(p)).point, a0)


def assert_certified(p):
    """verify_invariance's bound contains the 80-digit distance from a0 to
    the minimizer of the stretched tetrahedron, and is at most 2^-44 of its
    largest edge (the float gradient's rounding, 16 u sum(w) over the
    Hessian's least eigenvalue, dominates it); returns the bound."""
    t = stretch(p)
    bound = verify_invariance(p)
    assert minimizer_distance(t, p.a0) <= bound
    assert bound <= 2**-44 * t.max_edge()
    return bound


def test_height_isoceles_reference(ref_setup):
    # at the reference solution a01 = a02 and the height is |c - y|
    _, a0 = ref_setup
    a01 = float(np.linalg.norm(a0 - np.asarray(REF.tetrahedron().vertices)[0]))
    h = height_012(a01, a01, 1.0)
    assert h == pytest.approx(math.sqrt(a01**2 - 0.25), rel=1e-12)
    assert h == pytest.approx(0.155196, abs=1e-5)
    c = math.sqrt(2.0) / 4.0
    assert h == pytest.approx(c - a0[2], abs=1e-9)


def test_height_right_triangle():
    assert height_012(3.0, 4.0, 5.0) == pytest.approx(2.4, abs=1e-12)


def cli_construction(b1, b4):
    """The sides and angles the plasticity subcommand measures at a = 1 and
    lambda = (1.5, 1.2, 0.8, 2.0)."""
    inst = SymmetricInstance(1.0, b1, b4)
    sol = solve_symmetric(inst)
    v = stretch(PlasticityInstance(inst.tetrahedron(), sol.point, (1.5, 1.2, 0.8, 2.0))).vertices
    return measure_dihedral_data(sol.point, *v)


def heron_radicand(d):
    """The paper's radicand 4 a01^2 a02^2 - (a01^2 + a02^2 - a12^2)^2 on the
    float sides, at mpmath's working precision."""
    a01, a02, a12 = mpf(d.a01), mpf(d.a02), mpf(d.a12)
    return 4 * a01**2 * a02**2 - (a01**2 + a02**2 - a12**2) ** 2


WEIGHT_PAIRS = {f"b1/b4=1e{k}": (10.0**k, 1.0) for k in range(1, 8)}
WEIGHT_PAIRS.update({f"b4/b1=1e{k}": (1.0, 10.0**k) for k in range(1, 8)})


@pytest.mark.parametrize("b1, b4", WEIGHT_PAIRS.values(), ids=WEIGHT_PAIRS.keys())
def test_height_matches_50_digit_heron_on_the_same_sides(b1, b4):
    # the expanded radicand cancelled for a heavy b1 pair (a needle-like
    # triangle): relative error 1.7e-13 at b1/b4 = 1e2, 6.1e-9 at 1e4 and
    # 3.6e-3 at 1e7
    d = cli_construction(b1, b4)
    with mp.workdps(50):
        exact = mp.sqrt(heron_radicand(d)) / (2 * mpf(d.a12))
        assert abs(height_012(d.a01, d.a02, d.a12) - exact) <= 4.4e-16 * exact


def test_height_past_b1_heavy_1e7_is_degenerate_from_the_sides():
    # at b1/b4 = 1e8 the measured float sides break the triangle inequality
    # even in 60-digit arithmetic: the refusal is inherent to the lengths
    d = cli_construction(1e8, 1.0)
    with mp.workdps(60):
        assert heron_radicand(d) < 0
    with pytest.raises(DegenerateTriangle):
        height_012(d.a01, d.a02, d.a12)


def test_height_degenerate():
    with pytest.raises(DegenerateTriangle):
        height_012(1.0, 1.0, 0.0)
    with pytest.raises(DegenerateTriangle):
        height_012(1.0, 1.0, 5.0)


def test_dihedral_alpha_coplanar_is_zero():
    # A0 at the centroid of an equilateral triangle: zero dihedral
    r = 1.0 / math.sqrt(3.0)
    d = DihedralData(
        a01=r,
        a02=r,
        a03=r,
        a23=1.0,
        a12=1.0,
        a24p=0.0,
        alpha_123=math.pi / 3.0,
        alpha_124p=0.0,
        alpha_g4p=0.0,
    )
    h = 1.0 / (2.0 * math.sqrt(3.0))
    assert dihedral_alpha(d, h) == pytest.approx(0.0, abs=1e-7)


def test_dihedral_alpha_vector_oracle(ref_setup):
    tet, a0 = ref_setup
    v = np.asarray(tet.vertices)
    d = measure_dihedral_data(a0, v[0], v[1], v[2], v[3])
    a01 = float(np.linalg.norm(a0 - v[0]))
    h = height_012(a01, d.a02, d.a12)
    alpha = dihedral_alpha(d, h)
    assert abs(alpha - dihedral_angle(v[0], v[1], a0, v[2])) < 1e-10


def test_dihedral_alpha_perpendicular_base():
    # A0 above the midpoint of A1A2 with the A3 arm perpendicular to A1A2:
    # formula must agree with the normal-vector dihedral
    a1 = np.array([-0.5, 0.0, 0.0])
    a2 = np.array([0.5, 0.0, 0.0])
    a3 = np.array([0.0, 1.0, 0.0])
    h = 0.8
    a0 = np.array([0.0, 0.4, h * 0.9])  # generic off-plane position
    d = measure_dihedral_data(a0, a1, a2, a3, a3)
    a01 = float(np.linalg.norm(a0 - a1))
    h012 = height_012(a01, d.a02, d.a12)
    alpha = dihedral_alpha(d, h012)
    assert abs(alpha - dihedral_angle(a1, a2, a0, a3)) < 1e-10


def test_predict_collapses_to_planar_cosine_law():
    # A0 on line A1A2, on A1's side of A2: a01 = a02 - a12
    d = DihedralData(
        a01=1.0,
        a02=2.0,
        a03=1.0,
        a23=1.0,
        a12=1.0,
        a24p=1.5,
        alpha_123=math.pi / 3.0,
        alpha_124p=0.7,
        alpha_g4p=0.3,
    )
    planar = math.sqrt(
        d.a02**2 + d.a24p**2 - 2.0 * d.a02 * d.a24p * math.cos(d.alpha_124p)
    )
    assert predict_a04p(d, 0.0, 0.0) == pytest.approx(planar, rel=1e-12)


@pytest.mark.parametrize("lam4", [1.0, 2.0])
def test_predict_reference_stretch(ref_setup, lam4):
    tet, a0 = ref_setup
    inst = make_instance(tet, a0, [1.0, 1.0, 1.0, lam4])
    stretched = stretch(inst)
    v = np.asarray(stretched.vertices)
    d = measure_dihedral_data(a0, v[0], v[1], v[2], v[3])
    a01 = float(np.linalg.norm(a0 - v[0]))
    h = height_012(a01, d.a02, d.a12)
    alpha = dihedral_alpha(d, h)
    predicted = predict_a04p(d, h, alpha)
    assert predicted == pytest.approx(lam4 * 0.744719, abs=2e-5)
    assert predicted == pytest.approx(float(np.linalg.norm(a0 - v[3])), abs=1e-9)


@pytest.mark.parametrize("ratio", [5.0, 25.0, 200.0])
def test_predict_when_foot_lies_beyond_a2(ratio):
    # b4 = ratio * b1 and lambda = (6, 1, 1, 1) put the foot of the height
    # from A0 onto line A1'A2' beyond A2'; an unsigned foot distance was off
    # by 7 % at ratio 5, 28 % at 25 and 34 % at 200
    inst = SymmetricInstance(a=1.0, b1=1.0, b4=ratio)
    a0 = solve_symmetric(inst).point
    v = np.asarray(stretch(make_instance(inst.tetrahedron(), a0, [6.0, 1.0, 1.0, 1.0])).vertices)
    d = measure_dihedral_data(a0, v[0], v[1], v[2], v[3])
    assert d.a02**2 + d.a12**2 - d.a01**2 < 0
    h = height_012(d.a01, d.a02, d.a12)
    direct = float(np.linalg.norm(a0 - v[3]))
    assert abs(predict_a04p(d, h, dihedral_alpha(d, h)) - direct) <= 1e-9 * direct


def test_stretch_identity(ref_setup):
    tet, a0 = ref_setup
    stretched = stretch(make_instance(tet, a0, [1.0, 1.0, 1.0, 1.0]))
    assert np.allclose(stretched.vertices, tet.vertices, atol=1e-12)


def test_stretch_single_and_double(ref_setup):
    tet, a0 = ref_setup
    single = stretch(make_instance(tet, a0, [1.0, 1.0, 1.0, 2.0]))
    assert np.allclose(single.vertices[:3], tet.vertices[:3], atol=1e-12)
    ray = np.asarray(tet.vertices[3]) - a0
    assert np.allclose(single.vertices[3], a0 + 2.0 * ray, atol=1e-12)
    double = stretch(make_instance(tet, a0, [1.0, 1.0, 2.0, 2.0]))
    assert np.allclose(double.vertices[:2], tet.vertices[:2], atol=1e-12)


def test_stretch_rejects_absorbed():
    # a genuinely floating base stays floating under any positive ray
    # stretch, so exercise the guard with an absorbed configuration
    from ftsolve import WeightedTetrahedron, embed_regular

    tet = WeightedTetrahedron(embed_regular(1.0), [1.0, 1.0, 1.0, 3.0])
    inst = make_instance(tet, [0.0, 0.0, 0.0], [1.0, 1.0, 1.0, 1.0])
    with pytest.raises(FloatingViolated):
        stretch(inst)
    # the re-solve skips a second classify and relies on this check
    with pytest.raises(FloatingViolated):
        verify_invariance(inst)


def test_stretch_refuses_exactly_where_classify_says_absorbed():
    # stretch tests the floating case without building classify's label; its
    # answer must be classify's on the tetrahedron it would return.  From a0
    # off the minimizer a stretch can leave the floating case: the absorbed
    # base above, and bases within 1e-2 of absorption at A4 (sqrt(6) is the
    # pull on A4 at unit weights), stretched from off their minimizers
    rng = random.Random(27)
    absorbed = WeightedTetrahedron(embed_regular(1.0), [1.0, 1.0, 1.0, 3.0])
    draws = [(absorbed, [0.0, 0.0, 0.0], [1.0, 1.0, 1.0, 1.0])]
    for k in range(300):
        w4 = math.sqrt(6.0) * (1.0 + rng.uniform(-1e-2, 1e-2))
        base = absorbed if k % 3 == 0 else WeightedTetrahedron(embed_regular(1.0), [1.0, 1.0, 1.0, w4])
        a0 = [rng.uniform(-0.2, 0.2) for _ in range(3)]
        draws.append((base, a0, [math.exp(rng.uniform(math.log(0.5), math.log(3.0))) for _ in range(4)]))
    refused = 0
    for base, a0, lambdas in draws:
        p = make_instance(base, a0, lambdas)
        moved = [[c - k * (c - v) for c, v in zip(a0, vertex)] for k, vertex in zip(lambdas, base.vertices)]
        expected = WeightedTetrahedron(moved, base.weights)
        if classify(expected).floating:
            assert stretch(p) == expected
        else:
            refused += 1
            with pytest.raises(FloatingViolated):
                stretch(p)
    assert 0 < refused < len(draws)


def test_stretch_past_the_float_range_is_out_of_domain():
    # the stretched A1 would sit at x = -5e308; this was a bare ValueError
    inst = SymmetricInstance(a=10.0, b1=2.5, b4=1.0)
    p = make_instance(inst.tetrahedron(), solve_symmetric(inst).point, [1e308, 1.0, 1.0, 1.0])
    with pytest.raises(OutOfDomain, match="float range"):
        stretch(p)


@pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
def test_stretch_factors_must_be_positive_and_finite(ref_setup, bad):
    # an infinite factor was accepted and stretched its vertex to infinity
    tet, a0 = ref_setup
    with pytest.raises(ValueError, match="positive and finite"):
        make_instance(tet, a0, [1.0, bad, 1.0, 1.0])


@pytest.mark.parametrize("lambdas", [(1, 1, 1, 2), (1, 1, 2, 2), (3, 0.5, 2, 1)])
def test_invariance_cases(ref_setup, lambdas):
    tet, a0 = ref_setup
    assert_certified(make_instance(tet, a0, lambdas))


def test_cross_formula_consistency_random(ref_setup):
    tet, a0 = ref_setup
    rng = np.random.default_rng(21)
    count = 0
    while count < 200:
        lambdas = rng.uniform(0.5, 3.0, size=4)
        inst = make_instance(tet, a0, lambdas)
        try:
            stretched = stretch(inst)
        except FloatingViolated:
            continue
        count += 1
        v = np.asarray(stretched.vertices)
        d = measure_dihedral_data(a0, v[0], v[1], v[2], v[3])
        a01 = float(np.linalg.norm(a0 - v[0]))
        h = height_012(a01, d.a02, d.a12)
        alpha = dihedral_alpha(d, h)
        predicted = predict_a04p(d, h, alpha)
        assert abs(predicted - float(np.linalg.norm(a0 - v[3]))) < 1e-9


def test_equilibrium_preserved_under_stretch(ref_setup):
    tet, a0 = ref_setup
    rng = np.random.default_rng(22)
    total_w = float(np.sum(tet.weights))
    for _ in range(50):
        lambdas = rng.uniform(0.5, 3.0, size=4)
        inst = make_instance(tet, a0, lambdas)
        try:
            stretched = stretch(inst)
        except FloatingViolated:
            continue
        assert equilibrium_residual(stretched, a0) < 1e-6 * total_w


def test_invariance_random_stretches(ref_setup):
    tet, a0 = ref_setup
    rng = np.random.default_rng(23)
    checked = 0
    while checked < 30:
        p = make_instance(tet, a0, rng.uniform(0.5, 3.0, size=4))
        try:
            stretch(p)
        except FloatingViolated:
            continue
        checked += 1
        assert_certified(p)


def test_invariance_from_the_minimizer_takes_one_pass(ref_setup, monkeypatch):
    # the bound is one pass over the vertices at a0: nothing is re-solved, so
    # neither the solver's loop nor its pass runs, and at moderate weights the
    # float gradient's rounding is under the step tolerance, so the decimal
    # gradient does not run either
    tet, a0 = ref_setup
    calls = []

    def counted(f):
        def call(*args):
            calls.append(f.__name__)
            return f(*args)

        return call

    for name in ("_visit", "_solve_floating", "_gradient_wide"):
        monkeypatch.setattr(numeric, name, counted(getattr(numeric, name)))
    for lambdas in [(1, 1, 1, 2), (1, 1, 2, 2), (3, 0.5, 2, 1)]:
        assert verify_invariance(make_instance(tet, a0, lambdas)) > 0.0
    assert calls == []


def stretched_draws(n):
    """The general benchmark's ray-stretch draws: each one's PlasticityInstance."""
    rng = random.Random(26)
    for _ in range(n):
        it = invariance_instance(rng)
        yield PlasticityInstance(WeightedTetrahedron(it["vertices"], it["weights"]), it["a0"], it["lambdas"])


def two_pair_draws(n, lo, hi, seed):
    """Stretched two-pair draws: a = 1, b1 and b4 log-uniform on [lo, hi],
    each with its closed-form a0 and stretch factors log-uniform on [0.5, 3]."""
    rng = random.Random(seed)

    def log_uniform(lo, hi):
        return math.exp(rng.uniform(math.log(lo), math.log(hi)))

    for _ in range(n):
        inst = SymmetricInstance(1.0, log_uniform(lo, hi), log_uniform(lo, hi))
        lambdas = [log_uniform(0.5, 3.0) for _ in range(4)]
        yield make_instance(inst.tetrahedron(), solve_symmetric(inst).point, lambdas)


COLD_DRAWS = {
    "benchmark draws": lambda: stretched_draws(40),
    "two-pair draws": lambda: two_pair_draws(300, 0.2, 5.0, 28),
    "heavy two-pair draws": lambda: two_pair_draws(40, 1e-3, 1e3, 29),
}


@pytest.mark.parametrize("draws", COLD_DRAWS.values(), ids=COLD_DRAWS.keys())
def test_cold_answer_lies_within_the_bound_of_a0(draws):
    # a cold solve stops within 2^-53 edge of the minimizer, plus the float
    # gradient's rounding, up to 16 u sum(w), over the Hessian's least
    # eigenvalue mu (see weiszfeld); the minimizer is within the bound of a0.
    # The heavy draws, weight ratios up to 1e6, end on the decimal gradient
    for p in draws():
        t = stretch(p)
        edge = t.max_edge()
        cold = numeric._solve_floating(t)[0]
        offsets = np.asarray(p.a0) - np.asarray(t.vertices)
        lengths = np.linalg.norm(offsets, axis=1)
        units = offsets / lengths[:, None]
        hessian = sum(w / d * (np.eye(3) - np.outer(v, v)) for w, d, v in zip(t.weights, lengths, units))
        rounding = 16 * 2.0**-53 * sum(t.weights) / np.linalg.eigvalsh(hessian)[0]
        assert math.dist(cold, p.a0) <= verify_invariance(p) + 2.0**-53 * edge + rounding


def test_a0_on_a_vertex_is_refused():
    # a stretch from a vertex leaves that vertex where it is: the stretched
    # tetrahedron either leaves the floating case, or has a vertex at a0,
    # where no bound can be formed
    refused = set()
    for p in stretched_draws(10):
        for v in p.base.vertices:
            with pytest.raises(FtSolveError) as e:
                verify_invariance(PlasticityInstance(p.base, v, p.lambdas))
            refused.add(type(e.value))
    assert CoincidentPoints in refused


def heavy_digest_draws():
    for inst, lambdas in heavy_draws():
        yield PlasticityInstance(inst.tetrahedron(), solve_symmetric(inst).point, lambdas)


REFERENCE_DRAWS = {
    "digest draws": ray_stretch_draws,
    "heavy digest draws": heavy_digest_draws,
    "benchmark draws": lambda: stretched_draws(200),
}


@pytest.mark.parametrize("draws", REFERENCE_DRAWS.values(), ids=REFERENCE_DRAWS.keys())
def test_bound_contains_the_rigorous_bound_and_the_distance(draws):
    # the bound's formula evaluated in interval arithmetic on the exact
    # gradient and Hessian at a0 (no rounding to bound) lies below the float
    # bound, and so does the distance to the minimizer.  With the rounding
    # part dropped from _position_bound, the float bound fell below the
    # rigorous one on some draws of each set
    for p in draws():
        t = stretch(p)
        bound = verify_invariance(p)
        assert rigorous_bound(t, p.a0) <= bound
        assert minimizer_distance(t, p.a0) <= bound


@pytest.mark.parametrize("ratio", RATIOS.values(), ids=RATIOS.keys())
def test_closed_form_point_is_certified_as_the_3d_minimizer(ratio, monkeypatch):
    # at lambda = 1 the bound certifies solve_symmetric's point against the
    # 3-D problem.  The stretch rounds a0 - (a0 - A_i) to A_i or to a
    # neighbour, so the minimizer is the stretched tetrahedron's, found at 80
    # digits: where no vertex moved, the tetrahedron keeps its half-turn and
    # that is the axial root.  The float gradient's rounding over mu grows
    # with the weight ratio, to 15 times 2^-44 a (8.7e-13 a) at 10^2.75, under
    # the step tolerance; from 10^3 on the decimal gradient takes over
    wides = []
    wide = numeric._gradient_wide
    monkeypatch.setattr(numeric, "_gradient_wide", lambda *args: wides.append(None) or wide(*args))
    for a in EDGES:
        for b1, b4 in ((ratio, 1.0), (1.0, ratio)):
            inst = SymmetricInstance(a, b1, b4)
            p = PlasticityInstance(inst.tetrahedron(), solve_symmetric(inst).point, (1, 1, 1, 1))
            t = stretch(p)
            before = len(wides)
            bound = verify_invariance(p)
            assert minimizer_distance(t, p.a0) <= bound
            if ratio >= 1e3:
                assert len(wides) > before
                assert bound <= 2**-50 * a
            elif ratio <= 10**1.5:
                assert len(wides) == before
                assert bound <= 2**-44 * a
            else:
                assert bound <= numeric.STEP_TOL * a


@pytest.mark.parametrize("draws", COLD_DRAWS.values(), ids=COLD_DRAWS.keys())
def test_a0_moved_by_1e_9_edge_widens_the_bound_past_it(draws):
    # at lambda = 1 the minimizer stays the base tetrahedron's, so a0 moved
    # by 1e-9 edge is 1e-9 edge from it: the bound must say so, or refuse
    rng = random.Random(30)
    answered = 0
    for p in draws():
        edge = p.base.max_edge()
        u = [rng.gauss(0.0, 1.0) for _ in range(3)]
        off = 1e-9 * edge / math.hypot(*u)
        moved = PlasticityInstance(p.base, [c + off * d for c, d in zip(p.a0, u)], (1, 1, 1, 1))
        try:
            bound = verify_invariance(moved)
        except FtSolveError:
            continue
        assert bound >= 1e-9 * edge
        answered += 1
    assert answered


# (a, b1, b4, lambdas) of the cli benchmark's large_ratio plasticity inputs
LARGE_RATIO = [
    (0.18324062329160828, 2.8592731359453207, 115062469.94217965,
     (0.6969549259990532, 1.2575260385039744, 1.0061621604045787, 2.1976962491682817)),
    (0.35934575707970523, 373590.8641162879, 12.601850937605471,
     (1.7727050302113232, 2.741871151085337, 2.8920951675740696, 1.9489856366479599)),
    (10.776218041100401, 2177047.878462987, 20.017840795481494,
     (0.6275728467974134, 1.1265052562728795, 0.543175726816472, 1.0543157654241844)),
    (1.0, 1.0, 1e15,
     (0.5310119685671215, 2.9265105669906233, 2.5422681078019185, 0.6220390034737526)),
    (1.0, 1e15, 1.0,
     (0.6089303587970475, 2.6876941867511515, 0.5446830649554133, 2.5277840831427043)),
]


@pytest.mark.parametrize("a, b1, b4, lambdas", LARGE_RATIO)
def test_invariance_at_large_weight_ratios(a, b1, b4, lambdas):
    # b4/b1 = 4e7, 3.4e-5 and 9.2e-6: the plain Weiszfeld iteration returned
    # a point 0.3*a off for the first and raised NoConvergence for the others.
    # At 1e15 and 1e-15 the heavy-pair finish took every decimal Newton step
    # in full, and from where the float loop ended the first one landed next
    # to a heavy vertex: NoConvergence, after steps up to 1e15 long.  The
    # re-solve from a0 now makes one float and one decimal pass, whose steps
    # are under the tolerance; the cold solve still halves the finish's steps
    # (with HALVINGS = 0 it stops 0.48 a and 0.52 a away at 1e15)
    inst = SymmetricInstance(a=a, b1=b1, b4=b4)
    warm, cold = warm_and_cold(inst.tetrahedron(), solve_symmetric(inst).point, lambdas)
    assert warm <= 1e-9 * a
    assert cold <= 1e-9 * a


@pytest.mark.parametrize("ratio", [4e7, 1e9, 1.1e11])
@pytest.mark.parametrize("heavy", ["b4", "b1"])
def test_invariance_past_the_heavy_pair_rounding_floor(ratio, heavy):
    # Near a heavy pair the float gradient keeps about w_h u of rounding,
    # which left the re-solve up to (w_h / w_l) u a off: 9.3e-9 a at 4e7,
    # 6.4e-8 a at 1e9 and 8.3e-6 a at 1.1e11 on b4-heavy draws like these.
    # The decimal finish brings every draw to about u a.
    rng = np.random.default_rng(int(math.log10(ratio)) + (heavy == "b1"))
    for _ in range(8):
        a = float(np.exp(rng.uniform(math.log(0.1), math.log(10.0))))
        b1, b4 = (1.0, ratio) if heavy == "b4" else (ratio, 1.0)
        inst = SymmetricInstance(a=a, b1=b1, b4=b4)
        lambdas = rng.uniform(0.5, 3.0, size=4)
        warm, cold = warm_and_cold(inst.tetrahedron(), solve_symmetric(inst).point, lambdas)
        assert warm <= 1e-14 * a
        assert cold <= 1e-14 * a


def test_invariance_needs_the_newton_step_halving():
    # b4/b1 = 1e9: this draw lands 2.9e-18 * a from a0; with the halving of
    # Newton steps switched off (HALVINGS = 0) the cold solve stalls 0.50 * a
    # away (the re-solve from a0 ends in one pass and never halves)
    a = 0.8579700568840782
    inst = SymmetricInstance(a=a, b1=1.0, b4=1e9)
    lambdas = (0.8349940227937647, 0.5458602178513564, 2.631132517324947, 0.628112545042036)
    warm, cold = warm_and_cold(inst.tetrahedron(), solve_symmetric(inst).point, lambdas)
    assert warm <= 1e-14 * a
    assert cold <= 1e-14 * a


@pytest.mark.parametrize("scale", [1e-200, 1.0, 1e200])
def test_angle_helpers_at_any_scale(scale):
    # at 1e200 the dot product overflowed and vertex_angle read pi; at
    # 1e-200 the product of the lengths underflowed to 0 and both raised
    # ZeroDivisionError
    o, x, y = (0.0, 0.0, 0.0), (scale, 0.0, 0.0), (0.0, scale, 0.0)
    assert vertex_angle(o, (scale, scale, 0.0), x) == pytest.approx(math.pi / 4, rel=1e-15)
    assert dihedral_angle(o, x, y, (0.0, scale, scale)) == pytest.approx(math.pi / 4, rel=1e-15)


Q = (0.1, 0.2, 0.3)


@pytest.mark.parametrize(
    "helper, args",
    [
        (vertex_angle, ((1.0, 2.0, 3.0), (1.0, 2.0, 3.0), (0.0, 0.0, 1.0))),
        (vertex_angle, ((1.0, 2.0, 3.0), (0.0, 0.0, 1.0), (1.0, 2.0, 3.0))),
        (dihedral_angle, ((0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (2.0, 0.0, 0.0), (0.0, 0.0, 1.0))),
        (dihedral_angle, ((0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 0.0, 1.0), (-3.0, 0.0, 0.0))),
        (dihedral_angle, ((1.0, 2.0, 3.0), (1.0, 2.0, 3.0), (0.0, 0.0, 1.0), (0.0, 1.0, 0.0))),
        *[
            (dihedral_angle, ((0.0, 0.0, 0.0), Q, tuple(k * c for c in Q), (0.0, 0.0, 1.0)))
            for k in (3, 7, 11, -2)
        ],
    ],
    ids=["apex_is_p", "apex_is_q", "c1_on_the_edge_line", "c2_on_the_edge_line", "edge_of_length_0",
         "c1_3q", "c1_7q", "c1_11q", "c1_-2q"],
)
def test_angle_helpers_refuse_undefined_angles(helper, args):
    # the first five raised a bare ZeroDivisionError; for c1 = kq, within
    # rounding of the edge's line, the projection onto the edge's normal
    # plane returned 1.44, 0.93 and 1.70 rad at 7q, 11q and -2q
    with pytest.raises(OutOfDomain, match="^the angle is undefined: "):
        helper(*args)


@pytest.mark.parametrize(
    "helper, args",
    [
        (vertex_angle, ((1e308, 0.0, 0.0), (-1e308, 0.0, 0.0), (1e308, 1.0, 0.0))),
        (dihedral_angle, ((1e308, 0.0, 0.0), (-1e308, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))),
        (dihedral_angle, ((0.0, 0.0, -1e308), (1.0, 0.0, -1e308), (0.0, 1.0, -1e308), (0.0, 0.0, 1e308))),
    ],
    ids=["vertex_offset", "edge_offset", "c2_offset"],
)
def test_angle_helpers_refuse_offsets_beyond_the_float_range(helper, args):
    # each returned pi for an angle of pi/2: an offset overflowed to inf, and
    # the clamp took the nan cosine to -1
    with pytest.raises(OutOfDomain, match="beyond the float range$"):
        helper(*args)


def mp_angle(u, v):
    """The angle between the vectors u and v at mpmath's working precision."""
    cross = [u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0]]
    return mp.atan2(mp.sqrt(sum(c * c for c in cross)), sum(a * b for a, b in zip(u, v)))


def mp_offset(a, b):
    return [mpf(x) - mpf(y) for x, y in zip(a, b)]


@pytest.mark.parametrize("e", [1e-6, 1e-8, 1e-12])
@pytest.mark.parametrize("x", [1.0, -1.0], ids=["near_0", "near_pi"])
def test_vertex_angle_near_0_and_pi_within_4_ulps(e, x):
    # acos of the cosine was off by 4.4e-5 relative at 1e-6 and read 0.0 at 1e-8
    o, p, q = (0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (x, e, 0.0)
    with mp.workdps(50):
        exact = mp_angle(mp_offset(p, o), mp_offset(q, o))
        assert abs(vertex_angle(o, p, q) - exact) <= 4 * math.ulp(float(exact))


def test_dihedral_angle_next_to_the_edge_line_within_its_bound():
    # c1 is 1e-9 |q| off the line: the answer must be the 50-digit dihedral of
    # the same float vertices within dihedral_angle's bound, 5u sum |o_k|/|n_k|
    # for the normals n_k = e x o_k at the edge e scaled into [0.5, 1), plus
    # 4 ulps
    p, c2 = (0.0, 0.0, 0.0), (0.0, 0.0, 1.0)
    m = (0.3 / math.sqrt(0.1), 0.0, -0.1 / math.sqrt(0.1))  # a unit normal to q
    c1 = tuple(3.0 * a + 1e-9 * math.hypot(*Q) * b for a, b in zip(Q, m))
    with mp.workdps(50):
        e = [c / 2 ** math.frexp(math.hypot(*Q))[1] for c in mp_offset(Q, p)]
        bound = 0
        normals = []
        for c in (c1, c2):
            o = mp_offset(c, p)
            n = [e[1] * o[2] - e[2] * o[1], e[2] * o[0] - e[0] * o[2], e[0] * o[1] - e[1] * o[0]]
            bound += 5 * 2.0**-53 * mp.sqrt(sum(x * x for x in o)) / mp.sqrt(sum(x * x for x in n))
            normals.append(n)
        exact = mp_angle(*normals)
        assert abs(dihedral_angle(p, Q, c1, c2) - exact) <= bound + 4 * math.ulp(float(exact))


def ref_dihedral_data(**changes):
    """The coplanar data of test_dihedral_alpha_coplanar_is_zero, where the
    arccos argument at h = 1/(2 sqrt 3) is 1, with some fields changed."""
    r = 1.0 / math.sqrt(3.0)
    fields = dict(a01=r, a02=r, a03=r, a23=1.0, a12=1.0, a24p=0.0, alpha_123=math.pi / 3.0,
                  alpha_124p=0.0, alpha_g4p=0.0)
    return DihedralData(**{**fields, **changes})


LENGTHS_REFUSED = "^lengths must be finite and not negative, and a12 and a23 positive$"


@pytest.mark.parametrize(
    "changes, message",
    [
        ({"a12": 0.0}, LENGTHS_REFUSED),
        ({"a23": 0.0}, LENGTHS_REFUSED),
        ({"a24p": -0.5, "alpha_124p": 0.7, "alpha_g4p": 0.3}, LENGTHS_REFUSED),
        ({"a03": -1.0 / math.sqrt(3.0)}, LENGTHS_REFUSED),
        ({"a01": math.inf}, LENGTHS_REFUSED),
        ({"a02": math.nan}, LENGTHS_REFUSED),
        ({"a01": 10**400}, LENGTHS_REFUSED),
        ({"alpha_123": math.nan}, "^angles must be finite$"),
        ({"alpha_g4p": -math.inf}, "^angles must be finite$"),
    ],
    ids=["a12 zero", "a23 zero", "a24p negative", "a03 negative", "a01 inf", "a02 nan", "a01 huge int",
         "alpha_123 nan", "alpha_g4p -inf"],
)
def test_dihedral_data_refuses_values_the_formulas_cannot_take(changes, message):
    # they were stored: a12 = 0 or a23 = 0 made dihedral_alpha and
    # predict_a04p raise a bare ZeroDivisionError, a24p = -0.5 predicted
    # a04' = 1.0728 (at h = height_012(r, r, 1), alpha = 0.4), a negative a03
    # was read as |a03|, and a nan angle was refused as a negative radicand
    with pytest.raises(OutOfDomain, match=message):
        ref_dihedral_data(**changes)


def test_dihedral_data_stores_floats():
    d = DihedralData(1, True, "1", 1, 1, 0, 0, 0, 0)
    assert [type(v) for v in d._values()] == [float] * 9
    assert d == DihedralData(1.0, 1.0, 1.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0)


@pytest.mark.parametrize("h", [0.0, -1.0, math.nan])
def test_dihedral_alpha_refuses_a_height_not_positive(h):
    # nan passed h <= 0 and gave pi
    with pytest.raises(OutOfDomain, match="^height must be positive$"):
        dihedral_alpha(ref_dihedral_data(), h)


@pytest.mark.parametrize(
    "alpha_123, message",
    [(0.0, "^alpha_123 must not be 0 or pi$"), (math.pi, "^arccos argument .* beyond slack$")],
    ids=["0", "pi"],
)
def test_dihedral_alpha_refuses_alpha_123_at_0_and_pi(alpha_123, message):
    # sin(pi) is 1.2e-16, not 0: at pi the argument, about 1/sin(pi), is
    # refused beyond the slack instead
    with pytest.raises(OutOfDomain, match=message):
        dihedral_alpha(ref_dihedral_data(alpha_123=alpha_123), 1.0 / (2.0 * math.sqrt(3.0)))


def test_dihedral_alpha_clamps_only_within_the_slack():
    h = 1.0 / (2.0 * math.sqrt(3.0))
    assert dihedral_alpha(ref_dihedral_data(), h / (1.0 + 0.5 * CLAMP_SLACK)) == 0.0
    with pytest.raises(OutOfDomain, match="^arccos argument .* beyond slack$"):
        dihedral_alpha(ref_dihedral_data(), h / (1.0 + 2.0 * CLAMP_SLACK))


def test_predict_a04p_refuses_a_negative_radicand():
    # a02 = a24p = 1 and a projection of 5: 1 + 1 - 2 * 5 < 0
    d = ref_dihedral_data(a01=1.0, a02=1.0, a24p=1.0, alpha_124p=math.pi / 2.0)
    with pytest.raises(OutOfDomain, match="^negative radicand; inconsistent inputs$"):
        predict_a04p(d, 5.0, 0.0)


TINY = 5e-324  # positive, but 0.0 once scaled beside a length of 1


@pytest.mark.parametrize(
    "changes, h, divisor",
    [
        ({"a23": TINY}, 0.5, "a23"),
        ({"a12": TINY}, 0.5, "a12"),
        ({}, TINY, "h sin\\(alpha_123\\)"),
        ({"alpha_123": 1e-300}, 1e-30, "h sin\\(alpha_123\\)"),
    ],
    ids=["a23", "a12", "h", "h sin(alpha_123)"],
)
def test_dihedral_alpha_refuses_a_divisor_that_scales_to_0(changes, h, divisor):
    # each raised a bare ZeroDivisionError: the divisor is not 0, but 0.0
    # once the lengths are scaled by the largest
    fields = dict(a01=1.0, a02=1.0, a03=1.0, a23=1.0, a12=1.0, a24p=1.0, alpha_123=0.5, alpha_124p=0.5, alpha_g4p=0.5)
    with pytest.raises(OutOfDomain, match=f"^{divisor} scales to 0 beside the largest length$"):
        dihedral_alpha(DihedralData(**{**fields, **changes}), h)


def test_predict_a04p_refuses_an_a12_that_scales_to_0():
    # it raised a bare ZeroDivisionError in the foot of the height
    with pytest.raises(OutOfDomain, match="^a12 scales to 0 beside the largest length$"):
        predict_a04p(DihedralData(1, 1, 1, 1, TINY, 1, 0.5, 0.5, 0.5), 0.5, 0.3)


def test_dihedral_alpha_refuses_an_infinite_height():
    # inf scaled every length to 0 and gave pi/2
    with pytest.raises(OutOfDomain, match="^height must be finite$"):
        dihedral_alpha(ref_dihedral_data(), math.inf)


@pytest.mark.parametrize(
    "h, alpha, message",
    [
        (math.nan, 0.2, "^height must be finite and not negative$"),
        (math.inf, 0.2, "^height must be finite and not negative$"),
        (-0.5, 0.2, "^height must be finite and not negative$"),
        (0.5, math.nan, "^alpha must be finite$"),
        (0.5, math.inf, "^alpha must be finite$"),
    ],
    ids=["nan height", "inf height", "negative height", "nan alpha", "inf alpha"],
)
def test_predict_a04p_refuses_inputs_out_of_domain(h, alpha, message):
    # a nan height or alpha gave nan, an infinite alpha a bare ValueError
    d = ref_dihedral_data(a24p=0.5, alpha_124p=math.pi / 3.0)
    with pytest.raises(OutOfDomain, match=message):
        predict_a04p(d, h, alpha)


@pytest.mark.parametrize(
    "sides",
    [(math.nan, 1.0, 1.0), (1.0, math.nan, 1.0), (-1.0, 1.0, 1.0), (1.0, -1.0, 1.0),
     (math.inf, 1.0, 1.0), (1.0, 1.0, math.inf), (1.0, 1.0, math.nan)],
    ids=["nan a01", "nan a02", "negative a01", "negative a02", "inf a01", "inf a12", "nan a12"],
)
def test_height_012_refuses_a_side_not_finite_or_negative(sides):
    # (nan, 1, 1) gave nan and (-1, 1, 1) the height of the unit triangle, 0.866
    with pytest.raises(DegenerateTriangle):
        height_012(*sides)


def test_re_solve_whose_objective_overflows_reports_the_displacement():
    # the unit corner at edge scale 1e10 with weights near 1e298: the
    # objective, about 4e308, exceeds the float range, and verify_invariance
    # refused it although it reports only the displacement.  weiszfeld, which
    # reports the objective, must still refuse it
    unit = [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
    a0 = [1e10 * c for c in weiszfeld(WeightedTetrahedron(unit, [1.1, 0.7, 2.0, 1.3])).point]
    base = WeightedTetrahedron([[1e10 * c for c in p] for p in unit], [1.1e298, 0.7e298, 2.0e298, 1.3e298])
    p = PlasticityInstance(base, a0, [1.0, 1.5, 2.0, 0.8])
    assert_certified(p)
    with pytest.raises(FtSolveError, match="^the objective exceeds the float range$"):
        weiszfeld(base)
