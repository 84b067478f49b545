import math

import numpy as np
import pytest

from ftsolve import (
    DegenerateTetrahedron,
    FtSolveError,
    NonPositiveEdge,
    OutOfDomain,
    PlasticityInstance,
    SymmetricInstance,
    WeightedTetrahedron,
    angles_at,
    axial_distances,
    embed_regular,
    objective,
)
from ftsolve.geom_core import _entries, _point, _positive

# axial coordinate of the minimizer for a=1, b1=2.5, b4=1, frozen from the
# closed form and confirmed by bisection of the reduced objective's
# derivative
Y_REF = 0.1983575549931425


def test_objective_distance_to_self_is_zero():
    v = embed_regular(1.0)
    val = objective(v, [1.0, 0.0, 0.0, 0.0], v[0])
    assert val == 0.0


def test_objective_reference_value():
    # oracle: 2*(b1*a01 + b4*a04) evaluated directly at y
    v = embed_regular(1.0)
    x = np.array([0.0, 0.0, Y_REF])
    val = objective(v, [2.5, 2.5, 1.0, 1.0], x)
    assert val == pytest.approx(4.10710, abs=1e-4)
    a01, a04 = axial_distances(1.0, Y_REF)
    assert val == pytest.approx(2 * (2.5 * a01 + 1.0 * a04), rel=1e-14)


@pytest.mark.parametrize(
    "weights, x",
    [
        ([1e308] * 4, (0.0, 0.0, 0.0)),
        ([1e308, -1e308, 1.0, 1.0], (1e10, 0.0, 0.0)),
        ([1e308, 1.0, 1.0, 1.0], (1e10, 0.0, 0.0)),
    ],
    ids=["fsum_overflow", "inf_minus_inf", "infinite_term"],
)
def test_objective_out_of_float_range_is_a_solver_error(weights, x):
    # these raised a bare OverflowError or ValueError from fsum, or returned inf
    with pytest.raises(FtSolveError, match="^the objective exceeds the float range$"):
        objective(embed_regular(1.0), weights, x)


@pytest.mark.parametrize(
    "points, x, expected",
    [
        (embed_regular(1.0), (1e160, 0.0, 0.0), 4e160),
        ([(0.0, 0.0, 0.0)], (3e-170, 4e-170, 0.0), 5e-170),
    ],
    ids=["squares_overflow", "squares_underflow"],
)
def test_objective_at_distances_whose_squares_leave_the_normal_range(points, x, expected):
    # the sum of squares overflowed (the objective raised) or underflowed to
    # 0 (the objective read 0.0); those distances are measured by hypot
    assert objective(points, [1.0] * len(points), x) == pytest.approx(expected, rel=1e-15, abs=0.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_objective_refuses_weights_not_finite(bad):
    # a nan weight returned nan, an infinite one "exceeds the float range"
    v = embed_regular(1.0)
    with pytest.raises(ValueError, match="^weights must be finite$"):
        objective(v, [1.0, bad, 1.0, 1.0], (0.1, 0.2, 0.3))
    assert math.isfinite(objective(v, [1.0, -2.0, 1.0, 1.0], (0.1, 0.2, 0.3)))


def test_objective_refuses_an_empty_point_list():
    with pytest.raises(ValueError, match="^point list must be non-empty$"):
        objective([], [], (0.0, 0.0, 0.0))


def test_objective_weight_homogeneity():
    rng = np.random.default_rng(7)
    pts = rng.normal(size=(4, 3))
    w = rng.uniform(0.5, 2.0, size=4)
    x = rng.normal(size=3)
    base = objective(pts, w, x)
    for k in (0.5, 3.0, 17.0):
        assert objective(pts, k * w, x) == pytest.approx(k * base, rel=1e-14)


def test_embed_regular_edges_and_perpendicular():
    v = np.asarray(embed_regular(1.0))
    for i in range(4):
        for j in range(i + 1, 4):
            assert np.linalg.norm(v[i] - v[j]) == pytest.approx(1.0, abs=1e-12)
    mid12 = 0.5 * (v[0] + v[1])
    mid34 = 0.5 * (v[2] + v[3])
    assert np.linalg.norm(mid12 - mid34) == pytest.approx(math.sqrt(2) / 2, abs=1e-12)
    c = math.sqrt(2) / 4
    assert np.allclose(mid12, [0.0, 0.0, c])
    assert np.allclose(mid34, [0.0, 0.0, -c])


def test_embed_regular_scaling():
    assert np.allclose(embed_regular(2.0), 2.0 * np.asarray(embed_regular(1.0)))


def test_embed_regular_rejects_nonpositive():
    with pytest.raises(NonPositiveEdge):
        embed_regular(0.0)
    with pytest.raises(NonPositiveEdge):
        embed_regular(-1.0)


@pytest.mark.parametrize("a", np.logspace(-3, 3, 13).tolist())
def test_embed_regular_edge_lengths_log_grid(a):
    v = np.asarray(embed_regular(a))
    for i in range(4):
        for j in range(i + 1, 4):
            assert abs(np.linalg.norm(v[i] - v[j]) - a) < 1e-12 * a


def test_point_on_axis_is_equidistant_from_each_pair():
    v = embed_regular(1.0)
    x = np.array([0.0, 0.0, Y_REF])
    d = np.linalg.norm(v - x, axis=1)
    assert d[0] == pytest.approx(d[1], abs=1e-14)
    assert d[2] == pytest.approx(d[3], abs=1e-14)


def test_axial_distances_values():
    a01, a04 = axial_distances(1.0, 0.0)
    assert a01 == pytest.approx(math.sqrt(0.375), abs=1e-12)
    assert a04 == pytest.approx(math.sqrt(0.375), abs=1e-12)
    a01, a04 = axial_distances(1.0, Y_REF)
    assert a01 == pytest.approx(0.523532, abs=1e-6)
    assert a04 == pytest.approx(0.744719, abs=1e-6)
    a01, _ = axial_distances(1.0, math.sqrt(2) / 4)
    assert a01 == pytest.approx(0.5, abs=1e-12)


@pytest.mark.parametrize("y", [math.nan, math.inf, -math.inf])
def test_axial_distances_refuse_a_non_finite_y(y):
    # they returned (nan, nan) at nan and (inf, inf) at either infinity
    with pytest.raises(ValueError) as err:
        axial_distances(1.0, y)
    assert str(err.value) == f"the axial coordinate must be finite, got {y}"


def test_axial_distances_match_embedding():
    rng = np.random.default_rng(42)
    for a in (0.3, 1.0, 5.0):
        v = embed_regular(a)
        for y in rng.uniform(-a, a, size=1000):
            x = np.array([0.0, 0.0, y])
            a01, a04 = axial_distances(a, y)
            assert abs(np.linalg.norm(x - v[0]) - a01) < 1e-12 * a
            assert abs(np.linalg.norm(x - v[3]) - a04) < 1e-12 * a


def test_objective_reduces_on_axis():
    # with paired weights the 3-D objective on the axis equals
    # 2*(b1*a01 + b4*a04)
    rng = np.random.default_rng(3)
    v = embed_regular(1.0)
    for _ in range(200):
        b1, b4 = rng.uniform(0.1, 5.0, size=2)
        y = rng.uniform(-1.0, 1.0)
        x = np.array([0.0, 0.0, y])
        full = objective(v, [b1, b1, b4, b4], x)
        a01, a04 = axial_distances(1.0, y)
        assert full == pytest.approx(2 * (b1 * a01 + b4 * a04), rel=1e-12)


def test_weighted_tetrahedron_validation():
    with pytest.raises(ValueError):
        WeightedTetrahedron(embed_regular(1.0), [1.0, 1.0, 1.0, -1.0])
    flat = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]], dtype=float)
    with pytest.raises(DegenerateTetrahedron):
        WeightedTetrahedron(flat, [1.0, 1.0, 1.0, 1.0])


REGULAR = embed_regular(1.0)
W4 = [1.0] * 4


@pytest.mark.parametrize(
    "vertices, weights, message",
    [
        pytest.param(REGULAR, {4.0, 3.0, 2.0, 1.0}, "weights must have 4 entries", id="weights0"),
        pytest.param(
            REGULAR, {"1": 4.0, "2": 3.0, "3": 2.0, "4": 1.0}, "weights must have 4 entries", id="weights1"
        ),
        pytest.param(REGULAR, "1234", "weights must have 4 entries", id="weights-string"),
        pytest.param(["123", *REGULAR[1:]], W4, "a point must have 3 entries", id="point-string"),
        pytest.param([{0.0, 1.0, 2.0}, *REGULAR[1:]], W4, "a point must have 3 entries", id="point-set"),
        pytest.param(
            [{"x": 0.0, "y": 0.0, "z": 1.0}, *REGULAR[1:]], W4, "a point must have 3 entries", id="point-dict"
        ),
        pytest.param([(0.0, 0.0, 0.0, 1.0), *REGULAR[1:]], W4, "a point must have 3 entries", id="point-4"),
        pytest.param(
            [*REGULAR[:3], [0.0, math.nan, 0.0]], W4, "point coordinates must be finite", id="point-nan"
        ),
    ],
)
def test_weighted_tetrahedron_rejects_weights_without_an_order(vertices, weights, message):
    # entries that are not the numbers they stand for, in order: a set of
    # weights was read in its own order, here (1.0, 2.0, 3.0, 4.0), and a
    # mapping as its keys; a string or set of coordinates would give a
    # point its characters or its elements
    with pytest.raises(ValueError, match=message):
        WeightedTetrahedron(vertices, weights)


UNIT = [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
VERTEX_INPUTS = {
    "ints": lambda: [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]],
    "mixed": lambda: ([0.5, 0.0, 0.0], (True, 0.0, 0.0), [0, np.float64(2.0), 0], (0.0, 0.0, 3)),
    "huge-sum": lambda: [[1e308, 1e308, 0.0], *UNIT[1:]],
    "numeric-string": lambda: [[1.0, "2.5", 0.0], *UNIT[1:]],
    "five": lambda: UNIT + [[2.0, 2.0, 2.0]],
    "array": lambda: np.eye(4, 3),
    "generator": lambda: (p for p in UNIT),
    "generator-row": lambda: [(c for c in UNIT[0]), *UNIT[1:]],
    "short-row": lambda: [[0.0, 0.0], *UNIT[1:]],
    "none": lambda: [[0.0, None, 0.0], *UNIT[1:]],
    "non-numeric-string": lambda: [[0.0, "x", 0.0], *UNIT[1:]],
    "inf": lambda: [[0.0, 0.0, math.inf], *UNIT[1:]],
    "nan": lambda: ([0.0, 0.0, 0.0], (1.0, math.nan, 0.0), *UNIT[2:]),
    "string-row": lambda: ["123", *UNIT[1:]],
    "dict-row": lambda: [{0: 0.0, 1: 0.0, 2: 0.0}, *UNIT[1:]],
}


@pytest.mark.parametrize("make", VERTEX_INPUTS.values(), ids=VERTEX_INPUTS.keys())
def test_vertices_unpacked_at_once_as_in_general(make):
    # WeightedTetrahedron unpacks lists and tuples of lists and tuples in one
    # step; that must build the record the entry-by-entry coercion builds,
    # derived slots included, or give its refusal
    def outcome(vertices):
        try:
            t = WeightedTetrahedron(vertices(), W4)
        except (ValueError, FtSolveError) as e:
            return type(e).__name__, str(e)
        return t, t.vertices, t.weights, t._pairs, t._units, t._max_edge

    fast = outcome(make)
    assert fast == outcome(lambda: _entries(make(), 4, "vertices", _point))
    assert type(fast[0]) is str or all(type(c) is float for p in fast[1] for c in p)


FOUR_INPUTS = {
    "ints": lambda: [1, 2, 3, 4],
    "bools": lambda: [True, 2.0, True, 4.0],
    "numeric-strings": lambda: ["1.5", 2.0, "3", 4.0],
    "float64": lambda: [np.float64(1.5), 2.0, np.float64(3.0), 4.0],
    "tuple": lambda: (1.5, 2.0, 3.0, 4.0),
    "nested": lambda: [1.0, 2.0, [3.0], 4.0],
    "none": lambda: [1.0, None, 3.0, 4.0],
    "three": lambda: [1.0, 2.0, 3.0],
    "five": lambda: [1.0, 2.0, 3.0, 4.0, 5.0],
    "nan": lambda: [1.0, math.nan, 3.0, 4.0],
    "inf": lambda: [1.0, 2.0, math.inf, 4.0],
    "zero": lambda: [0.0, 2.0, 3.0, 4.0],
    "negative": lambda: [1.0, 2.0, 3.0, -4.0],
    "non-numeric-string": lambda: [1.0, "x", 3.0, 4.0],
    "generator": lambda: (x for x in [1.0, 2.0, 3.0, 4.0]),
    "array": lambda: np.array([1.0, 2.0, 3.0, 4.0]),
}


@pytest.mark.parametrize("what, name", [("weights", "weights"), ("lambdas", "stretch factors")])
@pytest.mark.parametrize("make", FOUR_INPUTS.values(), ids=FOUR_INPUTS.keys())
def test_weights_and_lambdas_unpacked_at_once_as_in_general(make, what, name):
    # a list or tuple of four is unpacked in one step; that must give what
    # the entry-by-entry coercion and the positivity check give, or their
    # refusal (a nested entry is a wrong count there, not a bare TypeError),
    # and the constructors must give the same
    def outcome(coerce):
        try:
            return coerce(make())
        except ValueError as e:
            return str(e)

    def by_entries(values):
        out = _entries(values, 4, what)
        if not all(0.0 < x < math.inf for x in out):
            raise ValueError(f"{name} must be positive and finite")
        return out

    fast = outcome(lambda v: _positive(v, what, name))
    assert fast == outcome(by_entries)
    assert isinstance(fast, str) or all(type(x) is float for x in fast)
    if what == "weights":
        built = outcome(lambda v: WeightedTetrahedron(UNIT, v).weights)
    else:
        base = WeightedTetrahedron(UNIT, [1.0] * 4)
        built = outcome(lambda v: PlasticityInstance(base, (0.25, 0.25, 0.25), v).lambdas)
    assert built == fast


@pytest.mark.parametrize("a", [1e-110, 1e110])
def test_weighted_tetrahedron_at_extreme_edge_lengths(a):
    # a**3 raised OverflowError at edge 1e110, and the volume underflowed
    # to a DegenerateTetrahedron at 1e-110
    t = WeightedTetrahedron(embed_regular(a), [1.0, 1.0, 1.0, 1.0])
    assert t.max_edge() == pytest.approx(a, rel=1e-15)
    flat = [[a * c for c in p] for p in [[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]]]
    with pytest.raises(DegenerateTetrahedron):
        WeightedTetrahedron(flat, [1.0, 1.0, 1.0, 1.0])


@pytest.mark.parametrize("a", [1e-155, 1e155, 1e300])
def test_weighted_tetrahedron_rejects_edges_whose_squares_leave_float_range(a):
    # their squared edges overflow or underflow: unchecked, every margin at
    # 1e155 reads -w, and this floating instance comes back absorbed at A1
    with pytest.raises(OutOfDomain, match="largest edge"):
        WeightedTetrahedron(embed_regular(a), [2.0, 1.3, 1.1, 0.7])


@pytest.mark.parametrize("bad", [math.inf, math.nan, 0.0])
def test_weighted_tetrahedron_rejects_weights_not_finite_positive(bad):
    # an infinite weight once gave a nan objective and nan margins
    with pytest.raises(ValueError, match="weights must be positive and finite"):
        WeightedTetrahedron(embed_regular(1.0), [bad, 1.0, 1.0, 1.0])


@pytest.mark.parametrize("field", ["vertices", "weights", "_pairs"])
def test_weighted_tetrahedron_is_frozen(field):
    # an assignment once went unvalidated, and max_edge kept the old value;
    # classify and weiszfeld read the vertex pairs stored at construction
    t = WeightedTetrahedron(embed_regular(1.0), [1.0] * 4)
    before = getattr(t, field)
    with pytest.raises(AttributeError):
        setattr(t, field, ((0.0, 0.0, 0.0),) * 4 if field == "vertices" else (2.0,) * 4)
    assert getattr(t, field) == before and t.max_edge() == pytest.approx(1.0, rel=1e-15)


def test_weighted_tetrahedron_stores_each_vertex_pair_once():
    # one flat tuple: the offsets A_i - A_j of the six pairs j < i, in the
    # order 10, 20, 21, 30, 31, 32, then their lengths in the same order;
    # all floats in a tuple, so the frozen record holds nothing mutable.
    # The weights are scaled by the power of two that brings the largest,
    # 4, into [0.5, 1): 2^-3
    v = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 3.0]])
    t = WeightedTetrahedron(v, (1.0, 2.0, 3.0, 4.0))
    w = (0.125, 0.25, 0.375, 0.5)
    assert t._units == (w, 3) and type(t._units[0]) is tuple and t.weights == (1.0, 2.0, 3.0, 4.0)
    pairs = [(i, j) for i in range(4) for j in range(i)]
    assert pairs == [(1, 0), (2, 0), (2, 1), (3, 0), (3, 1), (3, 2)]
    assert type(t._pairs) is tuple and len(t._pairs) == 6 * 3 + 6
    assert all(type(c) is float for c in t._pairs)
    offsets = [t._pairs[3 * k : 3 * k + 3] for k in range(6)]
    lengths = t._pairs[18:]
    for (i, j), o, d in zip(pairs, offsets, lengths, strict=True):
        assert o == tuple(v[i] - v[j])
        assert d == math.sqrt(sum(c * c for c in o))
    # each pair once: no two entries describe the same pair of vertices
    assert len({frozenset(p) for p in pairs}) == 6
    assert t.max_edge() == math.sqrt(13.0)


@pytest.mark.parametrize(
    "a, b1, b4, error",
    [
        (math.inf, 1.0, 1.0, NonPositiveEdge),
        (math.nan, 1.0, 1.0, NonPositiveEdge),
        (1.0, math.inf, 1.0, ValueError),
        (1.0, 1.0, math.inf, ValueError),
        (1.0, math.nan, 1.0, ValueError),
        (1.0, 1.0, math.nan, ValueError),
    ],
)
def test_symmetric_instance_rejects_non_finite_values(a, b1, b4, error):
    # b1 = inf once solved to y = nan
    with pytest.raises(error, match="positive and finite"):
        SymmetricInstance(a=a, b1=b1, b4=b4)


def test_symmetric_instance_validation():
    with pytest.raises(NonPositiveEdge):
        SymmetricInstance(a=-1.0, b1=1.0, b4=1.0)
    with pytest.raises(ValueError):
        SymmetricInstance(a=1.0, b1=0.0, b4=1.0)
    inst = SymmetricInstance(a=2.0, b1=2.0, b4=1.0)
    assert inst.c == pytest.approx(math.sqrt(2) / 2)


def test_largest_edge_message_measures_the_edge_without_squaring():
    # its squares overflow: the message once read "the largest edge, inf"
    with pytest.raises(OutOfDomain, match="largest edge") as err:
        WeightedTetrahedron(embed_regular(1e200), [2.0, 1.3, 1.1, 0.7])
    assert "inf" not in str(err.value)
    assert float(str(err.value).split(", ")[1]) == pytest.approx(1e200, rel=1e-15)


@pytest.mark.parametrize("t", [1.3e-162, 1.5e-162, 1.56e-162])
def test_an_edge_whose_squares_round_to_zero_is_out_of_domain(t):
    # A0A1 = t * (1, 1, 1) has length above 6.9e-12 of the largest edge
    # (2^-500, an equilateral A0A2A3 normal to it), so the tetrahedron is
    # not coplanar, yet each square rounds to 0: the pair distance read 0,
    # and classify left that pair out of its margins
    s = 2.0**-500 * 1.0000001
    e1 = (1 / math.sqrt(2), -1 / math.sqrt(2), 0.0)
    e2 = (1 / math.sqrt(6), 1 / math.sqrt(6), -2 / math.sqrt(6))
    a2 = tuple(s * x for x in e1)
    a3 = tuple(s * (0.5 * x + math.sqrt(3) / 2 * z) for x, z in zip(e1, e2))
    with pytest.raises(OutOfDomain, match="shortest edge") as err:
        WeightedTetrahedron([(0.0, 0.0, 0.0), (t, t, t), a2, a3], [1.0] * 4)
    assert float(str(err.value).split(", ")[1]) == pytest.approx(t * math.sqrt(3), rel=1e-15)


@pytest.mark.parametrize("a", [math.inf, math.nan, 0.0, -1.0])
@pytest.mark.parametrize(
    "call",
    [
        embed_regular,
        lambda a: axial_distances(a, 0.0),
        lambda a: angles_at(a, 0.0),
        lambda a: SymmetricInstance(a, 1.0, 1.0),
    ],
    ids=["embed_regular", "axial_distances", "angles_at", "SymmetricInstance"],
)
def test_axial_frame_rejects_edges_not_finite(call, a):
    # only a > 0 was tested here: angles_at(inf, 0) gave 90, 90 and 135 degrees
    with pytest.raises(NonPositiveEdge) as err:
        call(a)
    assert str(err.value) == f"edge length must be positive and finite, got {a}"


def test_edges_whose_squares_all_round_to_zero_are_out_of_domain():
    # every distance measured 0, and the tetrahedron was called coplanar
    with pytest.raises(OutOfDomain, match="largest edge, 1e-163,"):
        WeightedTetrahedron(embed_regular(1e-163), [1.0] * 4)
    with pytest.raises(DegenerateTetrahedron):
        WeightedTetrahedron([(1e-163, 0.0, 0.0)] * 4, [1.0] * 4)


def test_axial_frame_at_the_largest_edges():
    # a * sqrt(2) overflowed above about 1.27e308, so c was inf and
    # embed_regular returned infinite z coordinates
    a = 1.5e308
    c = SymmetricInstance(a=a, b1=2.5, b4=1.0).c
    assert c == pytest.approx(a * (math.sqrt(2) / 4), rel=1e-15)
    vertices = embed_regular(a)
    assert all(math.isfinite(x) for v in vertices for x in v)
    assert [v[2] for v in vertices] == [c, c, -c, -c]
