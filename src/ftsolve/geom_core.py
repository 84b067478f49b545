"""Core geometric types, the regular-tetrahedron axial embedding, and the
weighted distance-sum objective.

Points, vertices and weights are plain tuples of floats; inputs may be any
sequences of numbers (a list or tuple of the right length is unpacked in
one step).  A WeightedTetrahedron keeps its six vertex pairs once, in one
flat tuple that classify and weiszfeld read.  The canonical embedding
places the symmetry axis of the two-pair-weights problem on +z, with the
midpoint of the common perpendicular at the origin and the heavier pair's
edge (A1A2) on the +z side.
"""

from __future__ import annotations

import math

from .errors import DegenerateTetrahedron, FtSolveError, NonPositiveEdge, OutOfDomain

COPLANARITY_RTOL = 1e-12
SQRT2 = math.sqrt(2.0)
_MIN_NORMAL = 2.0**-1022


class _Record:
    """An immutable record over __slots__: assignment raises AttributeError,
    and equality, hash, repr and pickling go by the public slots, in order
    (the constructor's parameters).  Private slots hold derived values.
    Constructors write the slots through ``_setters``, the slot descriptors'
    setters in slot order, looked up once per class."""

    __slots__ = ()

    def __init_subclass__(cls):
        super().__init_subclass__()
        cls._setters = tuple(cls.__dict__[name].__set__ for name in cls.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot assign {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot delete {name!r}")

    def _values(self) -> tuple:
        return tuple([getattr(self, k) for k in self.__slots__ if k[0] != "_"])

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        names = [k for k in self.__slots__ if k[0] != "_"]
        body = ", ".join(f"{k}={v!r}" for k, v in zip(names, self._values()))
        return f"{type(self).__qualname__}({body})"

    def __reduce__(self):
        return type(self), self._values()


def _float(x) -> float:
    """float(x), or an infinity of x's sign where float() overflows (a huge int)."""
    try:
        return float(x)
    except OverflowError:
        return math.inf if x > 0 else -math.inf


def _entries(values, n: int, what: str, entry=_float) -> tuple:
    """The n entries of values, each passed through entry; else ValueError.
    A string, dict or set is refused: its entries are not n values in order."""
    try:
        out = () if isinstance(values, (str, dict, set, frozenset)) else tuple(map(entry, values))
    except TypeError:
        out = ()
    if len(out) != n:
        raise ValueError(f"{what} must have {n} entries")
    return out


def _point(p) -> tuple[float, float, float]:
    """Coerce to a finite 3-tuple of floats, in one unpacking from a list or
    tuple (other inputs and refusals take the long way, _entries)."""
    try:
        x, y, z = p if type(p) in (list, tuple) else ()
        out = x, y, z = float(x), float(y), float(z)
    except (TypeError, ValueError, OverflowError):
        out = x, y, z = _entries(p, 3, "a point")
    inf = math.inf
    if not (-inf < x < inf and -inf < y < inf and -inf < z < inf):
        raise ValueError("point coordinates must be finite")
    return out


def _positive(values, what: str, name: str) -> tuple:
    """_entries(values, 4, what), in one unpacking from a list or tuple (other
    inputs and refusals take the long way); ValueError naming name unless
    each entry is positive and finite."""
    try:
        w0, w1, w2, w3 = values if type(values) in (list, tuple) else ()
        out = w0, w1, w2, w3 = float(w0), float(w1), float(w2), float(w3)
    except (TypeError, ValueError, OverflowError):
        out = w0, w1, w2, w3 = _entries(values, 4, what)
    inf = math.inf
    if not (0.0 < w0 < inf and 0.0 < w1 < inf and 0.0 < w2 < inf and 0.0 < w3 < inf):
        raise ValueError(f"{name} must be positive and finite")
    return out


def _unscaled(value: float, e: int, what: str) -> float:
    """The one value times 2^e (exact unless subnormal), for a value computed
    at weights scaled by 2^-e; FtSolveError naming what if it exceeds the
    float range."""
    try:
        return math.ldexp(value, e)
    except OverflowError:
        raise FtSolveError(f"the {what} exceeds the float range") from None


def _edge(a: float) -> float:
    """c = a*sqrt(2)/4 (see SymmetricInstance.c); NonPositiveEdge unless 0 < a < inf."""
    if not 0 < a < math.inf:
        raise NonPositiveEdge(f"edge length must be positive and finite, got {a}")
    return a * (SQRT2 / 4.0)  # a * SQRT2 overflows for a above about 1.27e308


def _axial_slope(b1: float, b4: float, y: float, sign4: int) -> float:
    """b1 (y-c)/a01 + sign4 b4 (y+c)/a04, the slope of b1 a01 + sign4 b4 a04 at
    a = 1 (and so at edge a and point a y), as (b1 - b4)(y-c)/a01 + b4 g: nothing
    cancels near b1 = b4.  Where the terms of g differ in sign (|y| < c for +1,
    |y| > c for -1), g is rationalized by (y+c)^2 a01^2 - (y-c)^2 a04^2 = c y;
    where they agree it is summed as is (rationalized, 0/0 at -1, y = 0)."""
    c = SQRT2 / 4.0
    a01, a04 = math.hypot(0.5, c - y), math.hypot(0.5, c + y)
    if (abs(y) < c) == (sign4 > 0):
        bg = b4 * c * y / (a01 * a04 * ((c - y) * a04 + sign4 * (c + y) * a01))
    else:
        bg = b4 * ((y - c) / a01 + sign4 * (y + c) / a04)
    return (b1 - b4) * (y - c) / a01 + bg


def _lengths(points):
    """Pairwise distances, without the squares that overflow or round to 0."""
    return [math.dist(p, q) for i, p in enumerate(points) for q in points[:i]]


def _length(ox: float, oy: float, oz: float) -> float:
    """|(ox, oy, oz)| as the square root of the sum of squares, or by
    math.hypot where that sum leaves the normal range: it overflows, or
    underflows and loses digits."""
    s = ox * ox + oy * oy + oz * oz
    return math.sqrt(s) if _MIN_NORMAL <= s < math.inf else math.hypot(ox, oy, oz)


def _offsets(points, x):
    """Offsets x - A_i and distances |x - A_i| from x to each point A_i."""
    v = [(x[0] - a[0], x[1] - a[1], x[2] - a[2]) for a in points]
    return v, [_length(ox, oy, oz) for ox, oy, oz in v]


class WeightedTetrahedron(_Record):
    """Four non-coplanar vertices (4 points) with four finite positive
    weights.  ``_pairs`` holds the offsets A_i - A_j of the pairs j < i (10,
    20, 21, 30, 31, 32) and then their lengths, as one flat tuple of floats;
    ``_units`` the weights scaled by 2^-e into [0.5, 1), and e."""

    __slots__ = ("vertices", "weights", "_pairs", "_units", "_max_edge")

    def __init__(self, vertices, weights):
        # _entries(vertices, 4, "vertices", _point), in one unpacking from a list
        # or tuple of lists or tuples; other inputs and refusals take the long way
        seq = list, tuple
        try:
            p0, p1, p2, p3 = vertices if type(vertices) in seq else ()
            if not (type(p0) in seq and type(p1) in seq and type(p2) in seq and type(p3) in seq):
                raise TypeError
            (x0, y0, z0), (x1, y1, z1), (x2, y2, z2), (x3, y3, z3) = p0, p1, p2, p3
            f = float
            x0, y0, z0, x1, y1, z1 = f(x0), f(y0), f(z0), f(x1), f(y1), f(z1)
            x2, y2, z2, x3, y3, z3 = f(x2), f(y2), f(z2), f(x3), f(y3), f(z3)
            # a nan or an infinity makes the sum one; huge finite ones take the long way too
            if not math.isfinite(x0 + y0 + z0 + x1 + y1 + z1 + x2 + y2 + z2 + x3 + y3 + z3):
                raise ValueError
            v = (x0, y0, z0), (x1, y1, z1), (x2, y2, z2), (x3, y3, z3)
        except (TypeError, ValueError, OverflowError):
            v = (x0, y0, z0), (x1, y1, z1), (x2, y2, z2), (x3, y3, z3) = _entries(vertices, 4, "vertices", _point)
        w = _positive(weights, "weights", "weights")
        # each vertex pair once (see _pairs)
        x10, y10, z10 = x1 - x0, y1 - y0, z1 - z0
        x20, y20, z20 = x2 - x0, y2 - y0, z2 - z0
        x21, y21, z21 = x2 - x1, y2 - y1, z2 - z1
        x30, y30, z30 = x3 - x0, y3 - y0, z3 - z0
        x31, y31, z31 = x3 - x1, y3 - y1, z3 - z1
        x32, y32, z32 = x3 - x2, y3 - y2, z3 - z2
        sqrt = math.sqrt
        d10 = sqrt(x10 * x10 + y10 * y10 + z10 * z10)
        d20 = sqrt(x20 * x20 + y20 * y20 + z20 * z20)
        d21 = sqrt(x21 * x21 + y21 * y21 + z21 * z21)
        d30 = sqrt(x30 * x30 + y30 * y30 + z30 * z30)
        d31 = sqrt(x31 * x31 + y31 * y31 + z31 * z31)
        d32 = sqrt(x32 * x32 + y32 * y32 + z32 * z32)
        pairs = (
            x10, y10, z10, x20, y20, z20, x21, y21, z21, x30, y30, z30, x31, y31, z31, x32, y32, z32,
            d10, d20, d21, d30, d31, d32,
        )
        # the weights scaled by the power of two (exact) that brings the largest
        # into [0.5, 1), so the pulls and the Newton step's determinant (cubic
        # in w) stay in range; margins, objectives and residuals are scaled back
        w0, w1, w2, w3 = w
        we = math.frexp(max(w0, w1, w2, w3))[1]
        ldexp = math.ldexp
        units = ldexp(w0, -we), ldexp(w1, -we), ldexp(w2, -we), ldexp(w3, -we)
        edge = max(d10, d20, d21, d30, d31, d32)
        set_vertices, set_weights, set_pairs, set_units, set_max_edge = self._setters
        set_vertices(self, v)
        set_weights(self, w)
        set_pairs(self, pairs)
        set_units(self, (units, we))
        set_max_edge(self, edge)
        # the squares of the lengths stay normal; only coincident vertices measure 0
        if not 2.0**-500 <= edge <= 2.0**500 and (longest := max(_lengths(v))):
            raise OutOfDomain(f"the largest edge, {longest}, is outside [2^-500, 2^500]")
        # the volume from A_1 - A_0, A_2 - A_0 and A_3 - A_0 scaled by the power
        # of two (exact) that brings the largest edge into [0.5, 1): a^3 stays in range
        a, e = math.frexp(edge)
        s = 2.0**-e
        ux, uy, uz = x10 * s, y10 * s, z10 * s
        vx, vy, vz = x20 * s, y20 * s, z20 * s
        wx, wy, wz = x30 * s, y30 * s, z30 * s
        vol6 = abs(ux * (vy * wz - vz * wy) + uy * (vz * wx - vx * wz) + uz * (vx * wy - vy * wx))
        # scale-invariant coplanarity test on the signed volume
        if vol6 / 6.0 <= COPLANARITY_RTOL * a**3:
            raise DegenerateTetrahedron("vertices are coplanar within tolerance")
        # edges down to 7e-12 of the largest pass, and squares can round to 0 below 2.8e-162
        if 0.0 in (d10, d20, d21, d30, d31, d32):
            raise OutOfDomain(f"the shortest edge, {min(_lengths(v))}, squares to 0")

    def max_edge(self) -> float:
        """The largest edge length, measured once at construction."""
        return self._max_edge


class SymmetricInstance(_Record):
    """Regular tetrahedron of edge ``a`` with weight pairs b1 (on A1, A2) and
    b4 (on A3, A4), as floats.  ``_roots`` holds analytic._axial_roots' answer
    once solved (written through _keep_roots), and None until then."""

    __slots__ = ("a", "b1", "b4", "_roots")

    def __init__(self, a: float, b1: float, b4: float):
        if not type(a) is type(b1) is type(b4) is float:
            a, b1, b4 = _float(a), _float(b1), _float(b4)
        if not 0 < a < math.inf:
            _edge(a)  # raises its NonPositiveEdge
        if not (0 < b1 < math.inf and 0 < b4 < math.inf):
            raise ValueError("weights must be positive and finite")
        set_a, set_b1, set_b4, set_roots = self._setters
        set_a(self, a)
        set_b1(self, b1)
        set_b4(self, b4)
        set_roots(self, None)

    @property
    def c(self) -> float:
        """Half-length of the common perpendicular: a*sqrt(2)/4."""
        return _edge(self.a)

    def tetrahedron(self) -> WeightedTetrahedron:
        return WeightedTetrahedron(embed_regular(self.a), (self.b1, self.b1, self.b4, self.b4))


_keep_roots = SymmetricInstance._setters[3]  # the _roots slot


def embed_regular(a: float) -> tuple[tuple[float, float, float], ...]:
    """The four vertices of a regular tetrahedron of edge a in the canonical
    frame: the midpoints of edges A1A2 and A3A4 sit at +-c on the z axis,
    c = a*sqrt(2)/4.  Other numbers are taken as floats, a huge int as an
    infinity."""
    if type(a) is not float:
        a = _float(a)
    c = _edge(a)
    h = a / 2.0
    return (-h, 0.0, c), (h, 0.0, c), (0.0, -h, -c), (0.0, h, -c)


def axial_distances(a: float, y: float) -> tuple[float, float]:
    """Distances from the axial point at coordinate y to the A1/A2 pair
    (a01) and to the A3/A4 pair (a04); as angles_at, ValueError unless y is
    finite, and other numbers taken as floats."""
    if not type(a) is type(y) is float:
        a, y = _float(a), _float(y)
    c = _edge(a)
    if not math.isfinite(y):
        raise ValueError(f"the axial coordinate must be finite, got {y}")
    return math.hypot(a / 2.0, c - y), math.hypot(a / 2.0, c + y)


def objective(points, weights, x) -> float:
    """Weighted sum of Euclidean distances from x to the given points.

    Signed weights are permitted (complementary problems), but not infinite
    or nan ones; a point coincident with x contributes zero regardless of its
    weight.  Raises FtSolveError when the sum, or a term of it, exceeds the
    float range.
    """
    pts = [_point(p) for p in points]
    if not pts:
        raise ValueError("point list must be non-empty")
    w = _entries(weights, len(pts), "weights")
    if not all(map(math.isfinite, w)):
        raise ValueError("weights must be finite")
    _, d = _offsets(pts, _point(x))
    try:
        total = math.fsum(wi * di for wi, di in zip(w, d))
        if not math.isinf(total):
            return total
    except (OverflowError, ValueError):  # an intermediate overflow, or inf - inf
        pass
    raise FtSolveError("the objective exceeds the float range")


class FtSolution(_Record):
    """Solution record: location, objective value, equilibrium defect, axial
    coordinate (None off the symmetry axis or for absorbed cases) and the
    absorbing vertex (0-based; None when the minimizer floats)."""

    __slots__ = ("point", "objective", "residual", "y", "vertex")

    def __init__(self, point, objective: float, residual: float, y=None, vertex=None):
        set_point, set_objective, set_residual, set_y, set_vertex = self._setters
        set_point(self, point)
        set_objective(self, objective)
        set_residual(self, residual)
        set_y(self, y)
        set_vertex(self, vertex)

    @property
    def case(self) -> str:
        return "floating" if self.vertex is None else "absorbed"
