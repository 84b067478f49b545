"""Both axial roots, bracketed exactly: each float root of the stationarity
quartic is proven to lie within a few ulps of the true root.

At float inputs the quartic 64 y^4 d - 8 sqrt(2) a^3 y (b1^2 + b4^2) + 3 a^4 d,
d = (b1 - b4)(b1 + b4), is P(y) = A - sqrt(2) B with the rationals
A = d (64 y^4 + 3 a^4) and B = 8 a^3 y (b1^2 + b4^2).  Its sign at a float y
is exact in fractions: where A and B share a sign it is that of A^2 - 2 B^2
times the sign of A, and otherwise it is plain.  P is convex for d > 0
(P'' = 768 d y^2), and P(-y) is -P(y) with the pairs swapped, so it has two
real roots: the interior one (the minimizer), its only root in (-c, c) for
c = a sqrt(2)/4, and the exterior one, its only root beyond c in magnitude.
So a sign change between y - k ulp and y + k ulp, with both ends on the
root's side of c (8 x^2 against a^2, exact), proves that the root lies
within k ulps of y.

The module needs neither numpy nor pytest, so the check runs on any supported
Python:

    PYTHONPATH=src:tests python -c "import test_axial_brackets as m; print(m.worst())"
"""

import functools
import math
import random
from fractions import Fraction

from ftsolve import SymmetricInstance, complementary_axial, ft_axial

# the weight ratios and edges of the 50-digit comparison, test_precision's too
BAND = {f"1+1e-{k}": 1.0 + 10.0**-k for k in range(1, 11)}
BROAD = {f"10^{x:g}": 10.0**x for x in [0.05] + [j / 4 for j in range(1, 49)]}
RATIOS = {**BAND, **BROAD}
EDGES = (1e-3, 1.0, 1e3)
# draws per family of the fixed sweep, and the brackets, in ulps, that hold
# on every input.  The worst interior root, 5.3 ulps off by a 60-digit root,
# is at (a, b1, b4) = (21.481405647194098, 0.024501495724114017,
# 0.024930878735573942); the worst exterior one, 3.0 ulps off, at
# (0.005239824258547087, 91.05360822917822, 90.40515671442903)
DRAWS = 508
INTERIOR_ULPS, EXTERIOR_ULPS = 6, 4
SEARCH_ULPS = 64  # the widest bracket tried


def quartic_sign(a, b1, b4, y) -> int:
    """The sign of P(y) = A - sqrt(2) B, exactly, at float inputs."""
    a, b1, b4, y = map(Fraction, (a, b1, b4, y))
    big_a = (b1 - b4) * (b1 + b4) * (64 * y**4 + 3 * a**4)
    big_b = 8 * a**3 * y * (b1 * b1 + b4 * b4)
    sign_a, sign_b = (big_a > 0) - (big_a < 0), (big_b > 0) - (big_b < 0)
    if sign_a != sign_b:
        return sign_a or -sign_b
    q = big_a * big_a - 2 * big_b * big_b
    return sign_a * ((q > 0) - (q < 0))


def _outside(a, x) -> bool:
    """|x| > c = a sqrt(2)/4, that is 8 x^2 > a^2 (never equal at floats)."""
    return 8 * Fraction(x) ** 2 > Fraction(a) ** 2


def bracket_ulps(a, b1, b4, y, exterior: bool):
    """The least k up to SEARCH_ULPS for which P changes sign between the floats k
    steps below and above y, both inside (-c, c) for the interior root, or
    both beyond c on one side for the exterior one; None if there is none."""
    lo = hi = y
    for k in range(1, SEARCH_ULPS + 1):
        lo, hi = math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)
        if exterior:
            side = _outside(a, lo) and _outside(a, hi) and (lo > 0) == (hi > 0)
        else:
            side = not (_outside(a, lo) or _outside(a, hi))
        if not side:
            return None
        if quartic_sign(a, b1, b4, lo) != quartic_sign(a, b1, b4, hi):
            return k
    return None


def inputs():
    """(a, b1, b4): DRAWS draws of each family from random.Random(1), weight
    ratios 10^U(-12, 12) and 1 + 10^-U(1, 15) (the heavier pair drawn at
    random), a = 10^U(-3, 3) and b4 = 10^U(-2, 2); then RATIOS x EDGES with
    either pair the heavier."""
    rng = random.Random(1)
    out = []
    for near_one in (False, True):
        for _ in range(DRAWS):
            ratio = 1.0 + 10.0 ** -rng.uniform(1, 15) if near_one else 10.0 ** rng.uniform(-12, 12)
            a, b4 = 10.0 ** rng.uniform(-3, 3), 10.0 ** rng.uniform(-2, 2)
            b1 = ratio * b4
            out.append((a, b4, b1) if near_one and rng.random() < 0.5 else (a, b1, b4))
    out += [(a, b1, b4) for r in RATIOS.values() for a in EDGES for b1, b4 in ((r, 1.0), (1.0, r))]
    return out


@functools.cache
def worst():
    """For the interior and the exterior root: the largest bracket in ulps
    over inputs() (inf if a root could not be bracketed) and its input."""
    found = {}
    for a, b1, b4 in inputs():
        inst = SymmetricInstance(a, b1, b4)
        for exterior, y in ((False, ft_axial(inst)), (True, complementary_axial(inst))):
            k = bracket_ulps(a, b1, b4, y, exterior)
            key = math.inf if k is None else k
            if exterior not in found or key > found[exterior][0]:
                found[exterior] = key, (a, b1, b4)
    return {"interior": found[False], "exterior": found[True]}


def test_interior_root_within_its_bound():
    k, (a, b1, b4) = worst()["interior"]
    assert k <= INTERIOR_ULPS, f"interior root {k} ulps off at (a, b1, b4) = ({a!r}, {b1!r}, {b4!r})"


def test_exterior_root_within_its_bound():
    k, (a, b1, b4) = worst()["exterior"]
    assert k <= EXTERIOR_ULPS, f"exterior root {k} ulps off at (a, b1, b4) = ({a!r}, {b1!r}, {b4!r})"
