"""Both axial roots against the exact inverse map.

The stationarity equation is linear in the weights, so every axial
coordinate y is the root for exactly one weight ratio, in closed form
(cf. Zachos & Zouzoulas, "The weighted Fermat-Torricelli problem for
tetrahedra and an 'inverse' problem", J. Math. Anal. Appl. 353, 2009):

    rho(y) = (c + y) a01 / ((c - y) a04)    minimizer, -c < y < c
    rho(y) = (y + c) a01 / ((y - c) a04)    signed-weight twin, y > c

rho is evaluated at 40 digits for a float y and rounded to a float.  That
rounding moves the root by kappa = |rho / (y rho'(y))| times 2^-53
relative, so the solved root must come back within 4 (kappa + 1) 2^-52 |y|
of y.  Swapping the weights mirrors the root to -y.  No root finding is
involved.
"""

import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf

from ftsolve import SymmetricInstance, complementary_axial, ft_axial

EPS = 2.0**-52
EDGES = (1e-3, 1.0, 1e3)
# y / c for each root, up to 1e-12 from the edge at c
INTERIOR = [1 - 10.0**-k for k in range(1, 13)] + [10.0**-k for k in range(1, 15)]
EXTERIOR = [1 + 10.0**-k for k in range(1, 13)] + [10.0 ** (k / 4) for k in range(1, 17)]


def inverse(a, y):
    """The weight ratio b1/b4, rounded to a float, whose interior (|y| < c)
    or exterior (y > c) root is y, and the condition number kappa of y in
    that ratio."""
    with mp.workdps(40):
        a, y = mpf(a), mpf(y)
        c = a * mp.sqrt(2) / 4
        a01sq, a04sq = a * a / 4 + (y - c) ** 2, a * a / 4 + (y + c) ** 2
        rho = abs((y + c) / (y - c)) * mp.sqrt(a01sq / a04sq)
        dlog = 1 / (y + c) - 1 / (y - c) + (y - c) / a01sq - (y + c) / a04sq
        return float(rho), float(abs(1 / (y * dlog)))


def check_round_trip(a, y):
    exterior = y > a * math.sqrt(2.0) / 4.0
    solve = complementary_axial if exterior else ft_axial
    rho, kappa = inverse(a, y)
    bound = 4 * (kappa + 1) * EPS * abs(y)
    for b1, b4, want in ((rho, 1.0, y), (1.0, rho, -y)):
        got = solve(SymmetricInstance(a=a, b1=b1, b4=b4))
        assert abs(got - want) <= bound, (a, b1, b4, want, got, kappa)


@pytest.mark.parametrize("a", EDGES)
@pytest.mark.parametrize("ratios", [INTERIOR, EXTERIOR], ids=["interior", "exterior"])
def test_roots_at_the_edge_lists_invert_their_weight_ratios(a, ratios):
    c = a * math.sqrt(2.0) / 4.0
    for t in ratios:
        check_round_trip(a, c * t)


@given(
    a=st.floats(min_value=1e-3, max_value=1e3),
    t=st.floats(min_value=-1.0, max_value=1.0),
)
@settings(max_examples=500, deadline=None)
def test_interior_root_inverts_its_weight_ratio(a, t):
    y = a * math.sqrt(2.0) / 4.0 * t
    assume(y != 0 and abs(t) <= 1 - 1e-12)
    check_round_trip(a, y)


@given(
    a=st.floats(min_value=1e-3, max_value=1e3),
    t=st.floats(min_value=1 + 1e-12, max_value=1e4),
)
@settings(max_examples=500, deadline=None)
def test_exterior_root_inverts_its_weight_ratio(a, t):
    check_round_trip(a, a * math.sqrt(2.0) / 4.0 * t)
