"""Symbolic proofs of the closed form's algebra.

On the axis, a01^2 = h + (y - c)^2 and a04^2 = h + (y + c)^2 with
h = a^2/4 and c = a sqrt(2)/4.  Squaring b1 (y - c)/a01 = -b4 (y + c)/a04
and clearing the denominators gives

    b1^2 (y - c)^2 a04^2 - b4^2 (y + c)^2 a01^2 = 0,

which, times 64, must be the quartic of quartic_coefficients identically
in a, b1, b4 and y.

The paper's radical intermediate s is printed as a degree-12 polynomial
plus 2 sqrt(2) times the root of a degree-24 one, in p = b1^2 and
q = b4^2; it telescopes to -a^6 (p - q)^8 / W.  analytic._axial_roots
takes the real radicals instead: at a = 1 and b1 > b4 the quartic is
y^4 - e y + 3/64 with e = sqrt(2) (p + q) / (8 d), d = p - q, its
resolvent t^3 - 3t/16 = e^2 has the real root t = (X + 1/X)/4 with
X^3 = W/d^2, and the roots (sqrt(t) -+ sqrt(R))/2 are evaluated through
the cancellation-free rewrites proved below.
"""

import itertools

import pytest
import sympy as sp

from ftsolve import SymmetricInstance, quartic_coefficients

a, b1, b4 = sp.symbols("a b1 b4", positive=True)
y = sp.symbols("y", real=True)
d = (b1 - b4) * (b1 + b4)
# c4..c0 as quartic_coefficients writes them
COEFFICIENTS = (64 * d, 0, 0, -8 * sp.sqrt(2) * a**3 * (b1**2 + b4**2), 3 * a**4 * d)


def test_quartic_is_the_squared_stationarity_equation():
    c, h = a * sp.sqrt(2) / 4, a**2 / 4
    squared = b1**2 * (y - c) ** 2 * (h + (y + c) ** 2) - b4**2 * (y + c) ** 2 * (h + (y - c) ** 2)
    quartic = sum(k * y ** (4 - i) for i, k in enumerate(COEFFICIENTS))
    assert sp.expand(64 * squared - quartic) == 0


@pytest.mark.parametrize("values", [(1, 5 / 2, 1), (3 / 4, 1, 7), (1000, 1e-3, 2)])
def test_coefficients_follow_the_proved_formula(values):
    # ties the symbolic coefficients above to the float code
    q = quartic_coefficients(SymmetricInstance(*values))
    subs = dict(zip((a, b1, b4), values))
    for got, k in zip((q.c4, q.c3, q.c2, q.c1, q.c0), COEFFICIENTS):
        want = float(sp.sympify(k).subs(subs))
        assert got == pytest.approx(want, rel=1e-15, abs=0)


p, q = sp.symbols("p q", positive=True)
# the printed polynomial and inner term, as in
# test_analytic::test_s_matches_direct_two_term_evaluation
POLY = a**6 * (
    -(p**6) + 2 * p**5 * q + p**4 * q**2 - 4 * p**3 * q**3 + p**2 * q**4 + 2 * p * q**5 - q**6
)
INNER = a**12 * (
    p**11 * q - 8 * p**10 * q**2 + 29 * p**9 * q**3 - 64 * p**8 * q**4 + 98 * p**7 * q**5
    - 112 * p**6 * q**6 + 98 * p**5 * q**7 - 64 * p**4 * q**8 + 29 * p**3 * q**9
    - 8 * p**2 * q**10 + p * q**11
)
ROOT = sp.sqrt(p * q * (p**2 + q**2))
W = (p + q) ** 2 + 2 * sp.sqrt(2) * ROOT
TELESCOPED = -(a**6) * (p - q) ** 8 / W


def test_s_polynomial_and_inner_term_factor():
    assert sp.expand(POLY + a**6 * (p - q) ** 4 * (p + q) ** 2) == 0
    assert sp.expand(INNER - a**12 * p * q * (p - q) ** 8 * (p**2 + q**2)) == 0


def test_s_telescopes():
    # sqrt(INNER) = a^6 (p - q)^4 ROOT, both factors being non-negative
    sqrt_inner = a**6 * (p - q) ** 4 * ROOT
    assert sp.expand(sqrt_inner**2 - INNER) == 0
    assert sp.expand((POLY + 2 * sp.sqrt(2) * sqrt_inner) * W + a**6 * (p - q) ** 8) == 0


W_CONJUGATE = (p + q) ** 2 - 2 * sp.sqrt(2) * ROOT
E = sp.sqrt(2) * (p + q) / (8 * (p - q))
# X = cbrt(W / d^2) > 1, m = sqrt(t), r = sqrt(R)
X, m, r, e = sp.symbols("X m r e", positive=True)
RESOLVENT = m**6 - 3 * m**2 / 16 - e**2  # t^3 - 3t/16 - e^2 at t = m^2
R = 2 * e / m - m**2


def reduced(expr, *relations):
    """The numerator of expr reduced by each (relation, variable) in turn, as
    a polynomial in that variable: zero proves expr vanishes wherever the
    relations hold."""
    num = sp.expand(sp.numer(sp.together(expr)))
    for rel, var in relations:
        num = sp.expand(sp.rem(num, rel, var))
    return num


def test_w_times_its_conjugate_is_d4():
    assert sp.expand(W * W_CONJUGATE - (p - q) ** 4) == 0


def test_x_ties_to_the_telescoped_s():
    # X^3 |s| = a^6 d^6, so the kernel's X is the paper's s in another form
    assert sp.cancel(W / (p - q) ** 2 * -TELESCOPED - a**6 * (p - q) ** 6) == 0


def test_quartic_at_unit_edge_is_the_depressed_form():
    quartic = sum(k * y ** (4 - i) for i, k in enumerate(COEFFICIENTS)).subs(a, 1)
    depressed = y**4 - E.subs({p: b1**2, q: b4**2}) * y + sp.Rational(3, 64)
    assert sp.cancel(quartic / (64 * d) - depressed) == 0


def test_t_solves_the_resolvent():
    # 64 X^3 (t^3 - 3t/16 - e^2) = X^6 + 1 - 64 e^2 X^3, then X^3 = W/d^2;
    # W + W' = 2 (p + q)^2 and W W' = d^4 close it
    t = (X + 1 / X) / 4
    expr = sp.expand(64 * X**3 * RESOLVENT.subs({m: sp.sqrt(t), e: E}))
    assert sp.cancel(expr.subs(X**3, W / (p - q) ** 2)) == 0


def test_x_minus_one_and_t_minus_half_rewrites():
    # X^3 - 1 = (W - d^2)/d^2
    assert sp.expand(W - (p - q) ** 2 - (4 * p * q + 2 * sp.sqrt(2) * ROOT)) == 0
    assert sp.cancel((X - 1) - (X**3 - 1) / (X**2 + X + 1)) == 0
    assert sp.cancel((X + 1 / X) / 4 - sp.Rational(1, 2) - (X - 1) ** 2 / (4 * X)) == 0


def test_quartic_splits_over_sqrt_t():
    alpha, beta = (m**2 + e / m) / 2, (m**2 - e / m) / 2
    product = (y**2 + m * y + alpha) * (y**2 - m * y + beta)
    diff = product - (y**4 - e * y + sp.Rational(3, 64))
    assert reduced(diff, (RESOLVENT, e)) == 0
    # (m +- r)/2 are the roots of the second factor, with r^2 = R = m^2 - 4 beta
    assert sp.expand(m**2 - 4 * beta - R) == 0
    for root in ((m + r) / 2, (m - r) / 2):
        assert reduced(root**2 - m * root + beta, (r**2 - R, r)) == 0


def test_cancellation_free_r_and_interior_root():
    t = m**2
    r_kernel = 3 * t * (t - sp.Rational(1, 2)) * (t + sp.Rational(1, 2)) / ((2 * e + m**3) * m)
    assert reduced(R - r_kernel, (RESOLVENT, e)) == 0
    interior = 3 * m / (16 * (m**3 + e) * (m + r))
    assert reduced(interior - (m - r) / 2, (r**2 - R, r), (RESOLVENT, e)) == 0


@pytest.mark.parametrize("sign4", [1, -1])
def test_axial_slope_rationalization(sign4):
    # geom_core._axial_slope: with g = (y-c)/a01 + sign4 (y+c)/a04,
    # g a01 a04 ((c-y) a04 + sign4 (c+y) a01) = (y+c)^2 a01^2 - (y-c)^2 a04^2
    # = 4 h c y, which is c y at a = 1
    c, h = a * sp.sqrt(2) / 4, a**2 / 4
    a01, a04 = sp.symbols("a01 a04", positive=True)
    numerator = (y - c) * a04 + sign4 * (y + c) * a01  # g a01 a04
    product = sp.expand(numerator * ((c - y) * a04 + sign4 * (c + y) * a01))
    difference = (y + c) ** 2 * a01**2 - (y - c) ** 2 * a04**2
    assert sp.expand(product - difference) == 0
    squares = {a01**2: h + (c - y) ** 2, a04**2: h + (c + y) ** 2}
    assert sp.expand(difference.subs(squares) - 4 * h * c * y) == 0
    assert (4 * h * c).subs(a, 1) == c.subs(a, 1)


def test_kahan_height_product_is_the_papers_radicand():
    # plasticity.height_012 sorts the sides x >= y >= z; the product is the
    # paper's radicand for every assignment of a01, a02, a12 to x, y, z
    a01, a02, a12 = sides = sp.symbols("a01 a02 a12", positive=True)
    radicand = 4 * a01**2 * a02**2 - (a01**2 + a02**2 - a12**2) ** 2
    for x, y, z in itertools.permutations(sides):
        kahan = (x + (y + z)) * (z - (x - y)) * (z + (x - y)) * (x + (y - z))
        assert sp.expand(kahan - radicand) == 0
