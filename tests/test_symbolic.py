"""Symbolic proofs of the closed form's algebra.

On the axis, a01^2 = h + (y - c)^2 and a04^2 = h + (y + c)^2 with
h = a^2/4 and c = a sqrt(2)/4.  Squaring b1 (y - c)/a01 = -b4 (y + c)/a04
and clearing the denominators gives

    b1^2 (y - c)^2 a04^2 - b4^2 (y + c)^2 a01^2 = 0,

which, times 64, must be the quartic of quartic_coefficients identically
in a, b1, b4 and y.

The radical intermediate s is printed as a degree-12 polynomial plus
2 sqrt(2) times the root of a degree-24 one, in p = b1^2 and q = b4^2;
_s_value evaluates the telescoped form -a^6 (p - q)^8 / W instead.
"""

import pytest
import sympy as sp

from ftsolve import SymmetricInstance, quartic_coefficients, radical_intermediates

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


@pytest.mark.parametrize("values", [(1, 5 / 2, 1), (3 / 4, 1, 7), (1000, 1e-3, 2)])
def test_s_follows_the_telescoped_form(values):
    # ties the proved form above to the float code
    ri = radical_intermediates(SymmetricInstance(*values))
    va, vb1, vb4 = (sp.Rational(v) for v in values)
    want = TELESCOPED.subs({a: va, p: vb1**2, q: vb4**2}).evalf(30)
    assert ri.s == pytest.approx(float(want), rel=1e-14, abs=0)
