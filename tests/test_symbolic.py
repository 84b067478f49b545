"""Symbolic proof that the quartic is the squared stationarity equation.

On the axis, a01^2 = h + (y - c)^2 and a04^2 = h + (y + c)^2 with
h = a^2/4 and c = a sqrt(2)/4.  Squaring b1 (y - c)/a01 = -b4 (y + c)/a04
and clearing the denominators gives

    b1^2 (y - c)^2 a04^2 - b4^2 (y + c)^2 a01^2 = 0,

which, times 64, must be the quartic of quartic_coefficients identically
in a, b1, b4 and y.
"""

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
