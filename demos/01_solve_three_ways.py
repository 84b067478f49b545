"""Solve one instance by three independent routes and compare.

The closed form, bisection of the reduced axial objective's derivative,
and the full 3-D general solver `weiszfeld` should all land on the same
point when the weights come in two equal pairs on a regular tetrahedron.
"""

from ftsolve import (
    SymmetricInstance,
    ft_axial,
    minimize_reduced,
    solve_symmetric,
    weiszfeld,
)

inst = SymmetricInstance(a=1.0, b1=2.5, b4=1.0)

y_closed = ft_axial(inst)
y_bisect = minimize_reduced(inst)

sol = weiszfeld(inst.tetrahedron())
y_weis = sol.point[2]  # the symmetry axis is z

print(f"instance: edge a={inst.a}, weights b1=b2={inst.b1}, b3=b4={inst.b4}")
print(f"closed form      y = {y_closed:.15f}")
print(f"bisection        y = {y_bisect:.15f}")
print(f"weiszfeld        y = {y_weis:.15f}")
print(f"spread: {max(y_closed, y_bisect, y_weis) - min(y_closed, y_bisect, y_weis):.3e}")

full = solve_symmetric(inst)
print()
print(f"minimizer point   {full.point}")
print(f"objective value   {full.objective:.12f}")
print(f"force residual    {full.residual:.3e}")
