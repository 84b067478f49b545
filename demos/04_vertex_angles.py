"""Angles subtended at the minimizer by pairs of vertices.

Three angles describe the view from the minimizer: between the two heavy
vertices, between the two light ones, and across the pairs.  With equal
weights all six angles are the tetrahedral angle arccos(-1/3); as the
heavy pair dominates, the heavy angle opens toward pi.
"""

import math

from ftsolve import SymmetricInstance, angles_at, ft_axial

deg = 180.0 / math.pi
tetrahedral = math.acos(-1.0 / 3.0)
print(f"tetrahedral angle: {tetrahedral * deg:.4f} degrees")
print()
print("b1/b4    alpha_102   alpha_304   alpha_cross   weighted closure")
for ratio in [1.0, 1.5, 2.5, 5.0, 10.0]:
    inst = SymmetricInstance(a=1.0, b1=ratio, b4=1.0)
    y = ft_axial(inst)
    aset = angles_at(inst.a, y)
    # axial equilibrium in angle form: b1 cos(alpha_102/2) = b4 cos(alpha_304/2),
    # because each pair's bisector points straight along the axis
    closure = inst.b1 * math.cos(aset.alpha_102 / 2.0) - inst.b4 * math.cos(
        aset.alpha_304 / 2.0
    )
    print(
        f"{ratio:5.2f}   {aset.alpha_102 * deg:9.4f}   {aset.alpha_304 * deg:9.4f}"
        f"   {aset.alpha_cross * deg:11.4f}   {closure: .2e}"
    )

# sanity: the angle formulas agree with direct vectors
inst = SymmetricInstance(a=1.0, b1=2.5, b4=1.0)
y = ft_axial(inst)
v = inst.tetrahedron().vertices
p = (0.0, 0.0, y)
u = [[(vk - pk) / math.dist(vi, p) for vk, pk in zip(vi, p)] for vi in v]


def direct(i, j):
    """Angle between the unit vectors toward vertices i and j."""
    return math.acos(sum(a * b for a, b in zip(u[i], u[j])))


aset = angles_at(inst.a, y)
print()
print("formula vs direct vectors at b1/b4 = 2.5:")
print(f"  alpha_102: {aset.alpha_102:.12f} vs {direct(0, 1):.12f}")
print(f"  alpha_304: {aset.alpha_304:.12f} vs {direct(2, 3):.12f}")
print(f"  cross:     {aset.alpha_cross:.12f} vs {direct(0, 3):.12f}")
