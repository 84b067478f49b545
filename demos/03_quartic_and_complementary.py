"""The stationarity quartic and its two meaningful real roots.

Both the interior minimizer and the exterior critical point of the
signed-weight objective satisfy the same quartic in the axial coordinate.
The interior root lies strictly between the axis midpoint and the top
edge; the exterior root lies beyond the top edge and runs off to
infinity as the two weight pairs approach each other.
"""

from ftsolve import (
    SymmetricInstance,
    complementary_axial,
    ft_axial,
    quartic_coefficients,
    stationarity_defect,
)

inst = SymmetricInstance(a=1.0, b1=2.5, b4=1.0)
q = quartic_coefficients(inst)
print("quartic coefficients (c4, c3, c2, c1, c0):")
print(f"  {q.c4:.6f}, {q.c3:.1f}, {q.c2:.1f}, {q.c1:.6f}, {q.c0:.6f}")

y = ft_axial(inst)
yp = complementary_axial(inst)
print(f"interior minimizer   y  = {y:.12f}  (0 < y < c = {inst.c:.6f})")
print(f"exterior critical    y' = {yp:.12f}  (y' > c)")
for name, r in (("y ", y), ("y'", yp)):
    print(f"quartic residual at {name}: {q.c4 * r**4 + q.c1 * r + q.c0:.1e}")
print(f"signed stationarity defect at y': {stationarity_defect(inst, yp):.3e}")

print()
print("the exterior root escapes as the weights equalize:")
for ratio in [2.0, 1.5, 1.2, 1.05, 1.01]:
    row = SymmetricInstance(a=1.0, b1=ratio, b4=1.0)
    print(f"  b1/b4 = {ratio:5.2f}   y' = {complementary_axial(row):12.6f}")
