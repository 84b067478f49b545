"""Ray stretches leave the minimizer where it is.

Sliding each vertex outward along its ray from the minimizer changes
every distance but none of the unit directions, so the equilibrium
survives untouched.  The dihedral-angle machinery then predicts the
distance to a stretched vertex from measured lengths and angles alone,
matching the direct measurement.
"""

import math

from ftsolve import (
    PlasticityInstance,
    SymmetricInstance,
    dihedral_alpha,
    height_012,
    measure_dihedral_data,
    predict_a04p,
    solve_symmetric,
    stretch,
    verify_invariance,
)

inst = SymmetricInstance(a=1.0, b1=2.5, b4=1.0)
sol = solve_symmetric(inst)
print(f"base minimizer: {sol.point}")

lambdas = [1.3, 0.8, 2.0, 1.5]
pinst = PlasticityInstance(inst.tetrahedron(), sol.point, lambdas)
stretched = stretch(pinst)
print(f"stretch factors: {lambdas}")
print("stretched vertices:")
for vertex in stretched.vertices:
    print("  " + "  ".join(f"{c: .8f}" for c in vertex))

moved = verify_invariance(pinst)
print(f"minimizer displacement after re-solving: {moved:.3e}")

# predict the distance to the stretched fourth vertex from measurements
v = stretched.vertices
d = measure_dihedral_data(sol.point, v[0], v[1], v[2], v[3])
h = height_012(d.a01, d.a02, d.a12)
alpha = dihedral_alpha(d, h)
predicted = predict_a04p(d, h, alpha)
direct = math.dist(sol.point, v[3])
print(f"generalized cosine law predicts a04' = {predicted:.12f}")
print(f"direct measurement gives       a04' = {direct:.12f}")
print(f"difference: {abs(predicted - direct):.3e}")
