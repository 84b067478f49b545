"""Map out where the minimizer detaches from the vertices.

A vertex absorbs the minimizer once its weight outweighs the pull of the
other three; the margin at vertex i is the norm of the other vertices'
combined unit pull minus the vertex's own weight.  On a regular
tetrahedron with unit weights elsewhere, the critical weight is sqrt(6).
"""

import math

from ftsolve import WeightedTetrahedron, classify, embed_regular

vertices = embed_regular(1.0)

print("weight at vertex 4 | case      | margin at vertex 4")
for w4 in [1.0, 2.0, math.sqrt(6.0) - 1e-9, math.sqrt(6.0) + 1e-9, 3.0, 5.0]:
    tet = WeightedTetrahedron(vertices, [1.0, 1.0, 1.0, w4])
    label = classify(tet)
    tag = label.case if label.vertex is None else f"{label.case} at A{label.vertex + 1}"
    print(f"{w4:18.9f} | {tag:9s} | {label.margins[3]: .3e}")

print()
print("the threshold sits exactly at w4 = sqrt(6) =", math.sqrt(6.0))
