"""Independent numerical solvers used as oracles for the closed forms.

Three routes to the same points: Weiszfeld fixed-point iteration in full 3-D,
golden-section minimization of the reduced axial objective, and bisection on
the signed stationarity equation for the exterior critical point.
"""

from __future__ import annotations

import math

import numpy as np

from .equilibrium import classify, equilibrium_residual
from .errors import NoBracket, NoConvergence
from .geom_core import (
    FtSolution,
    SymmetricInstance,
    WeightedTetrahedron,
    axial_distances,
    objective,
)

__all__ = [
    "weiszfeld",
    "reduced_objective",
    "minimize_reduced",
    "signed_critical_point",
    "stationarity_defect",
]

INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

# Weiszfeld's iteration cap, and how close (relative to the largest edge)
# an iterate may come to a vertex before it is pushed back
MAX_ITER = 10_000
VERTEX_EPSILON = 1e-10


def weiszfeld(t: WeightedTetrahedron, tol: float = 1e-12) -> FtSolution:
    """Weighted geometric median by inverse-distance-weighted averaging,
    stopped once a step is shorter than tol times the largest edge.

    Absorbed instances short-circuit to the absorbing vertex.  Iterates
    landing on a vertex are pushed back along the previous step to dodge the
    fixed-point singularity there.
    """
    if not (tol > 0):
        raise ValueError("tol must be positive")
    label = classify(t)
    if not label.floating:
        vtx = t.vertices[label.vertex]
        return FtSolution(
            case="absorbed",
            point=tuple(vtx.tolist()),
            objective=objective(t.vertices, t.weights, vtx),
            residual=float("nan"),
            vertex=label.vertex,
        )
    scale = t.max_edge()
    eps = VERTEX_EPSILON * scale
    total_w = float(np.sum(t.weights))
    x = np.average(t.vertices, axis=0, weights=t.weights)
    step_dir = np.zeros(3)
    for _ in range(MAX_ITER):
        d = np.linalg.norm(t.vertices - x, axis=1)
        if np.any(d < eps):
            x = x - 10.0 * eps * step_dir if np.any(step_dir) else x + 10.0 * eps
            d = np.linalg.norm(t.vertices - x, axis=1)
        inv = t.weights / d
        x_new = (t.vertices * inv[:, None]).sum(axis=0) / inv.sum()
        step = x_new - x
        step_len = float(np.linalg.norm(step))
        if step_len > 0:
            step_dir = step / step_len
        x = x_new
        if step_len < tol * scale:
            break
    residual = equilibrium_residual(t, x)
    if residual > 1e-6 * total_w:
        raise NoConvergence(
            f"residual {residual:.3e} above threshold after {MAX_ITER} iterations"
        )
    return FtSolution(
        case="floating",
        point=tuple(x.tolist()),
        objective=objective(t.vertices, t.weights, x),
        residual=residual,
    )


def reduced_objective(inst: SymmetricInstance, y: float, sign4: int = 1) -> float:
    """Half-objective on the axis: b1*a01(y) + sign4*b4*a04(y)."""
    if sign4 not in (1, -1):
        raise ValueError("sign4 must be +1 or -1")
    a01, a04 = axial_distances(inst.a, y)
    return inst.b1 * a01 + sign4 * inst.b4 * a04


def minimize_reduced(inst: SymmetricInstance) -> float:
    """Golden-section minimizer of the reduced objective on [-c, c].

    The reduced objective is strictly convex in y for positive weights, so
    the bracket shrinks onto the unique minimum.
    """
    lo, hi = -inst.c, inst.c
    tol = 1e-12 * inst.a
    c1 = hi - INV_GOLDEN * (hi - lo)
    c2 = lo + INV_GOLDEN * (hi - lo)
    f1 = reduced_objective(inst, c1)
    f2 = reduced_objective(inst, c2)
    while hi - lo > tol:
        if f1 < f2:
            hi, c2, f2 = c2, c1, f1
            c1 = hi - INV_GOLDEN * (hi - lo)
            f1 = reduced_objective(inst, c1)
        else:
            lo, c1, f1 = c1, c2, f2
            c2 = lo + INV_GOLDEN * (hi - lo)
            f2 = reduced_objective(inst, c2)
    y = 0.5 * (lo + hi)
    # value comparisons flatten out at sqrt(machine eps) around the minimum;
    # bisecting the monotone derivative restores full precision
    return _polish_minimum(inst, y)


def _derivative(inst: SymmetricInstance, y: float) -> float:
    a01, a04 = axial_distances(inst.a, y)
    c = inst.c
    return inst.b1 * (y - c) / a01 + inst.b4 * (y + c) / a04


def _polish_minimum(inst: SymmetricInstance, y: float) -> float:
    half = 1e-6 * inst.a
    lo = max(y - half, -inst.c)
    hi = min(y + half, inst.c)
    if not (_derivative(inst, lo) < 0.0 < _derivative(inst, hi)):
        return y
    while hi - lo > 1e-14 * inst.a:
        mid = 0.5 * (lo + hi)
        if _derivative(inst, mid) > 0.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def stationarity_defect(inst: SymmetricInstance, y: float) -> float:
    # derivative of b1*a01(y) - b4*a04(y); negative near y = c+, positive
    # for large y when b1 > b4
    a01, a04 = axial_distances(inst.a, y)
    c = inst.c
    return inst.b1 * (y - c) / a01 - inst.b4 * (y + c) / a04


def signed_critical_point(inst: SymmetricInstance) -> float:
    """Exterior critical point of the signed axial objective, by bisection.

    The bracket's far end grows geometrically until the stationarity defect
    changes sign; weight ratios too close to 1 push the root beyond 1e6*a
    and raise NoBracket.
    """
    if not (inst.b1 > inst.b4 > 0):
        raise ValueError("requires b1 > b4 > 0")
    c = inst.c
    lo = c * (1.0 + 1e-9)
    hi = 2.0 * c
    while stationarity_defect(inst, hi) <= 0.0:
        hi *= 2.0
        if hi > 1e6 * inst.a:
            raise NoBracket("no sign change below 1e6*a; weights too close")
    if stationarity_defect(inst, lo) > 0.0:
        raise NoBracket("stationarity defect already positive at the near end")
    while hi - lo > 1e-10 * inst.a:
        mid = 0.5 * (lo + hi)
        if stationarity_defect(inst, mid) > 0.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)
