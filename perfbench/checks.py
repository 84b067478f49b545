"""Verdicts on each distinct answer, against the 50-digit references.

A verdict is None (correct) or one failure kind.  When an answer shows
several problems, the most severe kind is reported.  References are
computed once per item and cached for the run, outside the timed region.
"""

from __future__ import annotations

import json
import math
import re

import numpy as np

import oracle
from oracle import REL_TOL, TEXT_REL_TOL, rel_err

# most severe first
KINDS = (
    "cli_traceback",
    "untyped_exception",
    "unexpected_typed_error",
    "cli_nonzero_exit",
    "wrong_answer",
)


def worst(*kinds):
    found = [k for k in kinds if k is not None]
    return min(found, key=KINDS.index) if found else None


def _raised(enc):
    """Failure kind of a raised-exception picture, None if not raised."""
    if isinstance(enc, list) and enc and enc[0] == "raise":
        return "unexpected_typed_error" if enc[2] else "untyped_exception"
    return None


def _bad(value, ref, scale, tol=REL_TOL):
    return value is None or rel_err(value, ref, scale) > tol


class References:
    """Per-item reference cache."""

    def __init__(self):
        self._sym = {}
        self._margins = {}

    def symmetric(self, a, b1, b4) -> oracle.SymmetricRef:
        key = (a, b1, b4)
        if key not in self._sym:
            self._sym[key] = oracle.symmetric_reference(a, b1, b4)
        return self._sym[key]

    def margins(self, vertices, weights):
        key = (tuple(map(tuple, vertices)), tuple(weights))
        if key not in self._margins:
            self._margins[key] = oracle.margins(vertices, weights)
        return self._margins[key]


# -- symmetric ---------------------------------------------------------------


def check_symmetric(refs: References, it, enc):
    """enc = [solve_symmetric, complementary_axial, angles_at] pictures."""
    a, b1, b4 = it["a"], it["b1"], it["b4"]
    ref = refs.symmetric(a, b1, b4)
    kind = _raised(enc)  # the op raised outside the three calls
    if kind:
        return kind
    sol, yp, ang = enc
    kind = _raised(sol)
    if kind:
        return kind
    if not (isinstance(sol, list) and sol[0] == "sol"):
        return "wrong_answer"
    _, case, y, objective, point, _ = sol
    wrong = (
        case != "floating"
        or _bad(y, ref.y, a)
        or point[:2] != [0.0, 0.0]
        or _bad(point[2], ref.y, a)
        or _bad(objective, ref.objective, 0.0)
    )
    return worst(
        "wrong_answer" if wrong else None,
        _check_exterior(ref, yp, a),
        _check_angles(ref, ang),
    )


def _check_exterior(ref, yp, a):
    raised = _raised(yp)
    if ref.yp is None:
        # equal weights: no exterior point, a typed error is the answer
        return None if raised == "unexpected_typed_error" else (raised or "wrong_answer")
    if raised:
        return raised
    return "wrong_answer" if _bad(yp[1], ref.yp, a) else None


def _check_angles(ref, ang):
    raised = _raised(ang)
    if raised:
        return raised
    if ang is None or ang[0] != "ang":
        return "wrong_answer"
    refs = (ref.alpha_102, ref.alpha_304, ref.alpha_cross)
    return "wrong_answer" if any(_bad(v, r, 0.0) for v, r in zip(ang[1:], refs)) else None


# -- general -----------------------------------------------------------------


def _max_edge(v):
    return max(math.dist(p, q) for i, p in enumerate(v) for q in v[i + 1 :])


def stretched_vertices(it):
    a0, lam = it["a0"], it["lambdas"]
    return [[c0 + l * (c - c0) for c, c0 in zip(p, a0)] for p, l in zip(it["vertices"], lam)]


def check_solution(refs: References, vertices, weights, sol, tol=REL_TOL):
    """A weiszfeld answer: floating results must be first-order optimal
    (residual <= tol * sum(w)) where the reference margins say floating;
    absorbed results must sit on the vertex whose reference margin is <= 0."""
    m = refs.margins(vertices, weights)
    absorbed_ref = [i for i, x in enumerate(m) if x <= 0]
    case, objective, point, vertex = sol
    total_w = sum(weights)
    if case == "absorbed":
        if vertex not in absorbed_ref or point != list(vertices[vertex]):
            return "wrong_answer"
    elif case != "floating" or absorbed_ref:
        return "wrong_answer"
    if None in point:
        return "wrong_answer"
    res, obj = oracle.residual(vertices, weights, point)
    if case == "floating" and not res <= tol * total_w:
        return "wrong_answer"
    return "wrong_answer" if _bad(objective, float(obj), 0.0, tol) else None


def check_general(refs: References, it, enc):
    kind = _raised(enc)
    if kind:
        return kind
    if it["kind"] == "invariance":
        # the stretched tetrahedron's minimizer is a0 by construction
        if enc[0] != "val" or enc[1] is None:
            return "wrong_answer"
        return "wrong_answer" if enc[1] > REL_TOL * _max_edge(stretched_vertices(it)) else None
    if enc[0] != "sol":
        return "wrong_answer"
    _, case, _, objective, point, vertex = enc
    return check_solution(refs, it["vertices"], it["weights"], (case, objective, point, vertex))


# -- cli ---------------------------------------------------------------------

_NUM = re.compile(r"[-+]?(?:nan|inf|\d+\.?\d*(?:[eE][-+]?\d+)?|\.\d+(?:[eE][-+]?\d+)?)")


def parse_output(text: str, as_json: bool) -> dict:
    """The key/value payload of one-shot output; text values become the
    list of numbers they contain (or the raw string when there are none)."""
    if as_json:
        return json.loads(text)
    out = {}
    for line in text.splitlines():
        key, _, value = line.partition("=")
        nums = _NUM.findall(value)
        out[key] = [float(x) for x in nums] if nums else value
    return out


def _flat(v):
    if isinstance(v, list):
        return [x for item in v for x in _flat(item)]
    return [float(v)]


def check_cli(refs: References, call, result):
    """call: the invocation (see workloads.cli); result: (exit code,
    stdout, stderr) of the process."""
    code, out, err = result
    if "Traceback" in err:
        return "cli_traceback"
    inst = call["instance"]
    # equal weights have no exterior point: exit 2 is the right answer
    if call["sub"] == "complementary" and inst["b1"] == inst["b4"]:
        return None if code == 2 else ("cli_nonzero_exit" if code else "wrong_answer")
    if code == 2:
        return "unexpected_typed_error"
    if code != 0:
        return "cli_nonzero_exit"
    try:
        if call["sub"] == "sweep":
            return check_sweep(refs, call, out)
        payload = parse_output(out, call["json"])
        tol = REL_TOL if call["json"] else TEXT_REL_TOL
        if inst["mode"] == "general":
            return _check_cli_general(refs, call["sub"], inst, payload)
        return _check_cli_symmetric(refs, call, payload, tol)
    except (KeyError, ValueError, TypeError, IndexError):
        return "wrong_answer"


def _check_classify(refs, p, vertices, weights, tol):
    """Case, absorbing vertex and margins; margins are differences of
    weight-sized terms, so their error is taken relative to sum(w)."""
    m = [float(x) for x in refs.margins(vertices, weights)]
    absorbed = [i for i, x in enumerate(m) if x <= 0]
    case_ok = (p["case"] == "absorbed") == bool(absorbed) and p.get("vertex") == (
        absorbed[0] if absorbed else None
    )
    got = _flat(p["margins"])
    margins_ok = len(got) == 4 and all(abs(x - r) <= tol * sum(weights) for x, r in zip(got, m))
    return None if case_ok and margins_ok else "wrong_answer"


def _check_cli_general(refs, sub, inst, p):
    v, w = inst["vertices"], inst["weights"]
    if sub == "solve":
        return check_solution(refs, v, w, (p["case"], p["objective"], p["point"], p.get("vertex")))
    return _check_classify(refs, p, v, w, REL_TOL)


def _check_cli_symmetric(refs, call, p, tol):
    inst = call["instance"]
    a, b1, b4 = inst["a"], inst["b1"], inst["b4"]
    ref = refs.symmetric(a, b1, b4)
    sub = call["sub"]
    checks = []  # (value, reference, scale)
    if sub == "solve":
        if p["case"] != "floating":
            return "wrong_answer"
        checks += [(_flat(p["y"])[0], ref.y, a), (_flat(p["objective"])[0], ref.objective, 0.0)]
        checks += [(x, r, a) for x, r in zip(_flat(p["point"]), (0.0, 0.0, ref.y))]
    elif sub == "classify":
        return _check_classify(refs, p, oracle.regular_vertices(a), (b1, b1, b4, b4), tol)
    elif sub == "angles":
        deg = 180.0 / math.pi
        names = ("alpha102", "alpha304", "alpha_cross")
        vals = (ref.alpha_102, ref.alpha_304, ref.alpha_cross)
        checks.append((_flat(p["y"])[0], ref.y, a))
        for name, r in zip(names, vals):
            checks.append((_flat(p[name + "_rad"])[0], r, 0.0))
            checks.append((_flat(p[name + "_deg"])[0], r * deg, 0.0))
    elif sub == "complementary":
        checks.append((_flat(p["y_complementary"])[0], ref.yp, a))
        defect = _flat(p["stationarity_defect"])[0]
        if b1 > b4 and not abs(defect) <= tol * (b1 + b4):
            return "wrong_answer"
    elif sub == "quartic":
        coeffs = oracle.quartic_coefficients(a, b1, b4)
        # c4 y^4 + c1 y + c0 is convex (or concave) with c0 != 0, so its real
        # roots are exactly the interior and exterior roots; a tie leaves y = 0
        roots = [0.0] if ref.yp is None else sorted((ref.y, ref.yp))
        got = _flat(p["roots"])
        if len(got) != len(roots) or _flat(p["multiplicities"]) != [1.0] * len(roots):
            return "wrong_answer"
        scale = max(abs(c) for c in coeffs)
        checks += [(x, r, scale) for x, r in zip(_flat(p["coefficients"]), coeffs)]
        checks += [(x, r, a) for x, r in zip(got, roots)]
    elif sub == "plasticity":
        lam = call["lambdas"]
        verts = oracle.regular_vertices(a)
        a0 = (0.0, 0.0, ref.y)
        got = _flat(p["stretched_vertices"])
        for k, (vx, lk) in enumerate(zip(verts, lam)):
            refv = [c0 + lk * (float(c) - c0) for c, c0 in zip(vx, a0)]
            err = math.dist(got[3 * k : 3 * k + 3], refv)
            if not err <= tol * math.dist(refv, a0):
                return "wrong_answer"
        a04p = lam[3] * math.dist([float(c) for c in verts[3]], a0)
        checks.append((_flat(p["predicted_a04p"])[0], a04p, 0.0))
        if not abs(_flat(p["displacement"])[0]) <= tol * a:
            return "wrong_answer"
    return "wrong_answer" if any(_bad(x, r, s, tol) for x, r, s in checks) else None


def check_sweep(refs, call, out):
    """Every CSV row against the references, at the CSV's 9 digits."""
    inst = call["instance"]
    lines = out.splitlines()
    if not lines or not lines[0].startswith("ratio,"):
        return "wrong_answer"
    rows = lines[1:]
    # the same float ratios the sweep computes
    ratios = np.linspace(call["ratio_min"], call["ratio_max"], call["steps"])
    if len(rows) != len(ratios):
        return "wrong_answer"
    a, b4 = inst["a"], inst["b4"]
    for line, r in zip(rows, ratios):
        b1 = float(r * b4)
        ref = refs.symmetric(a, b1, b4)
        cells = [float(x) for x in line.split(",")]
        yp = cells[2]
        yp_ok = math.isnan(yp) if ref.yp is None else not _bad(yp, ref.yp, a, TEXT_REL_TOL)
        expected = (float(r), ref.y, ref.objective, ref.alpha_102, ref.alpha_304, ref.alpha_cross)
        got = (cells[0], cells[1], cells[3], cells[4], cells[5], cells[6])
        scales = (0.0, a, 0.0, 0.0, 0.0, 0.0)
        if not yp_ok or any(_bad(x, e, s, TEXT_REL_TOL) for x, e, s in zip(got, expected, scales)):
            return "wrong_answer"
    return None
