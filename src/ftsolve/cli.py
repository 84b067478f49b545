"""Command-line front end.

Reads a JSON instance file, runs the requested solver, and prints either
human-readable lines or (with --json) a machine-readable object.  The sweep
subcommand emits a CSV table over a range of weight ratios.  All numbers are
printed with 9 significant digits.

Exit codes: 0 success, 1 input parse/schema error, 2 solver failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import __version__
from .analytic import complementary_axial, ft_axial, quartic_coefficients, solve_symmetric
from .angles import angles_at
from .equilibrium import classify
from .errors import FtSolveError
from .geom_core import SymmetricInstance, WeightedTetrahedron
from .numeric import stationarity_defect, weiszfeld
from .plasticity import (
    PlasticityInstance,
    _displacement,
    dihedral_alpha,
    height_012,
    measure_dihedral_data,
    predict_a04p,
    stretch,
)

EXIT_INPUT = 1
EXIT_SOLVER = 2


def fmt(x: float) -> str:
    """9 significant digits."""
    return f"{x:.9g}"


class InputError(Exception):
    pass


def load_instance(path: str) -> SymmetricInstance | WeightedTetrahedron:
    """Parse and validate an instance file: a SymmetricInstance for mode
    "symmetric-regular", a WeightedTetrahedron for mode "general"."""
    try:
        with open(path, encoding="utf-8") as f:
            data = json.load(f, parse_int=float)  # a huge integer reads as inf
    except OSError as e:
        raise InputError(f"cannot read {path}: {e}") from e
    except (json.JSONDecodeError, RecursionError) as e:  # the latter: nesting too deep
        raise InputError(f"invalid JSON in {path}: {e}") from e
    if not isinstance(data, dict) or "mode" not in data:
        raise InputError("instance file must be an object with a 'mode' field")
    mode = data["mode"]
    try:
        if mode == "symmetric-regular":
            return SymmetricInstance(*(_numbers(data[k], 0) for k in ("a", "b1", "b4")))
        if mode == "general":
            return WeightedTetrahedron(_numbers(data["vertices"], 2), _numbers(data["weights"], 1))
    except (KeyError, TypeError, ValueError, FtSolveError) as e:
        raise InputError(f"bad {mode} instance: {e}") from e
    raise InputError(f"unknown mode {mode!r}")


def _numbers(x, depth: int):
    """x with its entries depth lists deep checked to be numbers (float() takes true, "1")."""
    if depth:
        return [_numbers(v, depth - 1) for v in x] if isinstance(x, list) else x
    if type(x) is not float:
        raise ValueError(f"expected a number, got {json.dumps(x)}")
    return x


def require_symmetric(inst) -> SymmetricInstance:
    if not isinstance(inst, SymmetricInstance):
        raise InputError("this subcommand requires a symmetric-regular instance")
    return inst


def emit(payload: dict, as_json: bool):
    if as_json:
        print(json.dumps(payload))
        return
    for key, value in payload.items():
        if isinstance(value, float):
            value = fmt(value)
        elif isinstance(value, (list, tuple)):
            value = " ".join(fmt(v) if isinstance(v, float) else str(v) for v in value)
        print(f"{key}={value}")


def cmd_solve(args) -> int:
    inst = load_instance(args.input)
    sol = solve_symmetric(inst) if isinstance(inst, SymmetricInstance) else weiszfeld(inst)
    payload = {
        "case": sol.case,
        "point": list(sol.point),
        "objective": sol.objective,
        "residual": sol.residual,
    }
    if sol.y is not None:
        payload["y"] = sol.y
    if sol.vertex is not None:
        payload["vertex"] = sol.vertex
    emit(payload, args.json)
    return 0


def cmd_classify(args) -> int:
    inst = load_instance(args.input)
    tet = inst.tetrahedron() if isinstance(inst, SymmetricInstance) else inst
    label = classify(tet)
    payload = {
        "case": label.case,
        "margins": list(label.margins),
    }
    if label.vertex is not None:
        payload["vertex"] = label.vertex
    emit(payload, args.json)
    return 0


def cmd_angles(args) -> int:
    inst = require_symmetric(load_instance(args.input))
    y = ft_axial(inst)
    aset = angles_at(inst.a, y)
    deg = 180.0 / math.pi
    payload = {
        "y": y,
        "alpha102_rad": aset.alpha_102,
        "alpha304_rad": aset.alpha_304,
        "alpha_cross_rad": aset.alpha_cross,
        "alpha102_deg": aset.alpha_102 * deg,
        "alpha304_deg": aset.alpha_304 * deg,
        "alpha_cross_deg": aset.alpha_cross * deg,
    }
    emit(payload, args.json)
    return 0


def cmd_complementary(args) -> int:
    inst = require_symmetric(load_instance(args.input))
    yp = complementary_axial(inst)
    emit({"y_complementary": yp, "stationarity_defect": stationarity_defect(inst, yp)}, args.json)
    return 0


def cmd_quartic(args) -> int:
    inst = require_symmetric(load_instance(args.input))
    q = quartic_coefficients(inst)
    if inst.b1 == inst.b4:
        # the quartic is linear, c1*y = 0
        roots = [0.0]
    else:
        # its two real roots, always distinct: the minimizer (|y| < c) and
        # the signed-weight critical point (|y| > c)
        roots = sorted((ft_axial(inst), complementary_axial(inst)))
    payload = {
        "coefficients": [q.c4, q.c3, q.c2, q.c1, q.c0],
        "roots": roots,
        "multiplicities": [1] * len(roots),
    }
    emit(payload, args.json)
    return 0


def cmd_plasticity(args) -> int:
    inst = require_symmetric(load_instance(args.input))
    sol = solve_symmetric(inst)
    tet = inst.tetrahedron()
    try:
        pinst = PlasticityInstance(tet, sol.point, [float(v) for v in args.lam.split(",")])
    except ValueError:
        raise InputError("--lambda expects four comma-separated positive numbers") from None
    # one stretched tetrahedron, classified once, for the output and the re-solve
    stretched = stretch(pinst)
    v = stretched.vertices
    d = measure_dihedral_data(sol.point, v[0], v[1], v[2], v[3])
    h = height_012(d.a01, d.a02, d.a12)
    alpha = dihedral_alpha(d, h)
    predicted = predict_a04p(d, h, alpha)
    displacement = _displacement(pinst, stretched)
    payload = {
        "stretched_vertices": [list(row) for row in v],
        "predicted_a04p": predicted,
        "displacement": displacement,
    }
    emit(payload, args.json)
    return 0


def cmd_sweep(args) -> int:
    inst = require_symmetric(load_instance(args.input))
    if args.steps < 1:
        raise InputError("--steps must be at least 1")
    if not 0 < args.ratio_min <= args.ratio_max < math.inf:
        raise InputError("need finite 0 < ratio-min <= ratio-max")
    if not (0 < args.ratio_min * inst.b4 and args.ratio_max * inst.b4 < math.inf):
        raise InputError("ratio-min * b4 and ratio-max * b4 must be positive finite weights")
    sys.stdout.write("ratio,y,y_complementary,objective,alpha102,alpha304,alpha_cross\n")
    for r in _ratios(args.ratio_min, args.ratio_max, args.steps):
        row = SymmetricInstance(inst.a, r * inst.b4, inst.b4)
        sol = solve_symmetric(row)
        try:
            yp = complementary_axial(row)
        except FtSolveError:
            yp = float("nan")
        aset = angles_at(row.a, sol.y)
        cells = [r, sol.y, yp, sol.objective, aset.alpha_102, aset.alpha_304, aset.alpha_cross]
        sys.stdout.write(",".join(fmt(v) for v in cells) + "\n")
    return 0


def _ratios(start: float, stop: float, steps: int):
    """steps values start + i * step, the last exactly stop (as linspace)."""
    step = (stop - start) / max(steps - 1, 1)
    yield from (start + i * step for i in range(steps - 1))
    yield stop if steps > 1 else start


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ftsolve",
        description="Weighted Fermat-Torricelli solvers for regular tetrahedra",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--input", required=True, help="instance file (JSON)")
        p.add_argument("--json", action="store_true", help="machine-readable output")

    p = sub.add_parser("solve", help="solve for the weighted minimizer")
    common(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("classify", help="floating/absorbed classification")
    common(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("angles", help="vertex angles at the minimizer")
    common(p)
    p.set_defaults(func=cmd_angles)

    p = sub.add_parser("complementary", help="signed-weight exterior critical point")
    common(p)
    p.set_defaults(func=cmd_complementary)

    p = sub.add_parser("quartic", help="stationarity quartic and its real roots")
    common(p)
    p.set_defaults(func=cmd_quartic)

    p = sub.add_parser("plasticity", help="ray-stretch construction and invariance")
    common(p)
    p.add_argument(
        "--lambda",
        dest="lam",
        required=True,
        help="four comma-separated stretch factors l1,l2,l3,l4",
    )
    p.set_defaults(func=cmd_plasticity)

    p = sub.add_parser("sweep", help="CSV table over a range of weight ratios")
    # always CSV, so no --json
    p.add_argument("--input", required=True, help="instance file (JSON)")
    p.add_argument("--ratio-min", type=float, required=True)
    p.add_argument("--ratio-max", type=float, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except (FtSolveError, ArithmeticError) as e:
        # an arithmetic fault is a solver failure on valid input, not a
        # traceback
        print(f"solver error: {e}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
