"""Command-line front end.

Reads a JSON instance file, runs the requested solver, and prints either
key=value lines or (with --json) one JSON object at full precision.  The
sweep subcommand writes a CSV table over a range of weight ratios.  Text
lines and CSV cells print floats with 9 significant digits, except the rows
of plasticity's stretched_vertices, which print as lists at full precision.

Each cmd_* computes its payload from the loaded instance; main alone loads
the file, checks the instance's mode against COMMANDS, prints, and sets the
exit code: 0 success, 1 input error or a reader that closed stdout, 2 solver
failure.

A process loads only what its subcommand runs: the closed forms in analytic
at start-up, and equilibrium, angles and plasticity inside the subcommands
that call them; only the general solve and plasticity load numeric.  sweep
solves each row's roots once and writes its rows SWEEP_BLOCK lines at a time,
so a long table costs few writes even with unbuffered output; rows already
made are written before an error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from . import __version__
from .analytic import complementary_axial, ft_axial, quartic_coefficients, solve_symmetric, stationarity_defect
from .errors import FtSolveError
from .geom_core import SymmetricInstance, WeightedTetrahedron

EXIT_INPUT = 1
EXIT_SOLVER = 2
SWEEP_BLOCK = 512  # lines per write
SWEEP_ROW = ",".join(["%.9g"] * 7) + "\n"  # the bytes of fmt for each cell


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
    # RecursionError: nesting too deep
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as e:
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
    """x, checked to be depth levels of lists of numbers (float() takes true,
    "1", and the keys of an object)."""
    if depth:
        if not isinstance(x, list):
            raise ValueError(f"expected a list, got {json.dumps(x)}")
        return [_numbers(v, depth - 1) for v in x]
    if type(x) is not float:
        raise ValueError(f"expected a number, got {json.dumps(x)}")
    return x


def emit(payload: dict, as_json: bool):
    """Print the entries of payload that are not None."""
    payload = {k: v for k, v in payload.items() if v is not None}
    if as_json:
        print(json.dumps(payload))
        return
    for key, value in payload.items():
        if isinstance(value, float):
            value = fmt(value)
        elif isinstance(value, (list, tuple)):
            value = " ".join(fmt(v) if isinstance(v, float) else str(v) for v in value)
        print(f"{key}={value}")


def cmd_solve(inst, args) -> dict:
    if isinstance(inst, SymmetricInstance):
        sol = solve_symmetric(inst)
    else:
        from .numeric import weiszfeld

        sol = weiszfeld(inst)
    return {
        "case": sol.case,
        "point": list(sol.point),
        "objective": sol.objective,
        "residual": sol.residual if sol.vertex is None else None,  # defined if floating
        "y": sol.y,
        "vertex": sol.vertex,
    }


def cmd_classify(inst, args) -> dict:
    from .equilibrium import classify

    label = classify(inst.tetrahedron() if isinstance(inst, SymmetricInstance) else inst)
    return {"case": label.case, "margins": list(label.margins), "vertex": label.vertex}


def cmd_angles(inst, args) -> dict:
    from .angles import angles_at

    y = ft_axial(inst)
    aset = angles_at(inst.a, y)
    return {
        "y": y,
        "alpha102_rad": aset.alpha_102,
        "alpha304_rad": aset.alpha_304,
        "alpha_cross_rad": aset.alpha_cross,
        "alpha102_deg": math.degrees(aset.alpha_102),
        "alpha304_deg": math.degrees(aset.alpha_304),
        "alpha_cross_deg": math.degrees(aset.alpha_cross),
    }


def cmd_complementary(inst, args) -> dict:
    yp = complementary_axial(inst)
    return {"y_complementary": yp, "stationarity_defect": stationarity_defect(inst, yp)}


def cmd_quartic(inst, args) -> dict:
    q = quartic_coefficients(inst)
    if inst.b1 == inst.b4:
        # the quartic is linear, c1*y = 0
        roots = [0.0]
    else:
        # its two real roots, always distinct: the minimizer (|y| < c) and
        # the signed-weight critical point (|y| > c)
        roots = sorted((ft_axial(inst), complementary_axial(inst)))
    return {
        "coefficients": [q.c4, q.c3, q.c2, q.c1, q.c0],
        "roots": roots,
        "multiplicities": [1] * len(roots),
    }


def cmd_plasticity(inst, args) -> dict:
    from .plasticity import PlasticityInstance, dihedral_alpha, height_012, measure_dihedral_data
    from .plasticity import predict_a04p, stretch, verify_invariance

    sol = solve_symmetric(inst)
    tet = inst.tetrahedron()
    try:
        pinst = PlasticityInstance(tet, sol.point, [float(v) for v in args.lam.split(",")])
    except ValueError:
        raise InputError("--lambda expects four comma-separated positive numbers") from None
    v = stretch(pinst).vertices
    d = measure_dihedral_data(sol.point, v[0], v[1], v[2], v[3])
    h = height_012(d.a01, d.a02, d.a12)
    return {
        "stretched_vertices": [list(row) for row in v],
        "predicted_a04p": predict_a04p(d, h, dihedral_alpha(d, h)),
        "displacement": verify_invariance(pinst),
    }


def cmd_sweep(inst, args) -> None:
    from .angles import angles_at

    if args.steps < 1:
        raise InputError("--steps must be at least 1")
    if not 0 < args.ratio_min <= args.ratio_max < math.inf:
        raise InputError("need finite 0 < ratio-min <= ratio-max")
    if not (0 < args.ratio_min * inst.b4 and args.ratio_max * inst.b4 < math.inf):
        raise InputError("ratio-min * b4 and ratio-max * b4 must be positive finite weights")
    lines = ["ratio,y,y_complementary,objective,alpha102,alpha304,alpha_cross\n"]
    try:
        for r in _ratios(args.ratio_min, args.ratio_max, args.steps):
            row = SymmetricInstance(inst.a, r * inst.b4, inst.b4)
            sol = solve_symmetric(row)  # solves both roots and keeps them on row
            try:
                yp = complementary_axial(row)
            except FtSolveError:
                yp = math.nan
            aset = angles_at(row.a, sol.y)
            cells = (r, sol.y, yp, sol.objective, aset.alpha_102, aset.alpha_304, aset.alpha_cross)
            lines.append(SWEEP_ROW % cells)
            if len(lines) == SWEEP_BLOCK:
                sys.stdout.write("".join(lines))
                lines.clear()
    finally:
        if lines:
            sys.stdout.write("".join(lines))


def _ratios(start: float, stop: float, steps: int):
    """steps values start + i * step, the last exactly stop (as linspace)."""
    step = (stop - start) / max(steps - 1, 1)
    yield from (start + i * step for i in range(steps - 1))
    yield stop if steps > 1 else start


# (name, function, symmetric-regular only, help); sweep writes CSV, no --json
COMMANDS = (
    ("solve", cmd_solve, False, "solve for the weighted minimizer"),
    ("classify", cmd_classify, False, "floating/absorbed classification"),
    ("angles", cmd_angles, True, "vertex angles at the minimizer"),
    ("complementary", cmd_complementary, True, "signed-weight exterior critical point"),
    ("quartic", cmd_quartic, True, "stationarity quartic and its real roots"),
    ("plasticity", cmd_plasticity, True, "ray-stretch construction and invariance"),
    ("sweep", cmd_sweep, True, "CSV table over a range of weight ratios"),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ftsolve",
        description="Weighted Fermat-Torricelli solvers for regular tetrahedra",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func, symmetric_only, summary in COMMANDS:
        p = sub.add_parser(name, help=summary)
        p.add_argument("--input", required=True, help="instance file (JSON)")
        if func is not cmd_sweep:
            p.add_argument("--json", action="store_true", help="machine-readable output")
        p.set_defaults(func=func, symmetric_only=symmetric_only)
    lam_help = "four comma-separated stretch factors l1,l2,l3,l4"
    sub.choices["plasticity"].add_argument("--lambda", dest="lam", required=True, help=lam_help)
    for option, kind in (("--ratio-min", float), ("--ratio-max", float), ("--steps", int)):
        sub.choices["sweep"].add_argument(option, type=kind, required=True)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        inst = load_instance(args.input)
        if args.symmetric_only and not isinstance(inst, SymmetricInstance):
            raise InputError("this subcommand requires a symmetric-regular instance")
        payload = args.func(inst, args)
        if payload is not None:
            emit(payload, args.json)
        sys.stdout.flush()  # so a closed reader shows here, not at exit
    except InputError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except (FtSolveError, ArithmeticError) as e:
        # an arithmetic fault on valid input is a solver failure, not a traceback
        print(f"solver error: {e}", file=sys.stderr)
        return EXIT_SOLVER
    except BrokenPipeError:
        # the reader left: what is still buffered goes to devnull at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
