"""Acceptance suite: one test per contract criterion, each printing a
PASS/FAIL line (run with -s to see them)."""

import json
import math
import re
import time

import numpy as np

from ftsolve import (
    FloatingViolated,
    PlasticityInstance,
    SymmetricInstance,
    WeightedTetrahedron,
    classify,
    complementary_axial,
    dihedral_alpha,
    embed_regular,
    equilibrium_residual,
    ft_axial,
    height_012,
    measure_dihedral_data,
    minimize_reduced,
    predict_a04p,
    quartic_coefficients,
    solve_symmetric,
    stretch,
    verify_invariance,
    vertex_angle,
    weiszfeld,
)
from ftsolve.cli import main

REF = SymmetricInstance(a=1.0, b1=2.5, b4=1.0)


def report(name, ok):
    print(f"{'PASS' if ok else 'FAIL'}: {name}")
    assert ok, name


def random_instances(n, ratio_max=20.0, seed=77):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        a = rng.uniform(0.1, 10.0)
        b4 = rng.uniform(0.2, 5.0)
        ratio = max(rng.uniform(1.0, ratio_max), 1.001)
        out.append(SymmetricInstance(a=a, b1=ratio * b4, b4=b4))
    return out


def test_criterion_1_reference_reproduction():
    y = ft_axial(REF)
    yp = complementary_axial(REF)
    ok = abs(y - 0.198358) < 1e-5 and abs(yp - 0.539791) < 1e-5
    # closed forms must be fast: mean over 100 calls under 1 ms each
    t0 = time.perf_counter()
    for _ in range(100):
        ft_axial(REF)
        complementary_axial(REF)
    per_call = (time.perf_counter() - t0) / 200.0
    ok = ok and per_call < 1e-3
    report("closed-form axial coordinates reproduce the six-digit values", ok)


def test_criterion_2_equal_weight_angles():
    target = math.acos(-1.0 / 3.0)
    assert abs(target - 1.9106332362) < 1e-9
    sol = solve_symmetric(SymmetricInstance(a=1.0, b1=1.3, b4=1.3))
    v = embed_regular(1.0)
    ok = True
    for i in range(4):
        for j in range(i + 1, 4):
            ok = ok and abs(vertex_angle(sol.point, v[i], v[j]) - target) < 1e-9
    report("equal weights: all six vertex angles equal arccos(-1/3)", ok)


def test_criterion_3_complementary_exterior():
    c = math.sqrt(2.0) / 4.0
    ratios = np.linspace(1.0, 10.0, 51)[1:]  # 50 points in (1, 10]
    ok = all(
        complementary_axial(SymmetricInstance(a=1.0, b1=r, b4=1.0)) > c for r in ratios
    )
    report("complementary point lies outside the tetrahedron on a ratio grid", ok)


def test_criterion_4_oracle_equivalence():
    t0 = time.perf_counter()
    ok = True
    instances = random_instances(500)
    for inst in instances:
        y = ft_axial(inst)
        sol = weiszfeld(inst.tetrahedron())
        y_w = sol.point[2]
        ok = ok and abs(y - y_w) < 1e-6 * inst.a
        ok = ok and abs(y - minimize_reduced(inst)) < 1e-7 * inst.a
        q = quartic_coefficients(inst)
        for root in (y, complementary_axial(inst)):
            res = q.c4 * root**4 + q.c1 * root + q.c0
            scale = abs(q.c4) * root**4 + abs(q.c1) * abs(root) + abs(q.c0)
            ok = ok and abs(res) < 1e-9 * scale
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 10.0
    report(
        f"closed form matches both numerical oracles on 500 instances "
        f"({elapsed:.2f}s)",
        ok,
    )


def test_criterion_6_equilibrium_residual():
    ok = True
    for inst in random_instances(100, seed=78):
        sol = solve_symmetric(inst)
        total = 2.0 * (inst.b1 + inst.b4)
        ok = ok and sol.case == "floating" and sol.residual < 1e-6 * total
    report("floating solutions satisfy the vector equilibrium", ok)


def test_criterion_7_plasticity():
    base = REF.tetrahedron()
    a0 = solve_symmetric(REF).point
    rng = np.random.default_rng(79)
    ok = True
    checked = 0
    lambda_sets = [np.array([1.0, 1.0, 2.0, 2.0])]  # the double-stretch case
    while len(lambda_sets) < 200:
        lambda_sets.append(rng.uniform(0.5, 3.0, size=4))
    for lambdas in lambda_sets:
        inst = PlasticityInstance(base=base, a0=a0, lambdas=lambdas)
        try:
            stretched = stretch(inst)
        except FloatingViolated:
            continue
        checked += 1
        disp = verify_invariance(inst)
        ok = ok and disp < 1e-6
        v = np.asarray(stretched.vertices)
        d = measure_dihedral_data(a0, v[0], v[1], v[2], v[3])
        h = height_012(float(np.linalg.norm(a0 - v[0])), d.a02, d.a12)
        alpha = dihedral_alpha(d, h)
        ok = ok and abs(predict_a04p(d, h, alpha) - np.linalg.norm(a0 - v[3])) < 1e-9
    ok = ok and checked == 200
    report("200 ray stretches keep the minimizer fixed and match the cosine law", ok)


def test_criterion_8_classification_boundary():
    eps = 1e-3
    v = embed_regular(1.0)
    below = classify(WeightedTetrahedron(v, [1, 1, 1, math.sqrt(6) - eps]))
    above = classify(WeightedTetrahedron(v, [1, 1, 1, math.sqrt(6) + eps]))
    ok = below.floating and not above.floating and above.vertex == 3
    report("classification flips across the sqrt(6) margin boundary", ok)


def test_criterion_9_cli_contract(tmp_path, capsys):
    ok = True

    def write(name, obj):
        p = tmp_path / name
        p.write_text(json.dumps(obj))
        return str(p)

    ref = write("ref.json", {"mode": "symmetric-regular", "a": 1, "b1": 2.5, "b4": 1})
    eq = write("eq.json", {"mode": "symmetric-regular", "a": 1, "b1": 1, "b4": 1})

    code = main(["solve", "--input", ref])
    out = capsys.readouterr().out
    ok = ok and code == 0 and "case=floating" in out
    y = float(next(l for l in out.splitlines() if l.startswith("y=")).split("=")[1])
    ok = ok and abs(y - 0.198358) < 1e-5

    code = main(["angles", "--input", eq, "--json"])
    payload = json.loads(capsys.readouterr().out)
    target = math.degrees(math.acos(-1.0 / 3.0))
    ok = ok and code == 0
    for key in ("alpha102_deg", "alpha304_deg", "alpha_cross_deg"):
        ok = ok and abs(payload[key] - target) < 1e-6

    code = main(
        ["sweep", "--input", eq, "--ratio-min", "1", "--ratio-max", "1", "--steps", "1"]
    )
    out = capsys.readouterr().out
    lines = out.splitlines()
    ok = ok and code == 0 and out.endswith("\n")
    ok = ok and lines[0] == "ratio,y,y_complementary,objective,alpha102,alpha304,alpha_cross"
    cells = lines[1].split(",")
    ok = ok and len(cells) == 7 and float(cells[1]) == 0.0
    for cell in cells:
        digits = re.sub(r"[^0-9]", "", cell.split("e")[0]).lstrip("0")
        ok = ok and len(digits) <= 9

    code = main(["solve", "--input", str(tmp_path / "missing.json")])
    capsys.readouterr()
    ok = ok and code == 1
    code = main(["complementary", "--input", eq])
    capsys.readouterr()
    ok = ok and code == 2

    report("CLI examples pass schema, formatting and exit-code checks", ok)
