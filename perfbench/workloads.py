"""Seeded input generation for the three workloads.

Pure Python, no ftsolve import: the program under test only ever receives
the generated numbers.  Each workload is built from fixed-composition
rounds (a fixed count of each instance kind per round, shuffled within the
round), so any prefix of the op stream has nearly the same mix and a run
that stops on a time limit measures the same mix on every seed.

Each workload has two pools.  The timed pool (``GENERATORS``) draws only
from input ranges on which the seed code answers correctly, so any failure
there is a new defect.  The defect pool (``DEFECT_GENERATORS``) draws from
the ranges of the known defects listed in README.md, one named class per
range; it runs once per run, untimed, and its failures are counted by
class.  The two pools together cover the ranges the workloads are about.
"""

from __future__ import annotations

import math
import random

SQRT6 = math.sqrt(6.0)


def rng_for(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return 10.0 ** rng.uniform(math.log10(lo), math.log10(hi))


def stratified(rng: random.Random, n: int, lo: float, hi: float) -> list[float]:
    """n draws from [lo, hi], one uniform draw in each of n equal strata,
    in stratum order: the spread of a seed's sample no longer depends on
    luck, only its position within each stratum does."""
    return [lo + (hi - lo) * (j + rng.random()) / n for j in range(n)]


# -- symmetric ---------------------------------------------------------------

SYM_ROUNDS = 150
SYM_BROAD, SYM_BAND = 8, 2  # per round: broad ratios, near-equal band
TIE_EVERY = 5  # one band slot in every fifth round is an exact tie
# The timed ranges: log10 of b_heavy/b_light for the broad ratios, k of
# the band's ratios 1 + 10^-k.  The seed answers every input in them
# correctly; the band here runs the quartic fallback on every input.
SYM_BROAD_DECADES = (0.05, 7.0)
SYM_BAND_K = (5.0, 6.8)
# The known-defect classes, (ratio form, lo, hi) with the forms above.
# Together with the timed ranges they cover ratios up to 1e12 and the whole
# band k in [1, 12].
SYM_DEFECTS = {
    "band_cancel": ("band", 1.0, 5.0),
    "band_deep": ("band", 6.8, 12.0),
    "huge_ratio": ("broad", 7.0, 12.0),
}
SYM_DEFECTS_PER_CLASS = 40


def symmetric_instance(rng: random.Random, ratio: float, heavy_first: bool):
    """(a, b1, b4) with a log-uniform on [1e-3, 1e3], the lighter weight
    log-uniform on [1e-2, 1e2] and b_heavy/b_light = ratio."""
    a = _log_uniform(rng, 1e-3, 1e3)
    light = _log_uniform(rng, 1e-2, 1e2)
    heavy = light * ratio
    return (a, heavy, light) if heavy_first else (a, light, heavy)


def _ratio(form: str, x: float) -> float:
    return 10.0**x if form == "broad" else 1.0 + 10.0**-x


def symmetric(seed: int) -> list[dict]:
    """``broad``: b_heavy/b_light log-uniform over SYM_BROAD_DECADES.
    ``band``: the ratio is 1 + 10^-k with k uniform over SYM_BAND_K, in the
    near-equal band where the closed form cancels; ``tie``: exactly equal
    weights.  Both orientations (b1 > b4 and b1 < b4) alternate."""
    rng = rng_for("symmetric", seed)
    broad = stratified(rng, SYM_ROUNDS * SYM_BROAD, *SYM_BROAD_DECADES)
    band = stratified(rng, SYM_ROUNDS * SYM_BAND, *SYM_BAND_K)
    rng.shuffle(broad)
    rng.shuffle(band)
    out = []
    for r in range(SYM_ROUNDS):
        batch = []
        for i in range(SYM_BROAD + SYM_BAND):
            if i < SYM_BROAD:
                kind, ratio = "broad", _ratio("broad", broad.pop())
            elif i == SYM_BROAD + SYM_BAND - 1 and r % TIE_EVERY == 0:
                kind, ratio = "tie", 1.0
                band.pop()
            else:
                kind, ratio = "band", _ratio("band", band.pop())
            a, b1, b4 = symmetric_instance(rng, ratio, heavy_first=i % 2 == 0)
            batch.append({"kind": kind, "a": a, "b1": b1, "b4": b4})
        rng.shuffle(batch)
        out.extend(batch)
    return out


def symmetric_defects(seed: int) -> list[dict]:
    """SYM_DEFECTS_PER_CLASS inputs of each known-defect class, stratified
    over its range, both orientations alternating."""
    rng = rng_for("symmetric-defects", seed)
    out = []
    for kind, (form, lo, hi) in SYM_DEFECTS.items():
        for i, x in enumerate(stratified(rng, SYM_DEFECTS_PER_CLASS, lo, hi)):
            a, b1, b4 = symmetric_instance(rng, _ratio(form, x), heavy_first=i % 2 == 0)
            out.append({"kind": kind, "a": a, "b1": b1, "b4": b4})
    return out


# -- general -------------------------------------------------------------------

# Per round: jittered tetrahedra, floating or absorbed as drawn, and
# ray-stretch re-solves.  A jittered draw that floats within NEAR_BOUNDARY
# relative margin of absorption belongs to the near_boundary defect class,
# like the sqrt(6) band: Weiszfeld slows as the margin shrinks (a mean of
# 2.7 ms for margins in [0.1, 1], 12 ms in [1e-2, 0.1], 94 ms in
# [1e-3, 1e-2]) and, near 1e-3 and below, stops short or raises
# NoConvergence.  Such draws are redrawn for the timed pool; they
# are 0.6 % of all draws, so the timed pool keeps the plain draw's mix of
# about 41 % floating and 59 % absorbed.
GEN_ROUNDS = 150
GEN_JITTERED, GEN_INVARIANCE = 8, 3
NEAR_BOUNDARY = 1e-2
# known-defect classes: the sqrt(6) band, eps log-uniform on [1e-6, 1e-1],
# and jittered draws that float within NEAR_BOUNDARY of absorption
GEN_BAND_EPS = (1e-6, 1e-1)
GEN_DEFECTS = {"band": 12, "near_boundary": 6}


def regular_vertices(a: float = 1.0) -> list[list[float]]:
    c = a * math.sqrt(2.0) / 4.0
    return [[-a / 2, 0.0, c], [a / 2, 0.0, c], [0.0, -a / 2, -c], [0.0, a / 2, -c]]


def _volume6(v) -> float:
    d = [[v[i][k] - v[0][k] for k in range(3)] for i in (1, 2, 3)]
    return abs(
        d[0][0] * (d[1][1] * d[2][2] - d[1][2] * d[2][1])
        - d[0][1] * (d[1][0] * d[2][2] - d[1][2] * d[2][0])
        + d[0][2] * (d[1][0] * d[2][1] - d[1][1] * d[2][0])
    )


def _jittered(rng: random.Random) -> tuple[list[list[float]], float]:
    """A regular tetrahedron with each vertex moved by up to 0.3 edge
    lengths, scaled log-uniformly on [1e-2, 1e2] and shifted; resampled
    until its volume is at least a fifth of the regular one."""
    scale = _log_uniform(rng, 1e-2, 1e2)
    base = regular_vertices(1.0)
    while True:
        v = [[x + rng.uniform(-0.3, 0.3) for x in p] for p in base]
        if _volume6(v) >= 0.2 * _volume6(base):
            break
    shift = [rng.uniform(-1.0, 1.0) * scale for _ in range(3)]
    return [[x * scale + s for x, s in zip(p, shift)] for p in v], scale


def relative_margin(vertices, weights) -> float:
    """min_i (||sum_{j != i} w_j u(A_i, A_j)|| - w_i) / w_i: positive when
    the minimizer floats, and how far it is from being absorbed."""
    out = math.inf
    for i, (p, wi) in enumerate(zip(vertices, weights)):
        pull = [0.0, 0.0, 0.0]
        for j, (q, wj) in enumerate(zip(vertices, weights)):
            if j != i:
                d = math.dist(p, q)
                pull = [s + wj * (qk - pk) / d for s, pk, qk in zip(pull, p, q)]
        out = min(out, (math.hypot(*pull) - wi) / wi)
    return out


def jittered_instance(rng: random.Random, near_boundary: bool = False) -> dict:
    """Non-regular tetrahedron with weights log-uniform on [0.2, 5],
    floating or absorbed as drawn, with its relative margin.  Draws are
    repeated until they are in the near_boundary class, or out of it."""
    while True:
        v, _ = _jittered(rng)
        w = [_log_uniform(rng, 0.2, 5.0) for _ in range(4)]
        m = relative_margin(v, w)
        if (0.0 <= m < NEAR_BOUNDARY) == near_boundary:
            return {"vertices": v, "weights": w, "margin": m}


def band_instance(rng: random.Random, eps: float) -> dict:
    """Regular tetrahedron weighted (1, 1, 1, sqrt(6) - eps): floating,
    next to the absorbed boundary at eps = 0."""
    return {
        "vertices": regular_vertices(_log_uniform(rng, 1e-2, 1e2)),
        "weights": [1.0, 1.0, 1.0, SQRT6 - eps],
        "eps": eps,
    }


def _null_weights(u) -> list[float]:
    # w with sum_i w_i u_i = 0 from the 3x3 minors of the 3x4 matrix [u_i]
    def det(p, q, r):
        return (
            p[0] * (q[1] * r[2] - q[2] * r[1])
            - p[1] * (q[0] * r[2] - q[2] * r[0])
            + p[2] * (q[0] * r[1] - q[1] * r[0])
        )

    w = [det(u[1], u[2], u[3]), -det(u[0], u[2], u[3]), det(u[0], u[1], u[3]), -det(u[0], u[1], u[2])]
    s = sum(w) / 4.0
    return [x / s for x in w]


def invariance_instance(rng: random.Random) -> dict:
    """A floating tetrahedron built around a known minimizer a0 (weights
    balance the unit vectors from a0 to the vertices) with ray-stretch
    factors log-uniform on [0.5, 3]."""
    v, scale = _jittered(rng)
    a0 = [sum(p[k] for p in v) / 4.0 for k in range(3)]
    u = []
    for p in v:
        d = [p[k] - a0[k] for k in range(3)]
        n = math.sqrt(sum(x * x for x in d))
        u.append([x / n for x in d])
    weights = _null_weights(u)
    dist = [_log_uniform(rng, 0.5, 2.0) * scale for _ in range(4)]
    vertices = [[a0[k] + r * ui[k] for k in range(3)] for r, ui in zip(dist, u)]
    lambdas = [_log_uniform(rng, 0.5, 3.0) for _ in range(4)]
    return {"vertices": vertices, "weights": weights, "a0": a0, "lambdas": lambdas}


def general(seed: int) -> list[dict]:
    """Per round GEN_JITTERED jittered and GEN_INVARIANCE ray-stretch
    instances."""
    rng = rng_for("general", seed)
    out = []
    for _ in range(GEN_ROUNDS):
        batch = [dict(jittered_instance(rng), kind="jittered") for _ in range(GEN_JITTERED)]
        batch += [dict(invariance_instance(rng), kind="invariance") for _ in range(GEN_INVARIANCE)]
        rng.shuffle(batch)
        out.extend(batch)
    return out


def general_defects(seed: int) -> list[dict]:
    """The sqrt(6) band, eps stratified log-uniformly over GEN_BAND_EPS,
    and jittered draws in the near_boundary class."""
    rng = rng_for("general-defects", seed)
    lo, hi = (math.log10(x) for x in GEN_BAND_EPS)
    out = [dict(band_instance(rng, 10.0**x), kind="band") for x in stratified(rng, GEN_DEFECTS["band"], lo, hi)]
    out += [dict(jittered_instance(rng, near_boundary=True), kind="near_boundary") for _ in range(GEN_DEFECTS["near_boundary"])]
    return out


# -- cli ---------------------------------------------------------------------------

CLI_ROUNDS = 3
SWEEP_STEPS = 2000
SYM_SUBCOMMANDS = ("solve", "classify", "angles", "complementary", "quartic", "plasticity")
GEN_SUBCOMMANDS = ("solve", "classify")
# log10 of b_heavy/b_light for the broad one-shot instances.  The seed's
# `plasticity` predicts a04' with the wrong sign of a projection when b4
# exceeds b1 by a factor of 3.39 or more and lambda1/lambda2 = 6, the
# largest quotient the drawn lambdas reach; `quartic` is wrong above 2e4
CLI_DECADES = (0.05, 0.3)
# known-defect classes, each run through every symmetric subcommand
CLI_DEFECTS = {
    "band_cancel": SYM_DEFECTS["band_cancel"],
    "band_deep": SYM_DEFECTS["band_deep"],
    "large_ratio": ("broad", CLI_DECADES[1], 12.0),
}
CLI_DEFECT_INSTANCES = 2  # per class
CLI_DEFECT_SWEEPS = 2  # sweeps that start in the near-equal band


def _sweep_specs(rng: random.Random) -> list[dict]:
    """Two ratio ranges per seed, cycled, both inside the timed broad range
    SYM_BROAD_DECADES: one above 1 and one below (the mirrored b1 < b4)."""
    out = []
    for above in (True, False):
        a, _, b4 = symmetric_instance(rng, 1.0, heavy_first=True)
        near = _ratio("broad", rng.uniform(SYM_BROAD_DECADES[0], 1.0))
        far = near * _log_uniform(rng, 10.0, 1e4)
        lo, hi = (near, far) if above else (1.0 / far, 1.0 / near)
        out.append({"a": a, "b1": b4, "b4": b4, "ratio_min": lo, "ratio_max": hi})
    return out


def _sym_calls(rng: random.Random, sym: dict, as_json: bool, **extra) -> list[dict]:
    calls = []
    for sub in SYM_SUBCOMMANDS:
        call = {"sub": sub, "instance": sym, "json": as_json, **extra}
        if sub == "plasticity":
            call["lambdas"] = [_log_uniform(rng, 0.5, 3.0) for _ in range(4)]
        calls.append(call)
    return calls


def _sweep_call(spec: dict, **extra) -> dict:
    return {
        "sub": "sweep",
        "instance": {"mode": "symmetric-regular", "a": spec["a"], "b1": spec["b1"], "b4": spec["b4"]},
        "ratio_min": spec["ratio_min"],
        "ratio_max": spec["ratio_max"],
        "steps": SWEEP_STEPS,
        "json": False,
        **extra,
    }


def cli(seed: int) -> list[dict]:
    """Invocations of ``python -m ftsolve``: per round every symmetric
    subcommand on a symmetric instance (from the timed band SYM_BAND_K
    every third round, broad over CLI_DECADES otherwise), the two general
    subcommands on a jittered instance, and one sweep of SWEEP_STEPS rows.
    Symmetric one-shots use --json on even rounds and the text format on
    odd ones."""
    rng = rng_for("cli", seed)
    sweeps = _sweep_specs(rng)
    out = []
    for r in range(CLI_ROUNDS):
        as_json = r % 2 == 0
        if r % 3 == 2:
            ratio = _ratio("band", rng.uniform(*SYM_BAND_K))
        else:
            ratio = _ratio("broad", rng.uniform(*CLI_DECADES))
        a, b1, b4 = symmetric_instance(rng, ratio, heavy_first=r % 4 < 2)
        sym = {"mode": "symmetric-regular", "a": a, "b1": b1, "b4": b4}
        gen = dict(jittered_instance(rng), mode="general")
        batch = _sym_calls(rng, sym, as_json)
        batch += [{"sub": sub, "instance": gen, "json": True} for sub in GEN_SUBCOMMANDS]
        batch.append(_sweep_call(sweeps[r % 2]))
        rng.shuffle(batch)
        out.extend(batch)
    return out


def cli_defects(seed: int) -> list[dict]:
    """CLI_DEFECT_INSTANCES symmetric instances of each CLI_DEFECTS class,
    each through every symmetric subcommand, and CLI_DEFECT_SWEEPS sweeps
    from 1 + 10^-k, k uniform on [3, 12] (class ``sweep_near_one``)."""
    rng = rng_for("cli-defects", seed)
    out = []
    for kind, (form, lo, hi) in CLI_DEFECTS.items():
        for i, x in enumerate(stratified(rng, CLI_DEFECT_INSTANCES, lo, hi)):
            a, b1, b4 = symmetric_instance(rng, _ratio(form, x), heavy_first=i % 2 == 0)
            sym = {"mode": "symmetric-regular", "a": a, "b1": b1, "b4": b4}
            out += _sym_calls(rng, sym, i % 2 == 0, kind=kind)
    for _ in range(CLI_DEFECT_SWEEPS):
        a, _, b4 = symmetric_instance(rng, 1.0, heavy_first=True)
        lo = _ratio("band", rng.uniform(3.0, 12.0))
        spec = {"a": a, "b1": b4, "b4": b4, "ratio_min": lo, "ratio_max": lo + _log_uniform(rng, 0.5, 10.0)}
        out.append(_sweep_call(spec, kind="sweep_near_one"))
    return out


GENERATORS = {"symmetric": symmetric, "general": general, "cli": cli}
DEFECT_GENERATORS = {"symmetric": symmetric_defects, "general": general_defects, "cli": cli_defects}
