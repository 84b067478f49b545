"""The general path's floats, pinned: a digest of the reprs of classify,
weiszfeld, stretch and verify_invariance on seeded draws, and a second one
on heavy weight pairs, where the solver ends on the decimal gradient.

A change that is meant to keep every answer (a faster constructor, kernel
or re-solve) must keep this digest.  The draws use only the random module,
sqrt and plain left-to-right sums: the builtin sum adds floats with
compensation from Python 3.12 on, so draws built with it differ between
versions.  The module needs neither numpy nor pytest, so the digest can be
checked on any supported Python:

    PYTHONPATH=src:tests python -c "import test_general_floats as m; print(m.digest())"
    PYTHONPATH=src:tests python -c "import test_general_floats as m; print(m.digest(m.heavy_answers()))"
"""

import hashlib
import math
import random

from ftsolve import (
    PlasticityInstance,
    SymmetricInstance,
    WeightedTetrahedron,
    classify,
    solve_symmetric,
    stretch,
    verify_invariance,
    weiszfeld,
)
from ftsolve import numeric

# the digest of the answers before the ray-stretch re-solve was made cheaper;
# identical on CPython 3.10, 3.11, 3.12 and 3.13
DIGEST = "a9aa059bccfe73ebcf18620975020333285e04f6193e6d2e35b8728c4111dabe"
JITTERED, RAY_STRETCH = 400, 200
# the heavy-pair answers when the decimal finish was a loop of its own, and
# its passes over those draws: _visit and _gradient_wide calls (CPython 3.11)
HEAVY_DIGEST = "4fa2ef53238a423bc2525ccf3551bf4ca3c74089ec2c6013962a83869bc8dfb9"
HEAVY, HEAVY_VISITS, HEAVY_WIDES = 600, 5967, 2309
REGULAR = (
    (-0.5, 0.0, math.sqrt(2.0) / 4.0),
    (0.5, 0.0, math.sqrt(2.0) / 4.0),
    (0.0, -0.5, -math.sqrt(2.0) / 4.0),
    (0.0, 0.5, -math.sqrt(2.0) / 4.0),
)


def _log_uniform(rng, lo, hi):
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _jittered(rng):
    """The regular tetrahedron with each coordinate moved by up to 0.3,
    scaled log-uniformly on [1e-2, 1e2] and shifted; and the scale."""
    scale = _log_uniform(rng, 1e-2, 1e2)
    shift = [rng.uniform(-1.0, 1.0) * scale for _ in range(3)]
    v = [[(c + rng.uniform(-0.3, 0.3)) * scale + s for c, s in zip(p, shift)] for p in REGULAR]
    return v, scale


def _det(p, q, r):
    return (
        p[0] * (q[1] * r[2] - q[2] * r[1])
        - p[1] * (q[0] * r[2] - q[2] * r[0])
        + p[2] * (q[0] * r[1] - q[1] * r[0])
    )


def _ray_stretch(rng):
    """A floating tetrahedron around the known minimizer a0, the centroid of
    a jittered one: its vertices at log-uniform distances along the unit
    vectors from a0, weighted by the null vector of those unit vectors; and
    stretch factors log-uniform on [0.5, 3]."""
    v, scale = _jittered(rng)
    (x0, y0, z0), (x1, y1, z1), (x2, y2, z2), (x3, y3, z3) = v
    a0 = [(x0 + x1 + x2 + x3) / 4.0, (y0 + y1 + y2 + y3) / 4.0, (z0 + z1 + z2 + z3) / 4.0]
    u = []
    for p in v:
        ox, oy, oz = p[0] - a0[0], p[1] - a0[1], p[2] - a0[2]
        n = math.sqrt(ox * ox + oy * oy + oz * oz)
        u.append((ox / n, oy / n, oz / n))
    w = [_det(u[1], u[2], u[3]), -_det(u[0], u[2], u[3]), _det(u[0], u[1], u[3]), -_det(u[0], u[1], u[2])]
    mean = (w[0] + w[1] + w[2] + w[3]) / 4.0
    weights = [x / mean for x in w]
    vertices = []
    for ui in u:
        r = _log_uniform(rng, 0.5, 2.0) * scale
        vertices.append([a0[0] + r * ui[0], a0[1] + r * ui[1], a0[2] + r * ui[2]])
    lambdas = [_log_uniform(rng, 0.5, 3.0) for _ in range(4)]
    return vertices, weights, a0, lambdas


def _answer(f, *args):
    try:
        return repr(f(*args))
    except Exception as e:  # a refusal is an answer too
        return f"{type(e).__name__}: {e}"


def answers():
    """One line per draw: the reprs of its answers."""
    rng = random.Random(2014)
    for _ in range(JITTERED):
        v, _ = _jittered(rng)
        w = [_log_uniform(rng, 0.2, 5.0) for _ in range(4)]
        try:
            t = WeightedTetrahedron(v, w)
        except Exception as e:
            yield f"{type(e).__name__}: {e}"
            continue
        yield f"{_answer(classify, t)} {_answer(weiszfeld, t)}"
    for _ in range(RAY_STRETCH):
        vertices, weights, a0, lambdas = _ray_stretch(rng)
        t = WeightedTetrahedron(vertices, weights)
        p = PlasticityInstance(t, a0, lambdas)
        yield " ".join([_answer(classify, t), _answer(weiszfeld, t), _answer(stretch, p), _answer(verify_invariance, p)])


def heavy_draws():
    """Regular two-pair tetrahedra, edge log-uniform on [1e-3, 1e3], the
    heavy pair 1e1 to 1e15 times the light one (log-uniform, the light
    weight log-uniform on [0.5, 2]), heavy first and light first in turn;
    each with stretch factors log-uniform on [0.5, 3].  Last, a draw at
    1e15 whose cold stretched solve halves a decimal step, which about one
    draw in 3,000 of the others does."""
    rng = random.Random(15)
    for i in range(HEAVY):
        a = _log_uniform(rng, 1e-3, 1e3)
        light = _log_uniform(rng, 0.5, 2.0)
        heavy = light * _log_uniform(rng, 1e1, 1e15)
        b1, b4 = (heavy, light) if i % 2 == 0 else (light, heavy)
        lambdas = [_log_uniform(rng, 0.5, 3.0) for _ in range(4)]
        yield SymmetricInstance(a, b1, b4), lambdas
    lambdas = [0.6089303587970475, 2.6876941867511515, 0.5446830649554133, 2.5277840831427043]
    yield SymmetricInstance(1.0, 1e15, 1.0), lambdas


def heavy_answers():
    """One line per heavy draw: the reprs of its cold weiszfeld, of
    verify_invariance from the closed-form point, and of a cold weiszfeld
    of the stretched tetrahedron."""
    for inst, lambdas in heavy_draws():
        t = inst.tetrahedron()
        p = PlasticityInstance(t, solve_symmetric(inst).point, lambdas)
        cold = _answer(lambda: weiszfeld(stretch(p)))
        yield " ".join([_answer(weiszfeld, t), _answer(verify_invariance, p), cold])


def heavy_passes():
    """The heavy draws' answers with the solver's passes counted: the
    number of draws, of draws on which the decimal gradient ran, of _visit
    calls and of _gradient_wide calls.  The two are rebound on the numeric
    module for the count and restored after it."""
    visit, wide = numeric._visit, numeric._gradient_wide
    calls = {visit: 0, wide: 0}

    def counted(f):
        def call(*args):
            calls[f] += 1
            return f(*args)

        return call

    numeric._visit, numeric._gradient_wide = counted(visit), counted(wide)
    try:
        draws = wided = before = 0
        for _ in heavy_answers():
            draws += 1
            wided += calls[wide] > before
            before = calls[wide]
        return draws, wided, calls[visit], calls[wide]
    finally:
        numeric._visit, numeric._gradient_wide = visit, wide


def digest(lines=None) -> str:
    """The sha256 of the lines, one per draw, answers() by default."""
    h = hashlib.sha256()
    for line in answers() if lines is None else lines:
        h.update(line.encode() + b"\n")
    return h.hexdigest()


def test_general_path_floats_are_pinned():
    assert digest() == DIGEST


def test_heavy_pair_floats_are_pinned():
    assert digest(heavy_answers()) == HEAVY_DIGEST


def test_heavy_pair_passes_within_budget():
    # the decimal gradient runs on most draws, and neither kind of pass is
    # made more often than when the decimal finish was a loop of its own
    draws, wided, visits, wides = heavy_passes()
    assert wided > draws // 2
    assert visits <= HEAVY_VISITS and wides <= HEAVY_WIDES
