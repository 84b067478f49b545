"""The general path's floats, pinned: a digest of the reprs of classify,
weiszfeld, stretch and verify_invariance on seeded draws.

A change that is meant to keep every answer (a faster constructor, kernel
or re-solve) must keep this digest.  The draws use only the random module,
sqrt and plain left-to-right sums: the builtin sum adds floats with
compensation from Python 3.12 on, so draws built with it differ between
versions.  The module needs neither numpy nor pytest, so the digest can be
checked on any supported Python:

    PYTHONPATH=src:tests python -c "import test_general_floats as m; print(m.digest())"
"""

import hashlib
import math
import random

from ftsolve import PlasticityInstance, WeightedTetrahedron, classify, stretch, verify_invariance, weiszfeld

# the digest of the answers before the ray-stretch re-solve was made cheaper;
# identical on CPython 3.10, 3.11, 3.12 and 3.13
DIGEST = "a9aa059bccfe73ebcf18620975020333285e04f6193e6d2e35b8728c4111dabe"
JITTERED, RAY_STRETCH = 400, 200
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


def digest() -> str:
    h = hashlib.sha256()
    for line in answers():
        h.update(line.encode() + b"\n")
    return h.hexdigest()


def test_general_path_floats_are_pinned():
    assert digest() == DIGEST
