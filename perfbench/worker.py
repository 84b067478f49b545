"""Child process that imports ftsolve from the checkout's src/ and runs ops.

    worker.py setup <workload> <item-json>   import ftsolve, run one op, exit
    worker.py import                         print seconds to import ftsolve.cli
    worker.py run < payload-json             closed loop, result JSON on stdout
    worker.py defects < payload-json         each item once, untimed; outcomes

The runner starts at most one worker at a time.  In ``run`` mode the
worker loops over the items for the given seconds, timing each op alone;
answers are deduplicated per item and returned for checking, so the
checking and the reference computation happen outside the timed region.
With ``trace`` set, each item runs once untraced and once traced (see
spans.py), which gives the per-layer numbers and the tracing overhead.
"""

import math
import os
import sys
import time

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
sys.path.insert(0, SRC)

SPAN_CAP = 1_000_000
LATENCY_CHUNK = 4096


def import_ftsolve(with_cli: bool):
    import ftsolve

    if not os.path.abspath(ftsolve.__file__).startswith(SRC + os.sep):
        raise ImportError(f"ftsolve imported from {ftsolve.__file__}, not from {SRC}")
    if with_cli:
        import ftsolve.cli  # noqa: F401
    return ftsolve


def _call(fn, *args):
    try:
        return fn(*args)
    except Exception as e:  # the outcome is checked, not raised
        return e


def symmetric_op(ft, it):
    """The work of one sweep row: solve, exterior point, angles."""
    inst = ft.SymmetricInstance(it["a"], it["b1"], it["b4"])
    sol = _call(ft.solve_symmetric, inst)
    yp = _call(ft.complementary_axial, inst)
    ang = None
    if not isinstance(sol, Exception) and sol.y is not None:
        ang = _call(ft.angles_at, inst.a, sol.y)
    return sol, yp, ang


def general_op(ft, it):
    tet = ft.WeightedTetrahedron(it["vertices"], it["weights"])
    if it["kind"] == "invariance":
        return ft.verify_invariance(ft.PlasticityInstance(tet, it["a0"], it["lambdas"]))
    return ft.weiszfeld(tet)


def cli_op(ft, it):
    """ftsolve.cli.main in-process, with what a process would show."""
    import contextlib
    import io
    import traceback

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = ft.cli.main(it["argv"])
        except SystemExit as e:
            code = e.code
        except Exception:
            traceback.print_exc()
            code = 1
    return code, out.getvalue(), err.getvalue()


OPS = {"symmetric": symmetric_op, "general": general_op, "cli": cli_op}


def encode(ft, x):
    """A hashable, JSON-able picture of an op's result."""

    def f(v):
        v = float(v)
        return None if math.isnan(v) else v

    if isinstance(x, tuple):
        return tuple(encode(ft, v) for v in x)
    if x is None or isinstance(x, (int, str)):
        return x
    if isinstance(x, Exception):
        return ("raise", type(x).__name__, isinstance(x, ft.FtSolveError))
    if isinstance(x, ft.FtSolution):
        return ("sol", x.case, None if x.y is None else f(x.y), f(x.objective),
                tuple(f(v) for v in x.point), x.vertex)
    if isinstance(x, ft.AngleSet):
        return ("ang", f(x.alpha_102), f(x.alpha_304), f(x.alpha_cross))
    return ("val", f(x))


class LatencyLog:
    """Per-op latencies in µs, spilled to a file in the output directory in
    chunks of LATENCY_CHUNK, so the worker's memory does not grow with the
    number of ops a faster program fits into the run.  Peak RSS is read
    before ``values`` loads them back."""

    def __init__(self, out_dir):
        import tempfile
        from array import array

        self._file = tempfile.TemporaryFile(dir=out_dir)
        self._buf = array("d")

    def append(self, us: float):
        self._buf.append(us)
        if len(self._buf) == LATENCY_CHUNK:
            self._buf.tofile(self._file)
            del self._buf[:]

    def values(self):
        from array import array

        self._buf.tofile(self._file)
        self._file.seek(0)
        out = array("d")
        out.frombytes(self._file.read())
        self._file.close()
        return out


def run_loop(ft, op, items, seconds, outcomes, out_dir, tracing=None):
    """Closed loop with one synchronous client; returns the untraced and
    (with ``tracing``) traced per-op latency logs.

    With ``tracing``, every item runs twice in a row, once traced and once
    not, in alternating order, and the two latency lists come back as a
    pair: machine-speed drift and cache warmth then fall equally on both,
    so their difference is the tracing overhead."""
    untraced = LatencyLog(out_dir)
    tracer = tracing.tracer if tracing is not None else None
    traced = LatencyLog(out_dir) if tracer is not None else None
    op_names = None
    if tracer is not None:
        op_names = [tracer.name_id("op." + it.get("kind", it.get("sub", "op"))) for it in items]
    n = 0
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        if tracer is not None and tracer.full:
            break
        idx = n % len(items)
        it = items[idx]
        passes = (False,) if tracer is None else ((False, True) if n % 2 == 0 else (True, False))
        for with_trace in passes:
            if with_trace:
                tracer.op_id = n
                tracing.enable()
                t0 = time.perf_counter_ns()
                span = tracer.open(op_names[idx])
                r = _call(op, ft, it)
                tracer.close(span, isinstance(r, Exception))
                t1 = time.perf_counter_ns()
                tracing.disable()
                traced.append((t1 - t0) / 1e3)
            else:
                t0 = time.perf_counter_ns()
                r = _call(op, ft, it)
                t1 = time.perf_counter_ns()
                untraced.append((t1 - t0) / 1e3)
            key = encode(ft, r)
            counts = outcomes[idx]
            counts[key] = counts.get(key, 0) + 1
        n += 1
    return untraced, traced


def radical_probe(ft, items):
    """Share of items whose radical_intermediates imaginary defect stays
    under 1e-9*a (the closed form's gate); raising counts as not under."""
    fn = getattr(ft, "radical_intermediates", None)
    ok = 0
    for it in items:
        try:
            ok += fn(ft.SymmetricInstance(it["a"], it["b1"], it["b4"])).imag_defect <= 1e-9 * it["a"]
        except Exception:
            pass
    return [ok, len(items)] if fn is not None else [0, 0]


def tetrahedron(ft, it):
    """The weighted tetrahedron of an item of any workload."""
    inst = it.get("instance", it)
    if "vertices" in inst:
        return ft.WeightedTetrahedron(inst["vertices"], inst["weights"])
    return ft.SymmetricInstance(inst["a"], inst["b1"], inst["b4"]).tetrahedron()


def floating_probe(ft, items):
    """[floating, classified] over the pool by ``classify``: a check on the
    workload's mix."""
    floating = sum(bool(ft.classify(tetrahedron(ft, it)).floating) for it in items)
    return [floating, len(items)]


def run(payload):
    import json
    import resource

    import metrics
    import spans

    workload = payload["workload"]
    items = payload["items"]
    ft = import_ftsolve(with_cli=workload == "cli")
    op = OPS[workload]
    ceiling = payload["tail_ceiling"]
    out_dir = os.path.dirname(payload["spans_path"])
    outcomes = [dict() for _ in items]
    result = {}
    if not payload["trace"]:
        lat, _ = run_loop(ft, op, items, payload["seconds"], outcomes, out_dir)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result["latency"] = metrics.latency_summary(lat.values(), ceiling, len(items))
    else:
        if workload == "symmetric":
            result["radical_ok"] = radical_probe(ft, items)
        result["floating"] = floating_probe(ft, items)
        tracer = spans.Tracer(SPAN_CAP)
        tracing = spans.Tracing(tracer, ft)
        lat, traced = run_loop(ft, op, items, payload["seconds"], outcomes, out_dir, tracing)
        result["latency"] = metrics.latency_summary(lat.values(), ceiling, len(items))
        result["traced_latency"] = metrics.latency_summary(traced.values(), ceiling, len(items))
        result["trace"] = spans.analyse(tracer)
        tracer.write(payload["spans_path"])
    result["outcomes"] = [[i, list(c.items())] for i, c in enumerate(outcomes) if c]
    json.dump(result, sys.stdout)


def defects(payload):
    """Each item once, untimed: the known-defect pass."""
    import json

    workload = payload["workload"]
    ft = import_ftsolve(with_cli=workload == "cli")
    outcomes = [[i, [[encode(ft, _call(OPS[workload], ft, it)), 1]]] for i, it in enumerate(payload["items"])]
    json.dump({"outcomes": outcomes}, sys.stdout)


def main():
    mode = sys.argv[1]
    if mode == "setup":
        import json

        workload, item = sys.argv[2], json.loads(sys.argv[3])
        ft = import_ftsolve(with_cli=False)
        _call(OPS[workload], ft, item)
    elif mode == "import":
        t0 = time.perf_counter()
        import_ftsolve(with_cli=True)
        print(time.perf_counter() - t0)
    elif mode in ("run", "defects"):
        import json

        (run if mode == "run" else defects)(json.load(sys.stdin))
    else:
        raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    main()
