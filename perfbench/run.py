"""ftsolve benchmark.

    python3 perfbench/run.py --workload {symmetric,general,cli} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout; the program is imported from its src/.
Inputs come from --seed alone (see workloads.py); every answer is checked
against a 50-digit mpmath reference (oracle.py, checks.py) computed
outside the timed region.  After the timed loop, the inputs of the known
defects run once, untimed, and their failures are reported by class.
Human-readable tables go to stdout first; the last line is one JSON object
with ``correct`` (every timed op answered correctly), ``attempted``,
``failed`` (timed ops) and ``metrics`` (the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1).  Spans and the traced report are written under
perfbench/out/.  See perfbench/README.md for what each number means.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import metrics
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_REPEATS = 9
IMPORT_REPEATS = 5
CHILD_TIMEOUT_S = 60
# Highest tail percentile per workload: valid on the seed's sample counts
# and kept fixed so that parent and change compare the same percentile.
# Each lies inside one cluster of op times, not on the edge between two:
# symmetric p99 in the quartic-fallback ops (a third of ops), general
# p90 in the floating Weiszfeld solves (30 %; p95 would sit on the edge of
# the 5 % that float within 0.1 of absorption), cli p75 among the one-shot
# calls.
TAIL_CEILING = {"symmetric": 99.0, "general": 90.0, "cli": 75.0}
# the op each set-up process runs: the first of one fixed, ordinary kind,
# so that every seed times the same kind of op
SETUP_ITEM = {
    "symmetric": lambda it: it["kind"] == "broad",
    "general": lambda it: it["kind"] == "jittered" and it["margin"] >= 0.1,
    "cli": lambda it: it["sub"] == "solve" and it["instance"]["mode"] != "general",
}

END_TO_END = {  # name -> unit
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_us": "us",
    "latency_tail_us": "us",
    "rows_per_s": "1/s",
    "peak_rss_mb": "MB",
}
TIMED_LAYERS = {  # metric prefix -> traced name
    "geom_core.tetrahedron": "geom_core.SymmetricInstance.tetrahedron",
    "geom_core.objective": "geom_core.objective",
    "equilibrium.classify": "equilibrium.classify",
    "equilibrium.residual": "equilibrium.equilibrium_residual",
    "analytic.solve_symmetric": "analytic.solve_symmetric",
    "analytic.ft_axial": "analytic.ft_axial",
    "analytic.complementary_axial": "analytic.complementary_axial",
    "quartic.real_roots": "quartic.real_roots",
    "angles.angles_at": "angles.angles_at",
    "numeric.weiszfeld": "numeric.weiszfeld",
    "plasticity.stretch": "plasticity.stretch",
    "plasticity.verify_invariance": "plasticity.verify_invariance",
    "cli.main": "cli.main",
}
MODULES = ("geom_core", "equilibrium", "analytic", "quartic", "angles", "numeric", "plasticity", "cli")
CLI_SUBCOMMANDS = workloads.SYM_SUBCOMMANDS + ("sweep",)


def per_layer_units() -> dict:
    """Every per-layer metric name -> unit, in report order."""
    units = {}
    for prefix in TIMED_LAYERS:
        units[prefix + "_us"] = "us"
        units[prefix + "_calls"] = "count"
    units.update(
        {
            "equilibrium.floating_frac": "frac",
            "analytic.radical_ok_frac": "frac",
            "numeric.converged_frac": "frac",
            "quartic.calls": "count",
            "cli.import_us": "us",
            "cli.sweep_row_us": "us",
            "cli.traceback_count": "count",
        }
    )
    for sub in CLI_SUBCOMMANDS:
        units[f"cli.main.{sub}_us"] = "us"
    for m in MODULES:
        units[m + ".self_frac"] = "frac"
    units["trace.overhead_us"] = "us"
    return units


def child_env() -> dict:
    env = dict(os.environ)
    env.update(
        PYTHONPATH=str(SRC),
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        PYTHONHASHSEED="0",
    )
    return env


def cli_calls(items, pool: str) -> list[dict]:
    """Write each invocation's instance file; attach its argv."""
    work = OUT / "work"
    work.mkdir(parents=True, exist_ok=True)
    calls = []
    for i, call in enumerate(items):
        path = work / f"{pool}_{i}.json"
        path.write_text(json.dumps(call["instance"]), encoding="utf-8")
        argv = [call["sub"], "--input", str(path)]
        if call["json"]:
            argv.append("--json")
        if call["sub"] == "plasticity":
            argv += ["--lambda", ",".join(repr(x) for x in call["lambdas"])]
        if call["sub"] == "sweep":
            argv += ["--ratio-min", repr(call["ratio_min"]), "--ratio-max", repr(call["ratio_max"])]
            argv += ["--steps", str(call["steps"])]
        calls.append(dict(call, argv=argv))
    return calls


def _run_child(cmd, env, **kw) -> subprocess.CompletedProcess:
    return subprocess.run(
        cmd, env=env, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, **kw
    )


def _cli_cmd(call) -> list[str]:
    return [sys.executable, "-m", "ftsolve", *call["argv"]]


def setup_seconds(workload, items, env) -> float:
    """Median wall time of fresh processes that import ftsolve and finish
    one op of the workload."""
    first = next(it for it in items if SETUP_ITEM[workload](it))
    if workload == "cli":
        cmd = _cli_cmd(first)
    else:
        cmd = [sys.executable, str(HERE / "worker.py"), "setup", workload, json.dumps(first)]
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        p = _run_child(cmd, env)
        times.append(time.perf_counter() - t0)
        if workload != "cli" and p.returncode != 0:
            raise SystemExit(f"set-up process failed:\n{p.stderr}")
    return statistics.median(times)


def run_worker(payload, env, mode="run") -> dict:
    p = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), mode],
        input=json.dumps(payload),
        env=env,
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=payload.get("seconds", 0) + CHILD_TIMEOUT_S,
    )
    if p.returncode != 0:
        raise SystemExit(f"worker failed:\n{p.stderr}")
    return json.loads(p.stdout)


def run_cli(calls, seconds, env) -> dict:
    """Closed loop of fresh ``python -m ftsolve`` processes, one at a time."""
    lat_us = []
    outcomes = [dict() for _ in calls]
    sweeps = []  # (op index, CSV rows) of each sweep that exited 0
    n = 0
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        idx = n % len(calls)
        call = calls[idx]
        t0 = time.perf_counter()
        try:
            p = _run_child(_cli_cmd(call), env)
            result = (p.returncode, p.stdout, p.stderr)
        except subprocess.TimeoutExpired:
            result = (None, "", "timed out")
        dt = time.perf_counter() - t0
        lat_us.append(dt * 1e6)
        if call["sub"] == "sweep" and result[0] == 0:
            sweeps.append((n, max(0, result[1].count("\n") - 1)))
        counts = outcomes[idx]
        counts[result] = counts.get(result, 0) + 1
        n += 1
    fast_us = metrics.fastest_repeats(lat_us, len(calls))
    sweep_s = math.fsum(fast_us[k] for k, _ in sweeps) / 1e6
    return {
        "latency": metrics.latency_summary(lat_us, TAIL_CEILING["cli"], len(calls)),
        "rows_per_s": sum(rows for _, rows in sweeps) / sweep_s if sweep_s else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
        "outcomes": [[i, [[list(k), v] for k, v in c.items()]] for i, c in enumerate(outcomes) if c],
    }


def judge(workload, items, outcomes) -> tuple[dict, Counter, int, int]:
    """Failures by kind (every kind, most severe first) and by item kind,
    ops attempted, and ops whose answer could not be judged because a
    reference failed."""
    # numpy and mpmath come in only now: a child's peak RSS counts its
    # parent's at the moment it was spawned, so the runner stays small
    # until every measured child has run
    import checks

    check = {
        "symmetric": checks.check_symmetric,
        "general": checks.check_general,
        "cli": checks.check_cli,
    }[workload]
    refs = checks.References()
    by_kind, by_item = Counter(), Counter()
    attempted = unjudged = 0
    for idx, results in outcomes:
        it = items[idx]
        for enc, count in results:
            attempted += count
            try:
                verdict = check(refs, it, enc)
            except ArithmeticError as e:
                print(f"reference failed on input {idx}: {e!r}", file=sys.stderr)
                unjudged += count
                continue
            if verdict:
                by_kind[verdict] += count
                by_item[item_label(workload, it)] += count
    return {k: by_kind[k] for k in checks.KINDS}, by_item, attempted, unjudged


def item_label(workload, it) -> str:
    if workload == "cli":
        return f"{it.get('kind', 'timed')}:{it['sub']}/{it['instance']['mode']}"
    return it["kind"]


def import_us(env) -> float:
    times = []
    for _ in range(IMPORT_REPEATS):
        p = _run_child([sys.executable, str(HERE / "worker.py"), "import"], env)
        if p.returncode != 0:
            raise SystemExit(f"import process failed:\n{p.stderr}")
        times.append(float(p.stdout) * 1e6)
    return statistics.median(times)


def layer_metrics(workload, res, env) -> dict:
    tr = res["trace"]
    names = tr["names"]
    vals = {}
    for prefix, name in TIMED_LAYERS.items():
        stat = names.get(name, {"calls": 0, "median_us": 0.0})
        vals[prefix + "_us"] = stat["median_us"]
        vals[prefix + "_calls"] = stat["calls"]
    floating, classified = res["floating"]
    vals["equilibrium.floating_frac"] = floating / classified if classified else 0.0
    ok, probed = res.get("radical_ok", [0, 0])
    vals["analytic.radical_ok_frac"] = ok / probed if probed else 0.0
    w = names.get("numeric.weiszfeld", {"calls": 0, "raised": 0})
    vals["numeric.converged_frac"] = (w["calls"] - w["raised"]) / w["calls"] if w["calls"] else 0.0
    vals["quartic.calls"] = sum(s["calls"] for n, s in names.items() if n.startswith("quartic."))
    vals["cli.import_us"] = import_us(env) if workload == "cli" else 0.0
    sweep = tr["under_op"].get("op.sweep>cli.main", 0.0)
    vals["cli.sweep_row_us"] = sweep / workloads.SWEEP_STEPS
    vals["cli.traceback_count"] = res.get("tracebacks", 0)
    for sub in CLI_SUBCOMMANDS:
        vals[f"cli.main.{sub}_us"] = tr["under_op"].get(f"op.{sub}>cli.main", 0.0)
    for m in MODULES:
        vals[m + ".self_frac"] = tr["module_self_frac"].get(m, 0.0)
    vals["trace.overhead_us"] = res["traced_latency"]["mean_us"] - res["latency"]["mean_us"]
    return vals


def trace_report(workload, res, vals) -> str:
    tr = res["trace"]
    lines = [
        f"traced run, workload {workload}: {tr['spans']} spans over "
        f"{res['traced_latency']['ops']} traced ops, each paired with an untraced run",
        f"  tracing overhead: mean op {res['traced_latency']['mean_us']:.1f} us traced vs "
        f"{res['latency']['mean_us']:.1f} us untraced ({vals['trace.overhead_us']:+.1f} us/op); "
        f"p50 {res['traced_latency']['p50_us']:.1f} vs {res['latency']['p50_us']:.1f} us",
        "",
        f"  {'traced name':46s} {'calls':>8s} {'median_us':>10s} {'self_ms':>10s} "
        f"{'self/op':>8s} {'raised':>7s}",
    ]
    total = tr["op_total_ns"] / 1e3 or 1.0
    for name, s in sorted(tr["names"].items(), key=lambda kv: -kv[1]["self_us"]):
        lines.append(
            f"  {name:46s} {s['calls']:8d} {s['median_us']:10.2f} {s['self_us'] / 1e3:10.2f} "
            f"{s['self_us'] / total:8.3f} {s['raised']:7d}"
        )
    lines += ["", f"  {'module':12s} {'self_frac':>9s}"]
    for m, frac in sorted(tr["module_self_frac"].items(), key=lambda kv: -kv[1]):
        lines.append(f"  {m:12s} {frac:9.3f}")
    lines += ["", "  per-layer metrics:"]
    units = per_layer_units()
    lines += [f"    {k:36s} {v:14.4f} {units[k]}" for k, v in vals.items()]
    return "\n".join(lines)


def print_failures(indent, by_kind, by_item, attempted, unjudged):
    failed = sum(by_kind.values())
    kinds = ", ".join(f"{k}={v}" for k, v in by_kind.items())
    print(f"{indent}{'fail_frac':16s} {failed / max(attempted, 1):14.6f}     ({failed}/{attempted}; {kinds})")
    if unjudged:
        print(f"{indent}{unjudged} ops could not be judged: a reference computation failed")
    if by_item:
        print(f"{indent}failed ops by input kind: " + ", ".join(f"{k}={v}" for k, v in sorted(by_item.items())))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.GENERATORS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not args.seconds > 0:
        ap.error("--seconds must be positive")
    if not (SRC / "ftsolve" / "__init__.py").is_file():
        print(f"no ftsolve sources under {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    env = child_env()
    wl = args.workload
    items = workloads.GENERATORS[wl](args.seed)
    defect_items = workloads.DEFECT_GENERATORS[wl](args.seed)
    if wl == "cli":
        items = cli_calls(items, "timed")
        defect_items = cli_calls(defect_items, "defects")
    setup_s = setup_seconds(wl, items, env)

    if wl == "cli" and not args.trace:
        res = run_cli(items, args.seconds, env)
    else:
        payload = {
            "workload": wl,
            "items": items,
            "seconds": args.seconds,
            "trace": bool(args.trace),
            "tail_ceiling": TAIL_CEILING[wl],
            "spans_path": str(OUT / f"spans_{wl}.csv"),
        }
        res = run_worker(payload, env)
    # after every measured child: a child's peak RSS counts its parent's
    defects = run_worker({"workload": wl, "items": defect_items}, env, mode="defects")
    by_kind, by_item, attempted, unjudged = judge(wl, items, res["outcomes"])
    failed = sum(by_kind.values())
    d_kind, d_class, d_attempted, d_unjudged = judge(wl, defect_items, defects["outcomes"])
    if args.trace:
        res["tracebacks"] = by_kind["cli_traceback"] + d_kind["cli_traceback"]

    print(f"ftsolve benchmark: workload={wl} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    lat = res["latency"]
    print(f"  closed loop, 1 client; {lat['ops']} ops ({len(items)} distinct inputs)")
    if not args.trace:
        ops_per_s = lat["ops"] / lat["busy_s"]
        e2e = {
            "setup_s": setup_s,
            "ops_per_s": ops_per_s,
            "latency_p50_us": lat["p50_us"],
            "latency_tail_us": lat["tail_us"],
            # a symmetric op is one sweep row's work; a general op one solved instance
            "rows_per_s": res["rows_per_s"] if wl == "cli" else ops_per_s,
            "peak_rss_mb": res["peak_rss_mb"],
        }
        for name, unit in END_TO_END.items():
            note = ""
            if name == "latency_tail_us":
                note = f"  (p{lat['tail_pct']:g}, {lat['tail_beyond']} of {lat['ops']} samples beyond)"
            if name == "setup_s":
                note = f"  (median of {SETUP_REPEATS} fresh processes)"
            print(f"  {name:16s} {e2e[name]:14.4f} {unit}{note}")
    print_failures("  ", by_kind, by_item, attempted, unjudged)
    print(f"  known-defect pass, untimed, each input once ({len(defect_items)} inputs):")
    print_failures("    ", d_kind, d_class, d_attempted, d_unjudged)

    if args.trace:
        vals = layer_metrics(wl, res, env)
        report = trace_report(wl, res, vals)
        (OUT / f"trace_report_{wl}.txt").write_text(report + "\n", encoding="utf-8")
        print(report)
        metrics_out = {k: {"value": vals[k], "unit": u} for k, u in per_layer_units().items()}
    else:
        metrics_out = {k: {"value": e2e[k], "unit": u} for k, u in END_TO_END.items()}
    print(
        json.dumps(
            {
                # every timed op answered correctly; the known-defect
                # pass is reported above and does not count here
                "correct": attempted > 0 and unjudged == 0 and failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics_out,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
