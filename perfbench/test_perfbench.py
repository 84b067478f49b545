"""Self-tests of the benchmark: inputs, oracle, verdicts, tail rule."""

import json
import math
from pathlib import Path

import pytest

import checks
import metrics
import oracle
import run
import workloads


@pytest.mark.parametrize("workload", sorted(workloads.GENERATORS))
def test_same_seed_same_instances(workload):
    gen = workloads.GENERATORS[workload]
    assert gen(7) == gen(7)
    assert gen(7) != gen(8)


def test_workload_mix_is_fixed_per_round():
    items = workloads.symmetric(3)
    per_round = workloads.SYM_BROAD + workloads.SYM_BAND
    for r in range(0, len(items), per_round):
        kinds = [it["kind"] for it in items[r : r + per_round]]
        assert kinds.count("broad") == workloads.SYM_BROAD
    ties = [it for it in items if it["kind"] == "tie"]
    assert ties and all(it["b1"] == it["b4"] for it in ties)
    assert any(it["b1"] > it["b4"] for it in items) and any(it["b1"] < it["b4"] for it in items)


def _log_ratio(it):
    return math.log10(max(it["b1"], it["b4"]) / min(it["b1"], it["b4"]))


def test_timed_pools_stay_out_of_the_known_defect_ranges():
    for it in workloads.symmetric(5):
        if it["kind"] == "broad":
            lo, hi = workloads.SYM_BROAD_DECADES
            assert lo <= _log_ratio(it) <= hi
        elif it["kind"] == "band":
            k = -math.log10(max(it["b1"], it["b4"]) / min(it["b1"], it["b4"]) - 1.0)
            lo, hi = workloads.SYM_BAND_K
            assert lo - 1e-3 <= k <= hi + 1e-3
    for it in workloads.general(5):
        if it["kind"] == "jittered":
            assert not 0.0 <= it["margin"] < workloads.NEAR_BOUNDARY
    for call in workloads.cli(5):
        inst = call["instance"]
        if call["sub"] == "sweep":
            ratios = (call["ratio_min"], call["ratio_max"])
            assert all(workloads.SYM_BROAD_DECADES[0] <= abs(math.log10(r)) <= workloads.SYM_BROAD_DECADES[1] for r in ratios)
            assert (ratios[0] > 1.0) == (ratios[1] > 1.0)
        elif inst["mode"] != "general" and _log_ratio(inst) > 1e-3:
            assert _log_ratio(inst) <= workloads.CLI_DECADES[1]


def test_defect_pools_hold_every_known_defect_class():
    kinds = {it["kind"] for it in workloads.symmetric_defects(5)}
    assert kinds == set(workloads.SYM_DEFECTS)
    general = workloads.general_defects(5)
    assert {it["kind"] for it in general} == set(workloads.GEN_DEFECTS)
    assert all(0.0 <= it["margin"] < workloads.NEAR_BOUNDARY for it in general if it["kind"] == "near_boundary")
    assert {it["kind"] for it in workloads.cli_defects(5)} == set(workloads.CLI_DEFECTS) | {"sweep_near_one"}


def test_latency_log_keeps_every_value_across_chunks(tmp_path):
    import worker

    log = worker.LatencyLog(tmp_path)
    values = [float(i) for i in range(2 * worker.LATENCY_CHUNK + 5)]
    for v in values:
        log.append(v)
    assert list(log.values()) == values


def test_oracle_reproduces_the_paper_example():
    ref = oracle.symmetric_reference(1.0, 2.5, 1.0)
    assert round(ref.y, 6) == 0.198358
    assert round(ref.yp, 6) == 0.539791
    mirrored = oracle.symmetric_reference(1.0, 1.0, 2.5)
    assert mirrored.y == -ref.y and mirrored.yp == -ref.yp


def test_oracle_roots_satisfy_the_unsquared_equations():
    for ratio in (1 + 1e-12, 1.001, 3.0, 1e12):
        ref = oracle.symmetric_reference(1.0, ratio, 1.0)
        c = math.sqrt(2.0) / 4.0
        for y, sign in ((ref.y, 1), (ref.yp, -1)):
            a01, a04 = math.hypot(0.5, c - y), math.hypot(0.5, c + y)
            assert abs(ratio * (y - c) / a01 + sign * (y + c) / a04) < 1e-9 * ratio
    assert oracle.symmetric_reference(1.0, 2.0, 2.0).yp is None


def _symmetric_answer(ref):
    return [
        ["sol", "floating", ref.y, ref.objective, [0.0, 0.0, ref.y], None],
        ["val", ref.yp],
        ["ang", ref.alpha_102, ref.alpha_304, ref.alpha_cross],
    ]


def test_perturbed_answer_counts_as_failed():
    refs = checks.References()
    item = {"a": 1.0, "b1": 2.5, "b4": 1.0}
    ref = refs.symmetric(1.0, 2.5, 1.0)
    assert checks.check_symmetric(refs, item, _symmetric_answer(ref)) is None
    for path in ((0, 2), (0, 3), (1, 1), (2, 3)):
        enc = _symmetric_answer(ref)
        enc[path[0]][path[1]] *= 1 + 1e-8
        assert checks.check_symmetric(refs, item, enc) == "wrong_answer", path


def test_failure_kinds_for_a_symmetric_op():
    refs = checks.References()
    item = {"a": 1.0, "b1": 2.5, "b4": 1.0}
    enc = _symmetric_answer(refs.symmetric(1.0, 2.5, 1.0))
    enc[1] = ["raise", "ZeroDivisionError", False]
    assert checks.check_symmetric(refs, item, enc) == "untyped_exception"
    enc[1] = ["raise", "EqualWeights", True]
    assert checks.check_symmetric(refs, item, enc) == "unexpected_typed_error"
    tie = {"a": 1.0, "b1": 2.0, "b4": 2.0}
    tie_ref = refs.symmetric(1.0, 2.0, 2.0)
    enc = _symmetric_answer(tie_ref)
    enc[1] = ["raise", "EqualWeights", True]  # no exterior point at a tie
    assert checks.check_symmetric(refs, tie, enc) is None


def test_general_answers_are_checked_for_optimality():
    refs = checks.References()
    v = workloads.regular_vertices(1.0)
    w = [1.0, 1.0, 1.0, 1.0]
    centre = [0.0, 0.0, 0.0]
    obj = 4 * math.dist(v[0], centre)
    assert checks.check_solution(refs, v, w, ("floating", obj, centre, None)) is None
    moved = [0.0, 0.0, 1e-8]
    assert checks.check_solution(refs, v, w, ("floating", obj, moved, None)) == "wrong_answer"
    assert checks.check_solution(refs, v, w, ("floating", obj * (1 + 1e-8), centre, None)) == "wrong_answer"
    heavy = [1.0, 1.0, 1.0, 3.0]  # sqrt(6) < 3: absorbed at the fourth vertex
    assert checks.check_solution(refs, v, heavy, ("floating", obj, centre, None)) == "wrong_answer"
    assert checks.check_solution(refs, v, heavy, ("absorbed", 3 * math.dist(v[0], v[3]), v[3], 3)) is None


def test_cli_verdicts():
    refs = checks.References()
    inst = {"mode": "symmetric-regular", "a": 1.0, "b1": 2.5, "b4": 1.0}
    call = {"sub": "complementary", "instance": inst, "json": False}
    ref = refs.symmetric(1.0, 2.5, 1.0)
    good = f"y_complementary={ref.yp:.9g}\nstationarity_defect=0\n"
    assert checks.check_cli(refs, call, (0, good, "")) is None
    bad = f"y_complementary={ref.yp * (1 + 1e-7):.9g}\nstationarity_defect=0\n"
    assert checks.check_cli(refs, call, (0, bad, "")) == "wrong_answer"
    assert checks.check_cli(refs, call, (1, "", "Traceback (most recent call last):\n")) == "cli_traceback"
    assert checks.check_cli(refs, call, (2, "", "solver error: x\n")) == "unexpected_typed_error"
    tie = dict(call, instance=dict(inst, b1=1.0))
    assert checks.check_cli(refs, tie, (2, "", "solver error: equal\n")) is None


@pytest.mark.parametrize(
    "n, ceiling, pct",
    [
        (100, 99.9, 90.0),
        (99, 99.9, 75.0),
        (250, 99.9, 95.0),
        (1000, 99.9, 99.0),
        (10010, 99.9, 99.9),
        (10010, 90.0, 90.0),
        (5, 99.9, 50.0),
    ],
)
def test_tail_is_the_highest_percentile_with_ten_samples_beyond(n, ceiling, pct):
    samples = [float(i) for i in range(1, n + 1)]
    got_pct, value, beyond = metrics.tail(samples, ceiling)
    assert got_pct == pct
    assert beyond == n - value  # nearest rank: value i has n - i samples above it
    if n >= 20:
        assert beyond >= metrics.MIN_BEYOND
        higher = [p for p in metrics.TAIL_LADDER if pct < p <= ceiling]
        assert all(n - math.ceil(p / 100 * n) < metrics.MIN_BEYOND for p in higher)


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((Path(run.__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == ["symmetric", "general", "cli"]


def test_statistics_use_each_inputs_fastest_repeat():
    # input 0 runs at 100 then 300, input 1 at 150 twice, input 2 at 400
    # then 500: the ops count as 100, 150, 400, 100, 150, 400
    lat = [100.0, 150.0, 400.0, 300.0, 150.0, 500.0]
    assert metrics.fastest_repeats(lat, 3) == [100.0, 150.0, 400.0, 100.0, 150.0, 400.0]
    summary = metrics.latency_summary(lat, 99.9, 3)
    assert summary["p50_us"] == 150.0
    assert summary["mean_us"] == 650.0 / 3
    assert summary["ops"] == 6
