"""Latency statistics shared by the worker and the runner."""

from __future__ import annotations

import math
import statistics

TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
MIN_BEYOND = 10


def tail(sorted_samples, ceiling: float = TAIL_LADDER[-1]) -> tuple[float, float, int]:
    """(percentile, value, samples beyond it) for the highest ladder
    percentile not above ``ceiling`` that has at least MIN_BEYOND samples
    beyond it (nearest-rank).  Falls back to the median when no ladder
    percentile qualifies.

    The ceiling is fixed per workload so that a faster program, which
    collects more samples in the same run time, is compared at the same
    percentile as its parent rather than at a higher one."""
    n = len(sorted_samples)
    if n == 0:
        raise ValueError("no samples")
    best = None
    for pct in TAIL_LADDER:
        if pct > ceiling:
            break
        rank = max(1, math.ceil(pct / 100.0 * n))
        if n - rank >= MIN_BEYOND or best is None:
            best = (pct, sorted_samples[rank - 1], n - rank)
    return best


def fastest_repeats(samples_us, n_items: int) -> list[float]:
    """Each op's latency replaced by the fastest repeat of its input in the
    run, where op k ran input k % n_items.

    The shared VM the baseline was measured on runs the same op anywhere
    between 190 and 390 µs as it moves between a fast and a slow state
    every few seconds, and how long it spends in each differs from run to
    run.  Every input repeats several times in a run, spread over it, so
    its fastest repeat is its cost in the fast state; the statistics below
    are taken over these."""
    best = [math.inf] * n_items
    for k, x in enumerate(samples_us):
        i = k % n_items
        if x < best[i]:
            best[i] = x
    return [best[k % n_items] for k in range(len(samples_us))]


def latency_summary(samples_us, ceiling: float, n_items: int) -> dict:
    """Ops, busy time, mean, p50 and tail over the fastest repeats of the
    per-op latencies in µs (see fastest_repeats)."""
    s = sorted(fastest_repeats(samples_us, n_items))
    pct, value, beyond = tail(s, ceiling)
    return {
        "ops": len(s),
        "busy_s": math.fsum(s) / 1e6,
        "p50_us": statistics.median(s),
        "mean_us": math.fsum(s) / len(s),
        "tail_pct": pct,
        "tail_us": value,
        "tail_beyond": beyond,
    }
