#!/usr/bin/env python
"""Benchmark the content-addressed trial cache (cold / warm / delta).

Three measured scenarios over a fig2-shaped sweep, all ``jobs=1`` so
the store's effect is isolated from process-pool variance:

* **cold** — fresh store: every (cell, seed-chunk) partial is computed
  and appended (0% hit rate).
* **warm** — same sweep, same store: every partial is restored (100%
  hit rate).  This is the resumed/re-run path and must be at least 5x
  faster than cold.
* **delta** — one new series added to the sweep, same store: only the
  new series' judgments run; the three original series come back as
  hits.  Must be cheaper than computing the widened sweep from scratch.

Every cached result is also compared — as canonical JSON text, which
round-trips NaN where ``dict.__eq__`` does not — against the matching
cache-off run, so the speedups can never come from skipping work that
changed the numbers.

Usage::

    PYTHONPATH=src python scripts/bench_cache.py [--trials N]
    make bench-cache
"""

from __future__ import annotations

import argparse
import json
import platform as platform_mod
import sys
import tempfile
import time
from pathlib import Path

from repro.core.metrics import METRIC_NAMES
from repro.experiments import ExperimentSpec, TrialConfig, run_experiment
from repro.store import TrialStore
from repro.workload import WorkloadParams

BASE_SERIES = METRIC_NAMES[:3]  # PURE, NORM, ADAPT-G
DELTA_SERIES = METRIC_NAMES  # ... plus ADAPT-L


def build_spec(series: tuple[str, ...]) -> ExperimentSpec:
    """A *series*-curve sweep over the system size (fig2-shaped)."""
    base = WorkloadParams()  # the paper's defaults: 40-60 tasks, m swept

    def config_for(x, metric: str) -> TrialConfig:
        return TrialConfig(workload=base.with_overrides(m=int(x)), metric=metric)

    return ExperimentSpec(
        name="bench-cache",
        title="Trial-cache benchmark",
        x_label="processors m",
        x_values=(3, 6),
        series=series,
        config_for=config_for,
    )


def canonical(result) -> str:
    """Result doc as comparable text (NaN-safe, timing stripped)."""
    doc = result.to_dict()
    doc.pop("elapsed_seconds", None)
    return json.dumps(doc, sort_keys=True)


def timed_run(spec: ExperimentSpec, trials: int, seed: int, cache=None):
    start = time.perf_counter()
    result = run_experiment(
        spec, trials=trials, seed=seed, jobs=1, cache=cache
    )
    return time.perf_counter() - start, result


def stats_doc(stats) -> dict:
    return {
        "hits": stats.hits,
        "misses": stats.misses,
        "hit_rate": round(stats.hit_rate, 4),
        "appends": stats.appends,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--trials", type=int, default=96, help="trials per cell (default 96)"
    )
    parser.add_argument("--seed", type=int, default=2026)
    parser.add_argument(
        "--out",
        type=Path,
        default=Path(__file__).resolve().parent.parent / "BENCH_cache.json",
        help="output JSON path (default: repo-root BENCH_cache.json)",
    )
    args = parser.parse_args(argv)

    base_spec = build_spec(BASE_SERIES)
    delta_spec = build_spec(DELTA_SERIES)
    print(
        f"benchmarking trial cache: {len(BASE_SERIES)}-series sweep "
        f"(+1 delta series), {len(base_spec.x_values)} x-values, "
        f"{args.trials} trials/cell, jobs=1"
    )

    off_s, off_result = timed_run(base_spec, args.trials, args.seed)
    off_text = canonical(off_result)
    print(f"cache off (baseline):     {off_s:.3f} s")

    with tempfile.TemporaryDirectory(prefix="bench-cache-") as tmp:
        store = TrialStore(Path(tmp) / "store")
        cold_s, cold_result = timed_run(
            base_spec, args.trials, args.seed, cache=store
        )
        cold_stats = cold_result.cache_stats
        print(
            f"cold (fresh store):       {cold_s:.3f} s "
            f"({cold_stats.hits} hits / {cold_stats.misses} misses)"
        )
        warm_s, warm_result = timed_run(
            base_spec, args.trials, args.seed, cache=store
        )
        warm_stats = warm_result.cache_stats
        print(
            f"warm (same store):        {warm_s:.3f} s "
            f"({warm_stats.hits} hits / {warm_stats.misses} misses)"
        )
        delta_s, delta_result = timed_run(
            delta_spec, args.trials, args.seed, cache=store
        )
        delta_stats = delta_result.cache_stats
        print(
            f"delta (+{DELTA_SERIES[-1]}):         {delta_s:.3f} s "
            f"({delta_stats.hits} hits / {delta_stats.misses} misses)"
        )
        store.close()

    # The widened sweep from scratch — what delta must beat.
    full_s, full_result = timed_run(delta_spec, args.trials, args.seed)
    print(f"cache off (full 4-series): {full_s:.3f} s")

    failures = []
    if canonical(cold_result) != off_text:
        failures.append("cold run differs from cache-off run")
    if canonical(warm_result) != off_text:
        failures.append("warm run differs from cache-off run")
    if canonical(delta_result) != canonical(full_result):
        failures.append("delta run differs from cache-off 4-series run")
    if warm_stats.misses != 0:
        failures.append(f"warm run recomputed {warm_stats.misses} partials")
    if cold_stats.hits != 0:
        failures.append(f"cold run somehow hit {cold_stats.hits} partials")
    warm_speedup = cold_s / warm_s
    if warm_speedup < 5.0:
        failures.append(f"warm speedup {warm_speedup:.2f}x is below 5x")
    if delta_s >= full_s:
        failures.append(
            f"delta run ({delta_s:.3f} s) is not cheaper than the "
            f"widened sweep from scratch ({full_s:.3f} s)"
        )
    for failure in failures:
        print(f"FATAL: {failure}")
    if failures:
        return 1

    print(
        f"warm speedup: {warm_speedup:.2f}x; delta vs full cold: "
        f"{full_s / delta_s:.2f}x (bit-identical results)"
    )
    doc = {
        "format": "repro.bench-cache/1",
        "spec": base_spec.name,
        "series": list(BASE_SERIES),
        "delta_series": DELTA_SERIES[-1],
        "x_values": list(base_spec.x_values),
        "trials_per_cell": args.trials,
        "seed": args.seed,
        "jobs": 1,
        "off_seconds": round(off_s, 6),
        "cold_seconds": round(cold_s, 6),
        "warm_seconds": round(warm_s, 6),
        "delta_seconds": round(delta_s, 6),
        "full_cold_seconds": round(full_s, 6),
        "warm_speedup": round(warm_speedup, 4),
        "delta_speedup_vs_full": round(full_s / delta_s, 4),
        "cold_stats": stats_doc(cold_stats),
        "warm_stats": stats_doc(warm_stats),
        "delta_stats": stats_doc(delta_stats),
        "bit_identical": True,
        "python": platform_mod.python_version(),
        "machine": platform_mod.machine(),
    }
    args.out.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
