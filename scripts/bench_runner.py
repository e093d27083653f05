#!/usr/bin/env python
"""Benchmark the trial tiers: compiled kernel vs reference, vec stages.

Runs the same 4-series sweep (the shape of the paper's Figs. 2–4: one
curve per metric) through ``run_experiment`` with ``jobs=1`` — serial
execution isolates the tiers from process-pool effects — asserts the
results are bit-identical, and records the speedups to
``BENCH_runner.json`` so the perf trajectory of the Monte Carlo hot
path is tracked across PRs:

* ``kernel_speedup`` — the compiled kernel (integer-indexed
  slicing/metric/EDF fast path, the default) over the string-keyed
  reference pipeline (the same run under ``REPRO_KERNEL=0``).  The
  two runs must produce
  byte-identical reports — the kernel's oracle contract — and the
  speedup must clear ``--kernel-target`` (default 1.5×), or the
  benchmark fails.  The legs are timed interleaved, best-of-``R``
  each, to keep the ratio honest on noisy machines.
* ``vec_speedup`` — the vectorized tier's batched stage pipeline (the
  stages ``repro.kernel.vec`` lifts onto arrays: estimates → metric
  weights → lockstep EDF, all four metrics of a seed batch folded into
  one EDF call, exactly the seed-batch driver's shape) over the same
  stages through the compiled kernel, one lane at a time.  Slicing is
  excluded from both sides — it is the same compiled DP in both tiers.
  Interleaved best-of-``R`` again; every lane's schedule must be
  bit-identical to the compiled kernel's, a seed subsample run through
  the seed-batch driver (``paired_outcomes``) must match the *reference
  oracle* (``use_kernel=False``) field for field, and the speedup must
  clear ``--vec-target`` (default 4.0×), or the benchmark fails.

The sweep is then timed with ``jobs=1`` vs ``jobs=4`` at a larger
trial count (``--mp-trials``; the pool's startup cost needs real work
to amortize against) — still bit-identical, the scheduling invariance
the runner promises — and the multiprocess speedup is
recorded alongside.  On a single-CPU machine the ``jobs=4`` run would
measure nothing but dispatch overhead, so it is skipped:
``multiprocess_speedup`` is recorded as ``null`` with a
``"skipped: single-cpu"`` note (the ``jobs=1`` baseline is still
timed, keeping the trajectory comparable).

Usage::

    PYTHONPATH=src python scripts/bench_runner.py [--trials N] [--repeats R]
    make bench-runner
"""

from __future__ import annotations

import argparse
import json
import os
import platform as platform_mod
import sys
import time
from pathlib import Path

from repro.core.metrics import METRIC_NAMES
from repro.experiments import ExperimentSpec, TrialConfig, run_experiment
from repro.workload import WorkloadParams


def build_spec() -> ExperimentSpec:
    """A 4-series sweep over the system size (fig2-shaped)."""
    base = WorkloadParams()  # the paper's defaults: 40-60 tasks, m swept

    def config_for(x, metric: str) -> TrialConfig:
        return TrialConfig(workload=base.with_overrides(m=int(x)), metric=metric)

    return ExperimentSpec(
        name="bench-runner",
        title="Runner benchmark (4 metrics over system size)",
        x_label="processors m",
        x_values=(3, 6),
        series=METRIC_NAMES,
        config_for=config_for,
    )


def time_sweep(
    spec: ExperimentSpec,
    trials: int,
    seed: int,
    repeats: int,
    jobs: int = 1,
    kernel: str = "1",
) -> tuple[float, dict]:
    """Best-of-*repeats* wall-clock of the sweep under
    ``REPRO_KERNEL=kernel``, plus its result doc."""
    best = float("inf")
    doc = None
    saved = os.environ.get("REPRO_KERNEL")
    os.environ["REPRO_KERNEL"] = kernel
    try:
        for _ in range(repeats):
            start = time.perf_counter()
            result = run_experiment(spec, trials=trials, seed=seed, jobs=jobs)
            best = min(best, time.perf_counter() - start)
            doc = result.to_dict()
            doc.pop("elapsed_seconds")
    finally:
        if saved is None:
            del os.environ["REPRO_KERNEL"]
        else:
            os.environ["REPRO_KERNEL"] = saved
    return best, doc


def vec_leg(
    lanes: int, repeats: int, oracle_checks: int
) -> tuple[float, float, int]:
    """Time the vectorized stage pipeline against the compiled kernel.

    Returns ``(kernel_best, vec_best, lanes_compared)`` in seconds.
    Both sides run the identical work: for each of the paper's four
    metrics over one batch of *lanes* seeds, the estimate stage, the
    metric weight stage, and the EDF schedule over precomputed slicing
    windows — the scalar side through the per-lane compiled kernel
    functions, the vec side through the batch APIs with all four
    metrics folded into one lockstep EDF call (the seed-batch driver's
    production shape).  Per-rep cache clears make every rep recompute
    the value stages; structure arrays (compiled workloads, windows,
    the lane stack) are prewarmed for both sides alike.

    Raises ``SystemExit`` on any bit-identity mismatch — against the
    compiled kernel per lane, and, on an *oracle_checks*-seed
    subsample judged by the seed-batch driver, against the reference
    oracle (``use_kernel=False``).
    """
    import math

    from repro.core.estimation import get_estimator
    from repro.core.metrics import get_metric
    from repro.experiments.context import TrialContext
    from repro.experiments.runner import run_trial
    from repro.kernel import vec as V
    from repro.kernel.edf import kernel_schedule_edf
    from repro.kernel.metrics import kernel_weights
    from repro.kernel.slicing import kernel_slice

    params = WorkloadParams(m=4)
    contexts = TrialContext.from_seeds(params, list(range(lanes)))
    cws = [c.compiled for c in contexts]
    metrics = [get_metric(name, TrialConfig().adaptive) for name in METRIC_NAMES]
    est_obj = get_estimator("WCET-AVG")

    # Prewarm the structure arrays both tiers share (pure functions of
    # the workloads) and the slicing windows the EDF stage consumes.
    for cw in cws:
        cw.parallel_set_sizes()
        V.vec_arrays(cw)
    windows = {}
    for metric in metrics:
        for cw in cws:
            est = cw.estimates_from_vals(est_obj.name, est_obj.combine)
            weights = kernel_weights(cw, metric, est, est_obj.name)
            ka = kernel_slice(cw, metric, weights)
            windows[(metric.name, id(cw))] = (ka.win_a, ka.win_d)
    all_lanes = [
        (cw, *windows[(metric.name, id(cw))])
        for metric in metrics
        for cw in cws
    ]
    stack = V._lane_stack([lane[0] for lane in all_lanes])
    stack.succ(), stack.pred(), stack.sched(), stack.csr(), stack.topo()

    def clear():
        for cw in cws:
            cw._est_lists.clear()
            cw._weight_lists.clear()
            cw._succ_w_masters.clear()

    def kernel_side():
        clear()
        out = []
        for metric in metrics:
            for cw in cws:
                est = cw.estimates_from_vals(est_obj.name, est_obj.combine)
                kernel_weights(cw, metric, est, est_obj.name)
                win_a, win_d = windows[(metric.name, id(cw))]
                out.append(kernel_schedule_edf(cw, win_a, win_d))
        return out

    def vec_side():
        clear()
        for metric in metrics:
            ests = V.vec_estimates_batch(cws, est_obj.name)
            V.vec_weights_batch(cws, metric, ests, est_obj.name)
        return V.vec_schedule_edf_batch(all_lanes)

    def fsame(a: float, b: float) -> bool:
        return a == b or (math.isnan(a) and math.isnan(b))

    ks_all, vs_all = kernel_side(), vec_side()
    for ks, vs in zip(ks_all, vs_all):
        same = (
            ks.feasible == vs.feasible
            and ks.failed == vs.failed
            and (
                not vs.feasible
                or (
                    fsame(ks.makespan, vs.makespan)
                    and fsame(ks.max_lateness(), vs.max_lateness())
                )
            )
        )
        if not same:
            print("FATAL: vec tier diverges from the compiled kernel")
            raise SystemExit(1)

    # Reference-oracle subsample: full trial outcomes, the seed-batch
    # driver vs the string-keyed reference pipeline.
    fields = (
        "success", "degenerate", "n_tasks", "min_laxity",
        "makespan", "max_lateness", "failed_task",
    )
    step = max(1, lanes // max(1, oracle_checks))
    sub = list(range(0, lanes, step))
    cells = [
        (si, TrialConfig(workload=params, metric=metric_name))
        for si, metric_name in enumerate(METRIC_NAMES)
    ]
    outcomes = V.paired_outcomes(cells, sub, [contexts[sp] for sp in sub])
    for pos, sp in enumerate(sub):
        for si, config in cells:
            ref = run_trial(config, sp, contexts[sp], use_kernel=False)
            fast = outcomes[(si, pos)]
            for name in fields:
                a, b = getattr(ref, name), getattr(fast, name)
                if not (
                    a == b
                    or (
                        isinstance(a, float)
                        and isinstance(b, float)
                        and math.isnan(a)
                        and math.isnan(b)
                    )
                ):
                    print(
                        "FATAL: vec tier diverges from the reference "
                        f"oracle (seed {sp}, {config.metric}, {name}: "
                        f"{a!r} != {b!r})"
                    )
                    raise SystemExit(1)

    kernel_best = vec_best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        kernel_side()
        kernel_best = min(kernel_best, time.perf_counter() - start)
        start = time.perf_counter()
        vec_side()
        vec_best = min(vec_best, time.perf_counter() - start)
    return kernel_best, vec_best, len(all_lanes)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--trials", type=int, default=96, help="trials per cell (default 96)"
    )
    parser.add_argument(
        "--mp-trials",
        type=int,
        default=384,
        help="trials per cell for the jobs=1 vs jobs=4 comparison "
        "(default 384; large enough to amortize pool startup)",
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=5,
        help="timing repeats per leg; best run is kept (default 5)",
    )
    parser.add_argument(
        "--kernel-target",
        type=float,
        default=1.5,
        help="minimum required kernel-over-reference speedup "
        "(default 1.5; the benchmark fails below it)",
    )
    parser.add_argument(
        "--vec-lanes",
        type=int,
        default=1024,
        help="seed lanes per metric in the vectorized leg (default 1024)",
    )
    parser.add_argument(
        "--vec-target",
        type=float,
        default=4.0,
        help="minimum required vec-over-kernel stage speedup "
        "(default 4.0; the benchmark fails below it)",
    )
    parser.add_argument(
        "--vec-checks",
        type=int,
        default=24,
        help="seeds subsampled for the reference-oracle bit-identity "
        "assert in the vectorized leg (default 24)",
    )
    parser.add_argument("--seed", type=int, default=2026)
    parser.add_argument(
        "--out",
        type=Path,
        default=Path(__file__).resolve().parent.parent / "BENCH_runner.json",
        help="output JSON path (default: repo-root BENCH_runner.json)",
    )
    args = parser.parse_args(argv)

    spec = build_spec()
    print(
        f"benchmarking {len(spec.series)}-series sweep, "
        f"{len(spec.x_values)} x-values, {args.trials} trials/cell, jobs=1"
    )

    # Kernel leg: the compiled fast path vs the string-keyed reference
    # pipeline (REPRO_KERNEL=0).  Interleave the repeats (ref, kernel,
    # ref, kernel, …) so ambient load hits both legs alike, and keep
    # the best of each.
    print(
        f"kernel leg: compiled kernel vs reference pipeline "
        f"(REPRO_KERNEL=0), best of {args.repeats} interleaved"
    )
    ref_s = kernel_s = float("inf")
    ref_doc = kernel_doc = None
    for _ in range(args.repeats):
        s, ref_doc = time_sweep(
            spec, args.trials, args.seed, repeats=1, kernel="0"
        )
        ref_s = min(ref_s, s)
        s, kernel_doc = time_sweep(spec, args.trials, args.seed, repeats=1)
        kernel_s = min(kernel_s, s)
    print(f"reference:      {ref_s:.3f} s")
    print(f"kernel:         {kernel_s:.3f} s")

    print(
        f"vec leg: batched stage pipeline vs compiled kernel, "
        f"{args.vec_lanes} lanes x {len(METRIC_NAMES)} metrics, "
        f"best of {args.repeats} interleaved"
    )
    vk_s, vec_s, vec_lanes_total = vec_leg(
        args.vec_lanes, args.repeats, args.vec_checks
    )
    vec_speedup = vk_s / vec_s
    print(f"kernel stages:  {vk_s:.3f} s")
    print(f"vec stages:     {vec_s:.3f} s  ({vec_lanes_total} lanes)")

    cpu_count = os.cpu_count() or 1
    single_cpu = cpu_count == 1
    print(
        f"multiprocess leg: kernel, {args.mp_trials} trials/cell, "
        + ("jobs=1 only (single CPU)" if single_cpu else "jobs=1 vs jobs=4")
    )
    mp1_s, mp1_doc = time_sweep(
        spec, args.mp_trials, args.seed, args.repeats, jobs=1
    )
    print(f"jobs=1:         {mp1_s:.3f} s")
    if single_cpu:
        # A jobs=4 pool on one CPU measures dispatch overhead, not
        # parallelism — record the skip instead of a misleading ratio.
        mp4_s = mp4_doc = None
        multiprocess_speedup = None
        multiprocess_note = "skipped: single-cpu"
        print("jobs=4:         skipped (single CPU)")
    else:
        mp4_s, mp4_doc = time_sweep(
            spec, args.mp_trials, args.seed, args.repeats, jobs=4
        )
        multiprocess_speedup = mp1_s / mp4_s
        multiprocess_note = None
        print(f"jobs=4:         {mp4_s:.3f} s")

    # Compare as canonical JSON text: all-fail cells carry NaN
    # aggregates, and NaN != NaN would flag identical docs as diverged.
    def text_of(doc: dict) -> str:
        return json.dumps(doc, sort_keys=True)

    if text_of(ref_doc) != text_of(kernel_doc):
        print(
            "FATAL: kernel diverges from the reference pipeline — "
            "results are not bit-identical"
        )
        return 1
    if mp4_doc is not None and text_of(mp1_doc) != text_of(mp4_doc):
        print("FATAL: jobs=4 diverges from jobs=1 — not bit-identical")
        return 1
    kernel_speedup = ref_s / kernel_s
    print(
        f"speedup: {kernel_speedup:.2f}x kernel-over-reference"
        + f", {vec_speedup:.2f}x vec-over-kernel stages"
        + (
            ""
            if multiprocess_speedup is None
            else f", {multiprocess_speedup:.2f}x from jobs=4"
        )
        + " (bit-identical results)"
    )
    if not single_cpu and cpu_count < 4:
        print(
            f"note: only {cpu_count} CPU(s) available — the jobs=4 leg "
            "measures dispatch overhead, not parallel speedup"
        )
    if kernel_speedup < args.kernel_target:
        print(
            f"FATAL: kernel speedup {kernel_speedup:.3f}x is below the "
            f"{args.kernel_target}x target"
        )
        return 1
    if vec_speedup < args.vec_target:
        print(
            f"FATAL: vec speedup {vec_speedup:.3f}x is below the "
            f"{args.vec_target}x target"
        )
        return 1

    doc = {
        "format": "repro.bench-runner/1",
        "spec": spec.name,
        "series": list(spec.series),
        "x_values": list(spec.x_values),
        "trials_per_cell": args.trials,
        "seed": args.seed,
        "jobs": 1,
        "repeats": args.repeats,
        "reference_seconds": round(ref_s, 6),
        "kernel_seconds": round(kernel_s, 6),
        "kernel_speedup": round(kernel_speedup, 4),
        "kernel_target": args.kernel_target,
        "vec_lanes": args.vec_lanes,
        "vec_kernel_stage_seconds": round(vk_s, 6),
        "vec_stage_seconds": round(vec_s, 6),
        "vec_speedup": round(vec_speedup, 4),
        "vec_target": args.vec_target,
        "multiprocess_trials_per_cell": args.mp_trials,
        "multiprocess_jobs": 4,
        "mp_jobs1_seconds": round(mp1_s, 6),
        "mp_jobs4_seconds": (
            None if mp4_s is None else round(mp4_s, 6)
        ),
        "multiprocess_speedup": (
            None
            if multiprocess_speedup is None
            else round(multiprocess_speedup, 4)
        ),
        "multiprocess_note": multiprocess_note,
        "bit_identical": True,
        "cpu_count": cpu_count,
        "python": platform_mod.python_version(),
        "machine": platform_mod.machine(),
    }
    args.out.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
