"""Experiment execution: paired work units, one executor, process fan-out.

Determinism contract: the outcome of a trial depends only on
``(root_seed, point, trial_index)`` — never on worker count, chunk
scheduling order, or tier choice.  Workers receive coarse
(cells, seed-block) units and return aggregate counts, so
inter-process traffic stays tiny (per the hpc-parallel guidance:
parallelize coarse-grained units, keep the serial inner loop simple and
measured).

Every experiment front end is a list of *sweep points*, each a set of
cells judged on one shared seed sequence, and :func:`run_points` is
the one executor behind all of them.  A work unit is ``(point, cells,
seed_chunk)``: each seed's workload is generated once, its derived
state (topological order, adjacency, transitive closure, per-estimator
WCET maps) is computed once on a
:class:`~repro.experiments.context.TrialContext`, and every cell is
judged on that same workload — the paper's paired design (one fixed
set of 1024 task graphs judged by every metric).  A point of
:func:`run_experiment` is an x value with one cell per series; a point
of :func:`~repro.experiments.robustness.run_robustness` is a
configuration with one cell per metric; a point of
:func:`~repro.experiments.sweep2d.run_sweep2d` is a grid point with one
cell.

The reference oracle is ``REPRO_KERNEL=0`` (read per trial, inherited
by pool workers), or ``use_kernel=False`` at :func:`run_trial` /
:func:`run_paired_cells`; results are bit-identical either way.

:func:`run_experiment` can consult a persistent content-addressed
result store (``cache=...``, see :mod:`repro.store`): each ``(cell,
seed-chunk)`` partial is keyed by a digest of the trial config and its
seed block, so warm re-runs skip completed chunks entirely, an
interrupted sweep resumes where it stopped, and a delta sweep that adds
a series to an existing grid recomputes only the new series' judgments
— all while producing the same ``ExperimentResult``, bit for bit, as an
uncached run at any ``jobs`` setting (cached partials are the exact
aggregates the executor would have produced, and merge order is
preserved).
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Sequence

from ..analysis.stats import BinomialEstimate
from ..core.metrics import get_metric
from ..core.slicing import distribute_deadlines
from ..errors import ExperimentError, ReproError
from ..rng import derive_seed
from ..sched.listsched import get_scheduler
from ..store import StoreStats, TrialStore, store_key
from ..system.interconnect import ContentionBus
from ..kernel.trial import kernel_enabled, kernel_supported, run_trial_kernel
from ..kernel.vec import batch_engages, paired_outcomes
from .context import TrialContext
from .spec import ExperimentSpec, TrialConfig, TrialOutcome

__all__ = [
    "run_trial",
    "run_paired_cells",
    "run_points",
    "run_experiment",
    "cell_chunk_key",
    "CellResult",
    "ExperimentResult",
]


def run_trial(
    config: TrialConfig,
    seed: int,
    context: TrialContext | None = None,
    use_kernel: bool | None = None,
) -> TrialOutcome:
    """Run one generate→slice→schedule trial.

    ``context`` optionally supplies the trial's generated workload and
    lazily cached derived state; a paired unit passes one context to
    every cell of a trial.  When omitted, the workload is generated
    here from *seed* — the outcome is identical either way, because the
    context only memoizes pure functions of the workload.

    ``use_kernel`` pins the compiled fast path on (``True``) or off
    (``False``); the default ``None`` defers to the ``REPRO_KERNEL``
    environment switch.  The kernel is bit-identical to the reference
    inside its envelope, so the outcome never depends on the switch.
    """
    if context is None:
        context = TrialContext.from_seed(config.workload, seed)
    use_k = use_kernel if use_kernel is not None else kernel_enabled()
    if use_k and kernel_supported(config):
        return run_trial_kernel(config, context)
    graph, platform = context.graph, context.platform

    fixed = None
    if config.locality == "strict":
        # Conventional regime: a clustering pre-assignment makes the
        # execution times exact and pins every task's processor.
        fixed, estimates = context.strict_assignment()
    else:
        estimates = context.estimates_for(config.estimator)
    metric = get_metric(config.metric, config.adaptive)

    # ``use_k`` pins the slicing/scheduling sub-dispatch too: with the
    # kernel off (the oracle leg) every layer must run the string-keyed
    # reference code, so neither helper may fall back to its own
    # environment check.
    assignment = distribute_deadlines(
        graph,
        platform,
        metric,
        estimator=config.estimator,
        estimates=estimates,
        validate=False,  # generator output is valid by construction
        closure=context.closure if metric.uses_closure else None,
        topo_order=context.topo_order,
        successors=context.successors,
        predecessors=context.predecessors,
        initial_pins=context.initial_pins,
        compiled=context.compiled if use_k else None,
        kernel=use_k,
    )

    comm = (
        ContentionBus(config.workload.bus_delay_per_item)
        if config.contention_bus
        else None
    )
    if fixed is not None:
        from ..assign import FixedAssignmentEdfScheduler

        scheduler = FixedAssignmentEdfScheduler(
            fixed, continue_on_miss=config.measure_lateness
        )
    else:
        scheduler = get_scheduler(
            config.scheduler, continue_on_miss=config.measure_lateness
        )
    schedule = scheduler.schedule(
        graph,
        platform,
        assignment,
        comm=comm,
        predecessors=context.predecessors,
        successors=context.successors,
        compiled=context.compiled if use_k else None,
    )

    if config.measure_lateness or schedule.feasible:
        max_lateness = schedule.max_lateness()
    else:
        max_lateness = float("nan")  # fail-fast schedules are partial
    return TrialOutcome(
        success=schedule.feasible,
        degenerate=assignment.degenerate,
        n_tasks=graph.n_tasks,
        min_laxity=assignment.min_laxity(estimates),
        makespan=schedule.makespan,
        max_lateness=max_lateness,
        failed_task=schedule.failed_task,
    )


@dataclass
class CellResult:
    """Aggregated outcomes of all trials of one (x, series) cell.

    ``mean_max_lateness`` averages the maximum lateness over the trials
    where it was measured (always, under ``measure_lateness``; only the
    feasible trials otherwise); ``lateness_trials`` counts them.
    """

    estimate: BinomialEstimate
    degenerate: int = 0
    mean_min_laxity: float = float("nan")
    mean_max_lateness: float = float("nan")
    lateness_trials: int = 0

    @property
    def ratio(self) -> float:
        return self.estimate.ratio

    @property
    def trials(self) -> int:
        return self.estimate.trials

    def merged(self, other: "CellResult") -> "CellResult":
        n = self.trials + other.trials
        if n == 0:
            lax = float("nan")
        else:
            lax = (
                _nan_zero(self.mean_min_laxity) * self.trials
                + _nan_zero(other.mean_min_laxity) * other.trials
            ) / n
        ln = self.lateness_trials + other.lateness_trials
        if ln == 0:
            late = float("nan")
        else:
            late = (
                _nan_zero(self.mean_max_lateness) * self.lateness_trials
                + _nan_zero(other.mean_max_lateness) * other.lateness_trials
            ) / ln
        return CellResult(
            estimate=self.estimate.merged(other.estimate),
            degenerate=self.degenerate + other.degenerate,
            mean_min_laxity=lax,
            mean_max_lateness=late,
            lateness_trials=ln,
        )

    def to_dict(self) -> dict[str, Any]:
        """The store record of this (partial) cell.

        Round-trips exactly: counts are integers, means go through
        JSON's ``repr``-based float encoding which is lossless for
        float64 (NaN included), so a cached partial merges to the same
        bits as a freshly computed one.
        """
        return {
            "successes": self.estimate.successes,
            "trials": self.estimate.trials,
            "degenerate": self.degenerate,
            "mean_min_laxity": self.mean_min_laxity,
            "mean_max_lateness": self.mean_max_lateness,
            "lateness_trials": self.lateness_trials,
        }

    @classmethod
    def from_dict(cls, doc: dict[str, Any]) -> "CellResult":
        """Inverse of :meth:`to_dict` (store records, result files)."""
        try:
            return cls(
                estimate=BinomialEstimate(
                    int(doc["successes"]), int(doc["trials"])
                ),
                degenerate=int(doc["degenerate"]),
                mean_min_laxity=float(doc["mean_min_laxity"]),
                mean_max_lateness=float(doc["mean_max_lateness"]),
                lateness_trials=int(doc["lateness_trials"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ExperimentError(f"malformed cell record: {exc}") from exc


def cell_chunk_key(config: TrialConfig, seeds: Sequence[int]) -> str:
    """Content address of one (cell, seed-chunk) partial result.

    Keyed by everything that determines the outcomes — the full trial
    config (workload params, metric/estimator/adaptive/bus/scheduler/
    locality knobs) and the exact seed block — plus, inside
    :func:`repro.store.store_key`, the store schema and the code salt.
    Deliberately *not* keyed: the root seed, x value/index and trials
    count (all already captured by the derived seeds), and ``jobs`` and
    the tier (results are invariant to them).  Sweeps that
    overlap — a widened x axis, more trials per cell, a new series —
    therefore share every chunk they have in common.
    """
    return store_key(
        "cell-chunk", {"config": config.to_dict(), "seeds": list(seeds)}
    )


def _nan_zero(v: float) -> float:
    return 0.0 if v != v else v


def _mean(values: list[float]) -> float:
    return sum(values) / len(values) if values else float("nan")


def _accumulate(
    cells: Sequence[tuple[int, TrialConfig]],
    outcomes: dict[tuple[int, int], TrialOutcome],
    lanes: range,
) -> list[tuple[int, CellResult]]:
    """One partial :class:`CellResult` per cell over the seed *lanes*.

    ``outcomes[(series_index, lane)]`` holds each cell's outcome per
    seed lane; sums run in lane order.  This is the only aggregation
    code — the executor and the fabric's coalesced batches both go
    through it, so their floats are literally the same sums.
    """
    partials = []
    for si, _config in cells:
        outs = [outcomes[(si, lane)] for lane in lanes]
        # NaN marks a trial whose lateness was not measured.
        latenesses = [
            o.max_lateness for o in outs if o.max_lateness == o.max_lateness
        ]
        cell = CellResult(
            estimate=BinomialEstimate(sum(o.success for o in outs), len(outs)),
            degenerate=sum(o.degenerate for o in outs),
            mean_min_laxity=_mean([o.min_laxity for o in outs]),
            mean_max_lateness=_mean(latenesses),
            lateness_trials=len(latenesses),
        )
        partials.append((si, cell))
    return partials


def _judge(
    cells: Sequence[tuple[int, TrialConfig]],
    seeds: Sequence[int],
    use_kernel: bool | None,
) -> dict[tuple[int, int], TrialOutcome]:
    """Every cell's outcome on every seed, keyed ``(series_index, lane)``.

    The seed-batch driver when :func:`~repro.kernel.vec.batch_engages`
    says so, else the sequential loop; the outcomes are the same, bit
    for bit.
    """
    if batch_engages(cells, len(seeds), use_kernel):
        contexts = TrialContext.from_seeds(cells[0][1].workload, seeds)
        return paired_outcomes(cells, seeds, contexts, use_kernel)
    outcomes = {}
    for sp, seed in enumerate(seeds):
        contexts_by_wl: dict[Any, TrialContext] = {}
        for si, config in cells:
            context = contexts_by_wl.get(config.workload)
            if context is None:
                context = TrialContext.from_seed(config.workload, seed)
                contexts_by_wl[config.workload] = context
            outcomes[(si, sp)] = run_trial(config, seed, context, use_kernel)
    return outcomes


def run_paired_cells(
    cells: Sequence[tuple[int, TrialConfig]],
    seeds: Sequence[int],
    use_kernel: bool | None = None,
) -> list[tuple[int, CellResult]]:
    """Run one paired work unit: every cell of a sweep point on *seeds*.

    *cells* lists ``(series_index, config)``; for each seed the
    workload is generated **once** per distinct
    :class:`~repro.workload.params.WorkloadParams` (normally exactly
    once — cells vary the metric/estimator/bus model, not the
    generator) and every cell is judged on it through a shared
    :class:`TrialContext`.  Returns one partial :class:`CellResult` per
    cell, aggregated over this seed block.

    When :func:`~repro.kernel.vec.batch_engages` says so (kernel on,
    at least :data:`~repro.kernel.vec.VEC_MIN_LANES` seeds, one shared
    workload family), the whole block runs through the seed-batch
    driver: one weight-stage array pass and one lockstep EDF pass cover
    every seed lane of each cell.  Its outcomes are the sequential
    loop's, bit for bit, and both feed the same aggregation.
    """
    outcomes = _judge(cells, seeds, use_kernel)
    return _accumulate(cells, outcomes, range(len(seeds)))


@dataclass
class ExperimentResult:
    """All cells of one experiment, plus provenance."""

    name: str
    title: str
    x_label: str
    x_values: list[Any]
    series: list[str]
    cells: dict[tuple[int, int], CellResult] = field(default_factory=dict)
    trials_per_cell: int = 0
    seed: int = 0
    elapsed_seconds: float = 0.0
    paper_reference: str = ""
    #: Store activity of this run (hit/miss/append deltas) when a cache
    #: was used, else ``None``.  Excluded from :meth:`to_dict` so cached
    #: and uncached runs serialize identically.
    cache_stats: StoreStats | None = None

    def cell(self, x_index: int, series_label: str) -> CellResult:
        try:
            si = self.series.index(series_label)
            return self.cells[(x_index, si)]
        except (ValueError, KeyError):
            raise ExperimentError(
                f"no cell for x_index={x_index}, series={series_label!r}"
            ) from None

    def ratios(self, series_label: str) -> list[float]:
        """Success-ratio curve of one series over the x sweep."""
        return [
            self.cell(xi, series_label).ratio
            for xi in range(len(self.x_values))
        ]

    def latenesses(self, series_label: str) -> list[float]:
        """Mean maximum-lateness curve (§4.2 secondary measure)."""
        return [
            self.cell(xi, series_label).mean_max_lateness
            for xi in range(len(self.x_values))
        ]

    def to_dict(self) -> dict[str, Any]:
        """JSON-serializable representation."""
        return {
            "format": "repro.experiment-result/1",
            "name": self.name,
            "title": self.title,
            "x_label": self.x_label,
            "x_values": list(self.x_values),
            "series": list(self.series),
            "trials_per_cell": self.trials_per_cell,
            "seed": self.seed,
            "elapsed_seconds": self.elapsed_seconds,
            "paper_reference": self.paper_reference,
            "cells": [
                {
                    "x_index": xi,
                    "series_index": si,
                    "successes": cell.estimate.successes,
                    "trials": cell.estimate.trials,
                    "ratio": cell.ratio,
                    "interval": list(cell.estimate.interval),
                    "degenerate": cell.degenerate,
                    "mean_min_laxity": cell.mean_min_laxity,
                    "mean_max_lateness": cell.mean_max_lateness,
                    "lateness_trials": cell.lateness_trials,
                }
                for (xi, si), cell in sorted(self.cells.items())
            ],
        }


def _cell_seeds(
    root_seed: int, point: int | tuple[int, ...], trials: int
) -> list[int]:
    """Deterministic per-trial seeds for one sweep point.

    *point* is the point's index (an x index, a configuration index) or
    index tuple (a 2-D grid position).  Seeds depend on the point and
    the trial index but *not* on the cell: every cell of a point is
    evaluated on the same random workloads, mirroring the paper's
    design (one fixed set of 1024 task graphs judged by every metric)
    and giving the comparisons a paired structure.  Cells only change
    the metric/estimator/bus model, never the generation, so sharing
    seeds is always sound.
    """
    coords = point if isinstance(point, tuple) else (point,)
    return [derive_seed(root_seed, *coords, t) for t in range(trials)]


#: A sweep point: its index (see :func:`_cell_seeds`) and its
#: ``(series_index, config)`` cells.
Point = tuple[Any, list[tuple[int, TrialConfig]]]


def _experiment_points(spec: ExperimentSpec) -> list[Point]:
    """The sweep points of *spec*: one per x value, a cell per series."""
    return [
        (xi, [(si, config) for si, _label, config in group])
        for xi, _x, group in spec.cells_by_x()
    ]


def _paired_units(
    points: Sequence[Point], *, trials: int, seed: int, chunk_size: int
) -> list[tuple[Any, list[tuple[int, TrialConfig]], list[int]]]:
    """The ``(point, cells, seed_chunk)`` work units of *points*.

    Point-major, chunk-minor: the canonical merge order, shared by the
    executor and the sweep fabric's unit extraction.
    """
    units = []
    for point, cells in points:
        seeds = _cell_seeds(seed, point, trials)
        for lo in range(0, trials, chunk_size):
            units.append((point, cells, seeds[lo : lo + chunk_size]))
    return units


def run_points(
    points: Sequence[Point],
    *,
    trials: int,
    seed: int,
    jobs: int | None,
    chunk_size: int,
    cache: "TrialStore | str | Path | None" = None,
) -> tuple[dict[tuple[Any, int], CellResult], StoreStats | None]:
    """Run every cell of *points* on *trials* paired seeds each.

    The one executor.  Each point's seeds are split into chunks of
    *chunk_size*; every ``(point, cells, seed_chunk)`` unit runs
    through :func:`run_paired_cells`, inline when at most one worker
    is resolved (see :func:`_resolve_jobs`), else on the
    interrupt-safe :func:`_run_pool`.  Returns each cell's merged
    result keyed ``(point, series_index)`` — partials merge in chunk
    order, so the result is invariant to ``jobs`` — and the run's store
    activity (``None`` without a cache).

    ``cache`` — a :class:`~repro.store.TrialStore` or a directory path
    — restores stored ``(cell, seed-chunk)`` partials (see
    :func:`cell_chunk_key`) instead of judging them and appends the
    fresh ones; a unit dispatches only its missing cells, and a fully
    stored unit never reaches a worker.
    """
    if trials < 1:
        raise ExperimentError("trials must be at least 1")
    if jobs is not None and jobs < 1:
        # Fail here with a domain error instead of letting
        # ProcessPoolExecutor raise an opaque ValueError later.
        raise ExperimentError(
            f"jobs must be at least 1, got {jobs} (omit it for CPU count)"
        )
    if chunk_size < 1:
        raise ExperimentError(
            f"chunk_size must be at least 1, got {chunk_size}"
        )
    units = _paired_units(
        points, trials=trials, seed=seed, chunk_size=chunk_size
    )
    store, owned = _resolve_store(cache)
    stats_before = store.stats() if store is not None else None
    results: list[dict[int, CellResult]] = [{} for _ in units]
    keys: list[dict[int, str]] = [{} for _ in units]
    try:
        dispatch = []
        for u, (_point, cells, seeds) in enumerate(units):
            missing = cells
            if store is not None:
                missing = []
                for si, config in cells:
                    skey = cell_chunk_key(config, seeds)
                    cached = store.get(skey)
                    if cached is not None:
                        results[u][si] = CellResult.from_dict(cached)
                    else:
                        keys[u][si] = skey
                        missing.append((si, config))
            if missing:
                dispatch.append((u, missing, seeds))

        workers = _resolve_jobs(jobs, len(dispatch))
        if workers <= 1:
            # A lone unit (the warm-cache tail) never forks a pool:
            # fork/import costs more than judging one chunk.
            batches = [
                (u, run_paired_cells(cells, seeds))
                for u, cells, seeds in dispatch
            ]
        else:
            batches = _run_pool(
                workers,
                (
                    (u, run_paired_cells, (cells, seeds))
                    for u, cells, seeds in dispatch
                ),
            )
        for u, partials in batches:
            results[u].update(partials)
        if store is not None and batches:
            store.put_many(
                (keys[u][si], cell.to_dict())
                for u, partials in batches
                for si, cell in partials
            )
    finally:
        stats = None
        if store is not None:
            stats = store.stats().since(stats_before)
            if owned:
                store.close()

    merged: dict[tuple[Any, int], CellResult] = {}
    for u, (point, cells, _seeds) in enumerate(units):
        for si, _config in cells:
            key, cell = (point, si), results[u][si]
            merged[key] = merged[key].merged(cell) if key in merged else cell
    return merged, stats


def run_experiment(
    spec: ExperimentSpec,
    *,
    trials: int = 1024,
    seed: int = 2026,
    jobs: int | None = None,
    chunk_size: int = 32,
    cache: "TrialStore | str | Path | None" = None,
) -> ExperimentResult:
    """Run every cell of *spec* with *trials* trials each.

    ``jobs`` selects the number of worker processes (default: CPU
    count, clamped to the number of dispatched work units so small
    sweeps never spawn idle workers); ``jobs <= 1`` runs serially
    in-process, which is also the mode the test suite uses.  A work
    unit is ``(x_index, seed_chunk)`` and judges every series on one
    generated workload per seed (see :func:`run_points`).  Results are
    invariant to ``jobs`` — cell for cell, bit for bit — because trial
    seeds depend only on ``(seed, x_index, trial_index)``.
    ``chunk_size`` changes only how the partial mean-laxity/lateness
    sums are grouped before merging, which can shift those two means by
    floating-point rounding (success counts stay bit-identical).

    ``cache`` — a :class:`~repro.store.TrialStore` or a directory path
    — consults the persistent result store before computing: completed
    ``(cell, seed-chunk)`` partials (see :func:`cell_chunk_key`) are
    restored instead of re-judged, fresh partials are appended for the
    next run.  The returned result is bit-identical to an uncached run;
    the run's store activity lands in ``result.cache_stats``.  Because
    keys cover the config and seed block only, a warm store also
    accelerates *overlapping* sweeps: added series, widened x axes, or
    raised trial counts recompute just the missing chunks.
    """
    start = time.perf_counter()
    cells, cache_stats = run_points(
        _experiment_points(spec),
        trials=trials,
        seed=seed,
        jobs=jobs,
        chunk_size=chunk_size,
        cache=cache,
    )
    return ExperimentResult(
        name=spec.name,
        title=spec.title,
        x_label=spec.x_label,
        x_values=list(spec.x_values),
        series=list(spec.series),
        cells=cells,
        trials_per_cell=trials,
        seed=seed,
        elapsed_seconds=time.perf_counter() - start,
        paper_reference=spec.paper_reference,
        cache_stats=cache_stats,
    )


def _resolve_store(
    cache: "TrialStore | str | Path | None",
) -> tuple[TrialStore | None, bool]:
    """Normalize the ``cache`` argument; the bool means "close after"."""
    if cache is None:
        return None, False
    if isinstance(cache, (str, Path)):
        return TrialStore(cache), True
    return cache, False


def _resolve_jobs(jobs: int | None, n_units: int | None = None) -> int:
    """Worker count: explicit ``jobs`` or CPU count, clamped to the work.

    The clamp matters for small sweeps and warm caches: spawning more
    processes than there are dispatched units only pays fork/import
    cost for workers that would exit without ever receiving work.
    """
    resolved = jobs if jobs is not None else (os.cpu_count() or 1)
    if n_units is not None:
        resolved = min(resolved, max(1, n_units))
    return resolved


def _run_pool(max_workers: int, tasks) -> list:
    """Run ``(key, callable, args)`` tasks on a process pool, interrupt-safely.

    Returns ``(key, result)`` pairs in task order; a worker crash that
    is not a :class:`~repro.errors.ReproError` surfaces as an
    :class:`~repro.errors.ExperimentError` naming the key.  On *any*
    teardown — KeyboardInterrupt first among them — queued futures are
    cancelled and the worker processes terminated instead of the
    default ``shutdown(wait=True)``, which would keep computing every
    queued unit after Ctrl-C and strand the user.  Discarding running
    work is safe: results only reach the caller (and any result store)
    after a future completes in-parent.
    """
    pool = ProcessPoolExecutor(max_workers=max_workers)
    try:
        futures = [(key, pool.submit(fn, *args)) for key, fn, args in tasks]
        out = []
        for key, fut in futures:
            try:
                out.append((key, fut.result()))
            except ReproError:
                raise
            except Exception as exc:
                raise ExperimentError(
                    f"worker failed on unit {key}: {exc}"
                ) from exc
    except BaseException:
        pool.shutdown(wait=False, cancel_futures=True)
        # shutdown() only stops *queued* work; in-flight chunks would
        # still run to completion (and block interpreter exit joining
        # them).  Terminate the workers so Ctrl-C means now.
        for proc in list((getattr(pool, "_processes", None) or {}).values()):
            try:
                proc.terminate()
            except (OSError, AttributeError):  # already reaped
                pass
        raise
    pool.shutdown(wait=True)
    return out
