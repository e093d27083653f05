"""Experiment execution: paired trials, cells, and multiprocessing fan-out.

Determinism contract: the outcome of a trial depends only on
``(root_seed, x_index, trial_index)`` — never on worker
count, scheduling order, or engine choice.  Workers receive coarse
(configs, seed-block) pairs and return aggregate counts, so
inter-process traffic stays tiny (per the hpc-parallel guidance:
parallelize coarse-grained units, keep the serial inner loop simple and
measured).

Two engines share the same trial primitive:

* ``"paired"`` (default) — a work unit is ``(x_index, seed_chunk)``
  covering *every* series of the sweep point.  Each seed's workload is
  generated once, its derived state (topological order, adjacency,
  transitive closure, per-estimator WCET maps) is computed once on a
  :class:`~repro.experiments.context.TrialContext`, and every series is
  judged on that same workload — the paper's paired design (one fixed
  set of 1024 task graphs judged by every metric), and a 2–4× wall-clock
  win on multi-series sweeps.
* ``"percell"`` — the historical engine: one work unit per
  ``(x_index, series)`` cell, regenerating the workload per series.
  Kept for equivalence testing and benchmarking; both engines produce
  bit-identical cells because trial seeds never depend on the series.

Both engines can consult a persistent content-addressed result store
(``run_experiment(cache=...)``, see :mod:`repro.store`): each
``(cell, seed-chunk)`` partial is keyed by a digest of the trial config
and its seed block, so warm re-runs skip completed chunks entirely, an
interrupted sweep resumes where it stopped, and a delta sweep that adds
a series to an existing grid recomputes only the new series' judgments
— all while producing the same ``ExperimentResult``, bit for bit, as an
uncached run at any ``jobs``/``engine`` setting (cached partials are
the exact aggregates the engine would have produced, and merge order is
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
    "run_cell",
    "run_paired_cells",
    "run_experiment",
    "cell_chunk_key",
    "CellResult",
    "ExperimentResult",
    "ENGINE_NAMES",
]

#: Execution engines accepted by :func:`run_experiment`.
#: ``"paired-ref"`` is the paired engine pinned to the string-keyed
#: reference trial pipeline (the kernel's oracle); ``"paired"`` and
#: ``"percell"`` use the compiled kernel whenever it is enabled and the
#: config is inside its envelope — results are bit-identical either way.
ENGINE_NAMES: tuple[str, ...] = ("paired", "paired-ref", "percell")


def run_trial(
    config: TrialConfig,
    seed: int,
    context: TrialContext | None = None,
    use_kernel: bool | None = None,
) -> TrialOutcome:
    """Run one generate→slice→schedule trial.

    ``context`` optionally supplies the trial's generated workload and
    lazily cached derived state; the paired engine passes one context to
    every series of a trial.  When omitted, the workload is generated
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
    # kernel off (the ``paired-ref`` oracle leg, ``use_kernel=False``)
    # every layer must run the string-keyed reference code, so neither
    # helper may fall back to its own environment check.
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
    count (all already captured by the derived seeds), and
    ``jobs``/``engine`` (results are invariant to them).  Sweeps that
    overlap — a widened x axis, more trials per cell, a new series —
    therefore share every chunk they have in common.
    """
    return store_key(
        "cell-chunk", {"config": config.to_dict(), "seeds": list(seeds)}
    )


def _nan_zero(v: float) -> float:
    return 0.0 if v != v else v


class _CellAccumulator:
    """Streaming aggregation of trial outcomes into one :class:`CellResult`.

    Shared by both engines so their per-chunk floating-point arithmetic
    is literally the same code (a prerequisite of the bit-identical
    equivalence contract).
    """

    __slots__ = ("successes", "degenerate", "laxities", "latenesses")

    def __init__(self) -> None:
        self.successes = 0
        self.degenerate = 0
        self.laxities: list[float] = []
        self.latenesses: list[float] = []

    def add(self, outcome: TrialOutcome) -> None:
        self.successes += int(outcome.success)
        self.degenerate += int(outcome.degenerate)
        self.laxities.append(outcome.min_laxity)
        if outcome.max_lateness == outcome.max_lateness:  # not NaN
            self.latenesses.append(outcome.max_lateness)

    def result(self, trials: int) -> CellResult:
        laxities, latenesses = self.laxities, self.latenesses
        mean_lax = sum(laxities) / len(laxities) if laxities else float("nan")
        mean_late = (
            sum(latenesses) / len(latenesses) if latenesses else float("nan")
        )
        return CellResult(
            estimate=BinomialEstimate(self.successes, trials),
            degenerate=self.degenerate,
            mean_min_laxity=mean_lax,
            mean_max_lateness=mean_late,
            lateness_trials=len(latenesses),
        )


def run_cell(
    config: TrialConfig,
    seeds: Sequence[int],
    use_kernel: bool | None = None,
) -> CellResult:
    """Run a block of trials of one cell serially (per-cell worker unit)."""
    acc = _CellAccumulator()
    for seed in seeds:
        acc.add(run_trial(config, seed, use_kernel=use_kernel))
    return acc.result(len(seeds))


def run_paired_cells(
    cells: Sequence[tuple[int, TrialConfig]],
    seeds: Sequence[int],
    use_kernel: bool | None = None,
) -> list[tuple[int, CellResult]]:
    """Run a block of paired trials covering every series of one sweep point.

    *cells* lists ``(series_index, config)`` for one ``x_index``; for
    each seed the workload is generated **once** per distinct
    :class:`~repro.workload.params.WorkloadParams` (normally exactly
    once — series vary the metric/estimator/bus model, not the
    generator) and every series is judged on it through a shared
    :class:`TrialContext`.  Returns one partial :class:`CellResult` per
    series, aggregated over this seed block.

    When :func:`~repro.kernel.vec.batch_engages` says so (kernel on,
    at least :data:`~repro.kernel.vec.VEC_MIN_LANES` seeds, one shared
    workload family), the whole block runs through the seed-batch
    driver: one weight-stage array pass and one lockstep EDF pass cover
    every seed lane of each series, and the per-series accumulators are
    fed the identical outcomes in the identical seed order — the
    aggregates match the sequential loop bit for bit.
    """
    if batch_engages(cells, len(seeds), use_kernel):
        contexts = TrialContext.from_seeds(cells[0][1].workload, seeds)
        outcomes = paired_outcomes(cells, seeds, contexts, use_kernel)
        accs = {si: _CellAccumulator() for si, _ in cells}
        for sp in range(len(seeds)):
            for si, _config in cells:
                accs[si].add(outcomes[(si, sp)])
        return [(si, accs[si].result(len(seeds))) for si, _ in cells]

    accs = {si: _CellAccumulator() for si, _ in cells}
    for seed in seeds:
        contexts_by_wl: dict[Any, TrialContext] = {}
        for si, config in cells:
            context = contexts_by_wl.get(config.workload)
            if context is None:
                context = TrialContext.from_seed(config.workload, seed)
                contexts_by_wl[config.workload] = context
            accs[si].add(
                run_trial(config, seed, context, use_kernel)
            )
    return [(si, accs[si].result(len(seeds))) for si, _ in cells]


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


def _cell_seeds(root_seed: int, x_index: int, trials: int) -> list[int]:
    """Deterministic per-trial seeds for one sweep point.

    Seeds depend on the x index and trial index but *not* on the
    series: every series at a sweep point is evaluated on the same
    random workloads, mirroring the paper's design (one fixed set of
    1024 task graphs judged by every metric) and giving the comparisons
    a paired structure.  Series only change the metric/estimator/bus
    model, never the generation, so sharing seeds is always sound.
    """
    return [derive_seed(root_seed, x_index, t) for t in range(trials)]


def run_experiment(
    spec: ExperimentSpec,
    *,
    trials: int = 1024,
    seed: int = 2026,
    jobs: int | None = None,
    chunk_size: int = 32,
    engine: str = "paired",
    cache: "TrialStore | str | Path | None" = None,
) -> ExperimentResult:
    """Run every cell of *spec* with *trials* trials each.

    ``jobs`` selects the number of worker processes (default: CPU
    count, clamped to the number of dispatched work units so small
    sweeps never spawn idle workers); ``jobs <= 1`` runs serially
    in-process, which is also the mode the test suite uses.  ``engine``
    picks the work-unit shape: ``"paired"`` (default) fans out
    ``(x_index, seed_chunk)`` units that evaluate every series on one
    generated workload per seed; ``"percell"`` is the historical
    one-unit-per-(x, series) engine.  Results are invariant to ``jobs``
    and ``engine`` — cell for cell, bit for bit — because trial seeds
    depend only on ``(seed, x_index, trial_index)`` and both engines
    chunk the seed sequence identically.  ``chunk_size`` changes only
    how the partial mean-laxity/lateness sums are grouped before
    merging, which can shift those two means by floating-point rounding
    (success counts stay bit-identical).

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
    if engine not in ENGINE_NAMES:
        raise ExperimentError(
            f"unknown engine {engine!r}; choose from {ENGINE_NAMES}"
        )
    store, owned = _resolve_store(cache)
    start = time.perf_counter()
    result = ExperimentResult(
        name=spec.name,
        title=spec.title,
        x_label=spec.x_label,
        x_values=list(spec.x_values),
        series=list(spec.series),
        trials_per_cell=trials,
        seed=seed,
        paper_reference=spec.paper_reference,
    )

    stats_before = store.stats() if store is not None else None
    try:
        if engine == "percell":
            partials = _run_percell_units(
                spec, trials, seed, jobs, chunk_size, store
            )
        else:
            # "paired" defers to the REPRO_KERNEL switch per trial;
            # "paired-ref" pins the reference pipeline (kernel oracle).
            partials = _run_paired_units(
                spec, trials, seed, jobs, chunk_size, store,
                use_kernel=False if engine == "paired-ref" else None,
            )
    finally:
        if store is not None:
            result.cache_stats = store.stats().since(stats_before)
            if owned:
                store.close()

    for key, cell in partials:
        if key in result.cells:
            result.cells[key] = result.cells[key].merged(cell)
        else:
            result.cells[key] = cell

    result.elapsed_seconds = time.perf_counter() - start
    return result


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


def _collect(futures, what: str = "cell"):
    """Drain (key, future) pairs, surfacing worker crashes clearly."""
    out = []
    for key, fut in futures:
        try:
            out.append((key, fut.result()))
        except ReproError:
            raise
        except Exception as exc:
            raise ExperimentError(
                f"worker failed on {what} {key}: {exc}"
            ) from exc
    return out


def _run_pool(max_workers: int, tasks, what: str):
    """Run ``(key, args)`` tasks on a process pool, interrupt-safely.

    ``tasks`` yields ``(key, callable, args)``; returns ``_collect``'s
    ``(key, result)`` list.  The happy path is a plain submit/drain.
    On *any* teardown — KeyboardInterrupt first among them — queued
    futures are cancelled and the worker processes terminated instead
    of the default ``shutdown(wait=True)``, which would keep computing
    every queued unit after Ctrl-C and strand the user.  Discarding
    running work is safe: results only reach the caller (and any
    result store) after a future completes in-parent.
    """
    pool = ProcessPoolExecutor(max_workers=max_workers)
    try:
        futures = [(key, pool.submit(fn, *args)) for key, fn, args in tasks]
        out = _collect(futures, what=what)
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


def _run_percell_units(
    spec: ExperimentSpec,
    trials: int,
    seed: int,
    jobs: int | None,
    chunk_size: int,
    store: TrialStore | None,
) -> list[tuple[tuple[int, int], CellResult]]:
    """The historical engine: one work unit per (cell, seed chunk)."""
    units: list[tuple[tuple[int, int], TrialConfig, list[int]]] = []
    for xi, _x, si, _label, config in spec.cells():
        seeds = _cell_seeds(seed, xi, trials)
        for lo in range(0, trials, chunk_size):
            units.append(((xi, si), config, seeds[lo : lo + chunk_size]))

    # Partition units into store hits (restored) and pending work.
    results: list[CellResult | None] = [None] * len(units)
    store_keys: dict[int, str] = {}
    pending: list[int] = []
    for i, (_key, config, seeds) in enumerate(units):
        if store is not None:
            skey = cell_chunk_key(config, seeds)
            cached = store.get(skey)
            if cached is not None:
                results[i] = CellResult.from_dict(cached)
                continue
            store_keys[i] = skey
        pending.append(i)

    if pending:
        # A single pending unit always runs inline: forking a pool to
        # judge one chunk costs more than the chunk (the warm-cache
        # tail of a resumed sweep hits this constantly).
        if len(pending) == 1 or _resolve_jobs(jobs, len(pending)) <= 1:
            for i in pending:
                _key, config, seeds = units[i]
                results[i] = run_cell(config, seeds)
        else:
            fresh = _run_pool(
                _resolve_jobs(jobs, len(pending)),
                ((i, run_cell, (units[i][1], units[i][2])) for i in pending),
                what="cell",
            )
            for i, cell in fresh:
                results[i] = cell
        if store is not None:
            store.put_many(
                (store_keys[i], results[i].to_dict()) for i in pending
            )

    # Emit in unit order — the exact merge order of the uncached run.
    return [(units[i][0], results[i]) for i in range(len(units))]


def _run_paired_units(
    spec: ExperimentSpec,
    trials: int,
    seed: int,
    jobs: int | None,
    chunk_size: int,
    store: TrialStore | None,
    use_kernel: bool | None = None,
) -> list[tuple[tuple[int, int], CellResult]]:
    """The paired engine: one work unit per (x_index, seed chunk).

    Each unit returns one partial per series; partials are flattened
    back to ``((x_index, series_index), CellResult)`` pairs in chunk
    order per cell — the same merge order as the per-cell engine, so
    the sequential weighted-mean merges produce identical floats.

    With a store, a unit dispatches only its *missing* series (the
    delta-sweep path): the shared paired workloads are generated once
    per seed either way, but already-stored series skip judgment
    entirely, and a fully stored unit never reaches a worker.
    """
    units: list[tuple[int, list[tuple[int, TrialConfig]], list[int]]] = []
    for xi, _x, group in spec.cells_by_x():
        cells = [(si, config) for si, _label, config in group]
        seeds = _cell_seeds(seed, xi, trials)
        for lo in range(0, trials, chunk_size):
            units.append((xi, cells, seeds[lo : lo + chunk_size]))

    unit_results: list[dict[int, CellResult]] = [{} for _ in units]
    unit_keys: list[dict[int, str]] = [{} for _ in units]
    dispatch: list[tuple[int, list[tuple[int, TrialConfig]], list[int]]] = []
    for u, (_xi, cells, seeds) in enumerate(units):
        missing = cells
        if store is not None:
            missing = []
            for si, config in cells:
                skey = cell_chunk_key(config, seeds)
                cached = store.get(skey)
                if cached is not None:
                    unit_results[u][si] = CellResult.from_dict(cached)
                else:
                    unit_keys[u][si] = skey
                    missing.append((si, config))
        if missing:
            dispatch.append((u, missing, seeds))

    if dispatch:
        # A single dispatched unit always runs inline in the parent
        # process — no pool spin-up for the warm-cache tail where one
        # chunk is missing (fork/import costs more than the kernel
        # spends judging it).
        if len(dispatch) == 1 or _resolve_jobs(jobs, len(dispatch)) <= 1:
            batches = [
                (u, run_paired_cells(cells, seeds, use_kernel))
                for u, cells, seeds in dispatch
            ]
        else:
            batches = _run_pool(
                _resolve_jobs(jobs, len(dispatch)),
                (
                    (u, run_paired_cells, (cells, seeds, use_kernel))
                    for u, cells, seeds in dispatch
                ),
                what="sweep-point unit",
            )
        records: list[tuple[str, dict[str, Any]]] = []
        for u, partials in batches:
            for si, cell in partials:
                unit_results[u][si] = cell
                if store is not None:
                    records.append((unit_keys[u][si], cell.to_dict()))
        if store is not None:
            store.put_many(records)

    # Flatten per unit in series order — identical to the uncached walk.
    return [
        ((units[u][0], si), unit_results[u][si])
        for u in range(len(units))
        for si, _config in units[u][1]
    ]
