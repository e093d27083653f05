"""Vectorized-tier bit-identity against the reference oracle.

The third tier's contract, mirrored from ``test_bit_identity``: for
every configuration inside the kernel envelope, the seed-batch driver
(:func:`repro.kernel.vec.paired_outcomes`) produces the outcomes of
``run_trial(use_kernel=False)`` field for field — across the same
randomized workload sweep run as batch lanes, through
:func:`run_paired_cells`, and through the error lanes the batched
weight stage hands back to the scalar retry.
"""

from dataclasses import replace

import pytest

import repro.kernel.vec as vec
from repro.core.metrics import METRIC_NAMES, get_metric
from repro.errors import GraphError
from repro.experiments import TrialConfig
from repro.experiments.context import TrialContext
from repro.experiments.runner import run_paired_cells, run_trial
from repro.graph import TaskGraph
from repro.kernel.compiled import compile_workload
from repro.kernel.metrics import kernel_weights
from repro.system import identical_platform
from repro.workload import WorkloadParams

from .test_bit_identity import (
    ESTIMATORS,
    OUTCOME_FIELDS,
    SHAPES,
    _chunks,
    _same,
)


def _params(ws: int) -> WorkloadParams:
    return WorkloadParams(m=2 + ws % 5, **SHAPES[ws % len(SHAPES)])


@pytest.mark.parametrize("indices", _chunks(), ids=lambda r: f"ws{r.start}")
def test_vec_trial_outcomes_bit_identical(indices):
    """The 208-workload sweep as lanes of the seed-batch driver, every
    metric in both miss modes, with and without the contention bus,
    against the reference oracle.

    Lanes of one call share an estimator but not a workload family:
    the driver takes each lane's workload from its context, and of the
    series' :class:`WorkloadParams` it reads only the bus delay, which
    no shape varies.  Mixed families also put lanes of different
    processor counts through one lockstep EDF call.
    """
    for estimator in ESTIMATORS:
        lanes = [ws for ws in indices if ESTIMATORS[ws % 3] == estimator]
        family = _params(lanes[0])
        assert {_params(ws).bus_delay_per_item for ws in lanes} == {
            family.bus_delay_per_item
        }
        cells = list(
            enumerate(
                TrialConfig(
                    workload=family,
                    metric=metric,
                    estimator=estimator,
                    measure_lateness=lateness,
                    contention_bus=bus,
                )
                for metric in METRIC_NAMES
                for lateness in (False, True)
                for bus in (False, True)
            )
        )
        seeds = [7000 + ws for ws in lanes]
        contexts = [
            TrialContext.from_seed(_params(ws), 7000 + ws) for ws in lanes
        ]
        outcomes = vec.paired_outcomes(cells, seeds, contexts)
        for sp, ws in enumerate(lanes):
            for si, config in cells:
                own = replace(config, workload=_params(ws))
                ref = run_trial(own, seeds[sp], contexts[sp], use_kernel=False)
                fast = outcomes[(si, sp)]
                for name in OUTCOME_FIELDS:
                    assert _same(getattr(ref, name), getattr(fast, name)), (
                        f"workload {ws} (m={own.workload.m}), "
                        f"{config.metric}/{estimator}, "
                        f"lateness={config.measure_lateness}, "
                        f"bus={config.contention_bus}: "
                        f"{name} {getattr(ref, name)!r} != "
                        f"{getattr(fast, name)!r}"
                    )


def _cell_fields(result):
    return (
        result.estimate.successes,
        result.estimate.trials,
        result.degenerate,
        result.mean_min_laxity,
        result.mean_max_lateness,
        result.lateness_trials,
    )


def test_batch_driver_equals_sequential_loop():
    """``run_paired_cells`` on a block wide enough to engage the batch
    driver — a mixed-series chunk (fail-fast, lateness, contention bus,
    and a non-batchable strict-locality series) — aggregates
    bit-identically to the sequential reference loop."""
    params = WorkloadParams(m=3, n_tasks_range=(8, 16), depth_range=(3, 6))
    cells = [
        (0, TrialConfig(workload=params, metric="PURE")),
        (1, TrialConfig(workload=params, metric="ADAPT-L",
                        measure_lateness=True)),
        (2, TrialConfig(workload=params, metric="ADAPT-G",
                        contention_bus=True)),
        (3, TrialConfig(workload=params, metric="NORM", estimator="MAX")),
        (4, TrialConfig(workload=params, metric="ADAPT-L",
                        locality="strict")),
    ]
    seeds = list(range(4100, 4100 + vec.VEC_MIN_LANES))
    assert vec.batch_engages(cells, len(seeds))
    batch = run_paired_cells(cells, seeds)
    seq = run_paired_cells(cells, seeds, use_kernel=False)
    assert [si for si, _ in batch] == [si for si, _ in seq]
    for (_, b), (_, s) in zip(batch, seq):
        for bv, sv in zip(_cell_fields(b), _cell_fields(s)):
            assert _same(bv, sv), (b, s)


class TestAverageParallelismErrorBranches:
    """The vec weight batch flags error lanes ``None`` (no cache write)
    and the scalar retry raises the reference exceptions verbatim."""

    def test_longest_path_nonpositive(self, chain3):
        cw = compile_workload(chain3, identical_platform(2))
        metric = get_metric("ADAPT-G", None)
        zeros = [0.0] * cw.n
        flagged = vec.vec_weights_batch([cw], metric, [zeros], "WCET-AVG")
        assert flagged == [None]
        assert not cw.weights_cache()  # error lanes never cache
        with pytest.raises(GraphError, match="longest path"):
            kernel_weights(cw, metric, zeros, "WCET-AVG")

    def test_empty_graph(self):
        cw = compile_workload(TaskGraph(), identical_platform(2))
        metric = get_metric("ADAPT-G", None)
        assert vec.vec_weights_batch([cw], metric, [[]], "WCET-AVG") == [None]
        assert not cw.weights_cache()
        with pytest.raises(GraphError, match="empty graph"):
            kernel_weights(cw, metric, [], "WCET-AVG")
