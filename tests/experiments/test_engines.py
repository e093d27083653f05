"""Paired-unit equivalence: a series' cell never depends on its neighbours.

A paired work unit generates each seed's workload once and judges every
series of the sweep point on it through one shared ``TrialContext``.
That restructuring must not change a single bit of any cell: trial
seeds depend only on ``(root_seed, x_index, trial_index)``, and
everything a context shares is a pure function of the workload.  The
reference is test-side: each series run alone, as a one-series spec,
must produce exactly its cell of the multi-series run — on the scalar
path and on the seed-batch path, serially and on a process pool.
"""

import json

import pytest

from repro.errors import ExperimentError
from repro.experiments import ExperimentSpec, TrialConfig, run_experiment
from repro.kernel.vec import VEC_MIN_LANES
from repro.workload import WorkloadParams

FAST = WorkloadParams(m=3, n_tasks_range=(12, 16), depth_range=(4, 6))
SERIES = ("PURE", "NORM", "ADAPT-L")


def small_spec(series=SERIES):
    def config(x, metric):
        return TrialConfig(
            workload=FAST.with_overrides(m=int(x)), metric=metric
        )

    return ExperimentSpec(
        name="engine-equivalence",
        title="engine equivalence",
        x_label="m",
        x_values=(2, 3),
        series=series,
        config_for=config,
    )


def cell_texts(result):
    """``(x_index, series) -> canonical JSON`` (NaN-safe equality)."""
    return {
        (xi, result.series[si]): json.dumps(cell.to_dict(), sort_keys=True)
        for (xi, si), cell in result.cells.items()
    }


def assert_series_alone_equals_paired(trials, chunk_size, jobs):
    def run(series):
        return cell_texts(
            run_experiment(
                small_spec(series), trials=trials, seed=99, jobs=jobs,
                chunk_size=chunk_size,
            )
        )

    together = run(SERIES)
    alone = {}
    for label in SERIES:
        alone.update(run((label,)))
    assert alone == together


class TestEngineEquivalence:
    def test_serial_engines_bit_identical(self):
        """Scalar path, serial: each series alone equals its paired cell."""
        assert_series_alone_equals_paired(trials=12, chunk_size=8, jobs=1)

    def test_parallel_paired_matches_serial_percell(self):
        """Scalar path on a process pool: paired cells equal per-series runs."""
        assert_series_alone_equals_paired(trials=12, chunk_size=8, jobs=2)

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize(
        "trials, chunk_size",
        [(VEC_MIN_LANES, VEC_MIN_LANES)],
        ids=["seed-batch"],
    )
    def test_series_alone_equals_its_paired_cell(
        self, trials, chunk_size, jobs
    ):
        assert_series_alone_equals_paired(trials, chunk_size, jobs)

    def test_chunking_preserves_counts_exactly_and_means_closely(self):
        """chunk_size regroups partial sums: counts must stay exact.

        The mean-laxity/lateness merge is a weighted average of partial
        means, so regrouping may move those by floating-point rounding —
        everything counted (successes, trials, degenerates) is exact.
        """
        baseline = run_experiment(
            small_spec(), trials=12, seed=99, jobs=1, chunk_size=12
        )
        for chunk_size in (1, 5):
            other = run_experiment(
                small_spec(), trials=12, seed=99, jobs=1,
                chunk_size=chunk_size,
            )
            for key, cell in baseline.cells.items():
                o = other.cells[key]
                assert o.estimate == cell.estimate
                assert o.degenerate == cell.degenerate
                assert o.lateness_trials == cell.lateness_trials
                assert o.mean_min_laxity == pytest.approx(
                    cell.mean_min_laxity, rel=1e-9, nan_ok=True
                )
                assert o.mean_max_lateness == pytest.approx(
                    cell.mean_max_lateness, rel=1e-9, nan_ok=True
                )


class TestEngineSelection:
    def test_bad_chunk_size_rejected(self):
        with pytest.raises(ExperimentError, match="chunk_size"):
            run_experiment(small_spec(), trials=1, jobs=1, chunk_size=0)
