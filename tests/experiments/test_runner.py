"""Unit tests for the experiment runner (determinism, aggregation)."""

import pytest

from repro.errors import ExperimentError
from repro.experiments import (
    ExperimentSpec,
    TrialConfig,
    run_experiment,
    run_paired_cells,
    run_trial,
)
from repro.experiments.runner import CellResult, _cell_seeds
from repro.analysis import BinomialEstimate
from repro.rng import derive_seed
from repro.workload import WorkloadParams

FAST = WorkloadParams(m=3, n_tasks_range=(12, 16), depth_range=(4, 6))


def tiny_spec(series=("PURE", "ADAPT-L")):
    def config(x, metric):
        return TrialConfig(workload=FAST.with_overrides(m=int(x)), metric=metric)

    return ExperimentSpec(
        name="tiny",
        title="tiny",
        x_label="m",
        x_values=(2, 3),
        series=series,
        config_for=config,
    )


class TestRunTrial:
    def test_outcome_fields(self):
        out = run_trial(TrialConfig(workload=FAST), derive_seed(0, 0))
        assert isinstance(out.success, bool)
        assert out.n_tasks >= 12
        assert out.makespan > 0.0

    def test_deterministic(self):
        c = TrialConfig(workload=FAST, metric="ADAPT-L")
        assert run_trial(c, 42) == run_trial(c, 42)

    def test_seed_changes_outcome_distribution(self):
        c = TrialConfig(workload=FAST)
        outs = {run_trial(c, s).makespan for s in range(8)}
        assert len(outs) > 1

    def test_contention_bus_flag(self):
        c = TrialConfig(workload=FAST, contention_bus=True)
        out = run_trial(c, 7)
        assert isinstance(out.success, bool)


class TestRunCell:
    def test_aggregates(self):
        c = TrialConfig(workload=FAST)
        [(_si, cell)] = run_paired_cells(
            [(0, c)], [derive_seed(1, i) for i in range(10)]
        )
        assert cell.trials == 10
        assert 0 <= cell.estimate.successes <= 10
        assert cell.mean_min_laxity == cell.mean_min_laxity  # not NaN

    def test_merge(self):
        a = CellResult(BinomialEstimate(3, 5), degenerate=1, mean_min_laxity=2.0)
        b = CellResult(BinomialEstimate(1, 5), degenerate=0, mean_min_laxity=4.0)
        m = a.merged(b)
        assert m.trials == 10
        assert m.estimate.successes == 4
        assert m.degenerate == 1
        assert m.mean_min_laxity == pytest.approx(3.0)


class TestRunExperiment:
    def test_shape_and_provenance(self):
        res = run_experiment(tiny_spec(), trials=6, seed=5, jobs=1)
        assert res.name == "tiny"
        assert len(res.cells) == 4  # 2 x-values x 2 series
        assert res.trials_per_cell == 6
        assert all(c.trials == 6 for c in res.cells.values())
        assert len(res.ratios("PURE")) == 2

    def test_invariant_to_chunk_size(self):
        r1 = run_experiment(tiny_spec(), trials=8, seed=5, jobs=1, chunk_size=3)
        r2 = run_experiment(tiny_spec(), trials=8, seed=5, jobs=1, chunk_size=8)
        for key in r1.cells:
            assert r1.cells[key].estimate == r2.cells[key].estimate

    def test_invariant_to_parallelism(self):
        r1 = run_experiment(tiny_spec(), trials=8, seed=5, jobs=1)
        r2 = run_experiment(tiny_spec(), trials=8, seed=5, jobs=2)
        for key in r1.cells:
            assert r1.cells[key].estimate == r2.cells[key].estimate

    def test_cell_lookup_and_errors(self):
        res = run_experiment(tiny_spec(), trials=4, seed=1, jobs=1)
        assert res.cell(0, "PURE").trials == 4
        with pytest.raises(ExperimentError):
            res.cell(0, "NOPE")

    def test_zero_trials_rejected(self):
        with pytest.raises(ExperimentError):
            run_experiment(tiny_spec(), trials=0)

    def test_nonpositive_jobs_rejected(self):
        # a domain error, not ProcessPoolExecutor's opaque ValueError
        with pytest.raises(ExperimentError, match="jobs must be at least 1"):
            run_experiment(tiny_spec(), trials=4, jobs=0)
        with pytest.raises(ExperimentError, match="jobs"):
            run_experiment(tiny_spec(), trials=4, jobs=-2)

    def test_to_dict(self):
        res = run_experiment(tiny_spec(), trials=4, seed=1, jobs=1)
        doc = res.to_dict()
        assert doc["name"] == "tiny"
        assert len(doc["cells"]) == 4
        assert all("interval" in c for c in doc["cells"])


class TestSeeds:
    def test_cell_seeds_unique_across_sweep_points(self):
        s1 = _cell_seeds(9, 0, 50)
        s2 = _cell_seeds(9, 1, 50)
        assert not (set(s1) & set(s2))

    def test_cell_seeds_stable(self):
        assert _cell_seeds(9, 2, 10) == _cell_seeds(9, 2, 10)

    def test_series_share_workloads(self):
        """Paired design: all series see the same graphs at each x.

        The strongest witness: at ETD = 0 the PURE/NORM/ADAPT-G
        distributions are identical per graph, so their success counts
        must agree exactly (the paper's §6.3 convergence).
        """
        def config(x, metric):
            return TrialConfig(
                workload=FAST.with_overrides(etd=0.0), metric=metric
            )

        spec = ExperimentSpec(
            name="etd0", title="t", x_label="x", x_values=(1,),
            series=("PURE", "NORM", "ADAPT-G"), config_for=config,
        )
        res = run_experiment(spec, trials=16, seed=4, jobs=1)
        estimates = {res.cell(0, s).estimate for s in res.series}
        assert len(estimates) == 1


class TestSpecValidation:
    def test_empty_sweep_rejected(self):
        with pytest.raises(ExperimentError):
            tiny = tiny_spec()
            ExperimentSpec(
                name="x", title="x", x_label="x", x_values=(),
                series=("A",), config_for=tiny.config_for,
            )

    def test_duplicate_series_rejected(self):
        with pytest.raises(ExperimentError):
            tiny_spec(series=("PURE", "PURE"))
