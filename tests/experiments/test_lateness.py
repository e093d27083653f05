"""Unit tests for the maximum-lateness secondary measure (§4.2)."""

import math

import pytest

from repro.experiments import (
    TrialConfig,
    get_figure_spec,
    lateness_table,
    render_report,
    run_experiment,
    run_paired_cells,
    run_trial,
)
from repro.experiments.runner import _cell_seeds
from repro.workload import WorkloadParams

FAST = WorkloadParams(m=2, n_tasks_range=(10, 14), depth_range=(4, 6))


class TestTrialLateness:
    def test_lateness_measured_when_requested(self):
        cfg = TrialConfig(
            workload=FAST.with_overrides(olr=0.4), measure_lateness=True
        )
        outs = [run_trial(cfg, s) for s in _cell_seeds(5, 0, 10)]
        assert all(not math.isnan(o.max_lateness) for o in outs)
        # the tight OLR guarantees some misses -> positive lateness
        assert any(o.max_lateness > 0 for o in outs)

    def test_fail_fast_mode_has_nan_on_failures(self):
        cfg = TrialConfig(workload=FAST.with_overrides(olr=0.4))
        outs = [run_trial(cfg, s) for s in _cell_seeds(5, 0, 10)]
        failed = [o for o in outs if not o.success]
        assert failed
        assert all(math.isnan(o.max_lateness) for o in failed)

    def test_feasible_trials_have_nonpositive_lateness(self):
        cfg = TrialConfig(
            workload=FAST.with_overrides(olr=1.5), measure_lateness=True
        )
        outs = [run_trial(cfg, s) for s in _cell_seeds(6, 0, 10)]
        for o in outs:
            if o.success:
                assert o.max_lateness <= 1e-9


class TestCellAggregation:
    def test_mean_lateness_aggregated(self):
        cfg = TrialConfig(
            workload=FAST.with_overrides(olr=1.2), measure_lateness=True
        )
        [(_si, cell)] = run_paired_cells([(0, cfg)], _cell_seeds(7, 0, 8))
        assert cell.lateness_trials == 8
        assert not math.isnan(cell.mean_max_lateness)

    def test_merge_weights_by_lateness_trials(self):
        from repro.analysis import BinomialEstimate
        from repro.experiments.runner import CellResult

        a = CellResult(
            BinomialEstimate(1, 2), mean_max_lateness=-10.0, lateness_trials=2
        )
        b = CellResult(
            BinomialEstimate(2, 2), mean_max_lateness=-40.0, lateness_trials=6
        )
        m = a.merged(b)
        assert m.lateness_trials == 8
        assert m.mean_max_lateness == pytest.approx(
            (-10.0 * 2 - 40.0 * 6) / 8
        )

    def test_merge_with_no_lateness_stays_nan(self):
        from repro.analysis import BinomialEstimate
        from repro.experiments.runner import CellResult

        a = CellResult(BinomialEstimate(1, 2))
        b = CellResult(BinomialEstimate(0, 2))
        assert math.isnan(a.merged(b).mean_max_lateness)


class TestLatenessFigure:
    def test_registered(self):
        spec = get_figure_spec("abl-lateness")
        cfg = spec.config_for(1.0, "PURE")
        assert cfg.measure_lateness

    def test_report_includes_lateness_table(self):
        spec = get_figure_spec("abl-lateness")
        # shrink the sweep for test speed: run just the spec's configs
        # on tiny workloads
        def tiny(x, s):
            base = spec.config_for(x, s)
            return TrialConfig(
                workload=FAST.with_overrides(olr=base.workload.olr),
                metric=base.metric,
                measure_lateness=True,
            )

        from repro.experiments import ExperimentSpec

        small = ExperimentSpec(
            name=spec.name, title=spec.title, x_label=spec.x_label,
            x_values=spec.x_values[:2], series=spec.series[:2],
            config_for=tiny,
        )
        result = run_experiment(small, trials=4, seed=9, jobs=1)
        table = lateness_table(result)
        assert "max lateness" in table
        report = render_report(result)
        assert "max lateness" in report  # auto-included when measured
