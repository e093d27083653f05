"""Unit tests for 2D sweeps."""

import pytest

from repro.errors import ExperimentError
from repro.experiments import Sweep2DResult, TrialConfig, heatmap, run_sweep2d
from repro.workload import WorkloadParams

FAST = WorkloadParams(m=2, n_tasks_range=(10, 14), depth_range=(4, 6))


def config_for(m, olr):
    return TrialConfig(
        workload=FAST.with_overrides(m=int(m), olr=float(olr)),
        metric="ADAPT-L",
    )


class TestRunSweep2D:
    def test_grid_shape(self):
        res = run_sweep2d(
            config_for, (2, 3), (0.6, 0.8, 1.0),
            trials=4, seed=1, jobs=1,
            x_label="m", y_label="OLR",
        )
        assert len(res.cells) == 6
        grid = res.ratio_grid()
        assert len(grid) == 3 and len(grid[0]) == 2
        assert all(0.0 <= r <= 1.0 for row in grid for r in row)

    def test_deterministic_and_job_invariant(self):
        r1 = run_sweep2d(config_for, (2,), (0.6, 1.0), trials=6, seed=3, jobs=1)
        r2 = run_sweep2d(config_for, (2,), (0.6, 1.0), trials=6, seed=3, jobs=2)
        for key in r1.cells:
            assert r1.cells[key].estimate == r2.cells[key].estimate

    def test_validation(self):
        with pytest.raises(ExperimentError):
            run_sweep2d(config_for, (), (1,), trials=1)
        with pytest.raises(ExperimentError):
            run_sweep2d(config_for, (1,), (1,), trials=0)
        # The runner's shape check: no bare ValueError, no silent run.
        with pytest.raises(ExperimentError, match="chunk_size"):
            run_sweep2d(config_for, (2,), (1,), trials=1, chunk_size=0)
        for jobs in (0, -3):
            with pytest.raises(ExperimentError, match="jobs"):
                run_sweep2d(config_for, (2,), (1,), trials=1, jobs=jobs)

    def test_missing_cell_raises(self):
        res = Sweep2DResult("t", "x", "y", [1], [1])
        with pytest.raises(ExperimentError):
            res.cell(0, 0)

    def test_to_dict(self):
        res = run_sweep2d(config_for, (2,), (0.8,), trials=2, seed=1, jobs=1)
        doc = res.to_dict()
        assert doc["format"] == "repro.sweep2d/1"
        assert doc["ratios"]


class TestHeatmap:
    def test_renders(self):
        res = run_sweep2d(
            config_for, (2, 3), (0.6, 1.0),
            trials=4, seed=1, jobs=1,
            title="m x OLR", x_label="m", y_label="OLR",
        )
        out = heatmap(res)
        assert "m x OLR" in out
        assert "OLR rising" in out
        assert len(out.splitlines()) == 2 + 2 + 1
