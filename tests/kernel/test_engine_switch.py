"""The kernel's switch (REPRO_KERNEL) and inline single units.

Covers the operational contract around the fast path: the environment
switch is read per call and round-trips through the CLI with
byte-identical reports, it turns off the seed-batch driver too (so
``REPRO_KERNEL=0`` really runs the reference oracle), a whole
``run_experiment`` under it equals the kernel run, and a single
dispatched work unit never pays for a process pool (the warm-cache
tail regression) — whichever front end dispatches it.
"""

import json
import re

import pytest

import repro.experiments.runner as runner_mod
import repro.kernel as kernel_pkg
import repro.kernel.slicing as slicing_mod
import repro.kernel.trial as trial_mod
import repro.kernel.vec as vec_mod
from repro.cli import main
from repro.experiments import (
    ExperimentSpec,
    TrialConfig,
    run_experiment,
    run_robustness,
    run_sweep2d,
)
from repro.experiments.runner import _resolve_jobs, run_paired_cells
from repro.fabric import compute_unit, compute_units, extract_units
from repro.kernel.trial import kernel_enabled
from repro.workload import WorkloadParams


def _tiny_spec(series=("PURE", "ADAPT-L")) -> ExperimentSpec:
    base = WorkloadParams(n_tasks_range=(8, 14), depth_range=(3, 5))

    def config_for(x, metric: str) -> TrialConfig:
        return TrialConfig(workload=base.with_overrides(m=int(x)), metric=metric)

    return ExperimentSpec(
        name="kernel-switch-test",
        title="t",
        x_label="m",
        x_values=(3,),
        series=series,
        config_for=config_for,
    )


def _doc_of(result) -> str:
    doc = result.to_dict()
    doc.pop("elapsed_seconds")
    return json.dumps(doc, sort_keys=True)


class TestEnvSwitch:
    def test_kernel_enabled_reads_env_per_call(self, monkeypatch):
        monkeypatch.delenv("REPRO_KERNEL", raising=False)
        assert kernel_enabled()
        monkeypatch.setenv("REPRO_KERNEL", "0")
        assert not kernel_enabled()
        monkeypatch.setenv("REPRO_KERNEL", "1")
        assert kernel_enabled()

    def test_cli_roundtrip_is_byte_identical(
        self, tmp_path, capsys, monkeypatch
    ):
        """REPRO_KERNEL=0 and =1 CLI runs print and write the same report."""
        reports = {}
        docs = {}
        for flag in ("0", "1"):
            monkeypatch.setenv("REPRO_KERNEL", flag)
            out_dir = tmp_path / f"kernel-{flag}"
            code = main(
                [
                    "fig2",
                    "--trials", "2",
                    "--seed", "11",
                    "--jobs", "1",
                    "--out", str(out_dir),
                ]
            )
            assert code == 0
            reports[flag] = re.sub(
                r"elapsed=\S+", "elapsed=*", capsys.readouterr().out
            )
            doc = json.loads((out_dir / "fig2.json").read_text())
            doc.pop("elapsed_seconds", None)
            docs[flag] = json.dumps(doc, sort_keys=True)
        assert reports["0"] == reports["1"]
        assert docs["0"] == docs["1"]


def _count_kernel_slice(monkeypatch) -> list:
    """Count every ``kernel_slice`` call, whichever module binds it."""
    calls = []
    original = slicing_mod.kernel_slice

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for module in (slicing_mod, trial_mod, kernel_pkg, vec_mod):
        if hasattr(module, "kernel_slice"):
            monkeypatch.setattr(module, "kernel_slice", counting)
    return calls


class TestKernelOffReachesOracle:
    """``REPRO_KERNEL=0`` must keep a block wide enough for the
    seed-batch driver on the reference pipeline: zero compiled slicing
    DP calls, whichever front door judges it."""

    @staticmethod
    def _judge(door, units):
        if door == "run_paired_cells":
            run_paired_cells(list(units[0].cells), list(units[0].seeds))
        elif door == "compute_unit":
            compute_unit(units[0])
        else:
            compute_units(units)

    @pytest.mark.parametrize(
        "door", ["run_paired_cells", "compute_unit", "compute_units"]
    )
    def test_wide_block_makes_no_kernel_slice_calls(self, door, monkeypatch):
        trials = vec_mod.VEC_MIN_LANES
        # compute_units coalesces two half-width units into one block.
        chunk = trials // 2 if door == "compute_units" else trials
        units = extract_units(_tiny_spec(), trials=trials, seed=5,
                              chunk_size=chunk)
        calls = _count_kernel_slice(monkeypatch)
        monkeypatch.setenv("REPRO_KERNEL", "1")
        self._judge(door, units)
        assert calls  # the counter sees the kernel when it is on
        calls.clear()
        monkeypatch.setenv("REPRO_KERNEL", "0")
        self._judge(door, units)
        assert calls == []


class TestPairedRefEngine:
    def test_paired_ref_equals_paired(self, monkeypatch):
        spec = _tiny_spec()
        monkeypatch.setenv("REPRO_KERNEL", "1")
        fast = run_experiment(spec, trials=8, seed=3, jobs=1)
        monkeypatch.setenv("REPRO_KERNEL", "0")
        ref = run_experiment(spec, trials=8, seed=3, jobs=1)
        assert _doc_of(fast) == _doc_of(ref)


class TestResolveJobs:
    def test_explicit_jobs_clamped_to_units(self):
        assert _resolve_jobs(8, 3) == 3
        assert _resolve_jobs(2, None) == 2
        assert _resolve_jobs(4, 0) == 1  # no units still means one worker

    def test_default_jobs_clamped_to_units(self):
        assert _resolve_jobs(None, 1) == 1


class _PoisonedPool:
    """ProcessPoolExecutor stand-in that fails the test if instantiated."""

    def __init__(self, *args, **kwargs):
        raise AssertionError(
            "a process pool was spawned for a single work unit"
        )


class TestSingleUnitInline:
    """One dispatched unit must run inline in the parent, pool-free."""

    @pytest.mark.parametrize(
        "front_end", ["run_experiment", "run_robustness", "run_sweep2d"]
    )
    def test_cold_single_unit_runs_inline(self, front_end, monkeypatch):
        spec = _tiny_spec()
        shape = dict(trials=6, seed=7, chunk_size=6)

        # trials == chunk_size and one sweep point: exactly one work
        # unit, which must run inline even at jobs=4.
        def run(jobs):
            if front_end == "run_experiment":
                return _doc_of(run_experiment(spec, jobs=jobs, **shape))
            if front_end == "run_robustness":
                result = run_robustness(
                    spec.series, [{}], lambda _c, m: spec.config_for(3, m),
                    jobs=jobs, **shape,
                )
                return repr(result.ratios)
            result = run_sweep2d(
                spec.config_for, (3,), ("PURE",), jobs=jobs, **shape
            )
            return repr(result.cells)

        baseline = run(1)
        monkeypatch.setattr(
            runner_mod, "ProcessPoolExecutor", _PoisonedPool
        )
        assert run(4) == baseline

    def test_warm_cache_single_missing_unit_runs_inline(
        self, monkeypatch, tmp_path
    ):
        spec = _tiny_spec()
        store = tmp_path / "store"
        cold = run_experiment(
            spec,
            trials=12,
            seed=7,
            jobs=1,
            chunk_size=6,
            cache=store,
        )
        # Warm re-run with one extra chunk of trials: only the new
        # chunk is dispatched, so even jobs=4 must stay pool-free.
        monkeypatch.setattr(
            runner_mod, "ProcessPoolExecutor", _PoisonedPool
        )
        warm = run_experiment(
            spec,
            trials=18,
            seed=7,
            jobs=4,
            chunk_size=6,
            cache=store,
        )
        baseline = run_experiment(
            spec, trials=18, seed=7, jobs=1, chunk_size=6
        )
        assert _doc_of(warm) == _doc_of(baseline)
        assert _doc_of(cold) != _doc_of(warm)  # more trials, new numbers
