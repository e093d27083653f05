"""Qualitative reproduction checks against the paper's claims (§6).

These use reduced trial counts (the statistics stay decisive because
the claimed effects are large); the full-scale reproduction lives in
the benchmark harness and EXPERIMENTS.md.
"""

import pytest

from repro.experiments import TrialConfig, run_paired_cells
from repro.experiments.runner import _cell_seeds
from repro.workload import WorkloadParams

TRIALS = 48


def ratio(metric="ADAPT-L", estimator="WCET-AVG", cell=0, **workload):
    config = TrialConfig(
        workload=WorkloadParams(**workload), metric=metric, estimator=estimator
    )
    seeds = _cell_seeds(20260706, cell, TRIALS)
    [(_si, cell)] = run_paired_cells([(0, config)], seeds)
    return cell.ratio


class TestFigure2Shapes:
    """Success ratio vs system size."""

    def test_success_rises_with_m(self):
        small = ratio(metric="PURE", m=2)
        large = ratio(metric="PURE", m=6, cell=1)
        assert large > small + 0.3

    def test_adapt_l_dominates_at_three_processors(self):
        rl = ratio(metric="ADAPT-L", m=3)
        rp = ratio(metric="PURE", m=3)
        assert rl > rp

    def test_paper_ordering_at_default_operating_point(self):
        rs = {m: ratio(metric=m, m=3) for m in ("PURE", "NORM", "ADAPT-G", "ADAPT-L")}
        assert rs["ADAPT-L"] >= rs["ADAPT-G"] >= rs["NORM"] >= rs["PURE"]

    def test_adapt_l_beats_adapt_g_on_two_processors(self):
        # Paper: "four times higher" at m=2; assert a clear gap.
        rl = ratio(metric="ADAPT-L", m=2)
        rg = ratio(metric="ADAPT-G", m=2)
        assert rl > rg + 0.1


class TestFigure3Shapes:
    """Success ratio vs OLR at m=3."""

    def test_success_rises_with_olr(self):
        tight = ratio(metric="NORM", m=3, olr=0.5)
        loose = ratio(metric="NORM", m=3, olr=1.0, cell=1)
        assert loose > tight + 0.2

    def test_adapt_l_leads_at_tight_deadlines(self):
        rl = ratio(metric="ADAPT-L", m=3, olr=0.6)
        rp = ratio(metric="PURE", m=3, olr=0.6)
        assert rl > rp


class TestFigure4Shapes:
    """Success ratio vs ETD at m=3, OLR=0.8."""

    def test_etd_zero_convergence(self):
        """PURE, NORM and ADAPT-G coincide exactly at ETD = 0 (paper §6.3).

        With identical execution times every metric distributes D/n per
        path task, so the three produce *identical* assignments — we
        assert equal success counts, the strongest form of the claim.
        """
        rs = {
            m: ratio(metric=m, m=3, etd=0.0)
            for m in ("PURE", "NORM", "ADAPT-G")
        }
        assert len(set(rs.values())) == 1

    def test_adapt_l_ahead_at_etd_zero(self):
        base = ratio(metric="PURE", m=3, etd=0.0)
        rl = ratio(metric="ADAPT-L", m=3, etd=0.0)
        assert rl > base


class TestWcetStrategyShapes:
    """Figures 5–6: WCET estimation strategies under ADAPT-L."""

    def test_strategies_comparable_at_default_etd(self):
        # Paper: MAX ~ +5% over AVG, MIN ~ -5%; with reduced trials we
        # assert the weaker, robust form: all three land in one band.
        rs = {
            e: ratio(estimator=e, m=3, olr=0.7)
            for e in ("WCET-AVG", "WCET-MAX", "WCET-MIN")
        }
        assert max(rs.values()) - min(rs.values()) < 0.35

    def test_max_not_best_at_extreme_etd(self):
        # Paper §6.4: WCET-MAX degrades past ETD = 75%.
        rmax = ratio(estimator="WCET-MAX", m=3, etd=1.0, olr=0.6)
        ravg = ratio(estimator="WCET-AVG", m=3, etd=1.0, olr=0.6)
        assert rmax <= ravg + 0.15


class TestAdaptivityParameters:
    """§7.1: k = 0 reduces the adaptive metrics to PURE."""

    def test_k_zero_equals_pure(self):
        from repro.core import AdaptiveParams

        config_pure = TrialConfig(
            workload=WorkloadParams(m=3), metric="PURE"
        )
        config_k0 = TrialConfig(
            workload=WorkloadParams(m=3),
            metric="ADAPT-L",
            adaptive=AdaptiveParams(k_l=0.0),
        )
        seeds = _cell_seeds(77, 0, 24)
        (_, pure), (_, k0) = run_paired_cells(
            [(0, config_pure), (1, config_k0)], seeds
        )
        assert pure.estimate == k0.estimate
