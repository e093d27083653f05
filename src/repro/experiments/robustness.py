"""Robustness analysis across system configurations (the title claim).

The paper's headline property for ADAPT-L is not just that it wins at
one operating point, but that it is "extremely robust for various
system configurations".  This module turns that into a measurable
statement: evaluate every metric over a *grid* of configurations
(machine size × deadline tightness × execution-time spread × …), rank
the metrics within each configuration (paired workloads, so ranks are
meaningful), and report each metric's rank distribution and worst-case
regret.

Definitions, per configuration `c` and metric `M`:

* ``rank(M, c)`` — 1 + number of metrics with strictly higher success
  ratio at `c` (1 = best, ties share the better rank);
* ``regret(M, c)`` — ``best_ratio(c) − ratio(M, c)``.

A robust metric has rank ≈ 1 almost everywhere and small worst-case
regret.  Configurations where *every* metric saturates (or fails
completely) are excluded from ranking — nothing is being discriminated
there.

A configuration is one sweep point of the runner's paired executor
(:func:`~repro.experiments.runner.run_points`): every metric is a cell
of it, judged on the configuration's shared workload seeds.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Sequence

from ..analysis.tables import format_table
from ..errors import ExperimentError
from .runner import CellResult, run_points
from .spec import TrialConfig

__all__ = ["RobustnessResult", "run_robustness", "robustness_table"]


@dataclass
class RobustnessResult:
    """Rank statistics of each metric over a configuration grid."""

    metrics: list[str]
    configurations: list[Mapping[str, Any]]
    ratios: dict[tuple[int, str], CellResult] = field(default_factory=dict)
    trials_per_cell: int = 0
    seed: int = 0
    elapsed_seconds: float = 0.0
    #: Configurations that discriminated (not all-saturated/all-failed).
    informative: list[int] = field(default_factory=list)

    def ratio(self, config_index: int, metric: str) -> float:
        return self.ratios[(config_index, metric)].ratio

    def ranks(self, metric: str) -> list[int]:
        """This metric's rank in every informative configuration."""
        out = []
        for ci in self.informative:
            mine = self.ratio(ci, metric)
            better = sum(
                1 for m in self.metrics if self.ratio(ci, m) > mine + 1e-12
            )
            out.append(1 + better)
        return out

    def mean_rank(self, metric: str) -> float:
        ranks = self.ranks(metric)
        return sum(ranks) / len(ranks) if ranks else float("nan")

    def worst_rank(self, metric: str) -> int:
        ranks = self.ranks(metric)
        return max(ranks) if ranks else 0

    def first_place_share(self, metric: str) -> float:
        ranks = self.ranks(metric)
        if not ranks:
            return float("nan")
        return sum(1 for r in ranks if r == 1) / len(ranks)

    def max_regret(self, metric: str) -> float:
        worst = 0.0
        for ci in self.informative:
            best = max(self.ratio(ci, m) for m in self.metrics)
            worst = max(worst, best - self.ratio(ci, metric))
        return worst


def run_robustness(
    metrics: Sequence[str],
    configurations: Sequence[Mapping[str, Any]],
    config_builder: Callable[[Mapping[str, Any], str], TrialConfig],
    *,
    trials: int = 128,
    seed: int = 2026,
    jobs: int | None = None,
    chunk_size: int = 32,
    saturation: float = 0.98,
    floor: float = 0.02,
) -> RobustnessResult:
    """Evaluate *metrics* over *configurations* and rank them.

    ``config_builder(configuration, metric)`` must return the
    :class:`TrialConfig` for that cell.  Each configuration is one
    paired sweep point: its workload seeds are shared by every metric
    (paired ranking).  ``trials``/``jobs``/``chunk_size`` are checked
    and executed as in :func:`~repro.experiments.runner.run_points`.
    Configurations where every metric lands above *saturation* or below
    *floor* are excluded from the rank statistics.
    """
    if not metrics:
        raise ExperimentError("need at least one metric")
    if len(set(metrics)) != len(metrics):
        raise ExperimentError("duplicate metrics")
    if not configurations:
        raise ExperimentError("need at least one configuration")
    start = time.perf_counter()
    points = [
        (ci, [(mi, config_builder(conf, m)) for mi, m in enumerate(metrics)])
        for ci, conf in enumerate(configurations)
    ]
    cells, _stats = run_points(
        points, trials=trials, seed=seed, jobs=jobs, chunk_size=chunk_size
    )
    result = RobustnessResult(
        metrics=list(metrics),
        configurations=list(configurations),
        ratios={(ci, metrics[mi]): cell for (ci, mi), cell in cells.items()},
        trials_per_cell=trials,
        seed=seed,
    )
    for ci in range(len(configurations)):
        values = [result.ratio(ci, m) for m in metrics]
        if max(values) < floor or min(values) > saturation:
            continue
        result.informative.append(ci)

    result.elapsed_seconds = time.perf_counter() - start
    return result


def robustness_table(result: RobustnessResult) -> str:
    """Summary table: mean/worst rank, first-place share, max regret."""
    rows = []
    for metric in result.metrics:
        rows.append(
            [
                metric,
                f"{result.mean_rank(metric):.2f}",
                result.worst_rank(metric),
                f"{result.first_place_share(metric):.0%}",
                f"{result.max_regret(metric):.3f}",
            ]
        )
    header = (
        f"{len(result.informative)} informative / "
        f"{len(result.configurations)} configurations, "
        f"{result.trials_per_cell} trials each"
    )
    return header + "\n" + format_table(
        ["metric", "mean rank", "worst rank", "1st place", "max regret"],
        rows,
    )
