"""Experiment specifications (the GAST-like evaluation driver's inputs).

A *trial* is one randomly generated workload pushed through the full
pipeline: generate → estimate WCETs → distribute deadlines (slicing
with one metric) → schedule (EDF baseline) → record success.  A
:class:`TrialConfig` pins every knob of one trial and is picklable, so
trials can fan out across worker processes.

An *experiment* (one figure of §6) sweeps an x variable and plots one
curve per series; :class:`ExperimentSpec` holds the sweep and a
config-factory mapping ``(x, series)`` to a :class:`TrialConfig`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from ..core.metrics import AdaptiveParams
from ..errors import ExperimentError
from ..workload.params import WorkloadParams

__all__ = ["TrialConfig", "TrialOutcome", "ExperimentSpec"]


@dataclass(frozen=True)
class TrialConfig:
    """Everything needed to run one reproducible trial (picklable)."""

    workload: WorkloadParams = field(default_factory=WorkloadParams)
    metric: str = "ADAPT-L"
    estimator: str = "WCET-AVG"
    adaptive: AdaptiveParams = field(default_factory=AdaptiveParams)
    contention_bus: bool = False
    scheduler: str = "EDF-LIST"
    #: Complete the schedule past deadline misses so the maximum
    #: lateness (§4.2's secondary quality measure, the criterion of
    #: reference [12]) is defined for every trial, feasible or not.
    measure_lateness: bool = False
    #: Locality regime.  ``"relaxed"`` (the paper's setting): assignment
    #: unknown, WCETs estimated per `estimator`, free placement.
    #: ``"strict"``: a clustering pre-assignment fixes every task's
    #: processor, estimates collapse to exact execution times, and the
    #: scheduler honours the assignment (cf. [1], [5]).
    locality: str = "relaxed"

    def __post_init__(self) -> None:
        if self.locality not in ("relaxed", "strict"):
            raise ExperimentError(
                f"unknown locality regime {self.locality!r}; "
                "choose 'relaxed' or 'strict'"
            )

    def describe(self) -> str:
        """One-line human-readable summary."""
        return (
            f"m={self.workload.m} metric={self.metric} "
            f"est={self.estimator} OLR={self.workload.olr:g} "
            f"ETD={self.workload.etd:.0%} CCR={self.workload.ccr:g}"
        )

    def to_dict(self) -> dict[str, Any]:
        """Canonical JSON document of every outcome-determining knob.

        This is the config half of the persistent result store's key
        (see :mod:`repro.store`): two configs produce the same trial
        outcomes for the same seeds iff these documents are equal, so
        every field that can change an outcome must appear here.
        """
        return {
            "workload": self.workload.to_dict(),
            "metric": self.metric,
            "estimator": self.estimator,
            "adaptive": {
                "k_g": self.adaptive.k_g,
                "k_l": self.adaptive.k_l,
                "c_thres": self.adaptive.c_thres,
                "c_thres_factor": self.adaptive.c_thres_factor,
            },
            "contention_bus": self.contention_bus,
            "scheduler": self.scheduler,
            "measure_lateness": self.measure_lateness,
            "locality": self.locality,
        }

    @classmethod
    def from_dict(cls, doc: dict[str, Any]) -> "TrialConfig":
        """Inverse of :meth:`to_dict`, an exact round-trip.

        The fabric's HTTP transport ships configs as these documents;
        a round-tripped config must produce byte-identical canonical
        JSON (and therefore the same store keys), which holds because
        JSON floats decode to the same float64 they encoded.
        """
        try:
            adaptive = doc["adaptive"]
            return cls(
                workload=WorkloadParams.from_dict(doc["workload"]),
                metric=doc["metric"],
                estimator=doc["estimator"],
                adaptive=AdaptiveParams(
                    k_g=adaptive["k_g"],
                    k_l=adaptive["k_l"],
                    c_thres=adaptive["c_thres"],
                    c_thres_factor=adaptive["c_thres_factor"],
                ),
                contention_bus=bool(doc["contention_bus"]),
                scheduler=doc["scheduler"],
                measure_lateness=bool(doc["measure_lateness"]),
                locality=doc["locality"],
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ExperimentError(
                f"malformed trial-config document: {exc}"
            ) from exc


@dataclass(frozen=True)
class TrialOutcome:
    """Result of one trial."""

    success: bool
    degenerate: bool
    n_tasks: int
    min_laxity: float
    makespan: float
    max_lateness: float
    failed_task: str | None = None


@dataclass
class ExperimentSpec:
    """One figure: an x sweep with one curve per series.

    ``config_for(x, series_label)`` must return the
    :class:`TrialConfig` for that cell.  The factory runs in the parent
    process only (workers receive ready-made configs), so closures are
    fine.
    """

    name: str
    title: str
    x_label: str
    x_values: Sequence[Any]
    series: Sequence[str]
    config_for: Callable[[Any, str], TrialConfig]
    description: str = ""
    paper_reference: str = ""

    def __post_init__(self) -> None:
        if not self.x_values:
            raise ExperimentError(f"experiment {self.name!r}: empty x sweep")
        if not self.series:
            raise ExperimentError(f"experiment {self.name!r}: no series")
        if len(set(self.series)) != len(self.series):
            raise ExperimentError(
                f"experiment {self.name!r}: duplicate series labels"
            )

    def cells(self) -> list[tuple[int, Any, int, str, TrialConfig]]:
        """Enumerate ``(x_index, x, series_index, series, config)``."""
        out = []
        for xi, x in enumerate(self.x_values):
            for si, label in enumerate(self.series):
                out.append((xi, x, si, label, self.config_for(x, label)))
        return out

    def cells_by_x(
        self,
    ) -> list[tuple[int, Any, list[tuple[int, str, TrialConfig]]]]:
        """Enumerate ``(x_index, x, [(series_index, series, config), ...])``.

        The grouping the runner's paired executor fans out over: one work
        unit covers *every* series of a sweep point, so each random
        workload is generated once and judged by all series (the paper's
        paired design over one fixed set of task graphs).
        """
        out: list[tuple[int, Any, list[tuple[int, str, TrialConfig]]]] = []
        for xi, x in enumerate(self.x_values):
            group = [
                (si, label, self.config_for(x, label))
                for si, label in enumerate(self.series)
            ]
            out.append((xi, x, group))
        return out
