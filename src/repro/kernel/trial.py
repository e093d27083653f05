"""Kernel trial execution: dispatch, support predicate, env switch.

The kernel replaces the string-keyed reference pipeline for the
configurations the Monte Carlo experiments actually sweep — relaxed
locality, the plain EDF list scheduler, the paper's four metrics.
Everything else (strict locality's clustering pre-assignment, the
SL/FIFO/LLF scheduler variants, custom metric objects) falls back to
the reference implementation, which remains the oracle the kernel is
tested bit-identical against.

``REPRO_KERNEL=0`` disables the kernel globally, the vectorized
seed-batch tier included (the environment is read per call, so tests
and the CLI can flip it without re-imports, and pool workers inherit
it); ``use_kernel=False`` at
:func:`~repro.experiments.runner.run_trial`,
:func:`~repro.experiments.runner.run_paired_cells` or
:func:`~repro.fabric.units.compute_unit` forces the reference path for
one call regardless of the environment.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING

from ..core.estimation import WCET_AVG, WCET_MAX, WCET_MIN, get_estimator
from ..core.metrics import get_metric
from ..system.interconnect import ContentionBus
from .metrics import KERNEL_METRIC_TYPES, kernel_weights
from .edf import kernel_schedule_edf
from .slicing import kernel_slice

if TYPE_CHECKING:  # pragma: no cover
    from ..experiments.context import TrialContext
    from ..experiments.spec import TrialConfig, TrialOutcome

__all__ = [
    "kernel_enabled",
    "kernel_supported",
    "run_trial_kernel",
]


def kernel_enabled() -> bool:
    """Whether the kernel fast path is globally enabled.

    Controlled by the ``REPRO_KERNEL`` environment variable: unset or
    any value but ``"0"`` means enabled.  Read on every call so a test
    or CLI invocation can flip it at runtime.
    """
    return os.environ.get("REPRO_KERNEL", "1") != "0"


def kernel_supported(config: "TrialConfig") -> bool:
    """Whether *config* lies inside the kernel's bit-identical envelope."""
    if config.locality != "relaxed":
        return False
    # Exactly the registry names resolving to the plain EDF scheduler
    # (subclasses substitute other priorities via a proxy assignment,
    # which the kernel heap cannot reproduce).
    if config.scheduler.upper() not in ("EDF-LIST", "EDF"):
        return False
    metric = config.metric
    if not isinstance(metric, str):
        return type(metric) in KERNEL_METRIC_TYPES
    return metric.upper().replace("_", "-") in (
        "PURE",
        "NORM",
        "ADAPT-G",
        "ADAPTG",
        "ADAPT-L",
        "ADAPTL",
    )


def run_trial_kernel(
    config: "TrialConfig", context: "TrialContext"
) -> "TrialOutcome":
    """One generate→slice→schedule trial on the compiled fast path.

    Produces the exact :class:`TrialOutcome` of the reference
    :func:`repro.experiments.runner.run_trial` for every supported
    config (see :func:`kernel_supported`); callers must gate on that
    predicate.
    """
    from ..experiments.spec import TrialOutcome

    cw = context.compiled
    metric = get_metric(config.metric, config.adaptive)
    est_obj = get_estimator(config.estimator)
    est_key = est_obj.name
    if (
        est_obj is WCET_AVG or est_obj is WCET_MAX or est_obj is WCET_MIN
    ):
        # The stateless per-task estimators combine the platform-valid
        # WCET rows directly — no string-keyed estimate map needed.
        est = cw.estimates_from_vals(est_key, est_obj.combine)
    else:
        # Graph-aware or custom strategies go through the reference map.
        est_map = context.estimates_for(config.estimator)
        est = cw.estimates_list(est_key, est_map)
    weights = kernel_weights(cw, metric, est, est_key=est_key)
    ka = kernel_slice(cw, metric, weights)

    comm = (
        ContentionBus(config.workload.bus_delay_per_item)
        if config.contention_bus
        else None
    )
    ks = kernel_schedule_edf(
        cw,
        ka.win_a,
        ka.win_d,
        comm=comm,
        continue_on_miss=config.measure_lateness,
    )

    if config.measure_lateness or ks.feasible:
        max_lateness = ks.max_lateness()
    else:
        max_lateness = float("nan")  # fail-fast schedules are partial
    return TrialOutcome(
        success=ks.feasible,
        degenerate=ka.degenerate,
        n_tasks=cw.n,
        min_laxity=ka.min_laxity(est),
        makespan=ks.makespan,
        max_lateness=max_lateness,
        failed_task=ks.failed_task,
    )
