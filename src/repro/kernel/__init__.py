"""Compiled trial kernel — flat integer-indexed fast paths.

Compiles a generated workload once into contiguous arrays
(:class:`CompiledWorkload`) and runs the trial hot loop — metric weight
evaluation, Algorithm SLICING, EDF list scheduling — against them,
bit-identical to the string-keyed reference implementation in
``repro.core`` / ``repro.sched`` (which stays available as the oracle
via ``REPRO_KERNEL=0``, or ``use_kernel=False`` per call).

A third tier, :mod:`repro.kernel.vec`, judges a whole seed batch as a
NumPy stage pipeline — batched estimates and weights, then a lockstep
EDF engine — still bit-identical.  The runner's paired work units and
the sweep fabric engage it for blocks of at least ``VEC_MIN_LANES`` seeds while
the kernel is enabled.

See ``docs/performance.md`` for the architecture and the measured
speedups.
"""

from .compiled import CompiledWorkload, compile_workload
from .edf import KernelSchedule, kernel_schedule_edf
from .metrics import KERNEL_METRIC_TYPES, kernel_weights
from .slicing import KernelAssignment, kernel_slice
from .trial import kernel_enabled, kernel_supported, run_trial_kernel

__all__ = [
    "CompiledWorkload",
    "compile_workload",
    "KernelAssignment",
    "kernel_slice",
    "KernelSchedule",
    "kernel_schedule_edf",
    "KERNEL_METRIC_TYPES",
    "kernel_weights",
    "kernel_enabled",
    "kernel_supported",
    "run_trial_kernel",
]
