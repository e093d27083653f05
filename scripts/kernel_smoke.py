#!/usr/bin/env python
"""End-to-end smoke test of the kernel's oracle contract (used by CI).

Runs a tiny sweep twice through ``python -m repro experiment`` at the
CLI boundary — once with ``REPRO_KERNEL=0`` (string-keyed reference
pipeline) and once with ``REPRO_KERNEL=1`` (compiled kernel, the
default) — and requires the two printed reports to match byte for
byte.  This is the bit-identity contract of ``repro.kernel`` enforced
on the full path the users take: CLI → experiment runner → trial →
slicing → EDF → report formatting.

A third run repeats the reference under ``REPRO_KERNEL=0 --jobs 2``:
its one unit per sweep point runs in process-pool workers, which
inherit the switch, and the report must match the ``--jobs 1``
reference.

Exits non-zero with a diagnostic on any divergence.

Usage::

    PYTHONPATH=src python scripts/kernel_smoke.py
    make kernel-smoke
"""

from __future__ import annotations

import os
import re
import subprocess
import sys

FIGURE = "fig2"
TRIALS = "8"


def run_once(kernel: str, jobs: str = "1") -> str:
    """One CLI run; returns the report text (wall-clock normalized)."""
    env = dict(os.environ)
    env["REPRO_KERNEL"] = kernel
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "repro",
            "experiment",
            FIGURE,
            "--trials",
            TRIALS,
            "--jobs",
            jobs,
        ],
        capture_output=True,
        text=True,
        env=env,
    )
    if proc.returncode != 0:
        print(proc.stdout)
        print(proc.stderr, file=sys.stderr)
        raise SystemExit(
            f"FATAL: CLI exited {proc.returncode} "
            f"(REPRO_KERNEL={kernel}, --jobs {jobs})"
        )
    # Wall-clock is the one legitimately non-deterministic part of the
    # report; everything else must match byte for byte.
    return re.sub(r"elapsed=\S+", "elapsed=*", proc.stdout)


def main() -> int:
    reference = run_once("0")
    print(f"reference run (REPRO_KERNEL=0): {len(reference)} bytes of report")
    kernel = run_once("1")
    print(f"kernel run    (REPRO_KERNEL=1): {len(kernel)} bytes of report")

    failures = []
    if kernel != reference:
        failures.append(
            "REPRO_KERNEL=1 report differs from the REPRO_KERNEL=0 report"
        )

    pooled = run_once("0", jobs="2")
    print(f"pooled run    (REPRO_KERNEL=0, --jobs 2): {len(pooled)} bytes")
    if pooled != reference:
        failures.append(
            "REPRO_KERNEL=0 --jobs 2 report differs from the --jobs 1 "
            "reference report"
        )

    for failure in failures:
        print(f"FATAL: {failure}", file=sys.stderr)
    if failures:
        return 1
    print("kernel smoke OK: kernel and reference reports are byte-identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())
