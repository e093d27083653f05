"""End-to-end smoke test of the vectorized tier (used by CI).

Two gates, each fatal:

1. **Sweep bit-identity** — a fig2 sweep through ``python -m repro
   sweep --workers 0`` (64-seed work units, so every unit runs through
   the seed-batch driver) must print the byte-identical report, and
   write the identical result document, of the same sweep under
   ``REPRO_KERNEL=0`` (the reference oracle on every layer).  This is
   the oracle contract on the full user path: CLI → fabric → batch
   driver → slicing → EDF → merge → report.
2. **Speedup floor** — the batched stage pipeline (estimates → weights
   → lockstep EDF over a seed batch, all four metrics folded into one
   EDF call) must beat the same stages through the per-lane compiled
   kernel by at least ``VEC_SMOKE_TARGET`` (default 2.0× — a smoke
   floor loose enough for loaded CI boxes; the calibrated ≥4× gate
   lives in ``scripts/bench_runner.py`` / ``BENCH_runner.json``),
   with every lane's schedule bit-identical.

Usage::

    PYTHONPATH=src python scripts/vec_smoke.py
    make vec-smoke
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

FIGURE = "fig2"
#: One 64-seed unit per sweep point: the auto unit width, wide enough
#: for the seed-batch driver to engage.
TRIALS = "64"
SMOKE_LANES = 256
SMOKE_REPEATS = 3


def run_once(workdir: Path, env_overrides: dict[str, str]) -> tuple[str, str]:
    """One CLI sweep into a fresh store under *workdir*; returns the
    report text (wall clock and fabric timing line dropped) and the
    canonical result document (wall clock dropped)."""
    env = dict(os.environ)
    env.update(env_overrides)
    out = workdir / "out"
    proc = subprocess.run(
        [
            sys.executable, "-m", "repro", "sweep", FIGURE,
            "--trials", TRIALS, "--workers", "0",
            "--store", str(workdir / "store"), "--out", str(out),
        ],
        capture_output=True,
        text=True,
        env=env,
    )
    if proc.returncode != 0:
        print(proc.stdout)
        print(proc.stderr, file=sys.stderr)
        raise SystemExit(f"FATAL: CLI exited {proc.returncode} ({env_overrides})")
    report = re.sub(r"elapsed=\S+", "elapsed=*", proc.stdout)
    report = re.sub(r"(?m)^fabric: .*$", "fabric: *", report)
    doc = json.loads((out / f"{FIGURE}.json").read_text())
    doc.pop("elapsed_seconds")
    return report, json.dumps(doc, sort_keys=True)


def stage_speedup() -> float:
    """Best-of-``SMOKE_REPEATS`` interleaved stage-pipeline ratio."""
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from bench_runner import vec_leg  # noqa: E402 - sibling script

    kernel_s, vec_s, lanes = vec_leg(SMOKE_LANES, SMOKE_REPEATS, 8)
    print(
        f"stage pipeline: kernel {kernel_s:.3f} s, vec {vec_s:.3f} s "
        f"({lanes} lanes, bit-identical)"
    )
    return kernel_s / vec_s


def main() -> int:
    target = float(os.environ.get("VEC_SMOKE_TARGET", "2.0"))
    failures = []

    with tempfile.TemporaryDirectory(prefix="vec-smoke-") as tmp:
        reference = run_once(Path(tmp) / "ref", {"REPRO_KERNEL": "0"})
        print(f"reference sweep (REPRO_KERNEL=0): "
              f"{len(reference[0])} bytes of report")
        vec = run_once(Path(tmp) / "vec", {"REPRO_KERNEL": "1"})
        print(f"vec sweep       (REPRO_KERNEL=1): {len(vec[0])} bytes of report")
    if vec[0] != reference[0]:
        failures.append("vec sweep report differs from the reference report")
    if vec[1] != reference[1]:
        failures.append("vec sweep result document differs from the reference")

    speedup = stage_speedup()
    print(f"vec stage speedup: {speedup:.2f}x (floor {target}x)")
    if speedup < target:
        failures.append(
            f"vec stage speedup {speedup:.2f}x is below the {target}x floor"
        )

    for failure in failures:
        print(f"FATAL: {failure}", file=sys.stderr)
    if failures:
        return 1
    print("vec smoke OK: bit-identical sweeps, speedup floor cleared")
    return 0


if __name__ == "__main__":
    sys.exit(main())
