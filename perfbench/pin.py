"""Regenerate ``pins.json``: the fig2 result digest of each front door
per sweep seed, at the benchmark's trial count.

For every sweep seed both front doors run in fresh interpreters; their
success counts must agree, and every cell of each must equal the
reference pipeline's at the same chunk width.  Only then is the seed
pinned.  Seeds already in the file are kept as they are; to re-pin,
delete the file first.  Re-pin only when a change is meant to alter
results (a new generator, new aggregation), and say so in the change.

A run times one of the pinned seeds, chosen by its ``--seed``, as
often as its ``--seconds`` allow.

Usage, from the repository root (pins sweep seeds LO..HI-1)::

    python3 perfbench/pin.py 166 176
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

import run

def main() -> int:
    lo, hi = int(sys.argv[1]), int(sys.argv[2])
    out = run.HERE / "pins.json"
    pins = json.loads(out.read_text()) if out.exists() else {}
    if pins.get("trials") != run.TRIALS:
        pins = {"trials": run.TRIALS, "chunk": run.CHUNK, "seeds": {}}
        out.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    Path(".perfbench_work").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=".perfbench_work") as tmp:
        bench = run.Bench(argparse.Namespace(seed=0, seconds=0, trace=0), Path(tmp))
        bench.deadline += 1e6  # pinning has no run time limit
        for seed in range(lo, hi):
            if str(seed) in pins["seeds"]:
                continue
            entry: dict = {}
            for door in ("experiment", "sweep"):
                doc, _ = bench.sweep_leg(door, seed, 0)
                ref, _ = bench.leg("sweep_leg.py", "--door", "reference",
                                   "--chunk", str(run.CHUNK[door]), "--seed", str(seed),
                                   "--trials", str(run.TRIALS))
                if doc["cells"] != ref["cells"]:
                    print(f"seed {seed}: {door} differs from the reference pipeline")
                    return 1
                if entry.setdefault("successes", doc["successes"]) != doc["successes"]:
                    print(f"seed {seed}: success counts differ across front doors")
                    return 1
                entry[door] = doc["digest"]
            pins["seeds"][str(seed)] = entry
            out.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
            print(f"seed {seed}: pinned", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
