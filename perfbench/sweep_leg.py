"""One fig2 sweep in a fresh interpreter; prints one JSON line.

``--door experiment`` times ``run_experiment(jobs=1)`` (default chunk
width, no store): the ``repro experiment`` path.  ``--door sweep``
times ``run_sweep(workers=0)`` into a fresh store directory: the
``repro sweep --workers 0`` path.  The store is opened before the
timed call, because opening it is set-up.

``--door reference`` is the oracle ``pin.py`` checks both front doors
against before it pins a seed: it judges every cell through the
string-keyed reference pipeline, chunked ``--chunk`` seeds wide and
merged in the runner's order, and prints those cells.

Untraced, each work unit is timed, and host-speed reference pieces
(``hostspeed.py``) run after each unit; ``sweep_s`` excludes them.
With ``--trace 1`` spans are recorded around the public calls of every
layer and the span table is printed instead.

Run from the repository root: ``python3 perfbench/sweep_leg.py --door
sweep --seed 1 --trials 64 --trace 0 --workdir /tmp/x``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, "src")

import hostspeed  # noqa: E402
import spans  # noqa: E402

#: Host-speed reference pieces run after each work unit of an untraced
#: sweep: 42 to 84 per sweep, spread over it.
PIECES_PER_UNIT = 6


def result_digest(result) -> str:
    """SHA-256 of the result document without its wall time."""
    doc = result.to_dict()
    doc.pop("elapsed_seconds")
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def cell_docs(cells) -> dict[str, str]:
    """``"x,series" -> canonical JSON`` of each cell (NaN-safe equality)."""
    return {f"{xi},{si}": json.dumps(c.to_dict(), sort_keys=True)
            for (xi, si), c in sorted(cells.items())}


def reference_cells(spec, trials: int, seed: int, chunk: int) -> dict:
    from repro.experiments.runner import run_paired_cells
    from repro.fabric import extract_units

    cells = {}
    for unit in extract_units(spec, trials=trials, seed=seed, chunk_size=chunk):
        for si, part in run_paired_cells(list(unit.cells), list(unit.seeds), use_kernel=False):
            key = (unit.x_index, si)
            cells[key] = cells[key].merged(part) if key in cells else part
    return cells


def install_layer_spans(tracer: spans.Tracer) -> None:
    import repro.experiments.runner as runner
    import repro.fabric.coordinator as coordinator
    import repro.fabric.transport as transport
    import repro.fabric.units as units
    import repro.kernel.compiled as compiled
    import repro.kernel.edf as edf
    import repro.kernel.metrics as kmetrics
    import repro.kernel.slicing as kslicing
    import repro.kernel.vec as vec
    import repro.store.trialstore as trialstore
    import repro.workload.generator as generator

    def count(name):
        return lambda args, kwargs, result: tracer.count(name)

    def lanes(args, kwargs, result):
        tracer.count("vec.batch_calls")
        tracer.count("vec.lanes", len(args[0]))

    tracer.wrap(generator, "generate_workload", "workload.generate")
    tracer.wrap(compiled, "compile_workload", "kernel.compile")
    tracer.wrap(kmetrics, "kernel_weights", "kernel.weights")
    tracer.wrap(kslicing, "kernel_slice", "kernel.slice", on_result=count("kernel.trials"))
    tracer.wrap(edf, "kernel_schedule_edf", "kernel.edf")
    tracer.wrap(vec, "vec_estimates_batch", "vec.weights")
    tracer.wrap(vec, "vec_weights_batch", "vec.weights", on_result=lanes)
    tracer.wrap(vec, "vec_schedule_edf_batch", "vec.edf")
    tracer.wrap(runner.CellResult, "merged", "runner.merge")
    tracer.wrap(trialstore.TrialStore, "get", "store.get")
    tracer.wrap(trialstore.TrialStore, "put_many", "store.put_many")
    tracer.wrap(coordinator.FabricCoordinator, "__init__", "fabric.shard")
    tracer.wrap(transport.LocalTransport, "lease_batch", "fabric.lease")
    tracer.wrap(units, "compute_units", "fabric.compute")
    tracer.wrap(transport.LocalTransport, "complete_batch", "fabric.commit")
    tracer.wrap(coordinator.FabricCoordinator, "merge", "fabric.merge")


def install_unit_timer(marks: list, pieces: list) -> None:
    """Time each paired work unit (``run_paired_cells``) for the
    per-trial latency figures, one clock pair per unit, no spans; after
    each unit run ``PIECES_PER_UNIT`` host-speed reference pieces."""
    import repro.experiments.runner as runner

    original = runner.run_paired_cells

    def timed(cells, seeds, *args, **kwargs):
        t0 = time.perf_counter()
        out = original(cells, seeds, *args, **kwargs)
        marks.append((time.perf_counter() - t0, len(seeds)))
        pieces.extend(hostspeed.sample(PIECES_PER_UNIT))
        return out

    spans.rebind(runner, "run_paired_cells", timed)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--door", choices=("experiment", "sweep", "reference"), required=True)
    ap.add_argument("--chunk", type=int, default=32, help="reference chunk width")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trials", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    args = ap.parse_args()

    from repro.experiments.figures import fig2_system_size
    from repro.experiments.runner import run_experiment
    from repro.fabric import run_sweep
    from repro.store import TrialStore

    spec = fig2_system_size()
    if args.door == "reference":
        cells = reference_cells(spec, args.trials, args.seed, args.chunk)
        print(json.dumps({"cells": cell_docs(cells),
                          "successes": [c.estimate.successes for _k, c in sorted(cells.items())]}))
        return 0
    store = TrialStore(Path(args.workdir) / "store") if args.door == "sweep" else None
    tracer = spans.Tracer()
    marks: list[tuple[float, int]] = []
    pieces: list[float] = []
    if args.trace:
        install_layer_spans(tracer)
    else:
        install_unit_timer(marks, pieces)

    ready = time.monotonic()
    root = tracer.root("sweep") if args.trace else None
    t0 = time.perf_counter()
    report = None
    if store is None:
        result = run_experiment(spec, trials=args.trials, seed=args.seed, jobs=1)
    else:
        outcome = run_sweep(spec, trials=args.trials, seed=args.seed, workers=0, store=store)
        result, report = outcome.result, outcome.report
    wall = time.perf_counter() - t0 - sum(pieces)
    if root is not None:
        tracer.close(root)

    out = {
        "ready": ready,
        "sweep_s": wall,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "digest": result_digest(result),
        "successes": [c.estimate.successes for _k, c in sorted(result.cells.items())],
        "trials": sum(c.trials for c in result.cells.values()),
        "cells": cell_docs(result.cells),
        "unit_s": [m[0] for m in marks],
        "unit_seeds": [m[1] for m in marks],
        "pieces_s": pieces,
    }
    if args.trace:
        out["table"] = tracer.table()
        out["counters"] = dict(tracer.counters)
        if store is not None:
            stats = store.stats()
            out["store"] = {"appends": stats.appends, "bytes": stats.bytes,
                            "hits": stats.hits, "misses": stats.misses}
        if report is not None:
            out["fabric"] = {"leases": report.leases, "completions": report.completions}
    if store is not None:
        store.close()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
