"""The repository benchmark: one workload per run, every metric printed
by name with its unit, outputs checked.

Usage, from the repository root::

    python3 perfbench/run.py --workload fig2_sweep --seed 1 --seconds 45 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a separate traced run (see ``README.md`` in this
directory).  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  A run
whose checks fail prints ``"correct": false`` with no metrics and exits
with status 1.  Every timed leg runs in a fresh interpreter.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
import selftest  # noqa: E402

WORKLOADS = ("fig2_experiment", "fig2_sweep", "serve_mixed")
#: Trials per cell of the timed fig2 sweeps (7 x-points x 4 metrics).
TRIALS = 64
#: Seed-chunk width each front door uses at TRIALS: run_experiment's
#: default, and the fabric's vec-aware auto width.
CHUNK = {"experiment": 32, "sweep": 64}
#: Open-loop rate of serve_mixed: about a fifth of the ~250 req/s the
#: single worker sustains closed-loop on a 2-CPU host, so queueing adds
#: little to the latencies and a slower host does not inflate them
#: out of proportion.
RATE = 50.0
#: Untraced/traced leg pairs of a traced fig2 run.
TRACED_PAIRS = 3
#: Timed requests of each serve_mixed pass, so ten lie beyond p99.
TIMED = 1000
#: Wall seconds budgeted per serve_mixed pass (two server starts, the
#: open loop's TIMED / RATE seconds, the closed loop and the host-speed
#: pieces): --seconds 45 makes 2 passes.
PASS_SECONDS = 26
#: Knobs that select non-default tiers; unset so the defaults are measured.
PINNED_ENV = ("REPRO_VEC", "REPRO_KERNEL", "REPRO_VEC_FASTMATH", "REPRO_VEC_NO_NUMPY")
#: Every leg of a run must finish within this many seconds of its start.
RUN_LIMIT_S = 165


class CheckFailed(Exception):
    pass


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile, as ``statistics.quantiles(n=100)`` cuts it."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


class Bench:
    def __init__(self, args, work: Path):
        self.args = args
        self.work = work
        self.env = {k: v for k, v in os.environ.items() if k not in PINNED_ENV}
        self.env["PYTHONPATH"] = "src"
        self.attempted = 0
        self.failed = 0
        self.legs = 0
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.pins = json.loads((HERE / "pins.json").read_text())

    def leg(self, script: str, *argv: str) -> tuple[dict, float]:
        """Run one leg in a fresh interpreter; ``(doc, spawn_time)``.

        The leg gets its own process group, so a leg that overruns the
        run's deadline is killed together with any server it started.
        """
        self.legs += 1
        workdir = self.work / f"leg{self.legs}"
        workdir.mkdir(parents=True)
        cmd = [sys.executable, str(HERE / script), *argv, "--workdir", str(workdir)]
        spawned = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                text=True, env=self.env, start_new_session=True)
        try:
            out, err = proc.communicate(timeout=max(1.0, self.deadline - spawned))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise CheckFailed(f"{script} {' '.join(argv)} overran the run's time limit")
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        if proc.returncode != 0:
            sys.stderr.write(err)
            raise CheckFailed(f"{script} {' '.join(argv)} exited {proc.returncode}")
        return json.loads(out.strip().splitlines()[-1]), spawned

    # -- fig2 ---------------------------------------------------------
    def sweep_seeds(self) -> list[int]:
        """The pinned sweep seeds in an order shuffled by ``--seed``; a
        run times them in this order, so every sweep it makes is checked
        against its pin."""
        check(self.pins["trials"] == TRIALS,
              f"pins.json is for {self.pins['trials']} trials per cell, the benchmark "
              f"runs {TRIALS}; regenerate it with perfbench/pin.py")
        pool = sorted(int(seed) for seed in self.pins["seeds"])
        return random.Random(self.args.seed).sample(pool, len(pool))

    def sweep_leg(self, door: str, seed: int, trace: int) -> tuple[dict, float]:
        doc, spawned = self.leg("sweep_leg.py", "--door", door, "--seed", str(seed),
                                "--trials", str(TRIALS), "--trace", str(trace))
        doc["seed"] = seed
        self.attempted += doc["trials"]
        return doc, spawned

    def check_sweeps(self, door: str, docs: list[dict]) -> None:
        """Each sweep's digest and success counts against its pin."""
        for doc in docs:
            entry = self.pins["seeds"][str(doc["seed"])]
            check(doc["successes"] == entry["successes"],
                  f"{door} seed {doc['seed']}: success counts differ from the other front door")
            check(doc["digest"] == entry[door],
                  f"{door} seed {doc['seed']}: result digest differs from the pinned one")
        print(f"check: {len(docs)} sweep(s) through the {door} front door match their "
              "pinned digests and the other front door's success counts")

    def fig2(self, door: str) -> dict:
        """As many sweeps as fit in ``--seconds`` (at least 3), each on
        its own pinned sweep seed and in a fresh interpreter; every
        timing scaled to the reference host speed measured during its
        own sweep (``hostspeed.py``), then the median over the sweeps."""
        if self.args.trace:
            return self.fig2_traced(door)
        seeds = self.sweep_seeds()
        docs, setups, legs_s = [], [], [0.0]
        start = time.monotonic()
        while len(docs) < len(seeds) and (
                len(docs) < 3 or time.monotonic() - start + max(legs_s) <= self.args.seconds):
            doc, spawned = self.sweep_leg(door, seeds[len(docs)], 0)
            legs_s.append(time.monotonic() - spawned)
            docs.append(doc)
            setups.append(doc["ready"] - spawned)
        self.check_sweeps(door, docs)
        scale = [hostspeed.factor(d["pieces_s"]) for d in docs]
        sweeps = [d["sweep_s"] * f for d, f in zip(docs, scale)]
        per_trial_ms = [1e3 * t * f / n for d, f in zip(docs, scale)
                        for t, n in zip(d["unit_s"], d["unit_seeds"])]
        sweep_s = statistics.median(sweeps)
        walls = sorted(d["sweep_s"] for d in docs)
        print(f"info: {len(docs)} sweeps of {docs[0]['trials']} trials; measured wall "
              f"{walls[0]:.3f}..{walls[-1]:.3f} s (median {statistics.median(walls):.3f}), "
              f"host-speed scale {min(scale):.3f}..{max(scale):.3f}; latency over "
              f"{len(per_trial_ms)} work units, ms per trial")
        return {
            "sweep_s": sweep_s,
            "serve_rps": docs[0]["trials"] / sweep_s,
            "latency_p50_ms": quantile(per_trial_ms, 50),
            "latency_p99_ms": quantile(per_trial_ms, 99),
            "setup_s": statistics.median(x * f for x, f in zip(setups, scale)),
            "peak_rss_mb": statistics.median(d["rss_mb"] for d in docs),
        }

    def fig2_traced(self, door: str) -> dict:
        """Untraced and traced legs of one sweep, alternated
        ``TRACED_PAIRS`` times; the span table is the last traced leg's,
        ``trace.overhead_s`` the fastest traced minus the fastest
        untraced wall time."""
        seed = self.sweep_seeds()[0]
        plain, traced = [], []
        for _ in range(TRACED_PAIRS):
            plain.append(self.sweep_leg(door, seed, 0)[0])
            traced.append(self.sweep_leg(door, seed, 1)[0])
        self.check_sweeps(door, plain + traced)
        overhead_s = min(d["sweep_s"] for d in traced) - min(d["sweep_s"] for d in plain)
        traced = traced[-1]
        table = traced["table"]
        out = layer_times(table, "sweep")
        counters = traced["counters"]
        out["kernel.trials"] = counters["kernel.trials"]
        calls = counters.get("vec.batch_calls")
        if calls:
            out["vec.batch_calls"] = calls
            out["vec.lanes_mean"] = counters["vec.lanes"] / calls
        if "store" in traced:  # the sweep front door
            store, fabric = traced["store"], traced["fabric"]
            out["store.records_written"] = store["appends"]
            out["store.bytes_written"] = store["bytes"]
            out["store.hit_rate"] = store["hits"] / (store["hits"] + store["misses"])
            out["fabric.leases"] = fabric["leases"]
            out["fabric.completion_ratio"] = fabric["completions"] / fabric["leases"]
        out["trace.overhead_s"] = overhead_s
        print_table(table, "sweep")
        return out

    # -- serve --------------------------------------------------------
    def serve_leg(self, phase: str, *extra: str) -> tuple[dict, float]:
        return self.leg("serve_leg.py", "--phase", phase, "--seed", str(self.args.seed),
                        "--timed", str(TIMED), "--rate", str(RATE), *extra)

    def check_serve(self, doc: dict) -> None:
        for phase in ("closed", "open"):
            part = doc[phase]
            self.attempted += part["attempted"]
            self.failed += part["failed"]
            check(part["failed"] == 0, f"serve {phase}: {part['failed']} of "
                  f"{part['attempted']} requests failed (non-2xx, timeout or connection error)")
            check(not part["problems"], f"serve {phase}: " + "; ".join(part["problems"][:5]))
            print(f"check: serve {phase} loop: all {part['attempted']} requests succeeded, "
                  "repeats byte-identical, subsample matches distribute_deadlines")

    def serve(self) -> dict:
        if self.args.trace:
            return self.serve_traced()
        passes = max(1, round(self.args.seconds / PASS_SECONDS))
        doc, spawned = self.serve_leg("http", "--passes", str(passes))
        self.check_serve(doc)
        closed, lat = doc["closed"], doc["open"]["latencies_ms"]
        print(f"info: {doc['passes']} passes, each against fresh servers: closed loop "
              f"{closed['requests']} requests on {os.cpu_count()} connections, open loop "
              f"{len(lat)} requests at {RATE:g}/s ({len(lat) - int(len(lat) * 0.99)} beyond "
              "p99); fastest pass of each request (open) and each chunk (closed); "
              f"host-speed scale {', '.join(f'{f:.3f}' for f in doc['scale'])}; unscaled "
              f"closed wall {closed['raw_wall_s']:.3f} s, open p50 "
              f"{quantile(doc['open']['raw_latencies_ms'], 50):.3f} ms")
        return {
            "sweep_s": closed["wall_s"],
            "serve_rps": closed["requests"] / closed["wall_s"],
            "latency_p50_ms": quantile(lat, 50),
            "latency_p99_ms": quantile(lat, 99),
            "setup_s": (doc["stream_ready"] - spawned) * statistics.fmean(doc["scale"])
                       + statistics.median(doc["setup_s"]),
            "peak_rss_mb": statistics.median(doc["rss_mb"]),
        }

    def serve_traced(self) -> dict:
        rep, _ = self.serve_leg("replay")
        check(rep["hit_rate"] == rep["designed_hit_share"],
              f"in-process hit rate {rep['hit_rate']} != designed {rep['designed_hit_share']}")
        doc, _ = self.serve_leg("http", "--traced-server")
        self.check_serve(doc)
        opened = doc["open"]
        table = rep["table"]
        out = layer_times(table, "replay")
        out["workload.generate_s"] = rep["generate_s"]
        out["kernel.trials"] = rep["counters"].get("kernel.trials", 0.0)
        n = table["service.parse"]["calls"]
        hit_lat = [x for x, c in zip(opened["raw_latencies_ms"], opened["cached"]) if c]
        parse_ms = table["service.parse"]["self_s"] / n * 1e3
        out["service.assign_hit_ms"] = rep["assign_hit_ms"]
        out["service.assign_miss_ms"] = rep["assign_miss_ms"]
        out["service.http_ms"] = statistics.median(hit_lat) - rep["assign_hit_ms"] - parse_ms
        out["service.cache_hit_rate"] = opened["hit_rate_whole"]
        counts = opened["counts"]
        out["service.batch_size_mean"] = (
            counts["batched_items"] / counts["batches"] if counts["batches"] else 0.0)
        out["service.coalesced"] = counts["coalesced"]
        out["service.rejected"] = counts["rejected"]
        out["service.vec_flush_lanes"] = sum(
            doc[phase]["server_counts"]["vec_flush_lanes"] for phase in ("closed", "open"))
        out["load.lag_ms"] = quantile(opened["lag_ms"], 99)
        out["trace.overhead_s"] = rep["wall_traced_s"] - rep["wall_untraced_s"]
        print(f"info: designed hit share {rep['designed_hit_share']:.4f}; in-process "
              f"{rep['hit_rate']:.4f}; servers {doc['closed']['hit_rate_whole']:.4f} "
              f"(closed), {opened['hit_rate_whole']:.4f} (open)")
        print_table(table, "replay")
        return out


def layer_times(table: dict, root: str) -> dict:
    """``<span>_s`` = the span's total self time; the root's self time
    is the unattributed remainder."""
    out = {f"{name}_s": row["self_s"] for name, row in table.items() if name != root}
    out["trace.unattributed_s"] = table[root]["self_s"]
    return out


def print_table(table: dict, root: str) -> None:
    total = table[root]["total_s"]
    print(f"trace: self time by span, share of the {total:.3f} s traced leg")
    for name, row in sorted(table.items(), key=lambda kv: -kv[1]["self_s"]):
        label = "(unattributed)" if name == root else name
        print(f"trace:   {label:<20} {row['calls']:>7} calls {row['self_s']:>9.4f} s "
              f"{100 * row['self_s'] / total:6.2f} %")


def main() -> int:
    ap = argparse.ArgumentParser(description="Run one benchmark workload.")
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    if not (Path("src") / "repro" / "__init__.py").is_file() or not Path("BENCHMARK.json").is_file():
        print("perfbench: run from the repository root (src/repro or BENCHMARK.json "
              "not found)", file=sys.stderr)
        return 2

    spec = json.loads(Path("BENCHMARK.json").read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]
    work = Path(".perfbench_work") / str(os.getpid())
    work.mkdir(parents=True)
    bench = Bench(args, work)
    try:
        try:
            numpy_version = importlib.metadata.version("numpy")
        except importlib.metadata.PackageNotFoundError:
            numpy_version = "absent"
        print("env: " + json.dumps({
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy_version,
            "unset": list(PINNED_ENV),
        }))
        problems = selftest.run_all()
        check(not problems, "self-test: " + "; ".join(problems))
        print("check: self-tests passed (span recorder, open-loop sender)")
        if args.workload == "serve_mixed":
            metrics = bench.serve()
        else:
            metrics = bench.fig2(args.workload.split("_")[1])
        correct = True
    except CheckFailed as exc:
        print(f"FAILED: {exc}")
        correct, metrics = False, {}
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    error_rate = bench.failed / bench.attempted if bench.attempted else 0.0
    if args.trace and correct:
        metrics["error_rate"] = error_rate
    # Layers a workload does not exercise report 0.
    doc = {m["name"]: {"value": metrics.get(m["name"], 0.0), "unit": m["unit"]}
           for m in declared} if correct else {}
    for name, entry in doc.items():
        print(f"metric: {name} = {entry['value']:.6g} {entry['unit']}")
    if not args.trace and correct:
        print(f"metric: error_rate = {error_rate:.6g} ({bench.failed}/{bench.attempted})")
    print(json.dumps({"correct": correct, "attempted": max(1, bench.attempted),
                      "failed": bench.failed, "metrics": doc}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
