"""One serve_mixed leg in a fresh interpreter; prints one JSON line.

Phases:

* ``http`` — build the request stream, then ``--passes`` times: start
  two fresh ``repro serve --workers 1`` children, send each the warm-up
  prefix, then send the rest of the stream to one closed-loop
  (``nproc`` connections) and to the other open-loop at ``--rate``, in
  alternating chunks, and stop them.  Reports, per request position
  (open loop) and per chunk (closed loop), the fastest of the passes.
  Checks every repeated response against the first one for its
  workload and a seed-chosen subsample against ``distribute_deadlines``
  computed here.
  ``--traced-server`` starts the servers through ``server_traced.py`` so
  the lanes of their vectorized flush path are counted.
* ``replay`` — replay the same stream in-process through
  ``request_from_dict``, ``request_digest`` and
  ``DeadlineAssignmentService.assign`` (server defaults), untraced and
  then traced, and report the span table.

Run from the repository root: ``python3 perfbench/serve_leg.py --phase
http --seed 1 --timed 1000 --rate 50 --passes 2 --workdir /tmp/x``.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import signal
import statistics
import subprocess
import sys
import time
import urllib.request
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, "src")

import hostspeed  # noqa: E402
import spans  # noqa: E402
from loadgen import run_load  # noqa: E402
from stream import MIN_GAP, build_stream, designed_hit_share  # noqa: E402

SUBSAMPLE = 8
#: The two HTTP phases, each against its own server.
PHASES = ("closed", "open")
#: Interleaved pieces each HTTP phase is sent in.
CHUNKS = 6
#: Host-speed reference pieces run after the warm-up and after each
#: chunk of each phase: 350 per pass, spread over it.
PIECES_PER_CHUNK = 25
COUNTERS = {
    "repro_cache_hits_total": "hits",
    "repro_cache_misses_total": "misses",
    "repro_batches_total": "batches",
    "repro_batched_items_total": "batched_items",
    "repro_singleflight_waits_total": "coalesced",
    "repro_overload_rejections_total": "rejected",
}


def scrape(port: int) -> dict[str, float]:
    with urllib.request.urlopen(f"http://127.0.0.1:{port}/metrics", timeout=10) as r:
        text = r.read().decode()
    out = {v: 0.0 for v in COUNTERS.values()}
    for line in text.splitlines():
        name, _, value = line.partition(" ")
        if name in COUNTERS:
            out[COUNTERS[name]] = float(value)
    return out


def start_server(workdir: Path, traced: bool) -> subprocess.Popen:
    """Launch ``repro serve --workers 1`` on a free port; returns at once."""
    workdir.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, PYTHONPATH="src", PYTHONUNBUFFERED="1")
    if traced:
        cmd = [sys.executable, str(HERE / "server_traced.py"), str(workdir / "server_counts.json")]
    else:
        cmd = [sys.executable, "-m", "repro"]
    cmd += ["serve", "--workers", "1", "--port", "0"]
    return subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, text=True)


def wait_ready(proc: subprocess.Popen) -> int:
    """Read the bound port from the banner and wait for ``/healthz``."""
    line = proc.stdout.readline()
    if "http://" not in line:
        stop_server(proc)
        raise RuntimeError(f"server did not start: {line!r}")
    port = int(line.split("http://")[1].split()[0].rsplit(":", 1)[1])
    deadline = time.monotonic() + 60
    while True:
        try:
            with urllib.request.urlopen(f"http://127.0.0.1:{port}/healthz", timeout=5):
                return port
        except OSError:
            if time.monotonic() > deadline:
                raise
            time.sleep(0.01)


def peak_rss_mb(pid: int) -> float:
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc status")


def stop_server(proc: subprocess.Popen) -> None:
    proc.send_signal(signal.SIGINT)
    try:
        proc.wait(timeout=10)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()


def check_responses(bodies, order, passes, seed) -> list[str]:
    """Byte-identity of repeats and a subsample against the library.

    *passes* holds ``(responses, statuses)`` per server, each covering
    *order* once; the first response of a workload on a server is a
    miss, and apart from its ``cached`` flag it must equal all others.
    """
    from repro.core.slicing import distribute_deadlines
    from repro.service.api import (
        request_digest, request_from_dict, response_from_assignment,
        response_to_dict,
    )

    problems = []
    first: dict[int, bytes] = {}
    for responses, statuses in passes:
        seen: set[int] = set()
        for k, body, status in zip(order, responses, statuses):
            if status != 200:
                continue
            if k not in seen:
                seen.add(k)
                body = body.replace(b'"cached": false', b'"cached": true', 1)
            if k not in first:
                first[k] = body
            elif body != first[k]:
                problems.append(f"workload {k}: repeated response differs from the first")
    sample = random.Random(seed).sample(sorted(first), min(SUBSAMPLE, len(first)))
    for k in sample:
        request = request_from_dict(json.loads(bodies[k]))
        assignment = distribute_deadlines(
            request.graph, request.platform, request.metric,
            estimator=request.estimator, params=request.params,
        )
        expect = response_to_dict(response_from_assignment(
            assignment, request_digest(request), cached=True))
        if json.loads(first[k]) != expect:
            problems.append(f"workload {k}: response differs from distribute_deadlines")
    return problems


def one_pass(args, bodies, order, workdir: Path) -> dict:
    """Both HTTP phases once, each against its own fresh server, the
    timed stream sent in ``CHUNKS`` alternating pieces so both phases
    sample the host across the whole pass; host-speed reference pieces
    run in between (``hostspeed.py``)."""
    procs: list[subprocess.Popen] = []
    spawned = time.monotonic()
    try:
        for name in PHASES:
            procs.append(start_server(workdir / name, args.traced_server))
        ports = [wait_ready(proc) for proc in procs]
        setup = time.monotonic() - spawned
        conns = os.cpu_count() or 1
        timed_order = order[MIN_GAP:]
        step = -(-len(timed_order) // CHUNKS)
        runs: dict[str, list] = {name: [] for name in PHASES}
        pieces: list[float] = []
        for port, name in zip(ports, PHASES):
            runs[name].append(run_load("127.0.0.1", port, bodies, order[:MIN_GAP], conns=conns))
            pieces += hostspeed.sample(PIECES_PER_CHUNK)
        before = [scrape(port) for port in ports]
        for lo in range(0, len(timed_order), step):
            chunk = timed_order[lo:lo + step]
            for port, name in zip(ports, PHASES):
                rate = args.rate if name == "open" else None
                runs[name].append(run_load("127.0.0.1", port, bodies, chunk, conns=conns, rate=rate))
                pieces += hostspeed.sample(PIECES_PER_CHUNK)
        after = [scrape(port) for port in ports]
        rss = [peak_rss_mb(proc.pid) for proc in procs]
    finally:
        for proc in procs:
            stop_server(proc)
    out = {"setup_s": setup, "rss_mb": rss, "scale": hostspeed.factor(pieces)}
    for i, name in enumerate(PHASES):
        warm, *timed = runs[name]
        timed_bodies = [b for r in timed for b in r.bodies]
        out[name] = {
            "chunk_wall_s": [r.wall for r in timed],
            "attempted": sum(len(r.statuses) for r in runs[name]),
            "failed": sum(r.failed for r in runs[name]),
            "statuses": [st for r in runs[name] for st in r.statuses],
            "responses": [b for r in runs[name] for b in r.bodies],
            "latencies_ms": [x * 1e3 for r in timed for x in r.latencies],
            "cached": [b'"cached": true' in b for b in timed_bodies],
            "lag_ms": [x * 1e3 for r in timed for x in r.lag],
            "counts": {k: after[i][k] - before[i][k] for k in after[i]},
            "hit_rate_whole": after[i]["hits"] / max(1.0, after[i]["hits"] + after[i]["misses"]),
        }
        if args.traced_server:
            out[name]["server_counts"] = json.loads(
                (workdir / name / "server_counts.json").read_text())
    return out


def http_phases(args, bodies, order) -> dict:
    """``--passes`` passes of both HTTP phases, each pass against a
    fresh pair of servers (so every pass sees the same cache hits and
    misses), then the per-position best over the passes.

    Every timing of a pass is first scaled to the reference host speed
    measured during that pass.  The host's speed also changes from one
    fraction of a second to the next, so one pass mixes fast and slow
    moments at random; every pass sends the same requests in the same
    order, so each request position and each closed-loop chunk is timed
    ``--passes`` times, and the fastest of those is kept.  Every
    response of every pass is checked.  ``raw_latencies_ms`` are the
    unscaled fastest latencies.
    """
    workdir = Path(args.workdir)
    passes = [one_pass(args, bodies, order, workdir / f"pass{p}") for p in range(args.passes)]
    scale = [p["scale"] for p in passes]
    out = {"setup_s": [p["setup_s"] * f for p, f in zip(passes, scale)], "scale": scale,
           "rss_mb": [x for p in passes for x in p["rss_mb"]],
           "designed_hit_share": designed_hit_share(order), "passes": len(passes)}
    for name in PHASES:
        parts = [p[name] for p in passes]
        last = parts[-1]
        out[name] = {
            "wall_s": sum(min(w * f for w, f in zip(walls, scale))
                          for walls in zip(*(part["chunk_wall_s"] for part in parts))),
            "raw_wall_s": sum(min(walls) for walls in zip(*(part["chunk_wall_s"] for part in parts))),
            "requests": len(order) - MIN_GAP,
            "attempted": sum(part["attempted"] for part in parts),
            "failed": sum(part["failed"] for part in parts),
            "latencies_ms": [min(x * f for x, f in zip(col, scale))
                             for col in zip(*(part["latencies_ms"] for part in parts))],
            "raw_latencies_ms": [min(col) for col in zip(*(part["latencies_ms"] for part in parts))],
            "cached": last["cached"],
            "lag_ms": [x for part in parts for x in part["lag_ms"]],
            "counts": last["counts"],
            "hit_rate_whole": last["hit_rate_whole"],
            "problems": check_responses(
                bodies, order, [(part["responses"], part["statuses"]) for part in parts], args.seed),
        }
        if args.traced_server:
            out[name]["server_counts"] = last["server_counts"]
    return out


def replay(bodies, order, tracer=None) -> tuple[float, list[bool]]:
    from repro.service import DeadlineAssignmentService
    from repro.service.api import request_from_dict

    service = DeadlineAssignmentService()
    try:
        root = tracer.root("replay") if tracer else None
        t0 = time.perf_counter()
        cached = []
        for k in order:
            cached.append(service.assign(request_from_dict(json.loads(bodies[k]))).cached)
        wall = time.perf_counter() - t0
        if tracer:
            tracer.close(root)
    finally:
        service.close()
    return wall, cached


def replay_phase(bodies, order) -> dict:
    import repro.core.slicing as core_slicing
    import repro.kernel.compiled as compiled
    import repro.kernel.metrics as kmetrics
    import repro.kernel.slicing as kslicing
    import repro.service.api as api
    from repro.service import DeadlineAssignmentService

    wall0, _ = replay(bodies, order)
    tracer = spans.Tracer()
    tracer.wrap(api, "request_from_dict", "service.parse")
    tracer.wrap(api, "request_digest", "service.digest")
    tracer.wrap(core_slicing, "distribute_deadlines", "service.compute")
    tracer.wrap(compiled, "compile_workload", "kernel.compile")
    tracer.wrap(kmetrics, "kernel_weights", "kernel.weights")
    tracer.wrap(kslicing, "kernel_slice", "kernel.slice",
                on_result=lambda a, kw, r: tracer.count("kernel.trials"))
    tracer.wrap(DeadlineAssignmentService, "assign", "service.assign")
    wall1, cached = replay(bodies, order, tracer)
    tracer.uninstall()
    hits = [d * 1e3 for d, c in zip(tracer.durations("service.assign"), cached) if c]
    misses = [d * 1e3 for d, c in zip(tracer.durations("service.assign"), cached) if not c]
    return {
        "wall_untraced_s": wall0,
        "wall_traced_s": wall1,
        "table": tracer.table(),
        "counters": dict(tracer.counters),
        "assign_hit_ms": statistics.median(hits),
        "assign_miss_ms": statistics.median(misses),
        "hit_rate": sum(cached) / len(cached),
        "designed_hit_share": designed_hit_share(order),
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--phase", choices=("http", "replay"), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--timed", type=int, required=True, help="timed requests")
    ap.add_argument("--rate", type=float, required=True)
    ap.add_argument("--passes", type=int, default=1, help="passes of both HTTP phases")
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--traced-server", action="store_true")
    args = ap.parse_args()
    # Servers stop on SIGINT (KeyboardInterrupt).  A shell that starts us
    # in the background may have us ignore SIGINT, and an ignored signal
    # stays ignored across exec; handling it here makes it default again
    # in the servers we start.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    if args.phase == "http":
        bodies, order = build_stream(args.seed, args.timed)
        stream_ready = time.monotonic()
        out = http_phases(args, bodies, order)
        out["stream_ready"] = stream_ready
    else:
        import repro.workload.generator as generator

        tracer = spans.Tracer()
        tracer.wrap(generator, "generate_workload", "workload.generate")
        bodies, order = build_stream(args.seed, args.timed)
        tracer.uninstall()
        out = replay_phase(bodies, order)
        out["generate_s"] = tracer.table()["workload.generate"]["self_s"]
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
