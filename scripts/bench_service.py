#!/usr/bin/env python
"""Benchmark the serving topologies: single process vs worker pool.

Three phases:

1. **Duplicate-heavy replay, both topologies** — the correctness gate.
   The same deterministic request stream (distinct workloads first,
   then their duplicates) runs against the server over the in-process
   backend and over a worker pool (``--workers N``); every response body
   must be byte-identical across topologies and the ``/metrics``
   totals for ``computed``/``coalesced``/``cache_hits`` must match.
   Hard failure if not — this is the pooled backend's equivalence proof,
   and it runs on every host including single-CPU CI.
2. **Throughput, single process** — distinct compute-bound workloads
   over keep-alive client connections; records req/s.  When
   ``BENCH_service.json`` already holds a single-process figure from
   the same host, a fresh measurement below 90% of it is a hard
   failure (the refactor must not tax the ``--workers 1`` path).
3. **Throughput, pooled** — same stream against ``--workers N``.  On a
   host with ≥ 2 CPUs the pooled figure must reach ``1.5×`` the
   single-process figure (hard gate).  On a single-CPU host the phase
   is *skipped* and recorded as ``"skipped: single-cpu"`` — pre-forked
   workers cannot beat one core, and the build must say so rather than
   fail or lie.

Results land in the ``workers`` section of ``BENCH_service.json``
(the pytest harness owns the top-level duplicate-heavy figures).

Usage::

    PYTHONPATH=src python scripts/bench_service.py [--requests N]
        [--clients N] [--workers N] [--lax]
    make bench-service-pool
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import random
import socket
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from repro.graph import graph_to_dict
from repro.rng import make_rng
from repro.service import (
    DeadlineAssignmentService,
    WorkerPool,
    create_server,
)
from repro.system.platform import platform_to_dict
from repro.workload import WorkloadParams, generate_workload

GATE_SPEEDUP = 1.5
GATE_SINGLE_FRACTION = 0.9


def request_bodies(count: int, *, n_tasks: int = 40) -> list[bytes]:
    """Distinct mid-size workloads, one canonical request body each."""
    bodies = []
    params = WorkloadParams(m=4, n_tasks_range=(n_tasks, n_tasks))
    for seed in range(count):
        wl = generate_workload(params, make_rng(seed))
        bodies.append(
            json.dumps(
                {
                    "graph": graph_to_dict(wl.graph),
                    "platform": platform_to_dict(wl.platform),
                    "metric": "ADAPT-L",
                }
            ).encode()
        )
    return bodies


class Endpoint:
    """One live serving topology (context manager): the HTTP server
    over the in-process backend (``single``) or a worker pool."""

    def __init__(self, kind: str, workers: int, clients: int) -> None:
        self.kind = kind
        self.workers = workers
        self.clients = clients

    def __enter__(self) -> "Endpoint":
        if self.kind == "single":
            backend = DeadlineAssignmentService(
                cache_size=4096, batch_size=8, batch_wait=0.001, workers=4
            )
        else:
            backend = WorkerPool(
                self.workers, cache_size=4096, batch_size=8,
                batch_wait=0.001, threads=4,
            )
            backend.start(timeout=180.0)
        self._server = create_server(port=0, service=backend)
        self._thread = threading.Thread(
            target=self._server.serve_forever, daemon=True
        )
        self._thread.start()
        self.host, self.port = self._server.server_address[:2]
        return self

    def __exit__(self, *exc_info) -> None:
        self._server.shutdown()
        self._server.server_close()
        self._server.service.close(timeout=10.0)
        self._thread.join(timeout=5.0)

    # ------------------------------------------------------------------
    def replay_sequential(self, bodies: list[bytes]) -> list[bytes]:
        """POST each body in order on one keep-alive connection."""
        conn = http.client.HTTPConnection(self.host, self.port, timeout=120)
        out = []
        try:
            for body in bodies:
                conn.request(
                    "POST",
                    "/assign",
                    body=body,
                    headers={"Content-Type": "application/json"},
                )
                response = conn.getresponse()
                payload = response.read()
                if response.status != 200:
                    raise SystemExit(
                        f"[bench-service] {self.kind}: unexpected "
                        f"{response.status}: {payload[:120]!r}"
                    )
                out.append(payload)
        finally:
            conn.close()
        return out

    def drive(self, bodies: list[bytes]) -> float:
        """POST every body from a pool of keep-alive clients; seconds."""
        chunks = [bodies[i :: self.clients] for i in range(self.clients)]

        def run_client(chunk: list[bytes]) -> None:
            conn = http.client.HTTPConnection(self.host, self.port)
            conn.connect()
            conn.sock.setsockopt(
                socket.IPPROTO_TCP, socket.TCP_NODELAY, 1
            )
            try:
                for body in chunk:
                    conn.request(
                        "POST",
                        "/assign",
                        body=body,
                        headers={"Content-Type": "application/json"},
                    )
                    response = conn.getresponse()
                    assert response.status == 200, response.status
                    response.read()
            finally:
                conn.close()

        start = time.perf_counter()
        with ThreadPoolExecutor(max_workers=self.clients) as pool:
            list(pool.map(run_client, chunks))
        return time.perf_counter() - start

    def metrics_totals(self) -> dict[str, float]:
        conn = http.client.HTTPConnection(self.host, self.port, timeout=60)
        try:
            conn.request("GET", "/metrics")
            response = conn.getresponse()
            text = response.read().decode()
        finally:
            conn.close()
        series: dict[str, float] = {}
        for line in text.splitlines():
            if line.startswith("#"):
                continue
            name, _, value = line.rpartition(" ")
            try:
                series[name] = float(value)
            except ValueError:
                continue
        return {
            "computed": series.get(
                'repro_assignments_total{source="computed"}', 0.0
            ),
            "coalesced": series.get(
                'repro_assignments_total{source="coalesced"}', 0.0
            ),
            "cache_hits": series.get("repro_cache_hits_total", 0.0),
        }


def equivalence_phase(
    workers: int, clients: int, distinct: int, duplicates: int
) -> dict:
    """Gate: pooled responses and metric totals equal single-process."""
    bodies = request_bodies(distinct, n_tasks=12)
    stream = bodies + [bodies[i % distinct] for i in range(duplicates)]
    results = {}
    totals = {}
    for kind in ("single", "pooled"):
        with Endpoint(kind, workers, clients) as endpoint:
            results[kind] = endpoint.replay_sequential(stream)
            totals[kind] = endpoint.metrics_totals()
    mismatches = sum(
        1
        for a, b in zip(results["single"], results["pooled"])
        if a != b
    )
    if mismatches:
        raise SystemExit(
            f"[bench-service] FAIL: {mismatches}/{len(stream)} pooled "
            "responses differ from the single-process bytes"
        )
    if totals["single"] != totals["pooled"]:
        raise SystemExit(
            "[bench-service] FAIL: /metrics totals diverge: "
            f"single={totals['single']} pooled={totals['pooled']}"
        )
    print(
        f"[bench-service] equivalence: {len(stream)} responses "
        f"byte-identical across topologies; totals {totals['single']}"
    )
    return {
        "responses_compared": len(stream),
        "bit_identical": True,
        "metrics_totals": {
            key: int(value) for key, value in totals["single"].items()
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--requests", type=int, default=96)
    parser.add_argument("--clients", type=int, default=8)
    parser.add_argument(
        "--workers",
        type=int,
        default=max(2, min(os.cpu_count() or 1, 4)),
        help="pooled-topology worker processes (default min(cpu,4), ≥2)",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=Path(__file__).resolve().parent.parent
        / "BENCH_service.json",
    )
    parser.add_argument(
        "--lax",
        action="store_true",
        help="report gate failures without failing the run",
    )
    args = parser.parse_args(argv)
    cpu_count = os.cpu_count() or 1
    failures: list[str] = []

    # Phase 1: equivalence (always runs, any host).
    equivalence = equivalence_phase(
        args.workers, args.clients, distinct=8, duplicates=24
    )

    previous = {}
    if args.out.exists():
        try:
            previous = json.loads(args.out.read_text())
        except ValueError:
            previous = {}

    # Phase 2a: the recorded duplicate-heavy scenario, single process —
    # same mix as benchmarks/test_bench_service.py (that's what the
    # file's requests_per_second baseline measures), so the ±10%
    # regression guard compares like for like.
    dup_total = args.requests
    dup_distinct = max(4, dup_total // 16)
    dup_bodies = (
        request_bodies(dup_distinct, n_tasks=40)
        * (dup_total // dup_distinct + 1)
    )[:dup_total]
    random.Random(2026).shuffle(dup_bodies)
    with Endpoint("single", 1, args.clients) as endpoint:
        dup_seconds = endpoint.drive(dup_bodies)
    dup_rps = dup_total / dup_seconds
    print(
        f"[bench-service] duplicate-heavy single-process: {dup_total} "
        f"requests ({dup_distinct} distinct) x {args.clients} clients "
        f"-> {dup_rps:,.0f} req/s"
    )

    # Phase 2b: single-process throughput over distinct workloads (the
    # compute-bound stream the pooled speedup is judged against).
    bodies = request_bodies(args.requests, n_tasks=12)
    with Endpoint("single", 1, args.clients) as endpoint:
        endpoint.drive(bodies[: max(4, args.requests // 8)])  # warm-up
        single_seconds = endpoint.drive(bodies)
    single_rps = len(bodies) / single_seconds
    print(
        f"[bench-service] single-process: {len(bodies)} distinct "
        f"requests x {args.clients} clients -> {single_rps:,.0f} req/s"
    )

    # Phase 3: pooled throughput (multi-core hosts only).
    if cpu_count >= 2:
        with Endpoint("pooled", args.workers, args.clients) as endpoint:
            endpoint.drive(bodies[: max(4, args.requests // 8)])
            pooled_seconds = endpoint.drive(bodies)
        pooled_rps = len(bodies) / pooled_seconds
        speedup = pooled_rps / single_rps
        note = None
        print(
            f"[bench-service] pooled ({args.workers} workers): "
            f"{pooled_rps:,.0f} req/s | speedup x{speedup:.2f} "
            f"(target x{GATE_SPEEDUP})"
        )
        if speedup < GATE_SPEEDUP:
            failures.append(
                f"pooled speedup x{speedup:.2f} below the "
                f"x{GATE_SPEEDUP} target on a {cpu_count}-CPU host"
            )
    else:
        pooled_rps = None
        speedup = None
        note = "skipped: single-cpu"
        print(
            "[bench-service] pooled throughput skipped: single-cpu host "
            "(pre-forked workers cannot beat one core)"
        )

    # Single-process regression guard against the recorded baseline —
    # compared on the duplicate-heavy replay, the scenario the baseline
    # actually measures.
    baseline = previous.get("requests_per_second")
    if (
        baseline
        and previous.get("cpu_count") in (None, cpu_count)
        and previous.get("requests") in (None, dup_total)
        and dup_rps < GATE_SINGLE_FRACTION * float(baseline)
    ):
        failures.append(
            f"duplicate-heavy single-process throughput {dup_rps:,.0f} "
            f"req/s fell below {GATE_SINGLE_FRACTION:.0%} of the "
            f"recorded {float(baseline):,.0f} req/s"
        )

    workers_leg = {
        "cpu_count": cpu_count,
        "workers": args.workers,
        "distinct_requests": len(bodies),
        "clients": args.clients,
        "duplicate_heavy_rps": round(dup_rps, 2),
        "single_process_rps": round(single_rps, 2),
        "pooled_rps": None if pooled_rps is None else round(pooled_rps, 2),
        "speedup": None if speedup is None else round(speedup, 4),
        "target": GATE_SPEEDUP,
        "note": note,
        "equivalence": equivalence,
    }
    # The top-level fields (cpu_count included) describe the recorded
    # single-process baseline and stay as recorded; this run's host goes
    # with its own legs, so the baseline guard above keeps comparing
    # like hosts only.
    doc = dict(previous) if previous else {"format": "repro.bench-service/1"}
    doc["workers"] = workers_leg
    doc["multiprocess_note"] = (
        note
        if note
        else f"pooled x{speedup:.2f} vs single process "
        f"({args.workers} workers)"
    )
    args.out.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"[bench-service] wrote {args.out}")

    if failures:
        for failure in failures:
            print(f"[bench-service] GATE: {failure}", file=sys.stderr)
        if not args.lax:
            return 1
        print("[bench-service] --lax: gates reported, not enforced")
    return 0


if __name__ == "__main__":
    sys.exit(main())
