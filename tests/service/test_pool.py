"""Pooled-topology tests: the HTTP server over a worker pool.

The pooled service's correctness gate is *equivalence*: byte-identical
``/assign`` bodies and matching metric totals against the in-process
backend, plus the same 429/drain guarantees
``tests/service/test_concurrency.py`` pins for the thread path.
Workers are real spawned processes, so counts stay small — one or two
workers per fixture — to keep the suite fast on single-CPU hosts.
"""

from __future__ import annotations

import http.client
import json
import threading
import time

import pytest

from repro.errors import ServiceOverloadError
from repro.service import DeadlineAssignmentService, WorkerPool

from .conftest import chain_request, serving


def distinct_body(i: int, **extra) -> bytes:
    doc = chain_request(
        wcets=(10 + i, 20 + 2 * i, 15 + i), deadline=200.0 + i, **extra
    )
    return json.dumps(doc).encode()


def post_assign(
    host: str, port: int, body: bytes, timeout: float = 60.0
) -> tuple[int, dict[str, str], bytes]:
    conn = http.client.HTTPConnection(host, port, timeout=timeout)
    try:
        conn.request(
            "POST",
            "/assign",
            body=body,
            headers={"Content-Type": "application/json"},
        )
        response = conn.getresponse()
        return (
            response.status,
            {k.lower(): v for k, v in response.getheaders()},
            response.read(),
        )
    finally:
        conn.close()


def started_pool(workers: int, **kwargs) -> WorkerPool:
    pool = WorkerPool(workers, **kwargs)
    pool.start(timeout=120.0)
    return pool


@pytest.fixture(scope="module")
def pooled():
    """One server over a 2-worker pool shared by the equivalence tests."""
    with serving(started_pool(2, cache_size=256)) as server:
        yield server


class TestPooledEquivalence:
    """Pooled responses are byte-identical to the in-process ones."""

    def test_assign_bodies_bit_identical(self, pooled):
        phost, pport = pooled.server_address[:2]
        with serving(DeadlineAssignmentService(cache_size=256)) as single:
            shost, sport = single.server_address[:2]
            # Distinct workloads, a duplicate replay, an invalid
            # request, and an invalid-graph request — every branch of
            # the response contract.
            bodies = [distinct_body(i) for i in range(5)]
            bodies.append(bodies[0])  # duplicate: cached in both
            bad_graph = chain_request()
            bad_graph["graph"]["e2e_deadlines"] = []
            bodies.append(json.dumps(bad_graph).encode())
            bodies.append(b"{not json")
            for body in bodies:
                s_status, _, s_body = post_assign(shost, sport, body)
                p_status, _, p_body = post_assign(phost, pport, body)
                assert p_status == s_status
                assert p_body == s_body

    def test_healthz_and_unknown_path(self, pooled):
        host, port = pooled.server_address[:2]
        conn = http.client.HTTPConnection(host, port, timeout=30)
        try:
            conn.request("GET", "/healthz")
            response = conn.getresponse()
            assert response.status == 200
            assert json.loads(response.read()) == {"status": "ok"}
            conn.request("GET", "/nope")
            response = conn.getresponse()
            assert response.status == 404
            assert json.loads(response.read()) == {
                "error": "unknown path '/nope'"
            }
        finally:
            conn.close()

    def test_keep_alive_pipelines_requests(self, pooled):
        """Many requests reuse one connection, including error replies."""
        host, port = pooled.server_address[:2]
        conn = http.client.HTTPConnection(host, port, timeout=60)
        try:
            digests = []
            for i in range(6):
                conn.request("POST", "/assign", body=distinct_body(i + 100))
                response = conn.getresponse()
                assert response.status == 200
                digests.append(json.loads(response.read())["digest"])
            # An error response must not poison the connection.
            conn.request("POST", "/assign", body=b"{broken")
            response = conn.getresponse()
            assert response.status == 400
            response.read()
            conn.request("POST", "/assign", body=distinct_body(100))
            response = conn.getresponse()
            assert response.status == 200
            doc = json.loads(response.read())
            assert doc["digest"] == digests[0]
            assert doc["cached"] is True
        finally:
            conn.close()

    def test_duplicate_burst_coalesces_in_front_end(self):
        """Concurrent identical bodies share one dispatch (single-flight).

        Uses its own slow 1-worker pool so the burst demonstrably
        overlaps the leader's computation — on a fast shared pool the
        duplicates could serialize into plain cache hits instead.
        """
        pool = started_pool(1, compute_delay=0.5)
        body = distinct_body(777)
        results: list[tuple[int, bytes]] = []
        lock = threading.Lock()
        with serving(pool) as server:
            host, port = server.server_address[:2]

            def worker() -> None:
                status, _, payload = post_assign(host, port, body)
                with lock:
                    results.append((status, payload))

            threads = [threading.Thread(target=worker) for _ in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60.0)
            assert len(results) == 6
            assert {status for status, _ in results} == {200}
            assert len({payload for _, payload in results}) == 1
            waits = pool.metrics.singleflight_waits.total()
            coalesced = pool.metrics.assignments.value(source="coalesced")
            # At least one request must have followed rather than
            # dispatched (exact counts depend on arrival interleaving).
            assert waits >= 1
            assert coalesced == waits

    def test_metrics_totals_aggregate_across_processes(self, pooled):
        host, port = pooled.server_address[:2]
        conn = http.client.HTTPConnection(host, port, timeout=30)
        try:
            conn.request("GET", "/metrics")
            response = conn.getresponse()
            assert response.status == 200
            text = response.read().decode()
        finally:
            conn.close()
        series = {}
        for line in text.splitlines():
            if line.startswith("#"):
                continue
            name, _, value = line.rpartition(" ")
            series[name] = float(value)
        computed = series.get('repro_assignments_total{source="computed"}', 0)
        cache = series.get('repro_assignments_total{source="cache"}', 0)
        coalesced = series.get(
            'repro_assignments_total{source="coalesced"}', 0
        )
        failed = series.get('repro_assignments_total{source="failed"}', 0)
        hits = series.get("repro_cache_hits_total", 0)
        misses = series.get("repro_cache_misses_total", 0)
        # The single-process dashboard invariant must survive the
        # split across the serving process + workers.
        assert computed + cache + coalesced + failed == hits + misses
        assert hits == cache
        assert computed >= 1 and hits >= 1


def burst_counters(server, body: bytes, n: int = 6) -> dict[str, float]:
    """POST *body* from *n* threads at once; the counter series after."""
    host, port = server.server_address[:2]
    threads = [
        threading.Thread(target=post_assign, args=(host, port, body))
        for _ in range(n)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(60.0)
    conn = http.client.HTTPConnection(host, port, timeout=30)
    try:
        conn.request("GET", "/metrics")
        text = conn.getresponse().read().decode()
    finally:
        conn.close()
    series = {}
    for line in text.splitlines():
        name, _, value = line.rpartition(" ")
        if not line.startswith("#") and (
            "_total" in name or name.endswith("_count")
        ):
            series[name] = float(value)
    return series


class TestPooledInvalidBodies:
    def test_coalesced_invalid_bodies_book_like_in_process(self):
        """Followers of a body that fails validation book nothing.

        The in-process service rejects such a body before its assign
        path, so no miss, assignment, single-flight wait or latency is
        booked; the pool's coalesced followers must match.  The slow
        2-worker pool makes the burst overlap one dispatch.
        """
        body = json.dumps({"graph": 1}).encode()
        with serving(DeadlineAssignmentService()) as single:
            expected = burst_counters(single, body)
        pool = started_pool(2, compute_delay=0.5)
        dispatches = []
        dispatch = pool._dispatch

        def counting(raw: bytes):
            dispatches.append(raw)
            return dispatch(raw)

        pool._dispatch = counting
        with serving(pool) as server:
            pooled = burst_counters(server, body)
        assert len(dispatches) < 6  # followers really coalesced
        assert expected[
            'repro_request_errors_total{kind="ValidationError"}'
        ] == 6
        assert pooled == expected


class TestPooledBackpressure:
    """429 + Retry-After under saturation, without stranded futures."""

    def test_pool_submit_sheds_when_full(self):
        with WorkerPool(1, max_queue=1, compute_delay=0.5) as pool:
            pool.start(timeout=120.0)
            first = pool.submit(distinct_body(0))
            with pytest.raises(ServiceOverloadError):
                for i in range(1, 10):
                    pool.submit(distinct_body(i))
            assert first.result(timeout=60.0)["format"].startswith("repro.")

    def test_http_burst_returns_429_with_retry_after(self):
        pool = started_pool(1, max_queue=1, compute_delay=0.5)
        results: list[tuple[int, dict[str, str]]] = []
        lock = threading.Lock()
        with serving(pool, retry_after=7) as server:
            host, port = server.server_address[:2]

            def worker(i: int) -> None:
                status, headers, _ = post_assign(
                    host, port, distinct_body(i)
                )
                with lock:
                    results.append((status, headers))

            threads = [
                threading.Thread(target=worker, args=(i,)) for i in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60.0)
            statuses = sorted(status for status, _ in results)
            assert len(results) == 8
            assert 200 in statuses
            assert 429 in statuses
            assert set(statuses) <= {200, 429}
            for status, headers in results:
                if status == 429:
                    assert headers.get("retry-after") == "7"
            assert pool.metrics.overloads.total() == statuses.count(429)

    def test_drain_timeout_fails_stragglers_without_hanging(self):
        pool = started_pool(1, compute_delay=2.0)
        futures = [pool.submit(distinct_body(i)) for i in range(3)]
        started = time.monotonic()
        pool.close(timeout=0.3)
        elapsed = time.monotonic() - started
        assert elapsed < 10.0
        for future in futures:
            assert future.done()
            assert future.cancelled() or future.exception() is not None

    def test_frontend_drain_is_bounded(self):
        pool = started_pool(1, compute_delay=5.0)
        outcome: list[object] = []
        client = None
        with serving(pool, drain=0.5) as server:
            host, port = server.server_address[:2]

            def slow_client() -> None:
                try:
                    outcome.append(post_assign(host, port, distinct_body(0)))
                except Exception as exc:  # noqa: BLE001 - recorded below
                    outcome.append(exc)

            client = threading.Thread(target=slow_client, daemon=True)
            client.start()
            time.sleep(0.5)  # let the request reach the worker
            started = time.monotonic()
        assert time.monotonic() - started < 20.0
        client.join(10.0)
        # The straggler was answered (500 after its future was failed)
        # or dropped with the connection — never left hanging.
        assert not client.is_alive()
        assert len(outcome) == 1


class TestWorkerDeath:
    def test_dead_worker_fails_inflight_and_pool_reports(self):
        pool = started_pool(1, compute_delay=3.0)
        try:
            future = pool.submit(distinct_body(0))
            handle = pool._handles[0]
            handle.proc.terminate()
            # The in-flight future must resolve — cancelled (it never
            # started) or failed with the worker-death RuntimeError.
            from concurrent.futures import CancelledError

            with pytest.raises((CancelledError, RuntimeError)):
                future.result(timeout=30.0)
            deadline = time.monotonic() + 10.0
            while pool.workers and time.monotonic() < deadline:
                time.sleep(0.05)
            assert pool.workers == 0
            with pytest.raises(RuntimeError):
                pool.submit(distinct_body(1))
        finally:
            pool.close(timeout=5.0)
