"""Pre-forked assignment worker pool: the ``--workers N`` backend.

One :class:`WorkerPool` owns N worker *processes*, each running a full
:class:`~repro.service.server.DeadlineAssignmentService` (compiled/vec
kernel, micro-batcher, LRU + optional persistent spill tier).  The pool
is how ``repro serve --workers N`` escapes the single-interpreter GIL
ceiling: the same stdlib HTTP handler that serves ``--workers 1``
hands each raw ``/assign`` body to :meth:`WorkerPool.assign_body`, and
workers parse and compute::

    clients ──HTTP──▶ ServiceHTTPServer (threads) ──▶ WorkerPool
                        │  body-hash single-flight · 429 shed
                        ├──pipe──▶ assign worker 0 ─┐
                        ├──pipe──▶ assign worker 1 ─┤ shared
                        └──pipe──▶ ...              ─┘ spill dir

Topology and wire protocol
--------------------------

Each worker gets one duplex :func:`multiprocessing.Pipe`.  Messages are
plain picklable tuples, request/reply matched by a monotonically
increasing request id:

* ``("assign", rid, body)`` → ``("ok", rid, response_doc)`` or
  ``("err", rid, category, kind, message)`` — the worker parses the
  raw body bytes itself, and the error triple is
  :func:`~repro.service.server.error_category`'s, so the HTTP handler
  maps a worker's failure exactly as it maps an in-process one.
* ``("metrics", rid)`` → ``("ok", rid, snapshot_doc)`` — the worker's
  :meth:`~repro.service.metrics.ServiceMetrics.snapshot`, merged into
  one exposition by :mod:`repro.service.agg`.
* ``("ping", rid)`` → ``("ok", rid, {"pid": ...})`` — the readiness
  probe :meth:`WorkerPool.start` blocks on.
* ``("stop", timeout)`` — bounded drain, then the worker exits.

Workers are started with the ``spawn`` context (same choice as the
sweep fabric): no inherited locks mid-acquire, no shared mutable
interpreter state, and the child imports :mod:`repro` cleanly.

Coalescing, sharing and backpressure
------------------------------------

:meth:`WorkerPool.assign_body` coalesces identical bodies in flight by
the SHA-256 of their bytes, so a duplicate burst costs one pipe
crossing and one worker computation.  Bodies containing an ``"admit"``
key never coalesce — admission is stateful (each submission advances a
controller), so every admission request must reach a worker.  Body-hash
coalescing is weaker than the worker's canonical-digest single-flight,
which still catches textually different but canonically equal requests
on one worker; requests split across workers are caught by the shared
spill tier instead.

When ``cache_dir`` is set every worker opens the *same*
:class:`~repro.store.TrialStore` directory.  Store appends are
``fcntl``-locked with torn-tail healing and reads refresh the shard
tail from disk, so an assignment computed (and spilled) by worker A is
a cache *hit* for worker B.

``max_queue`` bounds the per-worker number of dispatched-but-unanswered
requests.  :meth:`WorkerPool.submit` always picks the least-loaded live
worker; when even that worker is at the bound the pool raises
:class:`~repro.errors.ServiceOverloadError` *synchronously*, which the
HTTP handler maps to the standard 429 + ``Retry-After`` shed path
without ever queueing the request.

Metric accounting keeps the merged ``/metrics`` totals identical to the
in-process exposition: workers count everything about the requests
they receive; the pool's own :attr:`WorkerPool.metrics` holds the HTTP
counters plus the requests that never reach a worker — coalesced
followers and queue-full sheds — booked as the in-process service
would have booked them.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import threading
import time
from concurrent.futures import Future, wait
from pathlib import Path
from typing import Any

from ..errors import ServiceOverloadError
from .agg import aggregate_metrics
from .metrics import ServiceMetrics

__all__ = ["RemoteAssignError", "WorkerPool", "default_workers"]


def default_workers() -> int:
    """The ``--workers`` default: ``min(cpu_count, 4)``.

    On a single-CPU host this is 1, which serves from the in-process
    :class:`~repro.service.server.DeadlineAssignmentService` backend —
    pre-forking cannot beat one core.
    """
    return min(os.cpu_count() or 1, 4)


class RemoteAssignError(Exception):
    """An assignment failed inside a worker process.

    Carries the worker's :func:`~repro.service.server.error_category`
    triple so the HTTP handler maps it exactly like an in-process
    failure: ``overload`` → 429, ``bad_json`` / ``repro`` → 400,
    ``internal`` → 500.  ``validated`` is false when the body failed
    decoding or request validation, before the service's ``assign``
    path booked anything.
    """

    def __init__(
        self, category: str, kind: str, message: str, validated: bool = True
    ) -> None:
        super().__init__(message)
        self.category = category
        self.kind = kind
        self.message = message
        self.validated = validated


def _pool_worker_main(conn, config: dict) -> None:
    """Worker process entry point: serve pipe requests until ``stop``.

    Runs one :class:`DeadlineAssignmentService` and a small thread pool
    so concurrent ``assign`` dispatches can coalesce in the service's
    micro-batcher / single-flight layers exactly as they would in the
    single-process server.  Replies are serialized by a send lock (the
    pipe is the only shared output).  Exits via ``os._exit`` after the
    bounded drain so a straggler compute thread can never wedge
    shutdown.
    """
    from concurrent.futures import ThreadPoolExecutor

    from .api import request_from_dict, response_to_dict
    from .server import DeadlineAssignmentService, decode_body, error_category

    service = DeadlineAssignmentService(
        cache_size=config.get("cache_size", 1024),
        batch_size=config.get("batch_size", 8),
        batch_wait=config.get("batch_wait", 0.002),
        workers=config.get("threads", 4),
        max_queue=config.get("max_queue"),
        cache_dir=config.get("cache_dir"),
    )
    compute_delay = float(config.get("compute_delay", 0.0) or 0.0)
    send_lock = threading.Lock()
    pool = ThreadPoolExecutor(
        max_workers=max(4, config.get("threads", 4)),
        thread_name_prefix="repro-pool-worker",
    )

    def send(reply: tuple) -> None:
        with send_lock:
            try:
                conn.send(reply)
            except (BrokenPipeError, OSError):
                pass  # parent is gone; nothing left to answer to

    def do_assign(rid: int, body: bytes) -> None:
        # ``service.assign_body`` step by step, so the reply can say
        # whether the body got past validation.
        validated = False
        try:
            if compute_delay > 0.0:
                time.sleep(compute_delay)
            request = request_from_dict(decode_body(body))
            validated = True
            send(("ok", rid, response_to_dict(service.assign(request))))
        except BaseException as exc:  # noqa: BLE001 - worker must survive
            send(("err", rid, validated) + error_category(exc))

    drain_timeout: float | None = None
    try:
        while True:
            try:
                msg = conn.recv()
            except (EOFError, OSError):
                break  # parent died; drain and exit
            op = msg[0]
            if op == "assign":
                pool.submit(do_assign, msg[1], msg[2])
            elif op == "metrics":
                send(("ok", msg[1], service.metrics.snapshot()))
            elif op == "ping":
                send(("ok", msg[1], {"pid": os.getpid()}))
            elif op == "stop":
                drain_timeout = msg[1] if len(msg) > 1 else None
                break
    finally:
        pool.shutdown(wait=False)
        try:
            service.close(timeout=drain_timeout)
        except Exception:  # noqa: BLE001 - exiting anyway
            pass
        try:
            conn.close()
        except OSError:
            pass
        # A compute thread stuck past the bounded drain must not block
        # interpreter teardown; the parent already failed its future.
        os._exit(0)


class _WorkerHandle:
    """Parent-side state for one worker process."""

    def __init__(self, index: int, proc, conn) -> None:
        self.index = index
        self.proc = proc
        self.conn = conn
        self.send_lock = threading.Lock()
        self.lock = threading.Lock()  # guards pending + alive
        self.pending: dict[int, Future] = {}
        self.alive = True
        self.reader: threading.Thread | None = None

    @property
    def inflight(self) -> int:
        with self.lock:
            return len(self.pending)

    def send(self, message: tuple) -> None:
        with self.send_lock:
            self.conn.send(message)

    def register(self, rid: int) -> Future:
        future: Future = Future()
        with self.lock:
            if not self.alive:
                raise RuntimeError(f"worker {self.index} is not running")
            self.pending[rid] = future
        return future

    def read_loop(self) -> None:
        """Resolve pending futures from worker replies until EOF.

        On EOF (worker exited or crashed) every still-pending future is
        failed — a dead worker must never strand a waiting request.
        """
        while True:
            try:
                msg = self.conn.recv()
            except (EOFError, OSError):
                break
            future = None
            with self.lock:
                future = self.pending.pop(msg[1], None)
            if future is None:
                continue  # drained/abandoned request; reply is stale
            try:
                if msg[0] == "ok":
                    future.set_result(msg[2])
                else:
                    _, _, validated, category, kind, message = msg
                    future.set_exception(
                        RemoteAssignError(category, kind, message, validated)
                    )
            except Exception:  # noqa: BLE001 - a timed drain beat us
                pass
        with self.lock:
            self.alive = False
            stranded = list(self.pending.values())
            self.pending.clear()
        for future in stranded:
            if future.cancel() or future.done():
                continue
            try:
                future.set_exception(
                    RuntimeError(
                        f"assignment worker {self.index} exited "
                        "with requests in flight"
                    )
                )
            except Exception:  # noqa: BLE001 - racing resolution
                pass


class WorkerPool:
    """N pre-forked assignment workers with least-loaded dispatch.

    Parameters mirror :class:`DeadlineAssignmentService` where they
    configure the per-worker service; pool-level knobs:

    workers:
        Number of worker processes (≥ 1).
    max_queue:
        Per-worker bound on dispatched-but-unanswered requests;
        ``None`` means unbounded.  Overflow raises
        :class:`~repro.errors.ServiceOverloadError` from
        :meth:`submit`.
    compute_delay:
        Test hook: seconds each worker sleeps before computing — makes
        saturation and drain behaviour deterministic in tests.

    Serve it over HTTP with :func:`~repro.service.server.create_server`
    after :meth:`start`; :meth:`close` is the bounded drain.
    """

    def __init__(
        self,
        workers: int,
        *,
        cache_size: int = 1024,
        batch_size: int = 8,
        batch_wait: float = 0.002,
        threads: int = 4,
        max_queue: int | None = None,
        cache_dir: str | Path | None = None,
        compute_delay: float = 0.0,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be at least 1, got {workers}")
        self.max_queue = max_queue
        self._config = {
            "cache_size": cache_size,
            "batch_size": batch_size,
            "batch_wait": batch_wait,
            "threads": threads,
            # Worker-internal queues stay unbounded: the pool enforces
            # the bound at dispatch, before a request crosses the pipe,
            # so a shed request costs no worker work at all.
            "max_queue": None,
            "cache_dir": None if cache_dir is None else str(cache_dir),
            "compute_delay": compute_delay,
        }
        self._workers_requested = workers
        self._handles: list[_WorkerHandle] = []
        self._rid = 0
        self._rid_lock = threading.Lock()
        self._closed = False
        #: This process's half of the metrics: HTTP counters plus the
        #: requests no worker saw (followers and sheds).
        self.metrics = ServiceMetrics()
        # Single-flight: body digest -> future of the in-flight dispatch.
        self._inflight: dict[str, Future] = {}
        self._inflight_lock = threading.Lock()

    # ------------------------------------------------------------------
    def start(self, timeout: float = 60.0) -> None:
        """Spawn the workers and block until each answers a ping.

        The readiness gate matters on slow hosts: ``spawn`` re-imports
        :mod:`repro` in every child, and the server must not accept
        traffic that would race worker startup.
        """
        ctx = multiprocessing.get_context("spawn")
        for index in range(self._workers_requested):
            parent_conn, child_conn = ctx.Pipe(duplex=True)
            proc = ctx.Process(
                target=_pool_worker_main,
                args=(child_conn, self._config),
                name=f"repro-assign-worker-{index}",
                daemon=True,
            )
            proc.start()
            child_conn.close()
            handle = _WorkerHandle(index, proc, parent_conn)
            handle.reader = threading.Thread(
                target=handle.read_loop,
                name=f"repro-pool-reader-{index}",
                daemon=True,
            )
            handle.reader.start()
            self._handles.append(handle)
        deadline = time.monotonic() + timeout
        pings = [
            self._request(handle, ("ping",)) for handle in self._handles
        ]
        for index, future in enumerate(pings):
            remaining = deadline - time.monotonic()
            try:
                future.result(timeout=max(0.0, remaining))
            except Exception as exc:
                self.close(timeout=1.0)
                raise RuntimeError(
                    f"assignment worker {index} failed to start: {exc}"
                ) from exc

    @property
    def workers(self) -> int:
        """Live worker count."""
        return sum(1 for handle in self._handles if handle.alive)

    def _next_rid(self) -> int:
        with self._rid_lock:
            self._rid += 1
            return self._rid

    def _request(self, handle: _WorkerHandle, op: tuple) -> Future:
        rid = self._next_rid()
        future = handle.register(rid)
        try:
            handle.send(op[:1] + (rid,) + op[1:])
        except (BrokenPipeError, OSError) as exc:
            with handle.lock:
                handle.pending.pop(rid, None)
                handle.alive = False
            raise RuntimeError(
                f"worker {handle.index} is not reachable: {exc}"
            ) from exc
        return future

    # ------------------------------------------------------------------
    def assign_body(self, body: bytes) -> dict[str, Any]:
        """Serve one raw ``/assign`` body through a worker (the HTTP path).

        Identical bodies in flight share one dispatch: the first becomes
        the leader, later arrivals wait on its future and are booked as
        the in-process service books a coalesced miss — or not at all
        when the body fails validation, as in-process.  Raises the
        leader's failure — a :class:`RemoteAssignError` from the worker,
        :class:`~repro.errors.ServiceOverloadError` when the pool is
        full, ``RuntimeError`` when no worker is running.
        """
        # Admission mutates controller state per submission, so bodies
        # that carry an admit key must each reach a worker.
        if b'"admit"' in body:
            return self._dispatch(body)
        digest = hashlib.sha256(body).hexdigest()
        flight: Future = Future()
        with self._inflight_lock:
            leader = self._inflight.setdefault(digest, flight)
        if leader is not flight:
            return self._follow(leader)
        try:
            doc = self._dispatch(body)
        except BaseException as exc:
            with self._inflight_lock:
                self._inflight.pop(digest, None)
            flight.set_exception(exc)
            raise
        with self._inflight_lock:
            self._inflight.pop(digest, None)
        flight.set_result(doc)
        return doc

    def _follow(self, leader: Future) -> dict[str, Any]:
        start = time.perf_counter()
        source: str | None = "failed"
        try:
            doc = leader.result()
            source = "coalesced"
            return doc
        except RemoteAssignError as exc:
            if not exc.validated:
                source = None  # in-process, an invalid body books nothing
            raise
        finally:
            if source is not None:
                self.metrics.cache_misses.inc()
                self.metrics.singleflight_waits.inc()
                self.metrics.assignments.inc(source=source)
                self.metrics.assign_latency.observe(
                    time.perf_counter() - start
                )

    def _dispatch(self, body: bytes) -> dict[str, Any]:
        start = time.perf_counter()
        try:
            pending = self.submit(body)
        except BaseException:
            # Never dispatched, so no worker booked the assign-side
            # counters; book them as the in-process service would.
            self.metrics.cache_misses.inc()
            self.metrics.assignments.inc(source="failed")
            self.metrics.assign_latency.observe(time.perf_counter() - start)
            raise
        return pending.result()

    def render_metrics(self) -> str:
        """The merged exposition: every live worker's snapshot plus this
        process's counters (:func:`~repro.service.agg.aggregate_metrics`)."""
        return aggregate_metrics(
            self.metrics_snapshots(), base=self.metrics
        ).render()

    def submit(self, body: bytes) -> Future:
        """Dispatch one raw ``/assign`` body; returns its future.

        Picks the least-loaded live worker.  Raises
        :class:`~repro.errors.ServiceOverloadError` when every live
        worker already has ``max_queue`` requests in flight, and
        ``RuntimeError`` when no worker is alive at all.
        """
        if self._closed:
            raise RuntimeError("cannot submit to a closed WorkerPool")
        live = [handle for handle in self._handles if handle.alive]
        if not live:
            raise RuntimeError("no assignment workers are running")
        handle = min(live, key=lambda h: h.inflight)
        if (
            self.max_queue is not None
            and handle.inflight >= self.max_queue
        ):
            raise ServiceOverloadError(
                f"worker pool is full ({self.max_queue} requests in "
                f"flight on each of {len(live)} workers)"
            )
        return self._request(handle, ("assign", body))

    def metrics_snapshots(self, timeout: float = 5.0) -> list[dict]:
        """One metrics snapshot per live worker (dead workers skipped).

        A worker that fails to answer within *timeout* is skipped too:
        a scrape must degrade, not hang.
        """
        futures = []
        for handle in self._handles:
            if not handle.alive:
                continue
            try:
                futures.append(self._request(handle, ("metrics",)))
            except RuntimeError:
                continue
        wait(futures, timeout=timeout)
        snapshots = []
        for future in futures:
            if future.done() and future.exception() is None:
                snapshots.append(future.result())
        return snapshots

    # ------------------------------------------------------------------
    def close(self, timeout: float | None = None) -> None:
        """Stop every worker; bounded when *timeout* is given.

        Sends ``stop`` (workers drain their in-flight work, bounded by
        the same timeout), fails whatever futures remain after the
        wait, then joins — escalating to ``terminate``/``kill`` so the
        call returns even if a worker wedged.  Idempotent.
        """
        if self._closed:
            return
        self._closed = True
        deadline = (
            None if timeout is None else time.monotonic() + timeout
        )
        for handle in self._handles:
            try:
                handle.send(("stop", timeout))
            except (BrokenPipeError, OSError):
                pass
        outstanding = []
        for handle in self._handles:
            with handle.lock:
                outstanding.extend(handle.pending.values())
        if outstanding:
            budget = (
                None
                if deadline is None
                else max(0.0, deadline - time.monotonic())
            )
            wait(outstanding, timeout=budget)
            for future in outstanding:
                if future.cancel() or future.done():
                    continue
                try:
                    future.set_exception(
                        RuntimeError(
                            "worker pool drain timed out; "
                            "request abandoned"
                        )
                    )
                except Exception:  # noqa: BLE001 - racing resolution
                    pass
        for handle in self._handles:
            join_budget = (
                5.0
                if deadline is None
                else max(0.1, deadline - time.monotonic())
            )
            handle.proc.join(join_budget)
            if handle.proc.is_alive():
                handle.proc.terminate()
                handle.proc.join(1.0)
            if handle.proc.is_alive():  # pragma: no cover - last resort
                handle.proc.kill()
                handle.proc.join(1.0)
            try:
                handle.conn.close()
            except OSError:
                pass

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close(timeout=5.0)
