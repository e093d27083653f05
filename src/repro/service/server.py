"""The online deadline-assignment service and its HTTP server.

Two layers:

* :class:`DeadlineAssignmentService` — the embeddable engine: canonical
  digest → LRU cache → single-flight coalescing → micro-batched
  slicing, plus an optional stateful admission path that reuses
  :class:`repro.online.AdmissionController` (one controller per
  distinct platform, keyed by platform digest, so successive admitted
  applications accumulate residual-capacity commitments exactly as in
  the offline §7.2 experiments).

  Concurrency model: deadline distribution is deterministic in its
  canonical inputs, so N concurrent misses on the same digest share
  *one* computation (a digest-keyed in-flight future map — the waiters
  show up as ``repro_singleflight_waits_total``); admission is
  serialized per platform digest only, so distinct platforms admit
  concurrently while each controller's state stays single-writer; and
  the micro-batcher's ``max_queue`` bound sheds overload as
  :class:`~repro.errors.ServiceOverloadError`, which the HTTP layer
  maps to ``429`` with a ``Retry-After`` header.
* :func:`create_server` — a :class:`ThreadingHTTPServer` exposing

  - ``POST /assign``  — JSON request in, per-task slices (+ verdict) out,
  - ``GET /healthz``  — liveness probe,
  - ``GET /metrics``  — Prometheus text exposition,
  - ``/fabric/*``     — a mounted sweep-fabric endpoint, if any,

  over one *backend*: this module's service in-process (``repro serve
  --workers 1``) or a :class:`~repro.service.pool.WorkerPool` of N
  worker processes (``--workers N``).  Both take the raw request body
  and fail in the same four categories (:func:`error_category`), so
  one handler gives both topologies the same replies, byte for byte.

Every :class:`~repro.errors.ReproError` maps to HTTP 400 with a JSON
``{"error": ..., "kind": ...}`` body, an unparsable body to 400, an
overload to 429 and anything else to 500.  The response's ``cached``
flag and the cache-hit counters make the caching behaviour observable
end to end.
"""

from __future__ import annotations

import hashlib
import json
import threading
import time
from concurrent.futures import Future
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Any

from ..core.assignment import DeadlineAssignment
from ..core.estimation import get_estimator
from ..core.metrics import get_metric
from ..core.slicing import distribute_deadlines
from ..errors import ReproError, ServiceOverloadError
from ..online.admission import AdmissionController, AdmissionDecision
from ..store import TrialStore
from ..system.platform import Platform
from .api import (
    AssignRequest,
    AssignResponse,
    _canonical_platform_doc,
    request_digest,
    request_from_dict,
    response_from_assignment,
    response_to_dict,
)
from .batch import MicroBatcher
from .cache import AssignmentCache, StoreSpill
from .metrics import ServiceMetrics
from .pool import RemoteAssignError, WorkerPool

__all__ = [
    "DeadlineAssignmentService",
    "ServiceHTTPServer",
    "create_server",
    "error_category",
    "BadJSONBody",
    "MAX_BODY_BYTES",
    "VEC_FLUSH_MIN",
]

#: Micro-batcher flush size at which distinct-workload batches route
#: through the vectorized estimate/weight stages (:mod:`repro.kernel.vec`)
#: instead of per-request kernel calls.  Single-flight guarantees the
#: items of one flush carry distinct digests, so a flush this large is
#: by construction a batch of ≥ VEC_FLUSH_MIN distinct workloads.
VEC_FLUSH_MIN = 8

#: Largest request body the HTTP layer reads (413 above it).
MAX_BODY_BYTES = 64 << 20


class BadJSONBody(Exception):
    """A request body that is not valid UTF-8 JSON."""


def decode_body(body: bytes) -> Any:
    """Parse a raw request body; an empty body reads as ``null``."""
    try:
        return json.loads(body.decode() or "null")
    except (ValueError, UnicodeDecodeError) as exc:
        raise BadJSONBody(str(exc)) from None


def error_category(exc: BaseException) -> tuple[str, str, str]:
    """``(category, kind, message)`` of a failed request.

    The category is ``overload``, ``bad_json``, ``repro`` or
    ``internal`` — the four replies of the HTTP contract (429, the
    bad-JSON 400, the ``{"error", "kind"}`` 400, 500); ``kind`` labels
    ``repro_errors_total``.  A pool worker sends this triple over its
    pipe and the pool re-raises it as :class:`RemoteAssignError`, which
    maps back to itself, so one handler serves both backends.
    """
    if isinstance(exc, RemoteAssignError):
        return exc.category, exc.kind, exc.message
    if isinstance(exc, ServiceOverloadError):
        return "overload", "ServiceOverloadError", str(exc)
    if isinstance(exc, BadJSONBody):
        return "bad_json", "bad_json", str(exc)
    if isinstance(exc, ReproError):
        return "repro", type(exc).__name__, str(exc)
    return "internal", "internal", str(exc)


class DeadlineAssignmentService:
    """Cache-fronted, micro-batched deadline-assignment engine.

    Parameters
    ----------
    cache_size:
        LRU entry budget for computed assignments.
    batch_size / batch_wait / workers:
        Micro-batcher knobs (largest batch, max coalescing wait in
        seconds, pool threads).
    max_queue:
        Bound on in-flight micro-batcher items; overflow raises
        :class:`~repro.errors.ServiceOverloadError` (the backpressure
        path).  ``None`` (default) keeps the queue unbounded.
    cache_dir:
        Optional directory for a persistent :class:`~repro.store.TrialStore`
        backing the LRU as a durable spill tier: computed assignments
        are written through to disk, LRU evictions only drop the memory
        copy, and a restarted service pointed at the same directory
        serves previously computed requests from the store (``cached``
        true on the very first request after restart).  The store's own
        counters appear as ``repro_store_*`` on ``GET /metrics``.
    """

    def __init__(
        self,
        *,
        cache_size: int = 1024,
        batch_size: int = 8,
        batch_wait: float = 0.002,
        workers: int = 4,
        max_queue: int | None = None,
        cache_dir: str | Path | None = None,
    ) -> None:
        self.metrics = ServiceMetrics()
        self.store: TrialStore | None = None
        spill: StoreSpill[DeadlineAssignment] | None = None
        if cache_dir is not None:
            self.store = TrialStore(cache_dir)
            spill = StoreSpill(
                self.store,
                encode=DeadlineAssignment.to_dict,
                decode=DeadlineAssignment.from_dict,
            )
            self.metrics.set_store_stats_provider(self.store.stats)
        self.cache: AssignmentCache[DeadlineAssignment] = AssignmentCache(
            cache_size, spill=spill
        )
        self.batcher: MicroBatcher[AssignRequest, DeadlineAssignment] = (
            MicroBatcher(
                self._compute,
                max_batch=batch_size,
                max_wait=batch_wait,
                workers=workers,
                max_queue=max_queue,
                on_batch=self.metrics.observe_batch,
                flush_handler=self._compute_flush,
                flush_min=VEC_FLUSH_MIN,
            )
        )
        # Single-flight: digest -> future of the in-flight computation.
        self._inflight: dict[str, Future[DeadlineAssignment]] = {}
        self._inflight_lock = threading.Lock()
        # Admission sharding: the registry lock only guards the two
        # dicts; each platform's controller serializes on its own lock.
        self._controllers: dict[str, AdmissionController] = {}
        self._admission_locks: dict[str, threading.Lock] = {}
        self._registry_lock = threading.Lock()
        self._app_seq = 0
        self._app_seq_lock = threading.Lock()

    # ------------------------------------------------------------------
    def assign(self, request: AssignRequest) -> AssignResponse:
        """Serve one request: cache lookup, else single-flight computation.

        Latency is observed on *every* path, including failures, and a
        failed computation still lands an ``assignments`` bump (as
        ``source="failed"``) so ``repro_assignments_total`` always equals
        ``cache_hits + cache_misses`` — the invariant dashboards divide
        by.  A miss that finds an identical computation already in
        flight waits for it instead of recomputing (``source=
        "coalesced"``, counted in ``repro_singleflight_waits_total``).
        """
        start = time.perf_counter()
        try:
            digest = request_digest(request)
            assignment = self.cache.get(digest)
            cached = assignment is not None
            if cached:
                self.metrics.cache_hits.inc()
                self.metrics.assignments.inc(source="cache")
            else:
                self.metrics.cache_misses.inc()
                assignment = self._compute_single_flight(digest, request)
            admission = self._admit(request) if request.admit else None
        finally:
            self.metrics.assign_latency.observe(time.perf_counter() - start)
        return response_from_assignment(
            assignment, digest, cached=cached, admission=admission
        )

    def _compute_single_flight(
        self, digest: str, request: AssignRequest
    ) -> DeadlineAssignment:
        """Compute *request*, coalescing concurrent identical misses.

        Sound because the computation is a pure function of the digest
        (the cache's own soundness argument): whoever installs the
        in-flight future first becomes the leader and computes; every
        later arrival with the same digest blocks on that future and
        shares the result — success and failure alike.  The leader
        publishes to the cache *before* retiring the future, so a miss
        that finds neither a cache entry nor an in-flight future can
        only recompute something the cache has since evicted.
        """
        flight: Future[DeadlineAssignment] = Future()
        with self._inflight_lock:
            leader = self._inflight.get(digest)
            if leader is None:
                self._inflight[digest] = flight
        if leader is not None:
            self.metrics.singleflight_waits.inc()
            try:
                assignment = leader.result()
            except BaseException:
                self.metrics.assignments.inc(source="failed")
                raise
            self.metrics.assignments.inc(source="coalesced")
            return assignment
        try:
            assignment = self.batcher.submit(request).result()
        except BaseException as exc:
            self.metrics.assignments.inc(source="failed")
            with self._inflight_lock:
                self._inflight.pop(digest, None)
            flight.set_exception(exc)
            raise
        self.cache.put(digest, assignment)
        self.metrics.assignments.inc(source="computed")
        with self._inflight_lock:
            self._inflight.pop(digest, None)
        flight.set_result(assignment)
        return assignment

    def assign_dict(self, data: Any) -> dict[str, Any]:
        """Dict-in/dict-out convenience wrapper."""
        return response_to_dict(self.assign(request_from_dict(data)))

    def assign_body(self, body: bytes) -> dict[str, Any]:
        """The HTTP ``/assign`` path: raw JSON bytes in, response doc out.

        Raises :class:`BadJSONBody` for an unparsable body, else
        whatever :meth:`assign_dict` raises.
        """
        return self.assign_dict(decode_body(body))

    def render_metrics(self) -> str:
        """The ``GET /metrics`` exposition."""
        return self.metrics.render()

    def close(self, timeout: float | None = None) -> None:
        """Stop the batcher; in-flight requests complete first.

        With a *timeout* the drain is bounded: outstanding computations
        get up to that many seconds, then their futures are failed so
        no caller is left hanging (see :meth:`MicroBatcher.close`).
        The persistent store (if any) closes after the drain, so every
        completed computation's write-through lands before its lock is
        released.
        """
        self.batcher.close(timeout=timeout)
        if self.store is not None:
            self.store.close()

    def __enter__(self) -> "DeadlineAssignmentService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    def _compute(self, request: AssignRequest) -> DeadlineAssignment:
        return distribute_deadlines(
            request.graph,
            request.platform,
            request.metric,
            estimator=request.estimator,
            params=request.params,
        )

    def _compute_flush(
        self, requests: "list[AssignRequest]"
    ) -> list:
        """Compute one micro-batcher flush, batch-first.

        Lanes inside the vectorized envelope — compiled-kernel metric,
        batchable WCET-* estimator, ``REPRO_KERNEL`` not disabled —
        share one :func:`vec_estimates_batch` + :func:`vec_weights_batch`
        array pass per (metric, estimator) group before running the
        per-lane slicing DP, exactly the stages
        :func:`distribute_deadlines`'s kernel path runs per-request.
        Everything else — and every lane when fewer than
        :data:`VEC_FLUSH_MIN` are eligible — falls back to the scalar
        :meth:`_compute`, so unsupported metrics and validation errors
        behave verbatim like the per-request path.  Returns one
        result-or-exception per request, in order (the
        :class:`MicroBatcher` flush contract).
        """
        results: list = [None] * len(requests)
        plan: list = [None] * len(requests)
        groups: dict[tuple, list[int]] = {}
        for i, request in enumerate(requests):
            gate = self._vec_flush_gate(request)
            if gate is None:
                continue
            plan[i] = gate
            metric_obj, est_obj = gate
            params = request.params
            key = (
                request.metric,
                est_obj.name,
                None
                if params is None
                else (
                    params.k_g,
                    params.k_l,
                    params.c_thres,
                    params.c_thres_factor,
                ),
            )
            groups.setdefault(key, []).append(i)
        batched: set[int] = set()
        if sum(len(lanes) for lanes in groups.values()) >= VEC_FLUSH_MIN:
            for lanes in groups.values():
                batched |= self._vec_flush_group(
                    requests, lanes, plan, results
                )
        for i, request in enumerate(requests):
            if i in batched:
                continue
            try:
                results[i] = self._compute(request)
            except BaseException as exc:  # noqa: BLE001 - routed per lane
                results[i] = exc
        return results

    def _vec_flush_gate(self, request: AssignRequest):
        """``(metric_obj, est_obj)`` when *request* may take the batch
        tier, else ``None`` (the scalar path decides everything)."""
        from ..kernel import KERNEL_METRIC_TYPES
        from ..kernel.trial import kernel_enabled
        from ..kernel.vec import estimator_batch_supported

        if not kernel_enabled():
            return None
        try:
            metric_obj = get_metric(request.metric, request.params)
            est_obj = get_estimator(request.estimator)
        except Exception:  # noqa: BLE001 - scalar path raises verbatim
            return None
        if type(metric_obj) not in KERNEL_METRIC_TYPES:
            return None
        if not estimator_batch_supported(est_obj.name):
            return None
        return metric_obj, est_obj

    def _vec_flush_group(
        self,
        requests: "list[AssignRequest]",
        lanes: "list[int]",
        plan: list,
        results: list,
    ) -> set[int]:
        """Run one (metric, estimator) lane group through the vec tier.

        Returns the lane indices it fully answered (result *or*
        exception installed in *results*); the rest — invalid graphs,
        error lanes the array stages flag as ``None`` — retry through
        the scalar path so reference exceptions surface verbatim.
        """
        from ..graph.validation import validate_graph
        from ..kernel import compile_workload, kernel_slice
        from ..kernel.vec import vec_estimates_batch, vec_weights_batch

        metric_obj, est_obj = plan[lanes[0]]
        cws = []
        ok_lanes: list[int] = []
        for i in lanes:
            request = requests[i]
            try:
                validate_graph(request.graph).raise_if_invalid()
                cws.append(
                    compile_workload(request.graph, request.platform)
                )
            except Exception:  # noqa: BLE001 - scalar retry re-raises
                continue
            ok_lanes.append(i)
        if not ok_lanes:
            return set()
        try:
            ests = vec_estimates_batch(cws, est_obj.name)
            weights = vec_weights_batch(
                cws, metric_obj, ests, est_obj.name
            )
        except Exception:  # noqa: BLE001 - batch stage bailed; go scalar
            return set()
        done: set[int] = set()
        for b, i in enumerate(ok_lanes):
            if ests[b] is None or weights[b] is None:
                continue  # error lane: scalar retry raises verbatim
            try:
                ka = kernel_slice(cws[b], metric_obj, weights[b])
                results[i] = ka.to_assignment(cws[b], est_obj.name)
            except BaseException as exc:  # noqa: BLE001 - same as scalar
                results[i] = exc
            done.add(i)
        return done

    def _platform_key(self, platform: Platform) -> str:
        text = json.dumps(
            _canonical_platform_doc(platform),
            sort_keys=True,
            separators=(",", ":"),
        )
        return hashlib.sha256(text.encode()).hexdigest()

    def _admission_shard(
        self, request: AssignRequest
    ) -> tuple[threading.Lock, AdmissionController]:
        """The (lock, controller) pair serving *request*'s platform.

        Creation is idempotent under the registry lock; afterwards the
        registry is never needed again for this platform — submissions
        serialize only on the per-platform lock, so admissions to
        distinct platforms proceed concurrently.
        """
        key = self._platform_key(request.platform)
        with self._registry_lock:
            lock = self._admission_locks.setdefault(key, threading.Lock())
            controller = self._controllers.get(key)
            if controller is None:
                controller = AdmissionController(
                    request.platform,
                    metric=request.metric,
                    estimator=request.estimator,
                    params=request.params,
                )
                self._controllers[key] = controller
        return lock, controller

    def _generate_app_id(self, controller: AdmissionController) -> str:
        """A fresh ``app-N`` id that cannot shadow a committed one.

        The sequence advances only when the service actually generates
        an id (caller-supplied names never consume numbers), and any
        value a caller already committed under — e.g. a client that
        named its app ``app-2`` — is skipped, so generated ids never
        collide with admitted applications.
        """
        committed = set(controller.admitted_ids())
        while True:
            with self._app_seq_lock:
                self._app_seq += 1
                candidate = f"app-{self._app_seq}"
            if candidate not in committed:
                return candidate

    def _admit(self, request: AssignRequest) -> AdmissionDecision:
        """Run the stateful admission path for *request*.

        The controller for the request's platform is created on first
        use and keeps its commitments across requests; its per-platform
        lock serializes submissions because controller state is not
        thread-safe and arrivals must be monotone — but only within the
        platform, so unrelated platforms never queue on each other.
        """
        lock, controller = self._admission_shard(request)
        with lock:
            app_id = request.app_id or self._generate_app_id(controller)
            arrival = (
                request.arrival
                if request.arrival is not None
                else controller.clock
            )
            decision = controller.submit(
                app_id,
                request.graph,
                arrival=arrival,
                relative_deadline=request.relative_deadline,
            )
        outcome = "admitted" if decision.admitted else "rejected"
        self.metrics.admissions.inc(outcome=outcome)
        return decision

    def admission_controller(
        self, platform: Platform
    ) -> AdmissionController | None:
        """The controller serving *platform*'s admissions, if any yet."""
        with self._registry_lock:
            return self._controllers.get(self._platform_key(platform))


class ServiceHTTPServer(ThreadingHTTPServer):
    """Threading HTTP server bound to one assignment backend.

    The backend is either a :class:`DeadlineAssignmentService` (the
    in-process engine) or a started
    :class:`~repro.service.pool.WorkerPool`; the handler only uses
    what both provide — ``assign_body(body)``, ``render_metrics()``
    and the ``metrics`` its HTTP counters land in.
    """

    daemon_threads = True

    def __init__(
        self,
        address: tuple[str, int],
        service: DeadlineAssignmentService | WorkerPool,
        *,
        retry_after: int = 1,
        fabric: Any = None,
    ) -> None:
        super().__init__(address, _ServiceRequestHandler)
        self.service = service
        self.retry_after = retry_after
        #: Optional sweep-fabric endpoint (see :mod:`repro.fabric`):
        #: when set, ``/fabric/*`` requests are dispatched to its
        #: ``handle(method, path, doc)``; when ``None`` they 404.
        self.fabric = fabric


class _ServiceRequestHandler(BaseHTTPRequestHandler):
    server: ServiceHTTPServer
    protocol_version = "HTTP/1.1"
    # Small JSON responses after sub-ms cache hits sit exactly in the
    # Nagle + delayed-ACK stall window; send segments immediately.
    disable_nagle_algorithm = True

    # ------------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - http.server API
        if self.path == "/healthz":
            self._send_json(200, {"status": "ok"}, endpoint="healthz")
        elif self.path.startswith("/fabric/"):
            self._handle_fabric("GET", None)
        elif self.path == "/metrics":
            backend = self.server.service
            body = backend.render_metrics().encode()
            backend.metrics.requests.inc(endpoint="metrics", status="200")
            self.send_response(200)
            self.send_header("Content-Type", "text/plain; version=0.0.4")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)
        else:
            self._send_json(
                404,
                {"error": f"unknown path {self.path!r}"},
                endpoint="unknown",
            )

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        if self.path == "/assign":
            endpoint = "assign"
        elif self.path.startswith("/fabric/"):
            endpoint = "fabric"
        else:
            endpoint = "unknown"
        # Every body is read before replying, even one we will not use,
        # or its bytes desync the next request on this connection.
        body = self._read_body(endpoint)
        if body is None:
            return
        if endpoint == "fabric":
            self._handle_fabric("POST", body)
            return
        if endpoint == "unknown":
            self._send_json(
                404,
                {"error": f"unknown path {self.path!r}"},
                endpoint="unknown",
            )
            return
        try:
            doc = self.server.service.assign_body(body)
        except Exception as exc:  # noqa: BLE001 - mapped by category
            self._send_error(exc, endpoint="assign")
            return
        self._send_json(200, doc, endpoint="assign")

    def _read_body(self, endpoint: str) -> bytes | None:
        """The request body, or ``None`` once a framing error is answered.

        Only ``Content-Length`` framing is accepted.  A chunked body or
        an unparsable or negative length gets a 400, a body over
        :data:`MAX_BODY_BYTES` a 413; either way the connection closes
        after the reply, because the stream position past such a
        request is unknown and keep-alive cannot resume.
        """
        if "chunked" in self.headers.get("Transfer-Encoding", "").lower():
            status, error = 400, "chunked transfer encoding is not supported"
        else:
            try:
                length = int(self.headers.get("Content-Length") or "0")
            except ValueError:
                length = -1
            if 0 <= length <= MAX_BODY_BYTES:
                return self.rfile.read(length)
            if length < 0:
                status, error = 400, "invalid Content-Length"
            else:
                status, error = 413, "request body too large"
        self._send_json(
            status,
            {"error": error},
            endpoint=endpoint,
            extra_headers={"Connection": "close"},
        )
        return None

    def _handle_fabric(self, method: str, body: bytes | None) -> None:
        """Dispatch one ``/fabric/*`` request to the mounted endpoint.

        The endpoint object is duck-typed (``handle(method, path, doc)
        -> (status, body)``) so the service layer does not import
        :mod:`repro.fabric`; errors map exactly like ``/assign``'s.
        """
        fabric = self.server.fabric
        try:
            doc = None if body is None else decode_body(body)
            if fabric is None:
                status, reply = 404, {
                    "error": "no sweep fabric mounted on this server"
                }
            else:
                status, reply = fabric.handle(method, self.path, doc)
        except Exception as exc:  # noqa: BLE001 - mapped by category
            self._send_error(exc, endpoint="fabric")
            return
        self._send_json(status, reply, endpoint="fabric")

    # ------------------------------------------------------------------
    def _send_error(self, exc: Exception, *, endpoint: str) -> None:
        """The one failure mapping, for both backends and every route.

        Overload → 429 with ``Retry-After`` (backpressure: shed instead
        of queueing), an unparsable body → 400, a
        :class:`~repro.errors.ReproError` → 400 with its ``kind``,
        anything else → 500.
        """
        category, kind, message = error_category(exc)
        metrics = self.server.service.metrics
        metrics.errors.inc(kind=kind)
        headers = None
        if category == "overload":
            metrics.overloads.inc()
            status, doc = 429, {"error": message, "kind": kind}
            headers = {"Retry-After": str(self.server.retry_after)}
        elif category == "bad_json":
            status = 400
            doc = {"error": f"request body is not valid JSON: {message}"}
        elif category == "repro":
            status, doc = 400, {"error": message, "kind": kind}
        else:
            status, doc = 500, {"error": f"internal error: {message}"}
        self._send_json(status, doc, endpoint=endpoint, extra_headers=headers)

    def _send_json(
        self,
        status: int,
        doc: dict[str, Any],
        *,
        endpoint: str,
        extra_headers: dict[str, str] | None = None,
    ) -> None:
        # Serialize before touching the wire or the request counter: a
        # non-finite float in *doc* must degrade to a 500 JSON reply (and
        # be counted as such), not kill the connection after metrics
        # already claimed a success.
        metrics = self.server.service.metrics
        try:
            body = json.dumps(doc, allow_nan=False).encode()
        except ValueError:
            status = 500
            metrics.errors.inc(kind="non_finite_json")
            body = json.dumps(
                {"error": "internal error: response contained non-finite numbers"}
            ).encode()
        metrics.requests.inc(endpoint=endpoint, status=str(status))
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (extra_headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        pass  # request logging is the metrics endpoint's job


def create_server(
    host: str = "127.0.0.1",
    port: int = 8077,
    service: DeadlineAssignmentService | WorkerPool | None = None,
    *,
    retry_after: int = 1,
    fabric: Any = None,
) -> ServiceHTTPServer:
    """Bind a :class:`ServiceHTTPServer`; ``port=0`` picks a free port.

    ``service`` is the backend: a :class:`DeadlineAssignmentService`
    (a fresh one when omitted) or a started
    :class:`~repro.service.pool.WorkerPool`.  ``retry_after`` is the
    ``Retry-After`` hint (seconds) attached to 429 responses when the
    backend sheds load.  ``fabric`` mounts a
    sweep-fabric endpoint (``/fabric/*`` lease/complete/heartbeat/
    status routes for remote sweep workers — see :mod:`repro.fabric`).
    The caller owns the lifecycle: ``serve_forever()`` to run,
    ``shutdown()``/``server_close()`` to stop, and
    ``server.service.close()`` to drain the backend (pass a timeout
    for a bounded drain).
    """
    if service is None:
        service = DeadlineAssignmentService()
    return ServiceHTTPServer(
        (host, port), service, retry_after=retry_after, fabric=fabric
    )
