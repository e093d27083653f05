"""Online deadline-assignment service (the serving layer).

Turns the library into a request/response system: clients POST a task
graph + platform + metric choice and receive the per-task
arrival/deadline slices that :func:`repro.core.slicing.distribute_deadlines`
would compute offline, optionally together with a stateful admission
verdict from :class:`repro.online.AdmissionController`.

Composition of one request:

``request_from_dict`` (strict validation) → ``request_digest``
(canonical SHA-256 content address) → :class:`AssignmentCache` (LRU;
repeated workloads skip the slicing hot path) → single-flight
coalescing (concurrent identical misses share one computation) →
:class:`MicroBatcher` (distinct misses coalesce into worker-pool
batches, bounded by ``max_queue`` — overflow is shed as
:class:`~repro.errors.ServiceOverloadError` / HTTP 429) →
``response_to_dict``.  :class:`ServiceMetrics` counts every step and
renders Prometheus text for ``GET /metrics``.

Run it with ``python -m repro serve`` or embed
:class:`DeadlineAssignmentService` directly.

One HTTP server, :class:`ServiceHTTPServer` (stdlib threading), serves
two backends with one handler and one error mapping: ``--workers 1``
runs the engine in-process, while ``--workers N`` hands raw request
bodies to a :class:`WorkerPool` of N pre-forked worker processes, each
running its own engine.  The pool adds body-hash single-flight, the
per-worker 429 bound and the merged ``/metrics`` exposition
(:func:`aggregate_metrics`) — the horizontal-scale path for multi-core
hosts.
"""

from .api import (
    AssignRequest,
    AssignResponse,
    TaskSlice,
    request_digest,
    request_from_dict,
    response_from_assignment,
    response_to_dict,
)
from ..errors import ServiceOverloadError
from .batch import MicroBatcher
from .cache import AssignmentCache, CacheStats, StoreSpill
from .agg import aggregate_metrics
from .metrics import Counter, LatencySummary, ServiceMetrics, render_prometheus
from .pool import RemoteAssignError, WorkerPool, default_workers
from .server import DeadlineAssignmentService, ServiceHTTPServer, create_server

__all__ = [
    "AssignRequest",
    "AssignResponse",
    "TaskSlice",
    "request_from_dict",
    "request_digest",
    "response_from_assignment",
    "response_to_dict",
    "AssignmentCache",
    "CacheStats",
    "StoreSpill",
    "MicroBatcher",
    "ServiceOverloadError",
    "Counter",
    "LatencySummary",
    "ServiceMetrics",
    "render_prometheus",
    "DeadlineAssignmentService",
    "ServiceHTTPServer",
    "create_server",
    "WorkerPool",
    "RemoteAssignError",
    "aggregate_metrics",
    "default_workers",
]
