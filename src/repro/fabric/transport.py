"""Worker-side transports: how a worker reaches the queue and the store.

Two ways for a worker to participate in a sweep:

* :class:`LocalTransport` — the worker shares the coordinator's
  filesystem: it opens the same store directory (appends go through
  the store's ``fcntl`` file lock) and the same queue directory
  (manifest mutations go through the queue's lock).  This is the
  ``repro sweep --workers N`` mode: N worker processes, one store.

* :class:`HTTPTransport` — the worker only reaches the coordinator
  over HTTP: leases are pulled from and results pushed to the
  ``/fabric/*`` endpoints that the coordinator mounts on the
  :mod:`repro.service` HTTP server (the *served store*: remote workers
  never touch the store directory, the coordinator commits on their
  behalf).  This is the ``repro sweep --connect URL`` mode.

Both expose the same verbs — the batched ``lease_batch`` /
``complete_batch`` the worker loop drives (one lock acquisition or
HTTP round trip per *batch* of units), their singular ``lease`` /
``complete`` forms, ``heartbeat`` / ``release`` / ``finished``, and
``stored`` (a pre-compute shortcut only the local transport can
answer) — so :func:`repro.fabric.worker.worker_loop` is
transport-agnostic.  Group commit keeps the per-unit ordering
contract batch-wide: *all* of a batch's records land in the store
before *any* of its units is marked done.
"""

from __future__ import annotations

import json
import os
import urllib.error
import urllib.request
from pathlib import Path
from typing import Any

from ..errors import FabricError
from ..store import TrialStore
from .queue import WorkQueue
from .units import WorkUnit, unit_from_dict, unit_is_stored, unit_to_dict

__all__ = [
    "LocalTransport",
    "HTTPTransport",
    "UNITS_FORMAT",
    "write_units_file",
    "load_units_file",
]

UNITS_FORMAT = "repro.fabric-units/1"


def write_units_file(root: str | Path, sweep: str, units: list[WorkUnit]) -> Path:
    """Persist the sweep's unit payloads next to its queue (atomic).

    Written once by the coordinator; workers and resumed coordinators
    only read it.  Content is deterministic for a given sweep id, so
    an overwrite by a concurrent coordinator of the same sweep is a
    byte-identical no-op.
    """
    path = Path(root) / "UNITS.json"
    doc = {
        "format": UNITS_FORMAT,
        "sweep": sweep,
        "units": [unit_to_dict(u) for u in units],
    }
    tmp = path.with_name(path.name + f".tmp.{os.getpid()}")
    tmp.write_text(json.dumps(doc) + "\n")
    os.replace(tmp, path)
    return path


def load_units_file(root: str | Path) -> tuple[str, dict[str, dict[str, Any]]]:
    """Read the unit payloads; returns ``(sweep_id, unit_id -> document)``.

    Documents are decoded to :class:`WorkUnit` lazily (on lease) —
    decoding re-verifies each unit's content address, and a worker only
    ever touches a few units of a large sweep.
    """
    path = Path(root) / "UNITS.json"
    try:
        doc = json.loads(path.read_text())
    except FileNotFoundError:
        raise FabricError(f"no units file at {path}") from None
    except ValueError as exc:
        raise FabricError(f"unreadable units file {path}: {exc}") from exc
    if doc.get("format") != UNITS_FORMAT:
        raise FabricError(
            f"units file {path} has format {doc.get('format')!r}; "
            f"this code reads {UNITS_FORMAT!r}"
        )
    by_id: dict[str, dict[str, Any]] = {}
    for entry in doc.get("units", ()):
        by_id[entry["unit"]] = entry
    return doc.get("sweep", ""), by_id


class LocalTransport:
    """Shared-filesystem transport: one store + queue directory.

    ``store`` may be an already-open :class:`TrialStore` (the
    coordinator finishing inline reuses its own) or a path; only a
    store opened here is closed by :meth:`close`.
    """

    def __init__(
        self,
        store: TrialStore | str | Path,
        fabric_root: str | Path,
    ) -> None:
        self._owns_store = not isinstance(store, TrialStore)
        self.store = store if isinstance(store, TrialStore) else TrialStore(store)
        self.fabric_root = Path(fabric_root)
        self.queue = WorkQueue(self.fabric_root)
        self._sweep, self._unit_docs = load_units_file(self.fabric_root)

    def lease_batch(self, worker: str, k: int, ttl: float) -> list[WorkUnit]:
        unit_ids = self.queue.lease_batch(worker, k, ttl)
        units: list[WorkUnit] = []
        for unit_id in unit_ids:
            doc = self._unit_docs.get(unit_id)
            if doc is None:
                # Manifest and units file disagree — corrupt state; put
                # every lease of this batch back so other workers are
                # not starved by it.
                for uid in unit_ids:
                    self.queue.release(worker, uid)
                raise FabricError(
                    f"unit {unit_id[:12]}... is in the queue but not in "
                    "the units file"
                )
            units.append(unit_from_dict(doc))
        return units

    def lease(self, worker: str, ttl: float) -> WorkUnit | None:
        batch = self.lease_batch(worker, 1, ttl)
        return batch[0] if batch else None

    def heartbeat(self, worker: str, ttl: float) -> None:
        self.queue.heartbeat(worker, ttl)

    def stored(self, unit: WorkUnit) -> bool:
        return unit_is_stored(self.store, unit)

    def complete_batch(
        self,
        worker: str,
        units: list[WorkUnit],
        records: list[tuple[str, Any]],
    ) -> None:
        # Records first, then the done marks: a crash in between
        # re-issues units whose recompute commits nothing new (the
        # store skips present keys) — never a done unit without records.
        self.store.put_many(records)
        self.queue.complete_batch(worker, [u.unit_id for u in units])

    def complete(
        self,
        worker: str,
        unit: WorkUnit,
        records: list[tuple[str, Any]],
    ) -> None:
        self.complete_batch(worker, [unit], records)

    def release(self, worker: str, unit: WorkUnit) -> None:
        self.queue.release(worker, unit.unit_id)

    def finished(self) -> bool:
        return self.queue.finished()

    def close(self) -> None:
        if self._owns_store:
            self.store.close()


class HTTPTransport:
    """Remote-worker transport speaking to a coordinator's ``/fabric/*``.

    Stateless besides the base URL; every call is one JSON POST (or
    GET for status).  Non-2xx replies surface as :class:`FabricError` —
    the worker loop treats them as fatal.  Connection-level failures
    are fatal only before the first successful exchange (a bad URL
    should fail loudly); afterwards an unreachable coordinator reads
    as "sweep over" — the coordinator tears its server down the moment
    the queue finishes, so a lease poll racing the shutdown must not
    crash the worker.  A worker is never mid-``complete`` at that
    point: the queue cannot finish until the last completion lands.
    """

    def __init__(self, base_url: str, *, timeout: float = 30.0) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        self._finished = False
        self._connected = False

    # ------------------------------------------------------------------
    def _request(
        self,
        path: str,
        doc: dict[str, Any] | None = None,
        *,
        graceful: bool = False,
    ) -> dict[str, Any] | None:
        """One exchange; ``graceful`` turns post-connection outages
        (coordinator shut down after finishing) into ``None``."""
        url = f"{self.base_url}{path}"
        if doc is None:
            req = urllib.request.Request(url, method="GET")
        else:
            body = json.dumps(doc).encode()
            req = urllib.request.Request(
                url,
                data=body,
                method="POST",
                headers={"Content-Type": "application/json"},
            )
        try:
            with urllib.request.urlopen(req, timeout=self.timeout) as resp:
                payload = json.loads(resp.read().decode() or "null")
        except urllib.error.HTTPError as exc:
            try:
                detail = json.loads(exc.read().decode()).get("error", "")
            except Exception:  # noqa: BLE001 - best-effort error body
                detail = ""
            raise FabricError(
                f"coordinator rejected {path}: HTTP {exc.code} {detail}"
            ) from exc
        except (urllib.error.URLError, OSError, ValueError) as exc:
            if graceful and self._connected:
                self._finished = True
                return None
            raise FabricError(
                f"cannot reach coordinator at {url}: {exc}"
            ) from exc
        if not isinstance(payload, dict):
            raise FabricError(f"malformed coordinator reply on {path}")
        self._connected = True
        return payload

    # ------------------------------------------------------------------
    def lease_batch(self, worker: str, k: int, ttl: float) -> list[WorkUnit]:
        reply = self._request(
            "/fabric/lease",
            {"worker": worker, "ttl": ttl, "max": k},
            graceful=True,
        )
        if reply is None:
            return []
        self._finished = bool(reply.get("finished"))
        unit_docs = reply.get("units")
        if not isinstance(unit_docs, list):
            raise FabricError("malformed coordinator reply on /fabric/lease")
        return [unit_from_dict(doc) for doc in unit_docs]

    def lease(self, worker: str, ttl: float) -> WorkUnit | None:
        batch = self.lease_batch(worker, 1, ttl)
        return batch[0] if batch else None

    def heartbeat(self, worker: str, ttl: float) -> None:
        self._request(
            "/fabric/heartbeat", {"worker": worker, "ttl": ttl}, graceful=True
        )

    def stored(self, unit: WorkUnit) -> bool:
        return False  # only the coordinator can see the store

    def complete_batch(
        self,
        worker: str,
        units: list[WorkUnit],
        records: list[tuple[str, Any]],
    ) -> None:
        self._request(
            "/fabric/complete",
            {
                "worker": worker,
                "units": [u.unit_id for u in units],
                "records": [[k, v] for k, v in records],
            },
        )

    def complete(
        self,
        worker: str,
        unit: WorkUnit,
        records: list[tuple[str, Any]],
    ) -> None:
        self.complete_batch(worker, [unit], records)

    def release(self, worker: str, unit: WorkUnit) -> None:
        self._request(
            "/fabric/release", {"worker": worker, "units": [unit.unit_id]}
        )

    def finished(self) -> bool:
        if self._finished:
            return True
        reply = self._request("/fabric/status", graceful=True)
        if reply is None:
            return True
        self._finished = bool(reply.get("finished"))
        return self._finished

    def close(self) -> None:
        pass
