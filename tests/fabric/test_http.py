"""The fabric's HTTP face: endpoint validation and remote workers.

Endpoint tests drive ``FabricEndpoint.handle`` directly (no sockets);
the integration tests mount it on the real service front end and run
``HTTPTransport`` workers against it, including the full
remote-workers-only sweep that must stay bit-identical.
"""

from __future__ import annotations

import json
import threading

import pytest

from repro.errors import FabricError
from repro.experiments.runner import run_experiment
from repro.fabric import (
    FabricCoordinator,
    HTTPTransport,
    compute_unit,
    worker_loop,
)
from repro.service import DeadlineAssignmentService, create_server
from repro.service.metrics import ServiceMetrics

TRIALS, SEED, CHUNK = 8, 41, 4


@pytest.fixture
def coordinator(spec, tmp_path):
    c = FabricCoordinator(
        spec,
        trials=TRIALS,
        seed=SEED,
        chunk_size=CHUNK,
        store=tmp_path / "s",
        lease_ttl=5.0,
    )
    yield c
    c.close()


class TestEndpoint:
    def test_lease_complete_round_trip(self, coordinator):
        endpoint = coordinator.endpoint()
        status, reply = endpoint.handle(
            "POST", "/fabric/lease", {"worker": "w"}
        )
        assert status == 200 and len(reply["units"]) == 1
        assert "unit" not in reply
        from repro.fabric import unit_from_dict

        unit = unit_from_dict(reply["units"][0])
        records = compute_unit(unit)
        status, reply = endpoint.handle(
            "POST",
            "/fabric/complete",
            {
                "worker": "w",
                "units": [unit.unit_id],
                "records": [[k, v] for k, v in records],
            },
        )
        assert status == 200 and reply["done"] == 1
        assert reply["appended"] == len(records)
        # Idempotent: a second completion transitions nothing.
        status, reply = endpoint.handle(
            "POST",
            "/fabric/complete",
            {"worker": "other", "units": [unit.unit_id], "records": []},
        )
        assert reply["done"] == 0

    def test_complete_rejects_foreign_keys(self, coordinator):
        endpoint = coordinator.endpoint()
        a, b = coordinator.units[0], coordinator.units[1]
        with pytest.raises(FabricError, match="does not belong"):
            endpoint.handle(
                "POST",
                "/fabric/complete",
                {
                    "worker": "w",
                    "units": [a.unit_id],
                    "records": [[b.keys[0], {"x": 1}]],
                },
            )

    def test_complete_rejects_unknown_unit_and_bad_records(
        self, coordinator
    ):
        endpoint = coordinator.endpoint()
        with pytest.raises(FabricError, match="unknown unit"):
            endpoint.handle(
                "POST",
                "/fabric/complete",
                {"worker": "w", "units": ["nope"], "records": []},
            )
        with pytest.raises(FabricError, match="list of unit ids"):
            endpoint.handle(
                "POST",
                "/fabric/complete",
                {"worker": "w", "unit": "nope", "records": []},
            )
        unit = coordinator.units[0]
        with pytest.raises(FabricError, match="records"):
            endpoint.handle(
                "POST",
                "/fabric/complete",
                {"worker": "w", "units": [unit.unit_id], "records": "x"},
            )

    def test_status_heartbeat_release_and_404(self, coordinator):
        endpoint = coordinator.endpoint()
        status, body = endpoint.handle("GET", "/fabric/status", None)
        assert status == 200 and body["total"] == len(coordinator.units)
        endpoint.handle("POST", "/fabric/lease", {"worker": "w"})
        status, body = endpoint.handle(
            "POST", "/fabric/heartbeat", {"worker": "w"}
        )
        assert body["extended"] == 1
        status, _body = endpoint.handle(
            "POST",
            "/fabric/release",
            {"worker": "w", "units": [coordinator.units[0].unit_id]},
        )
        assert status == 200
        status, _body = endpoint.handle("GET", "/fabric/nope", None)
        assert status == 404

    def test_worker_and_ttl_validation(self, coordinator):
        endpoint = coordinator.endpoint()
        with pytest.raises(FabricError, match="worker"):
            endpoint.handle("POST", "/fabric/lease", {"worker": ""})
        with pytest.raises(FabricError, match="body"):
            endpoint.handle("POST", "/fabric/lease", [1, 2])
        with pytest.raises(FabricError, match="ttl"):
            endpoint.handle(
                "POST", "/fabric/lease", {"worker": "w", "ttl": "soon"}
            )

    def test_metrics_provider_and_counters(self, coordinator):
        metrics = ServiceMetrics()
        endpoint = coordinator.endpoint(metrics=metrics)
        endpoint.handle("POST", "/fabric/lease", {"worker": "w"})
        assert metrics.fabric_leases.value(worker="w") == 1
        text = metrics.render()
        assert 'repro_fabric_units{state="leased"} 1' in text
        assert "repro_fabric_finished 0" in text


class TestHTTPIntegration:
    @pytest.fixture
    def served(self, coordinator):
        service = DeadlineAssignmentService(cache_size=4)
        server = create_server(
            "127.0.0.1",
            0,
            service,
            fabric=coordinator.endpoint(metrics=service.metrics),
        )
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address[:2]
        yield coordinator, f"http://{host}:{port}"
        server.shutdown()
        server.server_close()
        thread.join(timeout=5.0)
        service.close(timeout=5.0)

    def test_remote_workers_complete_the_sweep_bit_identically(
        self, spec, served
    ):
        coordinator, url = served
        n_units = len(coordinator.units)
        done = worker_loop(
            HTTPTransport(url), "remote-1", lease_ttl=5.0, poll=0.05
        )
        assert done == n_units
        assert coordinator.queue.finished()
        merged = coordinator.merge().to_dict()
        merged.pop("elapsed_seconds")
        single = run_experiment(
            spec, trials=TRIALS, seed=SEED, jobs=1, chunk_size=CHUNK
        ).to_dict()
        single.pop("elapsed_seconds")
        assert json.dumps(merged, sort_keys=True) == json.dumps(
            single, sort_keys=True
        )

    def test_transport_errors_map_to_fabric_error(self, served):
        _coordinator, url = served
        transport = HTTPTransport(url)
        with pytest.raises(FabricError, match="rejected"):
            transport.complete(
                "w",
                type(
                    "U", (), {"unit_id": "bogus", "keys": ()}
                )(),
                [],
            )
        cold = HTTPTransport("http://127.0.0.1:9")  # nothing listens here
        with pytest.raises(FabricError, match="cannot reach"):
            cold.lease("w", 1.0)

    def test_status_and_metrics_over_http(self, served):
        import urllib.request

        _coordinator, url = served
        with urllib.request.urlopen(f"{url}/fabric/status", timeout=5) as r:
            doc = json.loads(r.read().decode())
        assert doc["total"] == 4 and doc["finished"] is False
        with urllib.request.urlopen(f"{url}/metrics", timeout=5) as r:
            text = r.read().decode()
        assert 'repro_fabric_units{state="pending"} 4' in text

    def test_graceful_outage_after_contact_reads_as_finished(self, served):
        coordinator, url = served
        transport = HTTPTransport(url)
        assert transport.finished() is False  # establishes contact
        # Coordinator vanishes (server torn down by another path).
        transport.base_url = "http://127.0.0.1:9"
        assert transport.lease("w", 1.0) is None
        assert transport.finished() is True
