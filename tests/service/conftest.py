"""Shared fixtures for the online-service tests."""

from __future__ import annotations

import contextlib
import threading

import pytest

from repro.graph import chain_graph, graph_to_dict
from repro.service import create_server
from repro.system import identical_platform
from repro.system.platform import platform_to_dict


def chain_request(
    wcets=(10, 20, 15), deadline=90.0, m=2, **extra
) -> dict:
    """A minimal valid ``POST /assign`` body over a chain graph."""
    graph = chain_graph(list(wcets))
    graph.set_uniform_e2e_deadline(deadline)
    doc = {
        "graph": graph_to_dict(graph),
        "platform": platform_to_dict(identical_platform(m)),
    }
    doc.update(extra)
    return doc


@pytest.fixture
def request_doc() -> dict:
    return chain_request()


@contextlib.contextmanager
def serving(backend, *, drain: float = 10.0, **server_kwargs):
    """Serve *backend* on an ephemeral port; yields the live server.

    On exit the server stops accepting, then the backend drains with a
    bounded *drain* — the same order ``repro serve`` shuts down in.
    """
    server = create_server("127.0.0.1", 0, backend, **server_kwargs)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        backend.close(timeout=drain)
        thread.join(timeout=5.0)
