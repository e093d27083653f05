"""One HTTP handler, two backends: every reply branch over raw sockets.

``repro serve --workers 1`` and ``--workers N`` share one handler, so
each reply — 200 miss and hit, bad JSON, a ``ReproError`` 400, 404 and
the request-framing errors — must come back byte for byte the same
from the in-process backend and from a worker pool.  The framing tests
pin the one body reader: only ``Content-Length`` framing is accepted,
and a request whose stream position is unknown is answered and then
the connection closes.
"""

from __future__ import annotations

import json
import socket

import pytest

from repro.service import DeadlineAssignmentService, WorkerPool
from repro.service.server import MAX_BODY_BYTES

from .conftest import chain_request, serving


def read_reply(sock: socket.socket, buf: bytearray) -> bytes:
    """One HTTP reply (head + Content-Length body) off *sock*."""
    while b"\r\n\r\n" not in buf:
        chunk = sock.recv(65536)
        if not chunk:
            raise ConnectionError(f"closed mid-reply: {bytes(buf)!r}")
        buf += chunk
    head, _, _ = bytes(buf).partition(b"\r\n\r\n")
    length = 0
    for line in head.split(b"\r\n")[1:]:
        name, _, value = line.partition(b":")
        if name.strip().lower() == b"content-length":
            length = int(value)
    end = len(head) + 4 + length
    while len(buf) < end:
        chunk = sock.recv(65536)
        if not chunk:
            raise ConnectionError("connection closed mid-body")
        buf += chunk
    reply = bytes(buf[:end])
    del buf[:end]
    return reply


def exchange(
    address, raw: bytes, replies: int = 1
) -> tuple[list[bytes], bool]:
    """Send *raw*, read *replies* replies; also whether the server closed.

    Replies come back with the ``Date`` header dropped (the only part
    that may differ between two servers answering the same request).
    Whether the connection stayed open is probed with one more
    ``/healthz`` request on it.
    """
    with socket.create_connection(address, timeout=10.0) as sock:
        sock.sendall(raw)
        buf = bytearray()
        out = []
        for _ in range(replies):
            reply = read_reply(sock, buf)
            out.append(
                b"\r\n".join(
                    line
                    for line in reply.split(b"\r\n")
                    if not line.lower().startswith(b"date:")
                )
            )
        try:
            sock.sendall(HEALTHZ)
            read_reply(sock, buf)
            closed = False
        except ConnectionError:
            closed = True
    return out, closed


def post(path: str, body: bytes, **headers: str) -> bytes:
    lines = [f"POST {path} HTTP/1.1", "Host: test"]
    if "Content-Length" not in headers and "Transfer-Encoding" not in headers:
        headers["Content-Length"] = str(len(body))
    lines += [f"{name}: {value}" for name, value in headers.items()]
    return ("\r\n".join(lines) + "\r\n\r\n").encode() + body


HEALTHZ = b"GET /healthz HTTP/1.1\r\nHost: test\r\n\r\n"
CHUNKED_BODY = b"3\r\nabc\r\n0\r\n\r\n"


def status_of(reply: bytes) -> int:
    return int(reply.split(b" ", 2)[1])


def body_of(reply: bytes) -> dict:
    return json.loads(reply.partition(b"\r\n\r\n")[2])


def reply_cases() -> list[tuple[str, bytes, list[int], bool]]:
    """``(name, raw request, expected statuses, closes)`` per branch."""
    good = json.dumps(chain_request(wcets=(11, 23, 17))).encode()
    admit = json.dumps(
        chain_request(m=1, admit=True, relative_deadline=50.0)
    ).encode()
    bad_graph = chain_request()
    bad_graph["graph"]["e2e_deadlines"] = []
    return [
        # Miss then hit, pipelined on one keep-alive connection.
        ("miss-hit", post("/assign", good) * 2, [200, 200], False),
        # Admitted, then rejected: the first commitment fills the
        # platform, so admission state must reach one controller.
        ("admit", post("/assign", admit) * 2, [200, 200], False),
        ("bad-json", post("/assign", b"{not json"), [400], False),
        (
            "repro-error",
            post("/assign", json.dumps(bad_graph).encode()),
            [400],
            False,
        ),
        ("not-found", post("/nope", b"{}") + HEALTHZ, [404, 200], False),
        (
            "chunked",
            post("/assign", CHUNKED_BODY, **{"Transfer-Encoding": "chunked"})
            + HEALTHZ,
            [400],
            True,
        ),
        (
            "negative-length",
            post("/assign", b"", **{"Content-Length": "-1"}),
            [400],
            True,
        ),
        (
            "invalid-length",
            post("/assign", b"", **{"Content-Length": "ten"}),
            [400],
            True,
        ),
        (
            "oversize",
            post(
                "/assign", b"", **{"Content-Length": str(MAX_BODY_BYTES + 1)}
            ),
            [413],
            True,
        ),
    ]


def in_process() -> DeadlineAssignmentService:
    return DeadlineAssignmentService(cache_size=64)


def pool_of_two() -> WorkerPool:
    pool = WorkerPool(2, cache_size=64)
    pool.start(timeout=120.0)
    return pool


@pytest.mark.parametrize(
    "make_backend", [in_process, pool_of_two], ids=["in-process", "pool-2"]
)
def test_every_reply_branch_matches_in_process(make_backend):
    with serving(in_process()) as reference, serving(make_backend()) as server:
        for name, raw, statuses, closes in reply_cases():
            want, want_closed = exchange(
                reference.server_address, raw, len(statuses)
            )
            got, got_closed = exchange(
                server.server_address, raw, len(statuses)
            )
            assert [status_of(r) for r in got] == statuses, name
            assert got == want, name
            assert got_closed == want_closed == closes, name
            if name == "miss-hit":
                assert [body_of(r)["cached"] for r in got] == [False, True]
            if name == "admit":
                verdicts = [body_of(r)["admission"]["admitted"] for r in got]
                assert verdicts == [True, False]


@pytest.fixture(scope="module")
def address():
    with serving(in_process()) as server:
        yield server.server_address


@pytest.mark.parametrize("path", ["/assign", "/fabric/lease"])
class TestRequestFraming:
    """One body reader for ``/assign`` and ``/fabric/*``."""

    def test_chunked_is_400_and_closes(self, address, path):
        raw = post(path, CHUNKED_BODY, **{"Transfer-Encoding": "chunked"})
        # The pipelined request behind the chunks must not be parsed
        # from inside the chunk stream.
        replies, closed = exchange(address, raw + HEALTHZ)
        assert status_of(replies[0]) == 400
        assert body_of(replies[0]) == {
            "error": "chunked transfer encoding is not supported"
        }
        assert b"Connection: close" in replies[0]
        assert closed

    def test_negative_length_is_400_and_closes(self, address, path):
        replies, closed = exchange(
            address, post(path, b"", **{"Content-Length": "-1"})
        )
        assert status_of(replies[0]) == 400
        assert body_of(replies[0]) == {"error": "invalid Content-Length"}
        assert closed

    def test_oversize_body_is_413_and_closes(self, address, path):
        raw = post(path, b"", **{"Content-Length": str(MAX_BODY_BYTES + 1)})
        replies, closed = exchange(address, raw)
        assert status_of(replies[0]) == 413
        assert body_of(replies[0]) == {"error": "request body too large"}
        assert closed
