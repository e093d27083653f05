"""Closed- and open-loop HTTP/1.1 senders, in one process, on keep-alive
connections.

Closed loop: ``conns`` clients each send their next request as soon as
the previous reply arrives, so throughput is what the server sustains.

Open loop: request *i* is due at ``start + i / rate``.  The sender
dispatches requests in order on the first free connection; a request
that has to wait for one (because the server stalled) is still timed
from its due time, so the wait is charged to it and to everything
queued behind it.  ``lag`` records, for every request, how late the
sender reached it after its due time, before waiting for a free
connection: a check on the harness, which grows when the sender falls
behind its schedule.

A request fails on a non-2xx status (429 included), a timeout or a
connection error; the connection is then reopened.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field


@dataclass
class Result:
    latencies: list[float] = field(default_factory=list)  # seconds, per index
    statuses: list[int] = field(default_factory=list)      # 0 = no reply
    bodies: list[bytes] = field(default_factory=list)
    lag: list[float] = field(default_factory=list)
    wall: float = 0.0

    @property
    def failed(self) -> int:
        return sum(1 for s in self.statuses if not 200 <= s < 300)


class _Conn:
    def __init__(self, host: str, port: int, timeout: float):
        self.host, self.port, self.timeout = host, port, timeout
        self.reader = self.writer = None

    async def _open(self) -> None:
        self.reader, self.writer = await asyncio.open_connection(self.host, self.port)

    def _drop(self) -> None:
        if self.writer is not None:
            self.writer.close()
        self.reader = self.writer = None

    async def post(self, body: bytes) -> tuple[int, bytes]:
        """``(status, body)``; status 0 on timeout or connection error."""
        try:
            return await asyncio.wait_for(self._post(body), self.timeout)
        except (asyncio.TimeoutError, OSError, asyncio.IncompleteReadError, ValueError):
            self._drop()
            return 0, b""

    async def _post(self, body: bytes) -> tuple[int, bytes]:
        if self.writer is None:
            await self._open()
        head = (
            f"POST /assign HTTP/1.1\r\nHost: {self.host}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n\r\n"
        ).encode()
        self.writer.write(head + body)
        await self.writer.drain()
        status_line = await self.reader.readuntil(b"\r\n")
        status = int(status_line.split()[1])
        length = 0
        close = False
        while True:
            line = await self.reader.readuntil(b"\r\n")
            if line == b"\r\n":
                break
            name, _, value = line.decode("latin-1").partition(":")
            name = name.strip().lower()
            if name == "content-length":
                length = int(value)
            elif name == "connection" and value.strip().lower() == "close":
                close = True
        payload = await self.reader.readexactly(length)
        if close:
            self._drop()
        return status, payload

    async def aclose(self) -> None:
        """Close and wait until the socket is gone, so the server's
        handler thread sees EOF now rather than when the loop is
        garbage-collected (a server joins those threads on shutdown)."""
        writer = self.writer
        self._drop()
        if writer is not None:
            try:
                await writer.wait_closed()
            except OSError:
                pass


async def _run(host, port, bodies, order, *, conns, rate, timeout):
    n = len(order)
    res = Result([0.0] * n, [0] * n, [b""] * n, [])
    pool: asyncio.Queue[_Conn] = asyncio.Queue()
    all_conns = [_Conn(host, port, timeout) for _ in range(conns)]
    for c in all_conns:
        pool.put_nowait(c)

    async def send(i: int, conn: _Conn, due: float) -> None:
        try:
            status, payload = await conn.post(bodies[order[i]])
            res.latencies[i] = time.perf_counter() - due
            res.statuses[i] = status
            res.bodies[i] = payload
        finally:
            pool.put_nowait(conn)

    start = time.perf_counter()
    if rate is None:
        next_i = iter(range(n))

        async def client() -> None:
            for i in next_i:
                conn = await pool.get()
                await send(i, conn, time.perf_counter())

        await asyncio.gather(*(client() for _ in range(conns)))
    else:
        tasks = []
        for i in range(n):
            due = start + i / rate
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            res.lag.append(max(0.0, time.perf_counter() - due))
            conn = await pool.get()
            tasks.append(asyncio.ensure_future(send(i, conn, due)))
        await asyncio.gather(*tasks)
    res.wall = time.perf_counter() - start
    for c in all_conns:
        await c.aclose()
    return res


def run_load(host: str, port: int, bodies: list[bytes], order: list[int], *,
             conns: int, rate: float | None = None, timeout: float = 10.0) -> Result:
    """POST ``bodies[order[i]]`` to ``/assign`` for every *i*; closed
    loop when *rate* is ``None``, else open loop at *rate* requests per
    second."""
    return asyncio.run(_run(host, port, bodies, order, conns=conns,
                            rate=rate, timeout=timeout))
