"""Self-tests of the benchmark harness; every run executes them first.

* Span recorder: on a synthetic tree with nested and overlapping
  spans, each span's self time equals its duration minus the union of
  its children's intervals, and the root's remainder is reported as
  ``trace.unattributed_s`` instead of being dropped.
* Open-loop sender: a request queued behind a server stall is charged
  the wait from its due time, the sender's own lag behind its schedule
  is recorded for every request, and 429 replies and timeouts count as
  failed.

Run alone with ``python3 perfbench/selftest.py``.
"""

from __future__ import annotations

import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import spans  # noqa: E402
from loadgen import run_load  # noqa: E402


def _close(a: float, b: float) -> bool:
    return abs(a - b) < 1e-9


def check_spans() -> list[str]:
    problems = []
    t = spans.Tracer()
    root = t.root("root")                      # [0, 10]
    root.start = 0.0
    a = t.open("a", 1.0)                       # [1, 6]
    a1 = t.open("a1", 1.5)                     # [1.5, 3]
    t.close(a1, 3.0)
    t.close(a, 6.0)
    # Two overlapping children of root recorded from "other threads":
    # parented to the root explicitly, as the tracer does for threads
    # with no open span.
    b = spans.Span("b", 5.0, root.idx, len(t.spans))   # [5, 8]
    b.end = 8.0
    c = spans.Span("c", 7.0, root.idx, len(t.spans) + 1)  # [7, 9]
    c.end = 9.0
    # A child of a that outlives it (cross-thread): clipped to a.
    d = spans.Span("d", 5.5, a.idx, len(t.spans) + 2)   # [5.5, 7] -> [5.5, 6]
    d.end = 7.0
    t.spans += [b, c, d]
    t.close(root, 10.0)
    selfs = t.self_times()
    expect = {
        "root": 10.0 - spans.union_length([(1, 6), (5, 8), (7, 9)]),  # 10 - 8
        "a": 5.0 - spans.union_length([(1.5, 3), (5.5, 6)]),          # 5 - 2
        "a1": 1.5, "b": 3.0, "c": 2.0, "d": 1.5,
    }
    for span in t.spans:
        if not _close(selfs[span.idx], expect[span.name]):
            problems.append(f"self time of {span.name}: {selfs[span.idx]} != {expect[span.name]}")
    if not _close(expect["root"], 2.0) or not _close(expect["a"], 3.0):
        problems.append("union_length miscounts overlapping intervals")

    # The traced run's remainder is reported, and with no overlapping
    # siblings the self times add up to the root's duration.
    import run
    t2 = spans.Tracer()
    r = t2.root("sweep")
    r.start = 0.0
    g = t2.open("workload.generate", 1.0)
    t2.close(g, 2.0)
    s = t2.open("kernel.slice", 3.0)
    t2.close(s, 7.0)
    t2.close(r, 10.0)
    table = t2.table()
    metrics = run.layer_times(table, "sweep")
    if not _close(metrics.get("trace.unattributed_s", -1.0), 5.0):
        problems.append("unattributed remainder not reported")
    if not _close(sum(row["self_s"] for row in table.values()), 10.0):
        problems.append("self times do not add up to the traced wall time")
    return problems


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"

    def do_POST(self):  # noqa: N802 - http.server API
        body = self.rfile.read(int(self.headers["Content-Length"]))
        status = 200
        if body == b"stall":
            time.sleep(0.3)
        elif body == b"hang":
            time.sleep(0.6)
        elif body == b"busy":
            status = 429
        payload = b"{}"
        try:
            self.send_response(status)
            self.send_header("Content-Length", str(len(payload)))
            self.end_headers()
            self.wfile.write(payload)
        except OSError:
            pass  # the client timed out and hung up

    def log_message(self, *args):
        pass


def check_sender() -> list[str]:
    problems = []
    server = ThreadingHTTPServer(("127.0.0.1", 0), _Handler)
    server.daemon_threads = True
    thread = threading.Thread(target=server.serve_forever, args=(0.05,), daemon=True)
    thread.start()
    port = server.server_address[1]
    try:
        # One connection, 50 req/s: request 5 (due at 0.10 s) stalls the
        # server for 0.3 s, so request 6 (due at 0.12 s) cannot be sent
        # before ~0.40 s and must be charged ~0.28 s.
        bodies = [b"ok", b"stall"]
        order = [0] * 5 + [1] + [0] * 14
        res = run_load("127.0.0.1", port, bodies, order, conns=1, rate=50.0)
        if res.failed:
            problems.append(f"stall leg: {res.failed} unexpected failures")
        if res.latencies[5] < 0.3:
            problems.append(f"stalled request timed at {res.latencies[5]:.3f} s")
        if res.latencies[6] < 0.25:
            problems.append(f"request behind the stall charged only {res.latencies[6]:.3f} s")
        # The sender itself is held up behind request 6 until ~0.40 s, so
        # request 7 (due at 0.14 s) is reached ~0.26 s late: lag shows it.
        if len(res.lag) != len(order) or res.lag[7] < 0.2:
            problems.append(f"sender lag not recorded per request: {res.lag[5:9]}")

        bodies = [b"ok", b"busy", b"hang"]
        res = run_load("127.0.0.1", port, bodies, [0, 1, 0, 2, 0], conns=1,
                       rate=20.0, timeout=0.2)
        if res.statuses[1] != 429 or res.statuses[3] != 0 or res.failed != 2:
            problems.append(f"429/timeout not counted as failures: {res.statuses}")
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
    return problems


def run_all() -> list[str]:
    return check_spans() + check_sender()


if __name__ == "__main__":
    found = run_all()
    for p in found:
        print("FAIL:", p)
    print("selftest:", "FAILED" if found else "OK")
    sys.exit(1 if found else 0)
