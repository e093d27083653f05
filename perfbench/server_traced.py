"""``repro serve`` with the lanes of its vectorized flush path counted.

Usage: ``python3 perfbench/server_traced.py COUNTS.json serve ...``.
Counts every lane the service's vectorized micro-batch flush answers
and writes ``{"vec_flush_lanes": N}`` to COUNTS.json when the server
stops (SIGINT).
"""

from __future__ import annotations

import json
import sys
import threading

sys.path.insert(0, "src")

from repro.cli.main import main  # noqa: E402
from repro.service.server import DeadlineAssignmentService  # noqa: E402

counts = {"vec_flush_lanes": 0}
lock = threading.Lock()
vec_flush_group = DeadlineAssignmentService._vec_flush_group


def counted_vec_group(self, *args, **kwargs):
    done = vec_flush_group(self, *args, **kwargs)
    with lock:
        counts["vec_flush_lanes"] += len(done)
    return done


DeadlineAssignmentService._vec_flush_group = counted_vec_group

if __name__ == "__main__":
    path = sys.argv[1]
    try:
        code = main(sys.argv[2:])
    finally:
        with open(path, "w") as fh:
            json.dump(counts, fh)
    sys.exit(code)
