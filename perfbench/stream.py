"""The serve_mixed request stream, generated from the workload seed.

Distinct workloads come from the paper's generator (40–60 tasks) with
m cycling over 2..8 and the metric over PURE, NORM, ADAPT-G, ADAPT-L,
so every (m, metric) pair is equally common whatever the seed.
Every fourth position introduces a new workload; the other positions
repeat an earlier one, at least ``MIN_GAP`` positions after its last
occurrence and at most ``REPEATS`` times, so about three quarters of
the stream are cache hits.  The gap keeps a repeat from arriving while
its first occurrence is still being computed (that would coalesce
instead of hit), which makes the designed hit share exact.  The first
``MIN_GAP`` positions can only be new workloads; the benchmark sends
them as an untimed warm-up.
"""

from __future__ import annotations

import json
import random

REPEATS = 3
MIN_GAP = 24


def build_stream(seed: int, timed: int) -> tuple[list[bytes], list[int]]:
    """``(bodies, order)``: one request body per distinct workload and
    the stream as indices into *bodies*, long enough that at least
    *timed* requests follow the warm-up prefix."""
    from repro.core.metrics import METRIC_NAMES
    from repro.graph import graph_to_dict
    from repro.rng import derive_seed, make_rng
    from repro.system.platform import platform_to_dict
    from repro.workload.generator import generate_workload
    from repro.workload.params import WorkloadParams

    distinct = timed // (REPEATS + 1)
    while True:
        order = plan_order(random.Random(seed), distinct)
        if len(order) - MIN_GAP >= timed:
            break
        distinct += 8
    bodies = []
    for k in range(distinct):
        params = WorkloadParams(m=2 + k % 7)
        wl = generate_workload(params, make_rng(derive_seed(seed, 7, k)))
        bodies.append(json.dumps({
            "graph": graph_to_dict(wl.graph),
            "platform": platform_to_dict(wl.platform),
            "metric": METRIC_NAMES[k % len(METRIC_NAMES)],
        }).encode())
    return bodies, order


def plan_order(rnd: random.Random, distinct: int) -> list[int]:
    order: list[int] = []
    last: dict[int, int] = {}
    repeats = [0] * distinct
    introduced = 0
    total = distinct * (REPEATS + 1)
    while introduced < distinct or len(order) < total:
        pos = len(order)
        eligible = [
            k for k in range(introduced)
            if repeats[k] < REPEATS and pos - last[k] >= MIN_GAP
        ]
        if introduced < distinct and (pos % (REPEATS + 1) == 0 or not eligible):
            k = introduced
            introduced += 1
        elif eligible:
            k = rnd.choice(eligible)
            repeats[k] += 1
        else:
            break  # every workload is out, the rest would be too close
        order.append(k)
        last[k] = pos
    return order


def designed_hit_share(order: list[int]) -> float:
    return (len(order) - len(set(order))) / len(order)
