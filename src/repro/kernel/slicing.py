"""Algorithm SLICING over a compiled workload (kernel fast path).

One function runs the whole deadline distribution — critical-path
search, window slicing, boundary projection, pin propagation — against
the flat arrays of a :class:`~repro.kernel.compiled.CompiledWorkload`.
It is a line-for-line translation of
:func:`repro.core.slicing.slice_with_state` +
:func:`repro.core.paths.find_critical_path` with every string-keyed
dict replaced by an int-indexed array:

* pins (`arrivals`/`deadlines`) become float arrays plus presence
  bytearrays;
* the per-head DP memos (`dp_cache`) keep their int-keyed dist/count/
  parent dicts but gain a *reached-set bitmask*, so the invalidation
  sweeps (`path_set`/`new_deadline_pins` intersections) become single
  `&` operations;
* the best-candidate memo becomes a flat list with an UNSET sentinel;
* lexicographic path tie-breaks compare precomputed string-rank
  tuples, which order exactly like the id strings.

Bit-identity is the contract: the DP relaxation order (topological
suffix × successor-insertion order, filtered to Π), every floating-point
expression of the scoring/sharing/projection code, and the tie-breaking
total order are preserved operation for operation, so the produced
windows, chosen paths, and degenerate flag equal the reference's bit
for bit.  ``tests/kernel`` enforces this against randomized workloads.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Sequence

from ..core.assignment import DeadlineAssignment, TaskWindow
from ..core.metrics import NormMetric
from ..errors import DistributionError, MetricError
from ..types import Time
from .compiled import CompiledWorkload

__all__ = ["KernelAssignment", "kernel_slice"]

_UNSET = object()  # "no memoized best candidate" sentinel


class KernelAssignment:
    """Array-form deadline assignment produced by :func:`kernel_slice`.

    Holds per-task arrivals and absolute deadlines (insertion-indexed),
    the chosen paths as int tuples, and the degenerate flag — enough for
    the kernel EDF stage and the trial aggregates without materializing
    a :class:`~repro.core.assignment.DeadlineAssignment`.
    """

    __slots__ = ("win_a", "win_d", "paths", "degenerate", "metric_name")

    def __init__(
        self,
        win_a: list[float],
        win_d: list[float],
        paths: list[tuple[int, ...]],
        degenerate: bool,
        metric_name: str,
    ) -> None:
        self.win_a = win_a
        self.win_d = win_d
        self.paths = paths
        self.degenerate = degenerate
        self.metric_name = metric_name

    def min_laxity(self, est: Sequence[float]) -> float:
        """``min_i (d_i − c̄_i)`` — same floats as the reference.

        Each laxity is ``(D_i − a_i) − c̄_i`` exactly as the reference
        computes it (the relative deadline is stored as that difference
        at window-construction time); ``min`` over floats is exact.
        """
        win_a, win_d = self.win_a, self.win_d
        if not win_a:
            raise DistributionError("empty assignment has no laxity")
        return min(
            (win_d[i] - win_a[i]) - est[i] for i in range(len(win_a))
        )

    def to_assignment(
        self, cw: CompiledWorkload, estimator_name: str = "?"
    ) -> DeadlineAssignment:
        """Materialize the reference-format assignment (bit-identical).

        Windows are inserted path by path in selection order — the very
        insertion order the reference loop produces — so even dict
        iteration order matches.
        """
        ids = cw.ids
        win_a, win_d = self.win_a, self.win_d
        windows: dict[str, TaskWindow] = {}
        for path in self.paths:
            for i in path:
                a_i = win_a[i]
                d_abs = win_d[i]
                windows[ids[i]] = TaskWindow(
                    arrival=a_i,
                    relative_deadline=d_abs - a_i,
                    absolute_deadline=d_abs,
                )
        return DeadlineAssignment(
            windows=windows,
            metric_name=self.metric_name,
            estimator_name=estimator_name,
            paths=[tuple(ids[i] for i in path) for path in self.paths],
            degenerate=self.degenerate,
        )


def kernel_slice(
    cw: CompiledWorkload, metric, weights: Sequence[float]
) -> KernelAssignment:
    """Run Algorithm SLICING on the compiled arrays.

    *metric* must be one of the kernel-supported metric instances (its
    sharing family selects the ratio/deadline formulas); *weights* is
    the matching :func:`~repro.kernel.metrics.kernel_weights` array.
    """
    n = cw.n
    succ_lists = cw.succ_lists
    pred_ps = cw.pred_ps
    rank = cw.rank
    ids = cw.ids
    norm = metric.kernel_share == "norm"

    # Step 1: pin arrivals of input tasks and deadlines of output tasks.
    arr = [0.0] * n
    has_arr = bytearray(n)
    dl = [0.0] * n
    has_dl = bytearray(n)
    for i in cw.input_idx:
        arr[i] = cw.phasing[i]
        has_arr[i] = 1
    dl_mask = 0  # bitmask twin of has_dl — prunes the tails scan
    for i in cw.output_idx:
        bound = cw.out_deadline[i]
        if bound is None:
            raise DistributionError(
                f"output task {ids[i]!r} has no E-T-E deadline; the slicing "
                "technique needs a window for every output task"
            )
        dl[i] = bound
        has_dl[i] = 1
        dl_mask |= 1 << i

    active = bytearray(b"\x01" * n)
    n_left = n
    order_active: list[int] = list(cw.topo)
    # Π-restricted successor rows (the kernel twin of the reference's
    # succ_active), pre-paired with the successor's weight so the DP
    # inner loop does one unpack instead of two list lookups per edge.
    # Rows of removed tasks are never read, and surviving rows are
    # re-filtered in step 13, so the DP needs no per-edge activity
    # check.  Rows are replaced, never mutated — which lets the initial
    # full-Π rows be shared via the per-weights master memo.
    succ_w: list[list[tuple[int, float]]] = cw.succ_w_master(weights)

    win_a = [0.0] * n
    win_d = [0.0] * n
    chosen_paths: list[tuple[int, ...]] = []
    degenerate = False

    # Per-head memos (see repro.core.slicing for the invalidation rules;
    # dp_mask[h] is the reached set of head h's DP as a bitmask).  Each
    # DP is a dense triple of n-vectors — dist None-sentinelled, cnt and
    # par meaningful only where dist is set.
    dp_dist: list[list[float | None] | None] = [None] * n
    dp_cnt: list[list[int] | None] = [None] * n
    dp_par: list[list[int] | None] = [None] * n
    dp_mask = [0] * n
    best_c: list = [_UNSET] * n
    # Bitmask of heads holding a built DP: the invalidation sweeps walk
    # its set bits (~#heads) instead of scanning all n tasks per step.
    built_mask = 0

    # Incremental global selection.  Every head's current candidate
    # lives in a lazy-deletion min-heap keyed by the selection total
    # order — (R, −weight, −length, head-rank) — so a step reads the
    # winner off the top instead of rescanning every head.  The
    # reference breaks full ties by comparing path id-tuples
    # lexicographically; a path starts at its head, so across heads
    # that comparison is decided at position 0, and ``rank[h]`` alone
    # reproduces it (within one head only stale duplicates can tie,
    # and identity against ``best_c`` filters those).  Stale entries
    # (their head's memo was reset) are popped on contact.  ``dirty``
    # lists heads whose candidate must be (re)computed before the
    # next selection.
    cand_heap: list = []
    dirty: list[int] = list(cw.input_idx)

    while n_left:
        # --- refresh the candidates of invalidated heads --------------
        for h in dirty:
            if not active[h] or not has_arr[h] or best_c[h] is not _UNSET:
                continue  # removed, not (yet) a head, or a duplicate
            dist = dp_dist[h]
            if dist is None:
                # Longest-Σw DP over the Π-restricted topological
                # suffix — relaxation order identical to the
                # reference (suffix order × successor-insertion
                # order), so every dist/cnt/par tie-break matches.
                dist = [None] * n
                cnt = [0] * n
                par = [0] * n
                dist[h] = weights[h]
                cnt[h] = 1
                par[h] = -1
                mask = 1 << h
                for i in order_active[order_active.index(h):]:
                    d_i = dist[i]
                    if d_i is None:
                        continue
                    n_i = cnt[i] + 1
                    for j, w_j in succ_w[i]:
                        cand = d_i + w_j
                        cur = dist[j]
                        if cur is None:
                            dist[j] = cand
                            cnt[j] = n_i
                            par[j] = i
                            mask |= 1 << j
                        elif cand > cur or (
                            cand == cur and n_i > cnt[j]
                        ):
                            dist[j] = cand
                            cnt[j] = n_i
                            par[j] = i
                dp_dist[h] = dist
                dp_cnt[h] = cnt
                dp_par[h] = par
                dp_mask[h] = mask
                built_mask |= 1 << h
            else:
                cnt = dp_cnt[h]
                par = dp_par[h]
                mask = dp_mask[h]

            # Score this head's tails from the DP aggregates.  The
            # scan order is irrelevant (total-order selection), so
            # walking the reached-set bitmask is sound.  The leader
            # is tracked as scalars (l_tail < 0 = none yet).
            l_tail = -1
            l_r = l_w = l_dl = 0.0
            l_len = 0
            leader_path: tuple[int, ...] | None = None
            a_h = arr[h]
            mbits = mask & dl_mask
            while mbits:
                low = mbits & -mbits
                mbits ^= low
                t = low.bit_length() - 1
                total_w = dist[t]
                window = dl[t] - a_h
                length = cnt[t]
                if norm:
                    if total_w <= 0.0:
                        raise MetricError(
                            "NORM requires positive execution times"
                        )
                    r = (window - total_w) / total_w
                else:
                    r = (window - total_w) / length
                if l_tail >= 0:
                    if r > l_r:
                        continue
                    if r == l_r:
                        if total_w < l_w:
                            continue
                        if total_w == l_w:
                            if length < l_len:
                                continue
                            if length == l_len:
                                if leader_path is None:
                                    leader_path = _reconstruct(
                                        par, l_tail
                                    )
                                path = _reconstruct(par, t)
                                if not _rank_lt(
                                    rank, path, leader_path
                                ):
                                    continue
                                l_r, l_w, l_len = r, total_w, length
                                l_tail, l_dl = t, dl[t]
                                leader_path = path
                                continue
                l_r, l_w, l_len = r, total_w, length
                l_tail, l_dl = t, dl[t]
                leader_path = None
            if l_tail < 0:
                best_c[h] = None
            else:
                if leader_path is None:
                    leader_path = _reconstruct(par, l_tail)
                local = (l_r, l_w, leader_path, a_h, l_dl)
                best_c[h] = local
                heappush(
                    cand_heap, (l_r, -l_w, -l_len, rank[h], h, local)
                )
        dirty = []

        # --- pick the minimum-R critical path off the heap ------------
        best = None  # (r, weight, path, arr_head, dl_tail)
        while cand_heap:
            top = cand_heap[0]
            if best_c[top[4]] is top[5]:
                best = top[5]
                break
            heappop(cand_heap)

        if best is None:
            # Unreachable for valid DAG workloads (see repro.core.slicing).
            raise DistributionError(
                f"no critical path found with {n_left} task(s) "
                "remaining; the task graph violates the slicing "
                "preconditions"
            )
        _r, path_w, path, a0, d_tail = best
        chosen_paths.append(path)

        # --- step 4: distribute the window over the path --------------
        window = d_tail - a0
        k_len = len(path)
        # Σ weights along the path: 0.0 + w_0 + w_1 + … accumulates the
        # same floats as the reference's sum() over the path.
        total_w = 0.0
        for i in path:
            total_w += weights[i]
        if k_len == 1:
            # Single-task path (the most common case): the boundary
            # chain collapses to [a0, max(a0, d_tail)] regardless of the
            # share (`boundaries[k] = end` overwrites the only interior
            # slot, then the forward pass restores monotonicity), and
            # the projection's ok-audit reduces to the three conditions
            # below — same outcomes as _project_boundaries, no lists.
            i0 = path[0]
            if norm:
                if total_w <= 0.0:
                    raise MetricError(
                        "NORM requires positive execution times"
                    )
                r = (window - total_w) / total_w
                s0 = weights[i0] * (1.0 + r)
            else:
                s0 = weights[i0] + (window - total_w) / k_len
            ok = not s0 < 0.0
            if window <= 0.0:
                ok = False
            else:
                t0 = s0 if s0 > 0.0 else 0.0
                if t0 > window and t0 > window * (1.0 + 1e-12):
                    ok = False
            if a0 > d_tail + 1e-9:
                ok = False
            degenerate = degenerate or not ok
            win_a[i0] = a0
            win_d[i0] = d_tail if d_tail >= a0 else a0
        else:
            if norm:
                if total_w <= 0.0:
                    raise MetricError(
                        "NORM requires positive execution times"
                    )
                r = (window - total_w) / total_w
                shares = [weights[i] * (1.0 + r) for i in path]
            else:
                share = (window - total_w) / k_len
                shares = [weights[i] + share for i in path]
            boundaries, ok = _project_boundaries(
                path, a0, d_tail, shares, arr, has_arr, dl, has_dl
            )
            degenerate = degenerate or not ok
            for pos, i in enumerate(path):
                win_a[i] = boundaries[pos]
                win_d[i] = boundaries[pos + 1]

        path_mask = 0
        for i in path:
            path_mask |= 1 << i

        # --- steps 5–12: attach neighbours to the new spine -----------
        new_pin_mask = 0
        for i in path:
            d_abs = win_d[i]
            a_i = win_a[i]
            for j in succ_lists[i]:
                if active[j] and not (path_mask >> j) & 1:
                    if not has_arr[j] or d_abs > arr[j]:
                        arr[j] = d_abs
                        has_arr[j] = 1
                        best_c[j] = _UNSET
                        dirty.append(j)
            for p, _sz in pred_ps[i]:
                if active[p] and not (path_mask >> p) & 1:
                    if not has_dl[p] or a_i < dl[p]:
                        dl[p] = a_i
                        has_dl[p] = 1
                        dl_mask |= 1 << p
                        new_pin_mask |= 1 << p
        if new_pin_mask:
            mb = built_mask
            while mb:
                low = mb & -mb
                mb ^= low
                h = low.bit_length() - 1
                if dp_mask[h] & new_pin_mask:
                    best_c[h] = _UNSET
                    dirty.append(h)

        # --- step 13: remove the path from Π --------------------------
        for i in path:
            active[i] = 0
            has_arr[i] = 0
            has_dl[i] = 0
        dl_mask &= ~path_mask
        n_left -= k_len
        touched = 0
        for i in path:
            for p, _sz in pred_ps[i]:
                if active[p]:
                    touched |= 1 << p
        while touched:
            low = touched & -touched
            touched ^= low
            p = low.bit_length() - 1
            succ_w[p] = [
                jw for jw in succ_w[p] if not (path_mask >> jw[0]) & 1
            ]
        mb = built_mask
        while mb:
            low = mb & -mb
            mb ^= low
            h = low.bit_length() - 1
            if dp_mask[h] & path_mask:
                dp_dist[h] = None
                dp_cnt[h] = None
                dp_par[h] = None
                dp_mask[h] = 0
                best_c[h] = _UNSET
                built_mask ^= low
                dirty.append(h)
        order_active = [i for i in order_active if active[i]]

    return KernelAssignment(
        win_a, win_d, chosen_paths, degenerate, metric.name
    )


def _reconstruct(par: list[int], tail: int) -> tuple[int, ...]:
    path = [tail]
    node = par[tail]
    while node != -1:
        path.append(node)
        node = par[node]
    path.reverse()
    return tuple(path)


def _rank_lt(
    rank: list[int], a: tuple[int, ...], b: tuple[int, ...]
) -> bool:
    """Whether path *a* orders before *b* by task-id string comparison."""
    return [rank[i] for i in a] < [rank[i] for i in b]


def _project_boundaries(
    path: tuple[int, ...],
    start: Time,
    end: Time,
    shares: list[Time],
    arr: list[float],
    has_arr: bytearray,
    dl: list[float],
    has_dl: bytearray,
) -> tuple[list[Time], bool]:
    """Slice boundaries honouring interior pins — the array twin of
    :func:`repro.core.slicing._project_boundaries` (same expressions,
    same tolerances, same clamp order)."""
    k = len(path)
    ok = True

    window = end - start
    # `s if s > 0.0 else 0.0` ≡ max(0.0, s) for every float (including
    # signed zeros: max keeps its first argument when not less).
    clamped = [s if s > 0.0 else 0.0 for s in shares]
    if min(shares) < 0.0:
        ok = False
    total = sum(clamped)
    if window <= 0.0:
        clamped = [0.0] * k
        ok = False
    elif total > window:
        scale = window / total if total > 0.0 else 0.0
        clamped = [s * scale for s in clamped]
        if total > window * (1.0 + 1e-12):
            ok = False
    elif total < window:
        clamped[-1] += window - total

    boundaries = [start]
    acc = start
    for s in clamped:
        acc += s
        boundaries.append(acc)
    boundaries[k] = end

    for i in range(k - 1, 0, -1):
        cap = boundaries[i + 1]
        t = path[i - 1]
        if has_dl[t] and dl[t] < cap:
            cap = dl[t]
        if boundaries[i] > cap:
            boundaries[i] = cap

    for i in range(1, k + 1):
        floor = boundaries[i - 1]
        if i < k:
            t = path[i]
            if has_arr[t] and arr[t] > floor:
                floor = arr[t]
        if boundaries[i] < floor:
            boundaries[i] = floor

    if boundaries[k] > end + 1e-9:
        ok = False
    for i in range(1, k):
        t = path[i - 1]
        if has_dl[t] and boundaries[i] > dl[t] + 1e-9:
            ok = False
    return boundaries, ok
