"""Vectorized trial kernel: NumPy seed-batch path over compiled workloads.

Third tier of the trial dispatch (reference oracle → compiled kernel →
vectorized kernel).  Where the compiled kernel replaced string-keyed
dicts with flat integer-indexed arrays walked by interpreted Python,
this layer judges a whole seed batch of one sweep point as a stage
pipeline of whole-array NumPy ops:

* :func:`vec_estimates_batch` / :func:`vec_weights_batch` — the WCET
  estimates and the metric weight arrays (thresholds, static levels,
  average parallelism ξ, the ADAPT-G/ADAPT-L surplus inflation) as
  elementwise array expressions over every seed lane;
* :func:`vec_schedule_edf_batch` — a lockstep EDF engine that advances
  *all* lanes one placement per step, batching the ready-set deadline
  comparisons and the per-processor placement probes as
  ``[lanes × tasks]`` array ops;
* :func:`paired_outcomes` — the seed-batch driver the runner's paired
  units call: estimates and weights, then the compiled slicing DP per lane,
  then one lockstep EDF call for every series of the block.

:func:`batch_engages` is the one rule that picks this tier: the kernel
is enabled, the block has at least :data:`VEC_MIN_LANES` seeds, every
series shares one workload family, and some series is batchable.

Bit-identity contract: the vectorized path produces the exact floats
of the reference pipeline.  The load-bearing facts are (a)
``np.cumsum`` accumulates strictly left-to-right, exactly like
Python's ``sum`` (NumPy's ``.sum()`` does *not* — it pairs up), so
every ordered summation goes through ``cumsum``; (b) min/max/compare
and elementwise ``+ - * /`` on float64 are single IEEE operations, so
``np.where(est >= c_thres, est * surplus, est)`` is bitwise the scalar
loop; (c) staged masked argmins reproduce lexicographic tie-breaks.
"""

from __future__ import annotations

from collections import OrderedDict
from itertools import chain
from typing import TYPE_CHECKING, Sequence

import numpy as np

from ..core.estimation import WCET_AVG, WCET_MAX, WCET_MIN, get_estimator
from ..core.metrics import AdaptGMetric, AdaptLMetric, get_metric
from ..errors import SchedulingError
from ..system.interconnect import SharedBus
from .compiled import CompiledWorkload
from .edf import MISS_TOLERANCE, kernel_schedule_edf
from .metrics import kernel_weights
from .slicing import kernel_slice
from .trial import kernel_enabled, kernel_supported

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for hints
    from ..experiments.context import TrialContext
    from ..experiments.spec import TrialConfig, TrialOutcome

__all__ = [
    "VEC_MIN_LANES",
    "batch_engages",
    "estimator_batch_supported",
    "vec_estimates_batch",
    "vec_arrays",
    "vec_weights_batch",
    "vec_schedule_edf_batch",
    "paired_outcomes",
]

#: Minimum seed-batch width at which the batch path engages.  Below
#: this the array setup (context building, padded views, per-step
#: masking) costs as much as the lockstep arithmetic saves — 32-lane
#: batches measured a few percent *behind* the compiled scalar kernel
#: and parity arrives around 64 lanes.
VEC_MIN_LANES = 64


# ----------------------------------------------------------------------
# Per-workload array views
# ----------------------------------------------------------------------


class VecArrays:
    """NumPy twin of one :class:`CompiledWorkload`'s flat buffers.

    Padded rectangular views (successor/predecessor matrices padded to
    the workload's max degree, with count vectors delimiting the valid
    prefix of each row) so batch code can gather without ragged rows.
    Built once per workload, memoized on ``cw._vec``.
    """

    __slots__ = (
        "n",
        "m",
        "topo",
        "succ_pad",
        "succ_cnt",
        "pred_pad",
        "pred_sz",
        "pred_cnt",
        "wcet",
        "rank",
        "proc_rank",
    )

    def __init__(self, cw: CompiledWorkload) -> None:
        n, m = cw.n, cw.m
        self.n = n
        self.m = m
        self.topo = np.asarray(cw.topo, dtype=np.int64)
        s_max = max((len(r) for r in cw.succ_lists), default=0) or 1
        p_max = max((len(r) for r in cw.pred_ps), default=0) or 1
        succ_pad = np.zeros((n, s_max), dtype=np.int64)
        succ_cnt = np.zeros(n, dtype=np.int64)
        pred_pad = np.zeros((n, p_max), dtype=np.int64)
        pred_sz = np.zeros((n, p_max), dtype=np.float64)
        pred_cnt = np.zeros(n, dtype=np.int64)
        for i in range(n):
            srow = cw.succ_lists[i]
            succ_cnt[i] = len(srow)
            if srow:
                succ_pad[i, : len(srow)] = srow
            prow = cw.pred_ps[i]
            pred_cnt[i] = len(prow)
            for k, (p, size) in enumerate(prow):
                pred_pad[i, k] = p
                pred_sz[i, k] = size
        self.succ_pad = succ_pad
        self.succ_cnt = succ_cnt
        self.pred_pad = pred_pad
        self.pred_sz = pred_sz
        self.pred_cnt = pred_cnt
        # Dense [n × m] execution times; -1.0 still marks ineligible.
        self.wcet = np.asarray(cw.wcet_pp, dtype=np.float64).reshape(n, m)
        self.rank = np.asarray(cw.rank, dtype=np.int64)
        self.proc_rank = np.asarray(cw.proc_rank, dtype=np.int64)


def vec_arrays(cw: CompiledWorkload) -> VecArrays:
    """The workload's :class:`VecArrays`, built lazily once."""
    va = cw._vec
    if va is None:
        va = VecArrays(cw)
        cw._vec = va
    return va


class _LaneStack:
    """Stacked ``[lanes × tasks × …]`` structure arrays of one lane list.

    Every array here is a pure function of the workloads — the batch
    analogue of :func:`~repro.kernel.compiled.compile_workload` — so it
    is built once per lane list and shared by every stage that judges
    the same seed chunk (all metrics, all series).  Parts are lazy:
    the levels sweep only ever touches ``topo``/``succ``, the EDF
    engine touches everything but ``vals``.
    """

    __slots__ = ("cws", "n_arr", "n_max", "_parts")

    def __init__(self, cws: Sequence[CompiledWorkload]) -> None:
        self.cws = tuple(cws)
        self.n_arr = np.array([cw.n for cw in cws], dtype=np.int64)
        self.n_max = max(int(self.n_arr.max()), 1) if len(cws) else 1
        self._parts: dict[str, tuple] = {}

    def succ(self):
        """``(succ_pad, succ_cnt, s_max)`` over ``[L, n_max, s_max]``."""
        part = self._parts.get("succ")
        if part is None:
            L, n_max = len(self.cws), self.n_max
            s_max = 1
            vas = [vec_arrays(cw) for cw in self.cws]
            for va in vas:
                s_max = max(s_max, va.succ_pad.shape[1])
            succ_pad = np.zeros((L, n_max, s_max), dtype=np.int64)
            succ_cnt = np.zeros((L, n_max), dtype=np.int64)
            for b, va in enumerate(vas):
                succ_pad[b, : va.n, : va.succ_pad.shape[1]] = va.succ_pad
                succ_cnt[b, : va.n] = va.succ_cnt
            part = (succ_pad, succ_cnt, s_max)
            self._parts["succ"] = part
        return part

    def topo(self):
        """``topo_pad [L, n_max]`` (padding repeats the last real task)."""
        part = self._parts.get("topo")
        if part is None:
            topo_pad = np.zeros((len(self.cws), self.n_max), dtype=np.int64)
            for b, cw in enumerate(self.cws):
                topo_pad[b, : cw.n] = vec_arrays(cw).topo
            part = (topo_pad,)
            self._parts["topo"] = part
        return part[0]

    def pred(self):
        """``(pred_pad, pred_sz, pred_cnt, p_max)`` predecessor stacks."""
        part = self._parts.get("pred")
        if part is None:
            L, n_max = len(self.cws), self.n_max
            p_max = 1
            vas = [vec_arrays(cw) for cw in self.cws]
            for va in vas:
                p_max = max(p_max, va.pred_pad.shape[1])
            pred_pad = np.zeros((L, n_max, p_max), dtype=np.int64)
            pred_sz = np.zeros((L, n_max, p_max), dtype=np.float64)
            pred_cnt = np.zeros((L, n_max), dtype=np.int64)
            for b, va in enumerate(vas):
                w = va.pred_pad.shape[1]
                pred_pad[b, : va.n, :w] = va.pred_pad
                pred_sz[b, : va.n, :w] = va.pred_sz
                pred_cnt[b, : va.n] = va.pred_cnt
            part = (pred_pad, pred_sz, pred_cnt, p_max)
            self._parts["pred"] = part
        return part

    def sched(self):
        """``(cpen, pen, rank, proc_rank, indeg0)`` — the EDF stacks.

        Requires a uniform processor count across the lane list (the
        EDF engine groups lanes by ``m`` before asking).  ``cpen`` is
        the dense WCET matrix with ineligible entries replaced by
        ``+inf`` (so a probe's finish time is ``+inf`` exactly where
        the scalar kernel skips the processor) and ``pen`` is its 0/inf
        eligibility penalty; padding rows are fully ineligible, with
        ``BIG`` ranks and ``BIG`` in-degrees (never ready).
        """
        part = self._parts.get("sched")
        if part is None:
            L, n_max = len(self.cws), self.n_max
            m = self.cws[0].m
            if any(cw.m != m for cw in self.cws):
                raise ValueError("sched() stacks need a uniform m")
            big = np.iinfo(np.int64).max
            wcet = np.full((L, n_max, m), -1.0, dtype=np.float64)
            rank = np.full((L, n_max), big, dtype=np.int64)
            proc_rank = np.zeros((L, m), dtype=np.int64)
            indeg0 = np.full((L, n_max), big, dtype=np.int64)
            for b, cw in enumerate(self.cws):
                va = vec_arrays(cw)
                n = cw.n
                if n == 0:
                    continue
                wcet[b, :n] = va.wcet
                rank[b, :n] = va.rank
                proc_rank[b] = va.proc_rank
                indeg0[b, :n] = np.asarray(cw.indeg, dtype=np.int64)
            inelig = wcet < 0.0
            cpen = np.where(inelig, np.inf, wcet).reshape(L * n_max, m)
            pen = np.where(inelig, np.inf, 0.0).reshape(L * n_max, m)
            part = (cpen, pen, rank, proc_rank, indeg0)
            self._parts["sched"] = part
        return part

    def csr(self):
        """``(soff, sidx, ssz)`` — successor edges in flat CSR form.

        ``sidx[soff[l * n_max + i] : soff[...] + succ_cnt[l, i]]`` are
        the successor task indices of task *i* of lane *l* and ``ssz``
        the matching edge message sizes, derived by inverting the
        predecessor stacks.  Edge order within a task is irrelevant to
        every consumer (in-degree decrements count edges, data-ready
        pushes combine by exact ``max``), so no particular order is
        promised.
        """
        part = self._parts.get("csr")
        if part is None:
            L, n_max = len(self.cws), self.n_max
            pred_pad, pred_sz, pred_cnt, p_max = self.pred()
            valid = np.arange(p_max) < pred_cnt[:, :, None]  # [L, n, p]
            lanes_g, tasks_g, _slots = np.nonzero(valid)
            src = pred_pad[valid]  # predecessor (edge source) per edge
            sz = pred_sz[valid]
            key = lanes_g * n_max + src  # flat source address per edge
            edge_order = np.argsort(key, kind="stable")
            counts = np.bincount(key, minlength=L * n_max)
            soff = np.zeros(L * n_max + 1, dtype=np.int64)
            np.cumsum(counts, out=soff[1:])
            sidx = tasks_g[edge_order].astype(np.int64)
            ssz = sz[edge_order]
            part = (soff, sidx, ssz)
            self._parts["csr"] = part
        return part

    def vals(self):
        """``(pad, cnt, v_max)`` — the raw per-task WCET value lists."""
        part = self._parts.get("vals")
        if part is None:
            L, n_max = len(self.cws), self.n_max
            v_max = 1
            for cw in self.cws:
                for row in cw.wcet_vals:
                    if len(row) > v_max:
                        v_max = len(row)
            pad = np.zeros((L, n_max, v_max), dtype=np.float64)
            cnt = np.zeros((L, n_max), dtype=np.int64)
            for b, cw in enumerate(self.cws):
                for i, row in enumerate(cw.wcet_vals):
                    cnt[b, i] = len(row)
                    if row:
                        pad[b, i, : len(row)] = row
            part = (pad, cnt, v_max)
            self._parts["vals"] = part
        return part

    def sizes_pad(self):
        """``[L, n_max]`` parallel-set sizes — ADAPT-L's ``|P_i|`` stack.

        A pure function of the workloads (the per-workload tuples are
        themselves memoized), padded with zeros past each lane's task
        count.
        """
        part = self._parts.get("sizes")
        if part is None:
            sizes = np.zeros((len(self.cws), self.n_max), dtype=np.float64)
            valid = np.arange(self.n_max) < self.n_arr[:, None]
            sizes[valid] = np.fromiter(
                chain.from_iterable(
                    cw.parallel_set_sizes() for cw in self.cws
                ),
                dtype=np.float64,
                count=int(self.n_arr.sum()),
            )
            part = (sizes,)
            self._parts["sizes"] = part
        return part[0]


#: Bounded memo of :class:`_LaneStack` by lane-list identity.  Entries
#: hold strong references to their workloads, so an ``id`` key can never
#: be recycled while its entry lives; the LRU bound keeps a long sweep
#: from pinning more than a few chunks' worth of arrays.
_STACK_CACHE_CAP = 8
_stack_cache: "OrderedDict[tuple[int, ...], _LaneStack]" = OrderedDict()


def _lane_stack(cws: Sequence[CompiledWorkload]) -> _LaneStack:
    """The lane list's stacked arrays, memoized across batch stages."""
    key = tuple(map(id, cws))
    st = _stack_cache.get(key)
    if st is None:
        st = _LaneStack(cws)
        _stack_cache[key] = st
        while len(_stack_cache) > _STACK_CACHE_CAP:
            _stack_cache.popitem(last=False)
    else:
        _stack_cache.move_to_end(key)
    return st


# ----------------------------------------------------------------------
# Batched estimates and metric weights
# ----------------------------------------------------------------------

#: The estimator singletons whose ``combine`` the batch path replicates
#: as array expressions (ordered sum via cumsum / exact max / exact min).
_BATCH_ESTIMATORS = {
    WCET_AVG.name: "avg",
    WCET_MAX.name: "max",
    WCET_MIN.name: "min",
}


def estimator_batch_supported(est_name: str) -> bool:
    """Whether *est_name* (canonical spelling) has a batched estimate stage.

    The public gate for callers outside the trial engine — e.g. the
    service's micro-batch flush path — that want to route many distinct
    workloads through :func:`vec_estimates_batch` /
    :func:`vec_weights_batch` without reaching into the private table.
    """
    return est_name in _BATCH_ESTIMATORS


def _ordered_sum(mat):
    """Row sums with Python's left-to-right accumulation order.

    ``cumsum`` adds strictly sequentially, so its last column equals
    ``functools.reduce(operator.add, row, 0.0)`` — the reference
    ``sum()`` — bit for bit.
    """
    if mat.shape[1] == 0:
        return np.zeros(mat.shape[0], dtype=np.float64)
    return np.cumsum(mat, axis=1)[:, -1]


def vec_estimates_batch(
    cws: Sequence[CompiledWorkload], est_name: str
) -> list[list[float] | None]:
    """Per-lane estimate lists for one of the WCET-* estimators.

    Lanes whose workload has a task with no platform-valid WCET return
    ``None`` (the caller's scalar path raises the reference
    ``EligibilityError`` with the exact task id).  Results are written
    into each workload's estimate memo, so later scalar stages (slicing
    laxity, the reference estimators) observe the identical floats.
    """
    kind = _BATCH_ESTIMATORS[est_name]
    out: list[list[float] | None] = [None] * len(cws)
    pending: list[int] = []
    for li, cw in enumerate(cws):
        cached = cw._est_lists.get(est_name)
        if cached is not None:
            out[li] = cached
        else:
            pending.append(li)
    if not pending:
        return out
    st = _lane_stack([cws[li] for li in pending])
    L, n_max = len(pending), st.n_max
    pad, cnt, v_max = st.vals()
    valid = np.arange(v_max) < cnt[:, :, None]
    if kind == "avg":
        flat = pad.reshape(L * n_max, v_max)
        totals = _ordered_sum(flat).reshape(L, n_max)
        est = np.divide(
            totals,
            cnt,
            out=np.zeros_like(totals),
            where=cnt > 0,
        )
    elif kind == "max":
        est = np.where(valid, pad, -np.inf).max(axis=2, initial=-np.inf)
    else:
        est = np.where(valid, pad, np.inf).min(axis=2, initial=np.inf)
    if kind != "avg":
        # Zero the ±inf padding so the array doubles as a weights-stage
        # ``est_pad`` (whose row sums run over the full padded width).
        task_valid = np.arange(n_max) < st.n_arr[:, None]
        np.copyto(est, 0.0, where=~task_valid)
    complete = True
    for b, li in enumerate(pending):
        cw = cws[li]
        n = cw.n
        if n and int(cnt[b, :n].min()) == 0:
            complete = False
            continue  # empty-WCET lane: scalar path raises for it
        lane = est[b, :n].tolist()
        cw._est_lists[est_name] = lane
        out[li] = lane
    if complete:
        # Stash the padded array for the weights stage: reusing it is
        # bit-identical to refilling from the lists (float64 lists round
        # -trip exactly), and the identity check on the list objects
        # guards against a stale stash.
        st._parts["est_pad"] = (tuple(out[li] for li in pending), est)
    return out


def _batch_levels(st, est_pad, n_arr):
    """Static levels for one lane stack, swept one topo position per step.

    Relaxation runs over the reversed topological order exactly like
    the scalar ``_average_parallelism``: each step resolves one task
    per lane, taking ``est + max(successor levels, default 0.0)`` —
    the max is exact and the add is one IEEE op, so the levels match
    the scalar floats bit for bit.
    """
    L = len(st.cws)
    n_max = st.n_max
    levels = np.zeros((L, n_max), dtype=np.float64)
    topo_pad = st.topo()
    succ_pad, succ_cnt, s_max = st.succ()
    ar = np.arange(L)
    base = ar * n_max
    lvl_flat = levels.ravel()
    topo_flat = topo_pad.ravel()
    est_flat = est_pad.ravel()
    scnt_flat = succ_cnt.ravel()
    succ_rows = succ_pad.reshape(L * n_max, s_max)
    nm1_base = base + (n_arr - 1)
    # Scratch reused across positions; the successor max runs as a
    # column chain of width-[L] ufuncs (numpy's small-last-axis
    # reductions are an order of magnitude slower).
    posidx = np.empty(L, dtype=np.int64)
    flat_t = np.empty(L, dtype=np.int64)
    scnt = np.empty(L, dtype=np.int64)
    tail = np.empty(L, dtype=np.float64)
    valid = np.empty(L, dtype=bool)
    upd = np.empty(L, dtype=np.float64)
    eidx = np.empty((L, s_max), dtype=np.int64)
    vals = np.empty((L, s_max), dtype=np.float64)
    srow = np.empty((L, s_max), dtype=np.int64)
    pad_mask = np.empty((L, s_max), dtype=bool)
    slots = np.arange(s_max)
    for pos in range(n_max - 1, -1, -1):
        np.add(base, pos, out=posidx)
        np.minimum(posidx, nm1_base, out=posidx)
        topo_flat.take(posidx, out=flat_t)
        np.add(flat_t, base, out=flat_t)
        scnt_flat.take(flat_t, out=scnt)
        # Only the first k_max successor slots carry edges this step;
        # the mask pass and the max chain both stop there.
        k_max = int(scnt.max())
        if k_max:
            ew, mw = eidx[:, :k_max], pad_mask[:, :k_max]
            succ_rows.take(flat_t, axis=0, out=srow)
            np.add(srow[:, :k_max], base[:, None], out=ew)
            lvl_flat.take(ew, out=vals[:, :k_max])
            np.greater_equal(slots[:k_max], scnt[:, None], out=mw)
            np.copyto(vals[:, :k_max], -np.inf, where=mw)
            np.copyto(tail, -np.inf)
            for k in range(k_max):
                np.maximum(tail, vals[:, k], out=tail)
            np.less_equal(scnt, 0, out=valid)
            np.copyto(tail, 0.0, where=valid)
        else:
            tail.fill(0.0)
        est_flat.take(flat_t, out=upd)
        upd += tail
        live = pos < n_arr
        lvl_flat[flat_t[live]] = upd[live]
    return levels


def vec_weights_batch(
    cws: Sequence[CompiledWorkload],
    metric,
    ests: Sequence[Sequence[float] | None],
    est_key: str | None = None,
) -> list[tuple | None]:
    """Metric weight tuples for many workload lanes in one array pass.

    ``ests[l]`` is lane *l*'s estimate array (``None`` skips the lane).
    Error lanes — empty task set, non-positive longest path — come back
    ``None`` with **no cache write**, so the caller's per-trial scalar
    retry raises the reference exception verbatim.  Successful lanes
    are written into each workload's weight memo exactly like
    :func:`repro.kernel.metrics.kernel_weights` would, so every
    downstream stage (slicing's ``succ_w_master``, the EDF windows)
    observes the identical objects.
    """
    out: list[tuple | None] = [None] * len(cws)
    if not isinstance(metric, (AdaptGMetric, AdaptLMetric)):
        # PURE/NORM weights *are* the estimates — the memoized copy is
        # the whole computation; arrays would only add overhead.
        for li, cw in enumerate(cws):
            if ests[li] is not None:
                out[li] = kernel_weights(cw, metric, ests[li], est_key)
        return out

    p = metric.params
    lanes: list[int] = []
    for li, cw in enumerate(cws):
        if ests[li] is None:
            continue
        if est_key is not None:
            key = (
                metric.name, p.k_g, p.k_l, p.c_thres, p.c_thres_factor,
                est_key,
            )
            cached = cw.weights_cache().get(key)
            if cached is not None:
                out[li] = cached
                continue
        if cw.n == 0 or cw.m < 1:
            continue  # scalar retry raises MetricError/GraphError
        lanes.append(li)
    if not lanes:
        return out

    L = len(lanes)
    st = _lane_stack([cws[li] for li in lanes])
    n_arr = st.n_arr
    m_arr = np.array([cws[li].m for li in lanes], dtype=np.float64)
    n_max = st.n_max
    est_pad = None
    stash = st._parts.get("est_pad")
    if stash is not None:
        s_lists, s_arr = stash
        if len(s_lists) == L and all(
            ests[li] is s_lists[b] for b, li in enumerate(lanes)
        ):
            est_pad = s_arr  # read-only below; padding is zeroed
    if est_pad is None:
        est_pad = np.zeros((L, n_max), dtype=np.float64)
        valid = np.arange(n_max) < n_arr[:, None]
        est_pad[valid] = np.fromiter(
            chain.from_iterable(ests[li] for li in lanes),
            dtype=np.float64,
            count=int(n_arr.sum()),
        )
    totals = _ordered_sum(est_pad)

    # c_thres: the pinned constant, or factor × insertion-order mean.
    if p.c_thres is not None:
        c_thres = np.full(L, p.c_thres, dtype=np.float64)
    else:
        c_thres = p.c_thres_factor * (totals / n_arr)

    ok = np.ones(L, dtype=bool)
    if isinstance(metric, AdaptGMetric):
        levels = _batch_levels(st, est_pad, n_arr)
        col = np.arange(n_max)
        longest = np.where(col < n_arr[:, None], levels, -np.inf).max(
            axis=1, initial=-np.inf
        )
        ok = longest > 0.0  # `longest <= 0` lanes raise via scalar retry
        xi = np.divide(
            totals, longest, out=np.zeros(L), where=ok
        )
        surplus = 1.0 + p.k_g * xi / m_arr
        weights = np.where(
            est_pad >= c_thres[:, None], est_pad * surplus[:, None], est_pad
        )
    else:
        sizes = st.sizes_pad()
        factor = 1.0 + p.k_l * sizes / m_arr[:, None]
        weights = np.where(
            est_pad >= c_thres[:, None], est_pad * factor, est_pad
        )

    for b, li in enumerate(lanes):
        if not bool(ok[b]):
            continue
        cw = cws[li]
        w = tuple(weights[b, : cw.n].tolist())
        out[li] = w
        if est_key is not None:
            key = (
                metric.name, p.k_g, p.k_l, p.c_thres, p.c_thres_factor,
                est_key,
            )
            cw.weights_cache()[key] = w
    return out


# ----------------------------------------------------------------------
# Lockstep batched EDF
# ----------------------------------------------------------------------


class VecLaneSchedule:
    """One lane's result from :func:`vec_schedule_edf_batch`.

    Mirrors the :class:`~repro.kernel.edf.KernelSchedule` surface the
    trial wrapper reads (feasible/failed/makespan/max-lateness); the
    placement order is not materialized — both aggregates are exact
    maxes, so order is irrelevant.
    """

    __slots__ = ("cw", "feasible", "failed", "_makespan", "_lateness", "_any")

    def __init__(self, cw, feasible, failed, makespan, lateness, any_placed):
        self.cw = cw
        self.feasible = feasible
        self.failed = failed
        self._makespan = makespan
        self._lateness = lateness
        self._any = any_placed

    @property
    def failed_task(self) -> str | None:
        return self.cw.ids[self.failed] if self.failed >= 0 else None

    @property
    def makespan(self) -> float:
        return self._makespan

    def max_lateness(self) -> float:
        if not self._any:
            raise SchedulingError("empty schedule has no lateness")
        return self._lateness


def _lane_from_kernel(ks) -> VecLaneSchedule:
    """Adapt a scalar :class:`KernelSchedule` to the lane surface."""
    any_placed = bool(ks.order)
    return VecLaneSchedule(
        ks.cw,
        ks.feasible,
        ks.failed,
        ks.makespan,
        ks.max_lateness() if any_placed else 0.0,
        any_placed,
    )


def vec_schedule_edf_batch(
    lanes: Sequence[tuple[CompiledWorkload, Sequence[float], Sequence[float]]],
    *,
    comms: Sequence | None = None,
    continue_on_miss: "bool | Sequence[bool]" = False,
) -> list[VecLaneSchedule]:
    """EDF-list-schedule many ``(cw, win_a, win_d)`` lanes in lockstep.

    Each step pops one ready task per live lane (staged masked min over
    the deadline array, then task rank — the heap's tuple order), probes
    every processor with one ``[lanes]``-wide comparison per processor,
    and scatters the placements back.  Lanes outside the batch envelope
    — a non-:class:`SharedBus` communication model (``comms[l]``
    overrides the platform's), resource-using tasks — run the scalar
    :func:`kernel_schedule_edf` individually; either way every float is
    the reference expression, so results are bit-identical.

    ``continue_on_miss`` may be a per-lane sequence, so lanes of
    different series (fail-fast feasibility vs lateness measurement)
    can share one lockstep call — the seed-batch driver folds every
    series of a chunk into a single invocation this way.
    """
    per_lane_cont = not isinstance(continue_on_miss, bool)

    def _cont(li: int) -> bool:
        return (
            bool(continue_on_miss[li]) if per_lane_cont else continue_on_miss
        )

    results: list[VecLaneSchedule | None] = [None] * len(lanes)
    groups: dict[int, list[int]] = {}
    for li, (cw, win_a, win_d) in enumerate(lanes):
        comm = comms[li] if comms is not None else None
        comm_model = comm if comm is not None else cw.platform.comm
        if cw.has_resources or type(comm_model) is not SharedBus:
            results[li] = _lane_from_kernel(
                kernel_schedule_edf(
                    cw, win_a, win_d, comm=comm,
                    continue_on_miss=_cont(li),
                )
            )
        else:
            comm_model.reset()
            groups.setdefault(cw.m, []).append(li)

    BIG = np.iinfo(np.int64).max
    for m, members in groups.items():
        L = len(members)
        st = _lane_stack([lanes[li][0] for li in members])
        n_arr = st.n_arr
        n_max = st.n_max
        _succ_pad, succ_cnt, _s_max = st.succ()
        cpen_rows, pen_rows, rank, proc_rank, indeg0 = st.sched()
        soff, sidx, ssz = st.csr()
        scnt_flat = succ_cnt.ravel()

        # Per-call state: the metric-dependent windows, the per-lane
        # communication delay, and a working in-degree copy.  The
        # window fill runs through one ``fromiter`` pass + one masked
        # scatter instead of L row assignments (the row-major order of
        # the padded mask is exactly lane-major, task-minor).
        win_a = np.zeros((L, n_max), dtype=np.float64)
        win_d = np.full((L, n_max), np.inf, dtype=np.float64)
        total_n = int(n_arr.sum())
        valid = np.arange(n_max) < n_arr[:, None]
        win_a[valid] = np.fromiter(
            chain.from_iterable(lanes[li][1] for li in members),
            dtype=np.float64,
            count=total_n,
        )
        win_d[valid] = np.fromiter(
            chain.from_iterable(lanes[li][2] for li in members),
            dtype=np.float64,
            count=total_n,
        )

        def _delay_of(li: int) -> float:
            comm = comms[li] if comms is not None else None
            model = comm if comm is not None else lanes[li][0].platform.comm
            return model.per_item_delay

        per_item = np.fromiter(
            (_delay_of(li) for li in members), dtype=np.float64, count=L
        )
        indeg_rem = indeg0.copy()
        if per_lane_cont:
            stop_on_miss = np.array(
                [not continue_on_miss[li] for li in members], dtype=bool
            )
        else:
            stop_on_miss = np.full(L, not continue_on_miss, dtype=bool)

        # EDF priorities are static — a task's (deadline, id-rank) pop
        # key never changes while it waits — so sort each lane's tasks
        # once and keep the ready set as a bitmap *in priority
        # coordinates*.  The pop is then a single boolean argmax (first
        # ready task in priority order), exactly the heap's minimum.
        order = np.lexsort((rank, win_d), axis=1)
        inv_order = np.empty_like(order)
        np.put_along_axis(
            inv_order,
            order,
            np.broadcast_to(np.arange(n_max), (L, n_max)),
            axis=1,
        )
        prio_ready = np.take_along_axis(indeg_rem == 0, order, axis=1)

        finish = np.full((L, n_max), -np.inf)  # -inf marks "not placed"
        proc_free = np.zeros((L, m), dtype=np.float64)
        feasible = np.ones(L, dtype=bool)
        failed = np.full(L, -1, dtype=np.int64)
        alive = n_arr > 0
        ar = np.arange(L)
        base = ar * n_max
        basem = ar * m
        # Data-ready state, decomposed instead of materialized: the
        # reference value is ``max(win_a, max over placed preds p of
        # (q == q_p ? f_p : f_p + size·delay))``.  The local term
        # ``f_p`` is always dominated by ``proc_free[q_p]`` (processor
        # frontiers are nondecreasing and equal ``f_p`` the moment p
        # places), so only the *remote* contributions matter — and
        # their per-processor maximum is fully described by a top-2
        # over processors: ``v1`` (best remote value), ``p1`` (the
        # processor holding it; -1 while only the arrival counts),
        # ``v2`` (best over the other processors).  The row a pop
        # needs is then ``q == p1 ? v2 : v1`` — three scalars per task
        # instead of an m-vector, and every edge-push update is a
        # width-[edges] op.  All combining is IEEE max (exact,
        # order-independent), so the decomposition is bit-identical.
        v1 = win_a.copy()
        p1v = np.full((L, n_max), -1, dtype=np.int64)
        v2 = np.full((L, n_max), -np.inf)
        # Flat views for gather-by-take: cheaper than advanced
        # indexing, and they alias the buffers the scatters write, so
        # every gather sees the current state.
        wd_flat = win_d.ravel()
        order_flat = order.ravel()
        indeg_flat = indeg_rem.ravel()
        prio_flat = prio_ready.ravel()
        inv_flat = inv_order.ravel()
        v1_f = v1.ravel()
        p1_f = p1v.ravel()
        v2_f = v2.ravel()
        f_flat = None  # bound to fbuf.ravel() below

        # Per-step scratch, allocated once: every hot op in the loop
        # writes through ``out=`` so steps allocate (almost) nothing.
        pos = np.empty(L, dtype=np.int64)
        bpos = np.empty(L, dtype=np.int64)
        cur = np.empty(L, dtype=np.int64)
        curf = np.empty(L, dtype=np.int64)
        rdy = np.empty(L, dtype=bool)
        absdl = np.empty(L, dtype=np.float64)
        misslim = np.empty(L, dtype=np.float64)
        best_f = np.empty(L, dtype=np.float64)
        lane_b = np.empty(L, dtype=bool)
        smin = np.empty(L, dtype=np.float64)
        fmin = np.empty(L, dtype=np.float64)
        bq = np.empty(L, dtype=np.int64)
        g1 = np.empty(L, dtype=np.float64)
        g2 = np.empty(L, dtype=np.float64)
        gp = np.empty(L, dtype=np.int64)
        eqb = np.empty(L, dtype=bool)
        bestr = np.empty(L, dtype=np.int64)
        drow = np.empty((L, m), dtype=np.float64)
        sbuf = np.empty((L, m), dtype=np.float64)
        penb = np.empty((L, m), dtype=np.float64)
        cpenb = np.empty((L, m), dtype=np.float64)
        smask = np.empty((L, m), dtype=np.float64)
        fbuf = np.empty((L, m), dtype=np.float64)
        fmask = np.empty((L, m), dtype=np.float64)
        prb = np.empty((L, m), dtype=np.int64)
        f_flat = fbuf.ravel()
        # Edge-push scratch, sized to the worst single step (every
        # lane placing its highest-degree task at once); per-step
        # slices of these avoid ~a dozen allocations per iteration.
        e_max = int(succ_cnt.max(axis=1).sum()) if L else 0
        eb_t1 = np.empty(e_max, dtype=np.float64)
        eb_t2 = np.empty(e_max, dtype=np.float64)
        eb_tp = np.empty(e_max, dtype=np.int64)
        eb_mx = np.empty(e_max, dtype=np.float64)
        eb_mx2 = np.empty(e_max, dtype=np.float64)
        eb_np1 = np.empty(e_max, dtype=np.int64)
        eb_same = np.empty(e_max, dtype=bool)
        eb_promote = np.empty(e_max, dtype=bool)
        eb_touch = np.empty(e_max, dtype=bool)
        eb_dec = np.empty(e_max, dtype=np.int64)
        eb_new = np.empty(e_max, dtype=bool)
        # Column views: the per-processor reductions below run as
        # chains of width-[L] ufuncs over these — 10-20x faster than
        # numpy's small-last-axis reductions (``min(axis=1)`` walks
        # [L, m] with a strided inner loop of length m).
        drow_c = [drow[:, q] for q in range(m)]
        smask_c = [smask[:, q] for q in range(m)]
        fbuf_c = [fbuf[:, q] for q in range(m)]
        fmask_c = [fmask[:, q] for q in range(m)]
        prb_c = [prb[:, q] for q in range(m)]
        prank_c = [proc_rank[:, q] for q in range(m)]

        while True:
            np.argmax(prio_ready, axis=1, out=pos)  # first ready in order
            np.add(base, pos, out=bpos)
            prio_flat.take(bpos, out=rdy)
            alive &= rdy  # lanes with no ready task left are drained
            if not bool(alive.any()):
                break
            order_flat.take(bpos, out=cur)
            np.add(base, cur, out=curf)
            wd_flat.take(curf, out=absdl)
            v1_f.take(curf, out=g1)
            p1_f.take(curf, out=gp)
            v2_f.take(curf, out=g2)
            pen_rows.take(curf, axis=0, out=penb)
            cpen_rows.take(curf, axis=0, out=cpenb)

            # Expand the top-2 data-ready decomposition into the
            # [L, m] row: v1 everywhere, v2 on the column that holds
            # the top value.
            np.copyto(drow, g1[:, None])
            for q in range(m):
                np.equal(gp, q, out=eqb)
                np.copyto(drow_c[q], g2, where=eqb)
            np.maximum(drow, proc_free, out=sbuf)
            # Lexicographic (start, finish, proc-rank) minimum via
            # staged masks — ineligible processors carry a +inf
            # penalty, so they can never win a stage.  Processor ranks
            # are distinct per lane, so the surviving argmin matches
            # the scalar first-best scan exactly.
            np.add(sbuf, penb, out=smask)
            np.copyto(smin, smask_c[0])
            for q in range(1, m):
                np.minimum(smin, smask_c[q], out=smin)
            np.add(sbuf, cpenb, out=fbuf)  # finish; +inf where ineligible
            np.copyto(fmask, np.inf)
            for q in range(m):
                np.equal(smask_c[q], smin, out=eqb)
                np.copyto(fmask_c[q], fbuf_c[q], where=eqb)
            np.copyto(fmin, fmask_c[0])
            for q in range(1, m):
                np.minimum(fmin, fmask_c[q], out=fmin)
            np.copyto(prb, BIG)
            for q in range(m):
                np.equal(fmask_c[q], fmin, out=eqb)
                np.copyto(prb_c[q], prank_c[q], where=eqb)
            # First-best processor = argmin of rank over the survivors,
            # accumulated column-wise (strict < keeps the first seen).
            np.copyto(bq, 0)
            np.copyto(bestr, prb_c[0])
            for q in range(1, m):
                np.less(prb_c[q], bestr, out=eqb)
                bq[eqb] = q
                np.minimum(bestr, prb_c[q], out=bestr)
            np.add(basem, bq, out=bpos)  # reuse: flat [L, m] address
            f_flat.take(bpos, out=best_f)

            np.isinf(smin, out=lane_b)  # smin == +inf ⇔ no eligible proc
            lane_b &= alive
            if bool(lane_b.any()):
                no_elig = lane_b.copy()
                feasible[no_elig] = False
                failed[no_elig] = cur[no_elig]
                alive &= ~no_elig  # partial, like the scalar early return

            np.add(absdl, MISS_TOLERANCE, out=misslim)
            np.greater(best_f, misslim, out=lane_b)
            lane_b &= alive
            if bool(lane_b.any()):
                miss = lane_b
                feasible[miss] = False
                first = miss & (failed < 0)
                failed[first] = cur[first]
                # Fail-fast lanes stop here (the missed task is never
                # placed); lateness-measuring lanes keep placing.
                alive &= ~(miss & stop_on_miss)

            # Fail-fast already removed missing lanes from ``alive``, so
            # the survivors are exactly the lanes that place this step.
            if bool(alive.all()):
                li_sel, ci, cif, bf, qi = ar, cur, curf, best_f, bq
                pi_sel = per_item
            else:
                li_sel = ar[alive]
                if not li_sel.size:
                    continue
                ci = cur[alive]
                cif = curf[alive]
                bf = best_f[alive]
                qi = bq[alive]
                pi_sel = per_item[alive]
            finish[li_sel, ci] = bf
            proc_free[li_sel, qi] = bf
            prio_flat[base[li_sel] + pos[li_sel]] = False

            # Push the placement along its successor edges (CSR): fold
            # the *remote* arrival ``finish + size · delay`` into each
            # successor's top-2 state and bump its remaining in-degree
            # (the local term rides on ``proc_free``, see above).  Edge
            # addresses are unique this step (one placement per lane,
            # duplicate-free edge lists), so plain gather/modify/
            # scatter is safe (no ufunc.at).
            counts = scnt_flat.take(cif)
            total = int(counts.sum())
            if total:
                cum = np.cumsum(counts)
                pos_e = np.arange(total) + np.repeat(
                    soff.take(cif) - (cum - counts), counts
                )
                tgt = sidx.take(pos_e)
                rows_e = np.repeat(li_sel, counts)
                eflat = rows_e * n_max + tgt
                q_e = np.repeat(qi, counts)
                arr_e = np.repeat(bf, counts)
                arr_e += ssz.take(pos_e) * np.repeat(pi_sel, counts)
                t1 = v1_f.take(eflat, out=eb_t1[:total])
                tp = p1_f.take(eflat, out=eb_tp[:total])
                t2 = v2_f.take(eflat, out=eb_t2[:total])
                # Top-2-by-processor max update with (arr_e, q_e):
                # same processor as the top -> only the top can grow;
                # a larger value from another processor promotes (the
                # old top becomes the runner-up — it already bounds
                # every other processor's best); otherwise the value
                # competes with the runner-up alone.
                same = np.equal(tp, q_e, out=eb_same[:total])
                promote = np.greater(arr_e, t1, out=eb_promote[:total])
                touch = np.logical_or(same, promote, out=eb_touch[:total])
                promote &= ~same
                mx = np.maximum(t1, arr_e, out=eb_mx[:total])
                untouched = np.logical_not(touch, out=eb_new[:total])
                np.copyto(mx, t1, where=untouched)
                v1_f[eflat] = mx
                np1 = eb_np1[:total]
                np.copyto(np1, tp)
                np.copyto(np1, q_e, where=promote)
                p1_f[eflat] = np1
                mx2 = np.maximum(t2, arr_e, out=eb_mx2[:total])
                np.copyto(mx2, t1, where=promote)
                np.copyto(mx2, t2, where=same)
                v2_f[eflat] = mx2
                dec = indeg_flat.take(eflat, out=eb_dec[:total])
                dec -= 1
                indeg_flat[eflat] = dec
                newly = np.equal(dec, 0, out=eb_new[:total])
                if bool(newly.any()):
                    nflat = eflat[newly]
                    nrow = rows_e[newly]
                    prio_flat[nrow * n_max + inv_flat.take(nflat)] = True

        placed = finish != -np.inf
        lateness = np.where(placed, finish - win_d, -np.inf).max(
            axis=1, initial=-np.inf
        )
        makespan = np.where(placed, finish, -np.inf).max(
            axis=1, initial=-np.inf
        )
        any_placed = placed.any(axis=1)
        feas_l = feasible.tolist()
        fail_l = failed.tolist()
        mk_l = makespan.tolist()
        la_l = lateness.tolist()
        any_l = any_placed.tolist()
        for b, li in enumerate(members):
            ap = any_l[b]
            results[li] = VecLaneSchedule(
                lanes[li][0],
                feas_l[b],
                fail_l[b],
                mk_l[b] if ap else 0.0,
                la_l[b] if ap else 0.0,
                ap,
            )
    return results  # type: ignore[return-value]


# ----------------------------------------------------------------------
# Seed-batch driver for the runner's paired units
# ----------------------------------------------------------------------


def batch_supported(config: "TrialConfig") -> bool:
    """Whether the seed-batch pipeline may judge *config* lanes.

    The kernel envelope plus a batchable estimator; anything else is
    judged per trial by :func:`repro.experiments.runner.run_trial`
    (which itself dispatches kernel → reference per config).
    """
    if not kernel_supported(config):
        return False
    try:
        est = get_estimator(config.estimator)
    except Exception:
        return False
    return est.name in _BATCH_ESTIMATORS


def batch_engages(
    cells: Sequence[tuple[int, "TrialConfig"]],
    lanes: int,
    use_kernel: bool | None = None,
) -> bool:
    """Whether a block of *lanes* seeds over *cells* runs through
    :func:`paired_outcomes` — the one rule every front door shares.

    The kernel must be enabled (``use_kernel``, defaulting to the
    ``REPRO_KERNEL`` switch, so the reference oracle stays reachable),
    the block at least :data:`VEC_MIN_LANES` seeds wide, every series
    on one workload family (one shared workload per seed), and some
    series batchable.  The outcomes never depend on the answer.
    """
    use_k = use_kernel if use_kernel is not None else kernel_enabled()
    return (
        use_k
        and lanes >= VEC_MIN_LANES
        and len({config.workload for _si, config in cells}) == 1
        and any(batch_supported(config) for _si, config in cells)
    )


def paired_outcomes(
    cells: Sequence[tuple[int, "TrialConfig"]],
    seeds: Sequence[int],
    contexts: Sequence["TrialContext"],
    use_kernel: bool | None = None,
) -> dict[tuple[int, int], "TrialOutcome"]:
    """All ``(series, seed)`` outcomes of one paired chunk, batch-first.

    *contexts* pairs with *seeds* (one shared workload per seed — the
    caller guarantees every series uses the same workload params).  For
    each supported series the weight stage runs as one
    :func:`vec_weights_batch` across the seed lanes and the EDF stage
    as one :func:`vec_schedule_edf_batch`; slicing (inherently
    sequential at trial size) runs per lane through the compiled DP.
    Any lane count works here; callers gate on :func:`batch_engages`.
    Lanes the batch flags as erroneous, and unsupported series, fall
    back to the per-trial dispatcher in ``(seed, series)`` nested
    order, so any exception surfaces exactly where the sequential loop
    would raise it.

    Returns ``{(series_index, seed_position): TrialOutcome}`` with the
    same floats the sequential loop produces.
    """
    from ..experiments.spec import TrialOutcome

    out: dict[tuple[int, int], "TrialOutcome"] = {}
    cws = [ctx.compiled for ctx in contexts]
    S = len(seeds)

    scalar_lanes: set[tuple[int, int]] = set()  # (si, seed_pos) retries
    prepared: dict[int, list] = {}
    # One lockstep EDF call covers *every* series of the chunk: the
    # per-step fixed cost of the vectorized scheduler is paid once for
    # the whole (series x seed) block instead of once per series.
    edf_lanes: list[tuple[int, int]] = []  # (si, seed_pos)
    edf_args: list = []
    edf_comms: list = []
    edf_cont: list[bool] = []
    any_comm = False
    for si, config in cells:
        if not batch_supported(config):
            scalar_lanes.update((si, sp) for sp in range(S))
            continue
        metric = get_metric(config.metric, config.adaptive)
        est_obj = get_estimator(config.estimator)
        ests = vec_estimates_batch(cws, est_obj.name)
        weights = vec_weights_batch(cws, metric, ests, est_obj.name)
        if config.contention_bus:
            from ..system.interconnect import ContentionBus

            def make_comm(c=config):
                return ContentionBus(c.workload.bus_delay_per_item)

            any_comm = True
        else:
            make_comm = None
        lane_rows: list = [None] * S
        for sp in range(S):
            if ests[sp] is None or weights[sp] is None:
                scalar_lanes.add((si, sp))
                continue
            ka = kernel_slice(cws[sp], metric, weights[sp])
            lane_rows[sp] = ka
            edf_lanes.append((si, sp))
            edf_args.append((cws[sp], ka.win_a, ka.win_d))
            edf_comms.append(None if make_comm is None else make_comm())
            edf_cont.append(config.measure_lateness)
        prepared[si] = [lane_rows, ests]

    sched_by: dict[tuple[int, int], VecLaneSchedule] = {}
    if edf_args:
        scheds = vec_schedule_edf_batch(
            edf_args,
            comms=edf_comms if any_comm else None,
            continue_on_miss=edf_cont,
        )
        sched_by = dict(zip(edf_lanes, scheds))

    from ..experiments.runner import run_trial

    for sp in range(S):
        for si, config in cells:
            if (si, sp) in scalar_lanes:
                out[(si, sp)] = run_trial(
                    config, seeds[sp], contexts[sp], use_kernel
                )
                continue
            lane_rows, ests = prepared[si]
            ka = lane_rows[sp]
            ks = sched_by[(si, sp)]
            if config.measure_lateness or ks.feasible:
                max_lateness = ks.max_lateness()
            else:
                max_lateness = float("nan")
            out[(si, sp)] = TrialOutcome(
                success=ks.feasible,
                degenerate=ka.degenerate,
                n_tasks=cws[sp].n,
                min_laxity=ka.min_laxity(ests[sp]),
                makespan=ks.makespan,
                max_lateness=max_lateness,
                failed_task=ks.failed_task,
            )
    return out
