"""Columnar batch kernels for the engine's replay hot path (DESIGN.md §8).

The engine reads each chunk as int columns (index, kind, tid, target,
site).  Replay then dispatches per event in pure Python —
~µs of interpreter work per event even when the event lands on a
[Same Epoch] fast path that is semantically one integer compare.  This
module vectorizes exactly those provably-cheap decisions over a whole
chunk at once with numpy, and falls back to the per-event handlers for
everything else:

* :class:`VecSameEpochFilter` — the engine's shared same-epoch filter
  over a chunk's columns, chunk-at-a-time with sort/cumsum group
  machinery; :class:`SameEpochFilter` is its pure-Python twin (same
  drop rule, same token state).
* :class:`HbEpochKernel` / :class:`StKernel` — per-analysis chunk
  kernels for the epoch tiers (FT2, FTO-HB, SmartTrack-*).  Each chunk
  they (1) reconstruct every event's *exact* packed epoch from the
  per-class clock-bump sites (``BUMP_KINDS``: local clocks advance by
  exactly one per bump event, and joins never raise a thread's own
  component), (2) gather the per-variable last-access columns, and
  (3) classify each access as **drop** (same-epoch no-op), **fast**
  (the handler's fast path, applied as a vector scatter), or **slow**
  (everything else — read-share, extra-metadata absorption, race
  recording).  Only the slow residue and the synchronization events walk
  through the per-event dispatch table, in original order.

Correctness of the chunk-at-once classification rests on two facts:

* *Chaining*: an access may be classified from vector state only while
  every earlier access to the same target in the chunk was itself
  classified fast or drop.  The fast paths write nothing but the
  last-access epochs, so the *effective* ``R_x``/``W_x`` at each chained
  position is the epoch of the nearest earlier chained read/write in the
  chunk (a per-group prefix scan), falling back to the chunk-start
  columns.  The first access that fails its checks breaks the chain:
  it and everything after it on that target walk the per-event
  handlers, which re-read live state.  Fast positions therefore always
  precede slow positions of their target, and committing the per-group
  *last* fast epoch before the walk preserves program order.
* *Monotonicity*: the HB kernels judge ``epoch ⪯ C`` against a
  chunk-start snapshot of the clock matrix.  Clocks only grow during a
  chunk, so a true snapshot verdict is true at the event; a false one
  merely demotes the access to the slow path, which recomputes it.
  Same-thread chains — the common shape in bursty traces — never
  break on snapshot staleness, because an own epoch compares by tid.

Everything numpy is gated on :func:`kernels_available`: numpy importable
and ``REPRO_NO_NUMPY`` unset.  Without numpy the engine keeps its
pure-Python scalar paths — same reports, bit for bit (the fuzz sweep
asserts this).
"""

from __future__ import annotations

import os
from bisect import bisect_right
from itertools import islice
from typing import List, Sequence, Tuple

from repro.clocks.epoch import META_VC, TID_BITS, TID_MASK

try:  # optional dependency: the [kernels] extra
    import numpy as np
except ImportError:  # pragma: no cover - exercised by the no-numpy CI job
    np = None  # type: ignore[assignment]

#: Version of the kernels' replay semantics, part of the on-disk result
#: cache key (:mod:`repro.checkpoint.cache`): bump whenever a kernel
#: change could alter which events reach the handlers or how per-variable
#: metadata is derived, so stale cached summaries are never replayed.
KERNELS_VERSION = 2


def kernels_available() -> bool:
    """True when the batch kernels can run: numpy is importable and the
    ``REPRO_NO_NUMPY`` environment knob (force the pure-Python paths,
    used by the differential tests and the no-numpy CI job) is unset."""
    return np is not None and not os.environ.get("REPRO_NO_NUMPY")


def make_kernel(analysis):
    """Build the batch kernel matching ``analysis.KERNEL_STYLE``.

    Called by the analyses' :meth:`~repro.core.base.Analysis.make_kernel`
    overrides; returns None when kernels are unavailable or the style is
    unknown (the engine then keeps the per-event replay path).
    """
    if not kernels_available():
        return None
    style = getattr(analysis, "KERNEL_STYLE", "")
    if style in ("ft2", "fto"):
        return HbEpochKernel(analysis)
    if style == "st":
        return StKernel(analysis)
    return None


def make_filter(width: int, epoch_enders: Sequence[bool]):
    """Build the vectorized same-epoch filter, or None when unavailable
    (:class:`SameEpochFilter` is the pure-Python twin).

    ``epoch_enders`` is the engine's by-kind epoch-ender table (the union
    of every tier's bump sites).
    """
    if not kernels_available():
        return None
    return VecSameEpochFilter(width, epoch_enders)


# -- shared group machinery --------------------------------------------------

def _counts_before(group, flags, order=None):
    """Per-position count of earlier True ``flags`` with the same
    ``group`` value (an exclusive per-group running count).

    One stable argsort + cumsum; this is the workhorse behind both the
    exact epoch reconstruction (bumps by this thread before position p)
    and the filter's token streams.  Pass a precomputed stable argsort
    of ``group`` to amortize it across calls.
    """
    if order is None:
        order = np.argsort(group, kind="stable")
    sg = group[order]
    sf = flags[order].astype(np.int64)
    cum = np.cumsum(sf)
    cum -= sf  # exclusive
    n = len(sg)
    new = np.empty(n, bool)
    new[0] = True
    np.not_equal(sg[1:], sg[:-1], out=new[1:])
    gid = np.cumsum(new) - 1
    starts = np.flatnonzero(new)
    out = np.empty(n, np.int64)
    out[order] = cum - cum[starts][gid]
    return out


class ChunkPlan:
    """One decoded chunk, shared across every kernel in the pass.

    Holds references to the engine's five Python list columns (the walk
    reads event operands from them, so plain ints — never numpy scalars —
    reach the handlers and the race records) plus int64 arrays of the
    kind/tid/target columns: ``arrays`` when the caller already has them
    (the engine's numpy column path), else converted from the lists.
    Per-chunk derived data that does not depend on analysis state — the
    per-position bump counts for each distinct ``BUMP_KINDS`` signature
    and the per-target grouping — is computed once and cached, so N
    kernels over the same chunk share it.
    """

    __slots__ = ("indices", "kinds", "tids", "targets", "sites", "n",
                 "kv", "tv", "xv", "is_rd", "is_wr", "is_acc",
                 "_bumps", "_part", "_sctx", "_scols", "_tid_range",
                 "_tvorder", "_maxx", "memo")

    def __init__(self, indices, kinds, tids, targets, sites, n: int,
                 arrays=None):
        self.indices = indices
        self.kinds = kinds
        self.tids = tids
        self.targets = targets
        self.sites = sites
        self.n = n
        if arrays is None:
            arrays = (np.fromiter(kinds, np.int64, count=n),
                      np.fromiter(tids, np.int64, count=n),
                      np.fromiter(targets, np.int64, count=n))
        self.kv, self.tv, self.xv = arrays
        self.is_rd = self.kv == 0
        self.is_wr = self.kv == 1
        self.is_acc = self.kv <= 1
        self._bumps = {}
        self._part = None
        self._sctx = None
        self._scols = None
        self._tid_range = None
        self._tvorder = None
        self._maxx = None
        self.memo = {}

    def tids_in_range(self, width: int) -> bool:
        """True when every tid fits the clock width — a malformed feed
        (lying header) otherwise, which the kernels hand back to the
        per-event handlers so the failure carries its event index."""
        rng = self._tid_range
        if rng is None:
            rng = self._tid_range = (int(self.tv.min()), int(self.tv.max()))
        return 0 <= rng[0] and rng[1] < width

    def bumps_for(self, bump_kinds: Tuple[int, ...]):
        """Per-position count of this-thread clock bumps earlier in the
        chunk, for a tier bumping at the given event kinds — the exact
        increment over the thread's chunk-start local time."""
        got = self._bumps.get(bump_kinds)
        if got is None:
            lut = np.zeros(16, np.int64)
            lut[list(bump_kinds)] = 1
            order = self._tvorder
            if order is None:  # one by-thread argsort, shared by signature
                order = self._tvorder = np.argsort(self.tv, kind="stable")
            got = _counts_before(self.tv, lut[self.kv] != 0, order)
            self._bumps[bump_kinds] = got
        return got

    def _partition(self):
        """Stable per-target grouping of the access positions (sync
        positions collapse into one ignorable group)."""
        part = self._part
        if part is None:
            key = np.where(self.is_acc, self.xv, np.int64(-1))
            order = np.argsort(key, kind="stable")
            sk = key[order]
            new = np.empty(self.n, bool)
            new[0] = True
            np.not_equal(sk[1:], sk[:-1], out=new[1:])
            gid = np.cumsum(new) - 1
            starts = np.flatnonzero(new)
            part = self._part = (order, gid, starts)
        return part

    def sorted_ctx(self):
        """Sorted-space scaffolding for the chain scans, cached across
        kernels: ``order`` (stable by-target permutation), ``gstart``
        (each sorted position's group start), ``end_pos`` (positions of
        group-final elements), their ``gstart`` values, and a shared
        ``arange(n)``."""
        ctx = self._sctx
        if ctx is None:
            order, gid, starts = self._partition()
            gstart = starts[gid]
            ends = np.empty(self.n, bool)
            ends[-1] = True
            np.equal(gstart[1:], np.arange(1, self.n), out=ends[:-1])
            end_pos = np.flatnonzero(ends)
            ctx = self._sctx = (order, gstart, end_pos, gstart[end_pos],
                                np.arange(1, self.n + 1, dtype=np.int64))
        return ctx

    def max_target(self) -> int:
        """Largest access target in the chunk (−1 when it has none) —
        drives the analyses' grow-on-demand, computed once per chunk."""
        m = self._maxx
        if m is None:
            if self.is_acc.any():
                m = int(self.xv[self.is_acc].max())
            else:
                m = -1
            self._maxx = m
        return m

    def sorted_cols(self):
        """The kind/tid/target columns gathered into sorted space, cached
        once for all kernels of the pass: ``(acc_s, rd_s, wr_s, tv_s, xs,
        xs_safe)`` where ``xs_safe`` clamps sync positions to target 0."""
        cols = self._scols
        if cols is None:
            order = self.sorted_ctx()[0]
            acc_s = self.is_acc[order]
            xs = self.xv[order]
            cols = self._scols = (acc_s, self.is_rd[order],
                                  self.is_wr[order], self.tv[order], xs,
                                  np.where(acc_s, xs, 0))
        return cols


def _epochs_sorted(plan, bump_kinds, base, tv, order):
    """Exact packed epochs in sorted order, cached on the plan: kernels
    with the same bump signature and the same chunk-start local times
    (the ft2/fto pair, the three SmartTrack tiers) share one
    reconstruction."""
    key = (bump_kinds, base.tobytes())
    e_s = plan.memo.get(key)
    if e_s is None:
        e = ((base[tv] + plan.bumps_for(bump_kinds)) << TID_BITS) | tv
        e_s = plan.memo[key] = e[order]
    return e_s


def _prev_in_group(mask_s, vals_s, fallback_s, gstart, arange1):
    """For each sorted position: ``vals_s`` at the nearest *earlier*
    position in the same group where ``mask_s`` holds, else that
    position's ``fallback_s`` (the chunk-start column value).

    ``arange1`` is ``arange(1, n+1)``: ``arange1 * mask − 1`` is the
    masked position (or −1) without a full-width ``np.where``."""
    pos = arange1 * mask_s
    pos -= 1
    last = np.maximum.accumulate(pos)
    prev = np.empty_like(last)
    prev[0] = -1
    prev[1:] = last[:-1]
    ok = prev >= gstart
    return np.where(ok, vals_s[np.maximum(prev, 0)], fallback_s)


def _commit_last(col, mask_s, xs, es, end_pos, gend, arange1):
    """Scatter each group's *last* ``mask_s`` epoch into ``col`` — one
    well-defined store per target, matching the state the per-event
    handlers would have left.  Returns the (targets, epochs) stored.

    ``end_pos``/``gend`` are the group-final sorted positions and their
    group starts (tiny arrays, one entry per distinct target)."""
    pos = arange1 * mask_s
    pos -= 1
    last = np.maximum.accumulate(pos)
    sel = last[end_pos]
    sel = sel[sel >= gend]
    if len(sel):
        tx, te = xs[sel], es[sel]
        col[tx] = te
        return tx, te
    return (), ()


def _columns_fit(analysis, plan: ChunkPlan) -> bool:
    """Grow the analysis' per-variable columns to the chunk's largest
    access target.  False when they cannot grow that far (a variable id
    far past the trace's others): the kernel then hands the chunk to
    the per-event handlers, whose growth fails at the event that needs
    it, so the failure carries its event index."""
    need = plan.max_target() + 1
    if need > len(analysis._read):
        try:
            analysis._grow_vars(need)
        except (MemoryError, OverflowError):
            return False
    return True


# -- per-analysis kernels ----------------------------------------------------

class HbEpochKernel:
    """Chunk kernel for the HB epoch tiers (FT2 and FTO-HB).

    Fast-path masks (mirroring the handlers in
    :mod:`repro.core.fasttrack`, judged against the chunk-start clock
    snapshot — see the module docstring for why that is safe):

    * FT2: last read not shared, last write and last read both ordered
      before the access.  Reads scatter ``R_x``; writes scatter ``W_x``.
    * FTO: last read not shared and (bottom, owned, or ordered).  Reads
      scatter ``R_x``; writes scatter both ``W_x`` and ``R_x``.
    """

    def __init__(self, analysis):
        self.a = analysis
        self.style = analysis.KERNEL_STYLE
        self.bump_kinds = tuple(analysis.BUMP_KINDS)

    def flush(self) -> None:
        """Nothing deferred: the HB tiers' columns are always current."""

    def suspend(self) -> None:
        """Before the per-event handlers replay a chunk: nothing to hand
        back (see :meth:`StKernel.suspend`)."""

    def process_chunk(self, plan: ChunkPlan) -> None:
        a = self.a
        n = plan.n
        if not n:
            return
        tv = plan.tv
        cc = a.cc
        width = a.width
        if not (plan.tids_in_range(width) and _columns_fit(a, plan)):
            self._walk(plan, list(range(n)))
            return
        base = np.fromiter((cc[u][u] for u in range(width)), np.int64,
                           count=width)
        R = np.frombuffer(a._read, dtype=np.int64)
        W = np.frombuffer(a._write, dtype=np.int64)
        CMf = np.array([list(c) for c in cc], dtype=np.int64).ravel()

        order, gstart, end_pos, gend, arange1 = plan.sorted_ctx()
        e_s = _epochs_sorted(plan, self.bump_kinds, base, tv, order)
        acc_s, rd_s, wr_s, tv_s, xs, xs_safe = plan.sorted_cols()
        # effective last-read/last-write epochs at each chained position:
        # the nearest earlier same-target read/write in the chunk (their
        # value is its epoch whether it ran fast or skipped), else the
        # chunk-start column.  FTO's R_x covers reads *and* writes.
        effW = _prev_in_group(wr_s, e_s, W[xs_safe], gstart, arange1)
        rmask = acc_s if self.style == "fto" else rd_s
        effR = _prev_in_group(rmask, e_s, R[xs_safe], gstart, arange1)
        skip_s = (rd_s & (effR == e_s)) | (wr_s & (effW == e_s))
        tvw = tv_s * width

        def leq(ep):
            neg = ep < 0
            etid = (ep & TID_MASK) * ~neg
            return neg | (etid == tv_s) | ((ep >> TID_BITS) <= CMf[tvw + etid])

        not_vc = effR != META_VC
        if self.style == "ft2":
            cond = not_vc & leq(effW) & leq(effR)
        else:  # fto: owned cases need no clock comparison at all
            owned = (effR >= 0) & ((effR & TID_MASK) == tv_s)
            cond = not_vc & ((effR < 0) | owned | leq(effR))
        # chain gate: no earlier same-target access failed its checks
        bad = acc_s & ~(skip_s | cond)
        cb = np.cumsum(bad)
        cb -= bad  # exclusive
        chain = (cb - cb[gstart]) == 0
        fast_s = acc_s & chain & cond & ~skip_s
        drop_s = acc_s & chain & skip_s
        slow_s = acc_s & ~fast_s & ~drop_s
        fw_s = fast_s & wr_s
        _commit_last(W, fw_s, xs, e_s, end_pos, gend, arange1)
        _commit_last(R, fast_s if self.style == "fto" else fast_s & rd_s,
                     xs, e_s, end_pos, gend, arange1)
        pos = order[slow_s | ~acc_s]
        if len(pos):
            pos.sort()  # back to program order
            self._walk(plan, pos.tolist())

    def _walk(self, plan: ChunkPlan, positions: List[int]) -> None:
        """Dispatch the slow residue and sync events in original order
        (``j`` is read by :meth:`MultiRunner._failure_index`)."""
        table = self.a.dispatch_table()
        kinds = plan.kinds
        tids = plan.tids
        targets = plan.targets
        indices = plan.indices
        sites = plan.sites
        for p in positions:
            j = indices[p]
            table[kinds[p]](tids[p], targets[p], j, sites[p])


class StKernel:
    """Chunk kernel for SmartTrack-{WCP,DC,WDC}.

    Algorithm 3's owned cases need no clock comparison at all: a read is
    fast when the last access is bottom or its own thread's epoch and
    ``E^w_x`` is empty (nothing to absorb); a write additionally needs
    ``E^r_x`` empty (lines 19–23 would otherwise run).  The per-variable
    ``_eflags`` column mirrors exactly that emptiness, so the masks are two
    gathers and a bitwise test.

    The handlers pair every last-access epoch with a CS-list snapshot
    (``L^w_x``/``L^r_x`` := H_t) — a per-event Python object store that
    would dominate the batch path.  The kernel instead derives snapshots
    from epochs: SmartTrack bumps the local clock at both acquire and
    release (``BUMP_KINDS``), so one (tid, time) pair identifies exactly
    one lock-stack state, recorded in a per-thread log appended during
    the walk (the only place stacks mutate).  Fast accesses are then pure
    epoch scatters whose targets go on dirty sets (every fast access
    commits ``R_x``; fast writes also ``W_x``); only the slots whose
    epoch a fast access committed are *repaired* from the columns, just
    in time — in the walk, right before a slow access to that variable
    dispatches (by then every sync event preceding it in program order
    has been walked and logged) — and once more at :meth:`flush`,
    restoring the handlers' invariant that an epoch ``R_x ≥ 0`` (resp.
    ``W_x``) is always paired with its access-time snapshot.  The
    repaired tuples hold the same live :class:`CSEntry` references an
    eager store would, so releases finalize them in place identically.
    """

    def __init__(self, analysis):
        self.a = analysis
        self.bump_kinds = tuple(analysis.BUMP_KINDS)
        self._dirty = set()    # R_x committed by a fast access
        self._dirty_w = set()  # W_x committed by a fast write
        # Each thread's log starts with its *current* lock stack at time
        # 0 (the empty tuple on a fresh analysis).  A kernel may take
        # over a mid-run analysis — a checkpoint restore
        # (repro.checkpoint) rebuilds kernels against restored state,
        # and :meth:`suspend` hands chunks to the per-event handlers —
        # and every epoch a *future* fast access can commit carries a
        # time >= the thread's current time, so one entry covering
        # [0, now] with the present stack keeps ``_repair`` exact (it
        # only re-derives slots whose epoch a fast access committed).
        self._log_times = [[0] for _ in range(analysis.width)]
        self._log_snaps = [[tuple(s)] for s in analysis._stack]
        #: thread times when the handlers took over (None: not suspended)
        self._suspended_at = None

    def _times(self):
        """Every thread's current local time, as an int64 array."""
        time = self.a._time
        return np.fromiter((time(u) for u in range(self.a.width)),
                           np.int64, count=self.a.width)

    def suspend(self) -> None:
        """Hand the analysis to its per-event handlers for a chunk:
        repair every dirty variable, and note the thread times so the
        next :meth:`process_chunk` can restart the logs of the threads
        whose stacks the handlers may have changed."""
        if self._suspended_at is None:
            self.flush()
            self._suspended_at = self._times()

    def _resume(self) -> None:
        """Restart the log of every thread whose clock moved while the
        handlers ran — an acquire or release bumps it; an unmoved
        thread's stack and log are as the kernel left them."""
        moved = np.flatnonzero(self._times() != self._suspended_at)
        self._restart_logs(moved.tolist())
        self._suspended_at = None

    def _restart_logs(self, threads) -> None:
        """Restart each of ``threads``' logs at its current (time,
        stack): one entry covering [0, now], exact for every epoch a
        later fast access can commit (see ``__init__``)."""
        stacks = self.a._stack
        for t in threads:
            self._log_times[t] = [0]
            self._log_snaps[t] = [tuple(stacks[t])]

    def process_chunk(self, plan: ChunkPlan) -> None:
        a = self.a
        n = plan.n
        if not n:
            return
        if self._suspended_at is not None:
            self._resume()
        tv = plan.tv
        width = a.width
        if not (plan.tids_in_range(width) and _columns_fit(a, plan)):
            self._walk(plan, list(range(n)))
            return
        base = self._times()
        # The three SmartTrack tiers bump identically and usually carry
        # byte-identical last-access columns (they only diverge when a
        # relation-specific residual lands in E^r/E^w, which flips an
        # eflag).  Classification is a pure function of (base, R, W, F)
        # plus the shared plan, so sibling kernels reuse the first
        # tier's masks and just redo the scatters and the walk.
        key = (self.bump_kinds, base.tobytes(), a._read.tobytes(),
               a._write.tobytes(), a._eflags.tobytes())
        hit = plan.memo.get(key)
        if hit is not None:
            wx, we, rx, re_, positions = hit
            if len(wx):
                np.frombuffer(a._write, dtype=np.int64)[wx] = we
                self._dirty_w.update(wx.tolist())
            if len(rx):
                np.frombuffer(a._read, dtype=np.int64)[rx] = re_
                self._dirty.update(rx.tolist())
            if positions:
                self._walk(plan, positions)
            return
        R = np.frombuffer(a._read, dtype=np.int64)
        W = np.frombuffer(a._write, dtype=np.int64)
        F = np.frombuffer(a._eflags, dtype=np.int8)

        order, gstart, end_pos, gend, arange1 = plan.sorted_ctx()
        e_s = _epochs_sorted(plan, self.bump_kinds, base, tv, order)
        acc_s, rd_s, wr_s, tv_s, xs, xs_safe = plan.sorted_cols()
        # fast accesses set R_x := e (writes also W_x := e) and nothing
        # else, so the effective last-access/last-write epoch at a
        # chained position is a per-group prefix scan; E^r/E^w only
        # change in slow handlers, so the chunk-start flags stay valid
        # for the whole chain.
        effW = _prev_in_group(wr_s, e_s, W[xs_safe], gstart, arange1)
        effR = _prev_in_group(acc_s, e_s, R[xs_safe], gstart, arange1)
        Fv_s = F[xs_safe]
        skip_s = (rd_s & (effR == e_s)) | (wr_s & (effW == e_s))
        owned = (effR >= 0) & ((effR & TID_MASK) == tv_s)
        base_ok = (effR != META_VC) & ((effR < 0) | owned)
        # reads need eflag bit 2 clear, writes bit 1: (F >> is_read) & 1
        cond = (((Fv_s >> rd_s) & 1) == 0) & base_ok
        bad = acc_s & ~(skip_s | cond)
        cb = np.cumsum(bad)
        cb -= bad  # exclusive
        chain = (cb - cb[gstart]) == 0
        fast_s = acc_s & chain & cond & ~skip_s
        drop_s = acc_s & chain & skip_s
        slow_s = acc_s & ~fast_s & ~drop_s
        wx, we = _commit_last(W, fast_s & wr_s, xs, e_s, end_pos, gend,
                              arange1)
        rx, re_ = _commit_last(R, fast_s, xs, e_s, end_pos, gend, arange1)
        if len(wx):
            self._dirty_w.update(wx.tolist())
        if len(rx):  # fast writes also commit R: the W set is a subset
            self._dirty.update(rx.tolist())
        pos = order[slow_s | ~acc_s]
        pos.sort()  # back to program order
        positions = pos.tolist()
        plan.memo[key] = (wx, we, rx, re_, positions)
        if positions:
            self._walk(plan, positions)

    def _snapshot(self, epoch: int):
        """The lock-stack snapshot of the thread and time in ``epoch``."""
        t = epoch & TID_MASK
        times = self._log_times[t]
        return self._log_snaps[t][bisect_right(times, epoch >> TID_BITS) - 1]

    def _repair(self, x: int) -> None:
        """Re-pair dirty variable ``x``'s CS-list slots with the epochs
        fast accesses committed (``L^r_x`` always, ``L^w_x`` after a fast
        write)."""
        a = self.a
        a._lr[x] = self._snapshot(a._read[x])
        if x in self._dirty_w:
            self._dirty_w.discard(x)
            a._lw[x] = self._snapshot(a._write[x])

    def flush(self) -> None:
        """Repair every still-dirty variable — called by the session
        before the analysis takes its final footprint sample and report."""
        repair = self._repair
        for x in self._dirty:
            repair(x)
        self._dirty.clear()

    def _walk(self, plan: ChunkPlan, positions: List[int]) -> None:
        """Dispatch the slow residue and sync events in original order
        (``j`` is read by ``_failure_index``), appending each
        acquire/release's new (time, stack snapshot) to the per-thread
        log the lazy CS-list derivation reads, and repairing each slow
        access's ``L`` slots just before its handler runs."""
        a = self.a
        table = a.dispatch_table()
        kinds = plan.kinds
        tids = plan.tids
        targets = plan.targets
        indices = plan.indices
        sites = plan.sites
        stacks = a._stack
        time = a._time
        log_times = self._log_times
        log_snaps = self._log_snaps
        dirty = self._dirty
        for p in positions:
            k = kinds[p]
            t = tids[p]
            j = indices[p]
            if k <= 1:  # access: its handler reads L^w_x/L^r_x
                x = targets[p]
                if x in dirty:
                    self._repair(x)
                    dirty.discard(x)
            table[k](t, targets[p], j, sites[p])
            if k == 2 or k == 3:  # acquire/release mutate H_t
                log_times[t].append(time(t))
                log_snaps[t].append(tuple(stacks[t]))
        # Compaction: the logs gain an entry per walked acquire/release
        # and would grow for as long as the kernel runs.  Once they
        # outnumber the slots still to repair, repair those now (the
        # same tuples a later repair derives) and restart every log:
        # the O(dirty) flush is paid for by as many appended entries.
        width = a.width
        if sum(map(len, log_times)) > len(dirty) + width:
            self.flush()
            self._restart_logs(range(width))


#: Code objects of the kernels' ordered walks, matched by
#: :meth:`MultiRunner._failure_index` to attribute a handler exception to
#: its event index (the walk keeps the index in its ``j`` local).
WALK_CODES = frozenset({
    HbEpochKernel._walk.__code__,
    StKernel._walk.__code__,
})


# -- shared same-epoch filter -----------------------------------------------

class SameEpochFilter:
    """The engine's shared same-epoch filter, in pure Python.

    An access is dropped when a repeat of the same (thread, kind,
    variable) with no intervening epoch-ending event by that thread —
    and, for a read, no intervening *kept* write to the variable — makes
    it a [Same Epoch] no-op in every analysis (DESIGN.md §3.1).  Tokens
    are ``bumps << TID_BITS | tid``, unique per thread: ``toks`` maps a
    thread to its token once it has one (a missing thread's token is its
    tid), and ``last_r``/``last_w`` map a variable to the token of its
    last kept reader/writer.  :class:`VecSameEpochFilter` keeps the same
    state, so :meth:`export_state` of either seeds the other.
    """

    def __init__(self, epoch_enders: Sequence[bool]):
        self._enders = tuple(epoch_enders) + (False,) * (
            16 - len(epoch_enders))
        self._toks = {}
        self._last_r = {}
        self._last_w = {}

    def export_state(self):
        """The cross-chunk state as three plain dicts (``toks``,
        ``last_r``, ``last_w``) — the checkpoint's filter payload."""
        return dict(self._toks), dict(self._last_r), dict(self._last_w)

    def seed_state(self, toks, last_r, last_w) -> None:
        """Load state captured by :meth:`export_state` of either filter."""
        self._toks.update(toks)
        self._last_r.update(last_r)
        self._last_w.update(last_w)

    def apply(self, indices, kinds, tids, targets, sites, n: int) -> int:
        """Filter one chunk of Python list columns in place; returns the
        kept length (kept events are compacted to the front, in
        order)."""
        enders = self._enders
        toks = self._toks
        last_r = self._last_r
        last_w = self._last_w
        toks_get = toks.get
        last_r_get = last_r.get
        last_w_get = last_w.get
        step = 1 << TID_BITS
        m = 0
        for j, k, t, x, s in zip(islice(indices, n), kinds, tids, targets,
                                 sites):
            if k <= 1:
                tok = toks_get(t, t)
                if k == 0:
                    if last_r_get(x) == tok:
                        continue
                    last_r[x] = tok
                else:
                    if last_w_get(x) == tok:
                        continue
                    last_w[x] = tok
                    # a kept write ends every reader's same-epoch run
                    if x in last_r:
                        del last_r[x]
            elif enders[k]:
                toks[t] = toks_get(t, t) + step
            indices[m] = j
            kinds[m] = k
            tids[m] = t
            targets[m] = x
            sites[m] = s
            m += 1
        return m


class VecSameEpochFilter:
    """Vectorized twin of :class:`SameEpochFilter`.

    Same drop rule and token scheme, chunk-at-a-time: the per-thread
    token bases are carried across chunks in ``_base``, and per-variable
    last-reader / last-writer tokens in grow-on-demand int64 arrays
    (−1 = absent, matching the scalar dicts' missing keys).

    Two passes over one chunk, both via stable per-variable grouping:
    writes first (a write is dropped iff its token equals the previous
    write's token for that variable), then reads against the merged
    stream of reads and *kept* writes (a read is dropped iff its nearest
    predecessor is a same-token read; a kept write in between clears the
    run, and a dropped write — like the scalar filter — does not).
    """

    def __init__(self, width: int, epoch_enders: Sequence[bool]):
        self.width = width
        lut = np.zeros(16, bool)
        lut[:len(epoch_enders)] = np.asarray(epoch_enders, dtype=bool)
        self._ender_lut = lut
        self._base = np.arange(width, dtype=np.int64)
        self._last_r = np.full(1, -1, dtype=np.int64)
        self._last_w = np.full(1, -1, dtype=np.int64)
        #: the pure-Python twin holding the state once the arrays could
        #: not grow to a variable id (see :meth:`_grow`)
        self._twin = None

    def _grow(self, need: int) -> bool:
        """Grow the per-variable arrays to ``need`` slots.  When they
        cannot grow that far (a variable id far past the trace's
        others), hand the state to a :class:`SameEpochFilter`, whose
        dicts hold only the variables seen, and return False."""
        have = len(self._last_r)
        if need > have:
            size = max(need, 2 * have)
            try:
                last_r = np.full(size, -1, dtype=np.int64)
                last_w = np.full(size, -1, dtype=np.int64)
            except (MemoryError, ValueError):
                twin = SameEpochFilter(self._ender_lut.tolist())
                twin.seed_state(*self.export_state())
                self._twin = twin
                return False
            last_r[:have] = self._last_r
            last_w[:have] = self._last_w
            self._last_r, self._last_w = last_r, last_w
        return True

    def export_state(self):
        """The filter's cross-chunk state as three plain dicts — the
        representation :class:`SameEpochFilter` keeps — so a checkpoint
        (:mod:`repro.checkpoint`) is numpy-free and restores into either
        filter implementation."""
        if self._twin is not None:
            return self._twin.export_state()
        toks = {t: int(v) for t, v in enumerate(self._base) if v != t}
        last_r = {x: int(v) for x, v in enumerate(self._last_r) if v != -1}
        last_w = {x: int(v) for x, v in enumerate(self._last_w) if v != -1}
        return toks, last_r, last_w

    def seed_state(self, toks, last_r, last_w) -> None:
        """Load state previously captured by :meth:`export_state` (or by
        the scalar filter's dicts); the inverse of that method."""
        for t, v in toks.items():
            self._base[t] = v
        top = max(max(last_r, default=-1), max(last_w, default=-1))
        if not self._grow(top + 1):
            self._twin.seed_state(toks, last_r, last_w)
            return
        for x, v in last_r.items():
            self._last_r[x] = v
        for x, v in last_w.items():
            self._last_w[x] = v

    def keep(self, kv, tv, xv):
        """Filter one chunk of int64 kind/tid/target columns; returns
        the kept positions as an int64 array, or None when every event
        is kept."""
        n = len(kv)
        if not n:
            return None
        if self._twin is not None:
            return self._twin_keep(kv, tv, xv)
        if int(tv.min()) < 0 or int(tv.max()) >= self.width:
            # out-of-range tid (malformed feed): keep everything and let
            # the analyses surface the error per entry, as the scalar
            # replay path would
            return None
        is_rd = kv == 0
        is_wr = kv == 1
        ender = self._ender_lut[kv]
        tok = (self._base[tv]
               + (_counts_before(tv, ender) << TID_BITS))
        acc = is_rd | is_wr
        drop = np.zeros(n, bool)
        if acc.any():
            if not self._grow(int(xv[acc].max()) + 1):
                return self._twin_keep(kv, tv, xv)
            last_r = self._last_r
            last_w = self._last_w
            # pass 1: writes against the per-variable write stream
            wpos = np.flatnonzero(is_wr)
            if len(wpos):
                wx = xv[wpos]
                order = np.argsort(wx, kind="stable")
                spos = wpos[order]
                sx = wx[order]
                st = tok[spos]
                new = np.empty(len(sx), bool)
                new[0] = True
                np.not_equal(sx[1:], sx[:-1], out=new[1:])
                prev = np.empty(len(sx), np.int64)
                prev[1:] = st[:-1]
                prev[new] = last_w[sx[new]]
                wdrop = st == prev
                drop[spos[wdrop]] = True
                ends = np.empty(len(sx), bool)
                ends[-1] = True
                ends[:-1] = new[1:]
                last_w[sx[ends]] = st[ends]
            # pass 2: reads against the merged reads + kept-writes stream
            rel = is_rd | (is_wr & ~drop)
            rpos = np.flatnonzero(rel)
            if len(rpos):
                rx = xv[rpos]
                order = np.argsort(rx, kind="stable")
                spos = rpos[order]
                sx = rx[order]
                st = tok[spos]
                sr = is_rd[spos]
                new = np.empty(len(sx), bool)
                new[0] = True
                np.not_equal(sx[1:], sx[:-1], out=new[1:])
                prev = np.empty(len(sx), np.int64)
                prev[1:] = st[:-1]
                prev_rd = np.empty(len(sx), bool)
                prev_rd[1:] = sr[:-1]
                # carried last_r holds only read tokens (−1 when a kept
                # write cleared the run or the variable is untouched)
                prev[new] = last_r[sx[new]]
                prev_rd[new] = True
                rdrop = sr & prev_rd & (st == prev)
                drop[spos[rdrop]] = True
                ends = np.empty(len(sx), bool)
                ends[-1] = True
                ends[:-1] = new[1:]
                last_r[sx[ends]] = np.where(sr[ends], st[ends], -1)
        if ender.any():
            np.add.at(self._base, tv[ender], 1 << TID_BITS)
        if not drop.any():
            return None
        return np.flatnonzero(~drop)

    def _twin_keep(self, kv, tv, xv):
        """:meth:`keep` through the pure-Python twin of :meth:`_grow`."""
        n = len(kv)
        kept = list(range(n))
        m = self._twin.apply(kept, kv.tolist(), tv.tolist(), xv.tolist(),
                             [0] * n, n)
        return None if m == n else np.array(kept[:m], dtype=np.int64)

    def apply(self, indices, kinds, tids, targets, sites, n: int) -> int:
        """Filter one chunk of Python list columns in place; returns the
        kept length (kept events are compacted to the front, in
        order) — the list form of :meth:`keep`."""
        if not n:
            return 0
        keep = self.keep(np.fromiter(kinds, np.int64, count=n),
                         np.fromiter(tids, np.int64, count=n),
                         np.fromiter(targets, np.int64, count=n))
        if keep is None:
            return n
        m = 0
        for p in keep.tolist():
            indices[m] = indices[p]
            kinds[m] = kinds[p]
            tids[m] = tids[p]
            targets[m] = targets[p]
            sites[m] = sites[p]
            m += 1
        return m
