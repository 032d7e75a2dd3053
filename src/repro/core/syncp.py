"""Sync-preserving race prediction (Mathur, Pavlogiannis & Viswanathan).

A *sync-preserving* correct reordering may reorder critical sections on
the same lock but must preserve the order of the acquires it keeps — it
never invents lock-release-to-acquire communication that the observed
trace did not perform.  The induced ordering relation (SP) is therefore
weaker than HB: a release ``rel(m)₁`` orders before a *later acquire*
``acq(m)₂`` of the same lock only when the first critical section's
acquire is already SP-ordered before ``acq(m)₂`` — the acquiring thread
has observed ``acq(m)₁``, so no sync-preserving reordering can move the
second critical section before the first.  Unordered conflicting
accesses are SP-races; every HB-race is an SP-race (the conditional
edges are a subset of HB's unconditional release→acquire edges).

Two configurations mirror the repo's tier split:

* :class:`UnoptSyncP` (``unopt-sp``) — the reference: per lock, the
  full list of closed critical sections ``(tid, thr, C_rel)`` is
  rescanned to a fixpoint at every acquire, joining the release clock of
  every entry whose acquire threshold the acquiring thread has reached.
* :class:`SyncP` (``sp``) — the optimized configuration: the history is
  bucketed per owning thread and kept sorted by acquire threshold.  A
  thread's release clocks are monotone, so the *latest* eligible entry
  of each bucket (one binary search) dominates all earlier ones; joining
  only that entry reaches the identical fixpoint.

Both publish release clocks *before* the release's local-clock bump
(the clock covers the release event itself, matching the oracle's
include-edge semantics) and stamp acquire thresholds *after* the
acquire's bump (``C_t(t)+1``): knowledge of the acquire can only travel
through a later publishing event of the owner, so a cross-thread clock
component ``>= thr`` holds iff the acquire is in the observer's SP past.

Access checks keep full last-read/last-write vector clocks per variable
(the Unopt-HB shape); SP contains program order, so per-thread last
accesses are a complete summary.  The SP clocks are weaker than HB
clocks and the relation needs no HB composition (unlike WCP), so
``TRACKS_HB`` stays False and no HB clock is kept (DESIGN.md §11).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.clocks.vector_clock import VectorClock
from repro.core.base import (
    CS_ENTRY_BYTES,
    DICT_ENTRY_BYTES,
    VectorClockAnalysis,
    _vc_bytes,
)
from repro.trace.trace import Trace


class _SyncPBase(VectorClockAnalysis):
    """State and handlers shared by both SP configurations."""

    relation = "sp"
    #: acquires stamp a threshold epoch, so they end the thread's epoch
    #: (same discipline as the predictive tiers, cf. Algorithm 2 line 3)
    BUMP_AT_ACQUIRE = True
    #: implements the §5.1-style ``r[t] == time`` same-epoch skip
    SAME_EPOCH_SKIP = True

    def __init__(self, trace: Trace, collect_cases: bool = False):
        super().__init__(trace, collect_cases=collect_cases)
        self._read: Dict[int, VectorClock] = {}
        self._write: Dict[int, VectorClock] = {}
        #: critical sections currently open, per (thread, lock); a stack
        #: so a (malformed) reentrant feed cannot corrupt the history
        self._open: Dict[Tuple[int, int], List[list]] = {}

    # -- per-lock acquisition history (tier-specific) --------------------
    def _absorb(self, t: int, m: int) -> None:
        """Join eligible prior release clocks of ``m`` into ``C_t``,
        to a fixpoint (a joined clock can raise further thresholds)."""
        raise NotImplementedError

    def _commit(self, m: int, entry: list) -> None:
        """File one closed critical section into ``m``'s history."""
        raise NotImplementedError

    # -- synchronization -------------------------------------------------
    def acquire(self, t: int, m: int, i: int, site: int) -> None:
        self._absorb(t, m)
        # Threshold = the local time of events program-ordered *after*
        # this acquire; the owner's clock is only published (and so only
        # observable) at later releases/volatiles, which carry >= thr.
        entry = [t, self._time(t) + 1, None, -1]
        self._open.setdefault((t, m), []).append(entry)
        self.held[t].append(m)
        self._bump(t)

    def release(self, t: int, m: int, i: int, site: int) -> None:
        stack = self._open.get((t, m))
        if stack:
            entry = stack.pop()
            if not stack:
                del self._open[(t, m)]
            # publish before the bump: the clock covers the release
            # event itself (include-edge semantics, like L_m in HB)
            entry[2] = self.cc[t].copy()
            entry[3] = i
            self._commit(m, entry)
        held = self.held[t]
        if held and held[-1] == m:
            held.pop()
        elif m in held:
            held.remove(m)
        self._bump(t)

    # -- accesses (Unopt-HB shape: full VCs, per-thread last access) -----
    def read(self, t: int, x: int, i: int, site: int) -> None:
        cc_t = self.cc[t]
        time = cc_t[t]
        r = self._read.get(x)
        if r is not None and r[t] == time:
            return  # same-epoch-like skip (§5.1)
        w = self._write.get(x)
        if w is not None and not w.leq_except(cc_t, t):
            self._race(i, site, x, t, "read", "write-read")
        if r is None:
            r = VectorClock.zeros(self.width)
            self._read[x] = r
        r[t] = time

    def write(self, t: int, x: int, i: int, site: int) -> None:
        cc_t = self.cc[t]
        time = cc_t[t]
        w = self._write.get(x)
        if w is not None and w[t] == time:
            return  # same-epoch-like skip (§5.1)
        kinds = []
        if w is not None and not w.leq_except(cc_t, t):
            kinds.append("write-write")
        r = self._read.get(x)
        if r is not None and not r.leq_except(cc_t, t):
            kinds.append("read-write")
        if kinds:
            self._race(i, site, x, t, "write", "+".join(kinds))
        if w is None:
            w = VectorClock.zeros(self.width)
            self._write[x] = w
        w[t] = time

    # -- bounded-window mode ---------------------------------------------
    def evict_window(self, cutoff: int, stale) -> None:
        """Window eviction: drop stale access metadata and critical
        sections released before the cutoff (DESIGN.md §11).  Both SP
        configurations prune on the same release-index criterion, so
        ``unopt-sp == sp`` bit-identity survives windowed runs."""
        for x in stale:
            self._read.pop(x, None)
            self._write.pop(x, None)
        self._prune_history(cutoff)

    def _prune_history(self, cutoff: int) -> None:
        raise NotImplementedError

    def _history_footprint(self) -> int:
        raise NotImplementedError

    def footprint_bytes(self) -> int:
        vc = _vc_bytes(self.width)
        n = len(self._read) + len(self._write)
        open_cs = sum(len(s) for s in self._open.values())
        return (self._base_footprint()
                + n * (vc + DICT_ENTRY_BYTES)
                + open_cs * (CS_ENTRY_BYTES + DICT_ENTRY_BYTES)
                + self._history_footprint())


class UnoptSyncP(_SyncPBase):
    """Reference SP analysis: naive full-history fixpoint per acquire."""

    name = "unopt-sp"
    tier = "unopt"

    def __init__(self, trace: Trace, collect_cases: bool = False):
        super().__init__(trace, collect_cases=collect_cases)
        #: lock -> [[tid, thr, release clock, release index], ...]
        self._hist: Dict[int, List[list]] = {}

    def _commit(self, m: int, entry: list) -> None:
        self._hist.setdefault(m, []).append(entry)

    def _absorb(self, t: int, m: int) -> None:
        hist = self._hist.get(m)
        if not hist:
            return
        cc_t = self.cc[t]
        changed = True
        while changed:
            changed = False
            for tid1, thr, clock, _rel in hist:
                if cc_t[tid1] >= thr and not clock.leq(cc_t):
                    cc_t.join(clock)
                    changed = True

    def _prune_history(self, cutoff: int) -> None:
        for m in list(self._hist):
            kept = [e for e in self._hist[m] if e[3] >= cutoff]
            if kept:
                self._hist[m] = kept
            else:
                del self._hist[m]

    def _history_footprint(self) -> int:
        vc = _vc_bytes(self.width)
        entries = sum(len(h) for h in self._hist.values())
        return (len(self._hist) * DICT_ENTRY_BYTES
                + entries * (CS_ENTRY_BYTES + vc))


class SyncP(_SyncPBase):
    """Optimized SP analysis: per-owner history buckets, sorted by
    acquire threshold; one binary search replaces the bucket scan."""

    name = "sp"
    tier = "sp"

    def __init__(self, trace: Trace, collect_cases: bool = False):
        super().__init__(trace, collect_cases=collect_cases)
        #: lock -> owner tid -> [(thr, release clock, release index), ...]
        #: ascending by thr (a thread's local clock is monotone)
        self._hist: Dict[int, Dict[int, List[tuple]]] = {}

    def _commit(self, m: int, entry: list) -> None:
        tid, thr, clock, rel = entry
        self._hist.setdefault(m, {}).setdefault(tid, []).append(
            (thr, clock, rel))

    def _absorb(self, t: int, m: int) -> None:
        buckets = self._hist.get(m)
        if not buckets:
            return
        cc_t = self.cc[t]
        changed = True
        while changed:
            changed = False
            for u, entries in buckets.items():
                cu = cc_t[u]
                if cu < entries[0][0]:
                    continue
                # rightmost entry with thr <= cu; its release clock
                # dominates every earlier eligible entry of this owner
                lo, hi = 1, len(entries)
                while lo < hi:
                    mid = (lo + hi) >> 1
                    if entries[mid][0] <= cu:
                        lo = mid + 1
                    else:
                        hi = mid
                clock = entries[lo - 1][1]
                if not clock.leq(cc_t):
                    cc_t.join(clock)
                    changed = True

    def _prune_history(self, cutoff: int) -> None:
        for m in list(self._hist):
            buckets = self._hist[m]
            for u in list(buckets):
                kept = [e for e in buckets[u] if e[2] >= cutoff]
                if kept:
                    buckets[u] = kept
                else:
                    del buckets[u]
            if not buckets:
                del self._hist[m]

    def _history_footprint(self) -> int:
        vc = _vc_bytes(self.width)
        buckets = sum(len(b) for b in self._hist.values())
        entries = sum(len(es) for b in self._hist.values()
                      for es in b.values())
        return ((len(self._hist) + buckets) * DICT_ENTRY_BYTES
                + entries * (CS_ENTRY_BYTES + vc))
