"""Unopt-HB: classical vector-clock happens-before analysis (Djit+-style).

Maintains full vector clocks for last reads (``R_x``) and last writes
(``W_x``) per variable, per-thread clocks ``C_t``, and per-lock release
clocks ``L_m``.  Release–acquire edges on the same lock order events;
conflicting accesses unordered by HB are races (paper §2.3).

Following the paper's implementations (§5.1), a "[Shared Same Epoch]-like"
check skips accesses repeated within a thread's current epoch.
"""

from __future__ import annotations

from typing import Dict

from repro.clocks.vector_clock import VectorClock
from repro.core.base import DICT_ENTRY_BYTES, VectorClockAnalysis, _vc_bytes
from repro.trace.trace import Trace


class UnoptHB(VectorClockAnalysis):
    """Vector-clock HB analysis ("Unopt-HB" in Table 1)."""

    name = "unopt-hb"
    relation = "hb"
    tier = "unopt"
    #: implements the §5.1-style ``r[t] == time`` same-epoch skip
    SAME_EPOCH_SKIP = True

    def __init__(self, trace: Trace, collect_cases: bool = False):
        super().__init__(trace, collect_cases=collect_cases)
        self._lock_clock: Dict[int, VectorClock] = {}
        self._read: Dict[int, VectorClock] = {}
        self._write: Dict[int, VectorClock] = {}

    def acquire(self, t: int, m: int, i: int, site: int) -> None:
        clock = self._lock_clock.get(m)
        if clock is not None:
            self.cc[t].join(clock)
        self.held[t].append(m)

    def release(self, t: int, m: int, i: int, site: int) -> None:
        self._lock_clock[m] = self.cc[t].copy()
        stack = self.held[t]
        if stack and stack[-1] == m:
            stack.pop()
        else:
            stack.remove(m)
        self._bump(t)

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

    def evict_window(self, cutoff: int, stale) -> None:
        """Bounded-window mode: drop last-access clocks of stale
        variables (per-lock/volatile clocks are O(locks), not per-var,
        and stay; DESIGN.md §11)."""
        for x in stale:
            self._read.pop(x, None)
            self._write.pop(x, None)

    def footprint_bytes(self) -> int:
        vc = _vc_bytes(self.width)
        n = len(self._lock_clock) + len(self._read) + len(self._write)
        return self._base_footprint() + n * (vc + DICT_ENTRY_BYTES)
