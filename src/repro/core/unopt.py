"""Algorithm 1: unoptimized predictive analyses (Unopt-{WCP, DC, WDC}).

Vector clocks everywhere: per-thread ``C_t``; last-access clocks ``R_x``,
``W_x``; conflicting-critical-section clocks ``L^r_{m,x}``/``L^w_{m,x}``
per (lock, variable); per-critical-section access sets ``R_m``/``W_m``; and
rule (b) acquire/release queues (DC and WCP only).

Variants (paper Table 1):

* ``Unopt-DC`` — Algorithm 1 as printed.
* ``Unopt-WDC`` — Algorithm 1 minus rule (b) (lines 2, 4–8); §3.
* ``Unopt-WCP`` — composes with HB (§2.4): each thread also tracks an HB
  clock; lock acquires join the lock's WCP and HB release clocks; rule
  (a)/(b) metadata stores HB release times (left composition); rule (b)
  acquire entries are epochs (footnote 6's cheaper queues).

Each variant can build a constraint graph for vindication ("w/ G" columns
of Table 3): nodes are events; edges record the rule (a)/(b) orderings the
analysis discovered (program order and hard edges are implicit in the
trace).
"""

from __future__ import annotations

from typing import Dict, Optional, Set, Tuple

from repro.clocks.vector_clock import VectorClock
from repro.core.base import DICT_ENTRY_BYTES, VectorClockAnalysis, _vc_bytes
from repro.core.rule_b import RuleBQueues
from repro.trace.trace import Trace
from repro.vindication.graph import ConstraintGraph


class UnoptPredictive(VectorClockAnalysis):
    """Shared implementation of Algorithm 1 (see module docstring)."""

    tier = "unopt"
    BUMP_AT_ACQUIRE = True
    #: implements the §5.1-style same-epoch skip at accesses
    SAME_EPOCH_SKIP = True
    USES_RULE_B = False
    EPOCH_ACQ_QUEUES = False
    #: WCP only: keep L^{r,w}_{m,x} split per contributing thread, because
    #: rule (a) requires *conflicting* (cross-thread) events — a thread
    #: must not absorb its own releases' HB times into its WCP clock
    #: (WCP does not contain HB; DC/WDC contain PO, so merging is safe).
    SPLIT_L_BY_THREAD = False

    def __init__(self, trace: Trace, build_graph: bool = False,
                 rule_b_style: str = "log", collect_cases: bool = False):
        super().__init__(trace, collect_cases=collect_cases)
        self._read: Dict[int, VectorClock] = {}
        self._write: Dict[int, VectorClock] = {}
        # L^r_{m,x} / L^w_{m,x}: (lock, var) -> accumulated release clock
        self._lr: Dict[Tuple[int, int], VectorClock] = {}
        self._lw: Dict[Tuple[int, int], VectorClock] = {}
        # R_m / W_m: variables read/written by the ongoing critical section
        self._rm: Dict[int, Set[int]] = {}
        self._wm: Dict[int, Set[int]] = {}
        self._queues: Optional[RuleBQueues] = None
        if self.USES_RULE_B:
            self._queues = RuleBQueues(
                self.width, epoch_acquires=self.EPOCH_ACQ_QUEUES,
                track_graph=build_graph, style=rule_b_style)
        self.graph: Optional[ConstraintGraph] = (
            ConstraintGraph(len(trace)) if build_graph else None)
        # release event ids contributing to each L clock (graph mode only)
        self._lr_eids: Dict[Tuple[int, int], list] = {}
        self._lw_eids: Dict[Tuple[int, int], list] = {}
        if build_graph:
            self.name = self.name + "-g"

    # -- synchronization -------------------------------------------------
    def acquire(self, t: int, m: int, i: int, site: int) -> None:
        self._acquire_compose(t, m)
        if self._queues is not None:
            self._queues.on_acquire(t, m, self._time(t), self.cc[t])
        self.held[t].append(m)
        if self.graph is not None:
            self.graph.note_event(i)
        self._bump(t)

    def release(self, t: int, m: int, i: int, site: int) -> None:
        cc_t = self.cc[t]
        if self._queues is not None:
            self._queues.on_release(
                t, m, cc_t, self._publish_clock(t), eid=i, graph=self.graph)
        publish = self._publish_clock(t)
        rm = self._rm.get(m)
        if rm:
            for x in rm:
                self._l_update(self._lr, t, m, x, publish)
                if self.graph is not None:
                    self._lr_eids.setdefault((m, x), []).append(i)
            rm.clear()
        wm = self._wm.get(m)
        if wm:
            for x in wm:
                self._l_update(self._lw, t, m, x, publish)
                if self.graph is not None:
                    self._lw_eids.setdefault((m, x), []).append(i)
            wm.clear()
        self._release_publish(t, m)
        stack = self.held[t]
        if stack and stack[-1] == m:
            stack.pop()
        else:
            stack.remove(m)
        if self.graph is not None:
            self.graph.note_event(i)
        self._bump(t)

    # -- L^{r,w}_{m,x} maintenance ------------------------------------------
    def _l_update(self, store, t: int, m: int, x: int,
                  publish: VectorClock) -> None:
        """Join this release's time into L (per-thread split for WCP)."""
        if self.SPLIT_L_BY_THREAD:
            per_thread = store.get((m, x))
            if per_thread is None:
                store[(m, x)] = {t: publish.copy()}
            else:
                clock = per_thread.get(t)
                if clock is None:
                    per_thread[t] = publish.copy()
                else:
                    clock.join(publish)
            return
        clock = store.get((m, x))
        if clock is None:
            store[(m, x)] = publish.copy()
        else:
            clock.join(publish)

    def _l_join(self, store, t: int, m: int, x: int) -> bool:
        """Join prior conflicting critical sections into C_t (rule (a))."""
        entry = store.get((m, x))
        if entry is None:
            return False
        cc_t = self.cc[t]
        if self.SPLIT_L_BY_THREAD:
            for u, clock in entry.items():
                if u != t:
                    cc_t.join(clock)
            return True
        cc_t.join(entry)
        return True

    # -- accesses ----------------------------------------------------------
    def read(self, t: int, x: int, i: int, site: int) -> None:
        cc_t = self.cc[t]
        time = self._time(t)
        r = self._read.get(x)
        if r is not None and r[t] == time:
            return  # [Shared Same Epoch]-like check (§5.1)
        for m in self.held[t]:
            if self._l_join(self._lw, t, m, x):
                if self.graph is not None:
                    for eid in self._lw_eids.get((m, x), ()):
                        self.graph.add_edge(eid, i, "rule-a")
            self._rm.setdefault(m, set()).add(x)
        w = self._write.get(x)
        if w is not None and not w.leq_except(cc_t, t):
            self._race(i, site, x, t, "read", "write-read")
        if r is None:
            r = VectorClock.zeros(self.width)
            self._read[x] = r
        r[t] = time
        if self.graph is not None:
            self.graph.note_event(i)

    def write(self, t: int, x: int, i: int, site: int) -> None:
        cc_t = self.cc[t]
        time = self._time(t)
        w = self._write.get(x)
        if w is not None and w[t] == time:
            return  # [Write Same Epoch]-like check (§5.1)
        for m in self.held[t]:
            if self._l_join(self._lr, t, m, x):
                if self.graph is not None:
                    for eid in self._lr_eids.get((m, x), ()):
                        self.graph.add_edge(eid, i, "rule-a")
            if self._l_join(self._lw, t, m, x):
                if self.graph is not None:
                    for eid in self._lw_eids.get((m, x), ()):
                        self.graph.add_edge(eid, i, "rule-a")
            self._wm.setdefault(m, set()).add(x)
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
        if self.graph is not None:
            self.graph.note_event(i)

    # -- bounded-window mode ------------------------------------------------
    def evict_window(self, cutoff: int, stale) -> None:
        """Drop per-variable access and rule (a) metadata of stale
        variables (per-lock clocks and rule (b) queues are O(locks),
        not per-variable, and stay; DESIGN.md §11)."""
        if not stale:
            return
        for x in stale:
            self._read.pop(x, None)
            self._write.pop(x, None)
        for store in (self._lr, self._lw, self._lr_eids, self._lw_eids):
            for key in [k for k in store if k[1] in stale]:
                del store[key]
        for s in self._rm.values():
            s.difference_update(stale)
        for s in self._wm.values():
            s.difference_update(stale)

    # -- memory ------------------------------------------------------------
    def footprint_bytes(self) -> int:
        vc = _vc_bytes(self.width)
        n_vcs = len(self._read) + len(self._write)
        if self.SPLIT_L_BY_THREAD:
            for entry in self._lr.values():
                n_vcs += len(entry)
            for entry in self._lw.values():
                n_vcs += len(entry)
        else:
            n_vcs += len(self._lr) + len(self._lw)
        total = self._base_footprint() + n_vcs * (vc + DICT_ENTRY_BYTES)
        for s in self._rm.values():
            total += DICT_ENTRY_BYTES + 8 * len(s)
        for s in self._wm.values():
            total += DICT_ENTRY_BYTES + 8 * len(s)
        if self._queues is not None:
            total += self._queues.footprint_bytes()
        if self.graph is not None:
            total += self.graph.footprint_bytes()
            total += sum(16 * len(v) for v in self._lr_eids.values())
            total += sum(16 * len(v) for v in self._lw_eids.values())
        return total


class _WcpMixin:
    """WCP relation hooks: HB composition on both sides (§2.4)."""

    TRACKS_HB = True
    SPLIT_L_BY_THREAD = True
    relation = "wcp"

    def __init__(self, trace: Trace, **kw):
        super().__init__(trace, **kw)
        self._lock_wcp: Dict[int, VectorClock] = {}
        self._lock_hb: Dict[int, VectorClock] = {}

    def _acquire_compose(self, t: int, m: int) -> None:
        wcp = self._lock_wcp.get(m)
        if wcp is not None:
            self.cc[t].join(wcp)
        hb = self._lock_hb.get(m)
        if hb is not None:
            self.hh[t].join(hb)

    def _release_publish(self, t: int, m: int) -> None:
        self._lock_wcp[m] = self.cc[t].copy()
        self._lock_hb[m] = self.hh[t].copy()

    def footprint_bytes(self) -> int:
        vc = _vc_bytes(self.width)
        return (super().footprint_bytes()
                + (len(self._lock_wcp) + len(self._lock_hb))
                * (vc + DICT_ENTRY_BYTES))


class UnoptWCP(_WcpMixin, UnoptPredictive):
    """Unopt-WCP (Kini et al. 2017 as recast by Algorithm 1; Table 1)."""

    name = "unopt-wcp"
    USES_RULE_B = True
    EPOCH_ACQ_QUEUES = True


class UnoptDC(UnoptPredictive):
    """Unopt-DC: Algorithm 1 as printed (Table 1)."""

    name = "unopt-dc"
    relation = "dc"
    USES_RULE_B = True


class UnoptWDC(UnoptPredictive):
    """Unopt-WDC: Algorithm 1 minus rule (b) (§3)."""

    name = "unopt-wdc"
    relation = "wdc"
    USES_RULE_B = False
