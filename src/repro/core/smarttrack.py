"""Algorithm 3: SmartTrack-{WCP, DC, WDC} (paper §4.2).

SmartTrack extends FTO (Algorithm 2) with the conflicting-critical-section
(CCS) optimizations — the paper's central contribution:

* Per-variable CS lists ``L^w_x``/``L^r_x`` mirror the last-access epochs
  ``W_x``/``R_x``, replacing the per-(lock, variable) clocks
  ``L^{r,w}_{m,x}`` and the per-critical-section sets ``R_m``/``W_m``.
* Release times are published *by reference* through each thread's active
  CS list ``H_t``, deferring the update to the release (∞ until then).
* ``MultiCheck`` fuses the CCS detection with the race check, traversing a
  CS list outermost-to-innermost and stopping at the first critical
  section that is already ordered to the current access or that conflicts
  with a held lock.
* "Extra" metadata ``E^r_x``/``E^w_x`` preserves residual critical
  sections that writes would otherwise overwrite (Figures 4(c)/(d)).
* Rule (b) acquire queues hold epochs instead of vector clocks.

Deviations from the preprint listing (see DESIGN.md §4): ``MultiCheck``
calls over ``L^w_x`` pass the last *writer's* thread id, and the clearing
loop of the extra metadata at writes nests inside the held-locks loop.

Last-access epochs live in flat ``array('q')`` columns (sentinels from
:mod:`repro.clocks.epoch`; read vector clocks in the ``_read_vc`` side
dict) and the CS lists in ``None``-filled Python lists, so the batch
kernels (:mod:`repro.core.kernels`, DESIGN.md §8) can gather per-chunk.
``_eflags`` mirrors, per variable, whether ``E^r_x`` (bit 0) / ``E^w_x``
(bit 1) is non-empty — the kernels' fast paths require the relevant extra
metadata to be absent.
"""

from __future__ import annotations

from array import array
from typing import Dict, List, Optional, Tuple, Union

from repro.clocks.epoch import (
    META_VC,
    PACKED_BOTTOM,
    TID_BITS,
    TID_MASK,
    packed_epoch_leq,
)
from repro.clocks.vector_clock import INF, VectorClock
from repro.core.base import (
    DICT_ENTRY_BYTES,
    EPOCH_BYTES,
    VectorClockAnalysis,
    _vc_bytes,
)
from repro.core.cslist import CS_ENTRY_BYTES, CSEntry, CSList, EMPTY, open_entry
from repro.core.rule_b import RuleBQueues
from repro.core.unopt import _WcpMixin
from repro.trace.trace import Trace

_BOTTOM_WORD = b"\xff" * 8  # int64 -1 == PACKED_BOTTOM

#: L^r_x is a CS list while R_x is an epoch, or a per-thread dict of CS
#: lists while R_x is a vector clock; ``None`` before the first access.
ReadCS = Union[None, CSList, Dict[int, CSList]]


class SmartTrack(VectorClockAnalysis):
    """Shared implementation of Algorithm 3 (see module docstring)."""

    tier = "st"
    BUMP_AT_ACQUIRE = True
    #: implements the [Same Epoch] fast paths (Algorithm 3)
    SAME_EPOCH_SKIP = True
    USES_RULE_B = False
    #: event kinds at which this tier bumps the local clock (acquire AND
    #: release, plus the hard edges); the batch kernels derive exact
    #: per-position epochs from this set.
    BUMP_KINDS = (2, 3, 4, 6, 7, 8)
    #: which mask family repro.core.kernels builds for this class
    KERNEL_STYLE = "st"

    def __init__(self, trace: Trace, rule_b_style: str = "log",
                 collect_cases: bool = False):
        super().__init__(trace, collect_cases=collect_cases)
        # per-variable columns: one slot, grown on demand (_column_size)
        self._read = array("q", _BOTTOM_WORD)
        self._write = array("q", _BOTTOM_WORD)
        #: read slots promoted to vector clocks (column holds META_VC)
        self._read_vc: Dict[int, VectorClock] = {}
        self._lw: List[Optional[CSList]] = [None]
        self._lr: List[ReadCS] = [None]
        #: bit 0: E^r_x non-empty; bit 1: E^w_x non-empty
        self._eflags = array("b", bytes(1))
        # E^r_x / E^w_x: var -> thread -> lock -> release-clock reference
        self._er: Dict[int, Dict[int, Dict[int, VectorClock]]] = {}
        self._ew: Dict[int, Dict[int, Dict[int, VectorClock]]] = {}
        # H_t: active critical sections, innermost last
        self._stack: List[List[CSEntry]] = [[] for _ in range(self.width)]
        self._queues: Optional[RuleBQueues] = None
        if self.USES_RULE_B:
            self._queues = RuleBQueues(self.width, epoch_acquires=True,
                                       style=rule_b_style)

    def _grow_vars(self, need: int) -> None:
        """Extend the per-variable columns to at least ``need`` slots."""
        have = len(self._read)
        if need > have:
            grow = self._column_size(need) - have
            pad = _BOTTOM_WORD * grow
            self._read.frombytes(pad)
            self._write.frombytes(pad)
            self._lw.extend([None] * grow)
            self._lr.extend([None] * grow)
            self._eflags.frombytes(bytes(grow))

    def make_kernel(self):
        """See :meth:`repro.core.base.Analysis.make_kernel`."""
        if self.case_counts is not None:
            return None
        from repro.core import kernels

        return kernels.make_kernel(self)

    # -- synchronization (Algorithm 3 lines 1–16) --------------------------
    def acquire(self, t: int, m: int, i: int, site: int) -> None:
        self._acquire_compose(t, m)
        if self._queues is not None:
            self._queues.on_acquire(t, m, self._time(t), self.cc[t])
        self._stack[t].append(open_entry(self.width, t, m))
        self.held[t].append(m)
        self._bump(t)

    def release(self, t: int, m: int, i: int, site: int) -> None:
        cc_t = self.cc[t]
        if self._queues is not None:
            self._queues.on_release(t, m, cc_t, self._publish_clock(t))
        stack = self._stack[t]
        if stack and stack[-1].lock == m:
            entry = stack.pop()
        else:  # non-LIFO unlock order
            pos = next(k for k in range(len(stack) - 1, -1, -1)
                       if stack[k].lock == m)
            entry = stack.pop(pos)
        entry.clock.assign(self._publish_clock(t))  # lines 13–14
        self._release_publish(t, m)
        held = self.held[t]
        if held and held[-1] == m:
            held.pop()
        else:
            held.remove(m)
        self._bump(t)

    # -- MultiCheck (Algorithm 3 lines 26–35) --------------------------------
    def _multicheck(self, t: int, cs_list: CSList, u: int,
                    check: Optional[int]) -> Tuple[Optional[Dict[int, VectorClock]], bool]:
        """Fused CCS/race check over one CS list.

        ``check`` is the last-access epoch to race-check (a packed epoch
        from :mod:`repro.clocks.epoch`; ``None`` or a negative column
        sentinel means "no check").

        Traverses outermost-to-innermost.  A critical section whose release
        is already ordered before the current access — or whose lock the
        current thread holds (a conflicting critical section, whose release
        time is then joined) — subsumes the inner entries and the race
        check.  Unordered, unheld critical sections accumulate in the
        residual map ``E`` for the extra metadata.

        Returns ``(E or None, race_check_failed)``.
        """
        cc_t = self.cc[t]
        held = self.held[t]
        residual: Optional[Dict[int, VectorClock]] = None
        for entry in cs_list:
            clock = entry.clock
            if clock[u] <= cc_t[u]:
                return residual, False  # ordered: subsumes the rest
            if entry.lock in held:
                cc_t.join(clock)  # conflicting critical sections: rule (a)
                return residual, False
            if residual is None:
                residual = {}
            residual[entry.lock] = clock
        raced = not packed_epoch_leq(check, cc_t, t)
        return residual, raced

    # -- writes (Algorithm 3 Write) -------------------------------------------
    def write(self, t: int, x: int, i: int, site: int) -> None:
        cc_t = self.cc[t]
        time = self._time(t)
        e = time << TID_BITS | t
        try:
            w = self._write[x]
        except IndexError:
            self._grow_vars(x + 1)
            w = PACKED_BOTTOM
        if w == e:
            return  # [Write Same Epoch]
        er = self._er.get(x)
        if er:  # lines 19–23: absorb and clear extra metadata
            ew = self._ew.get(x)
            for m in self.held[t]:
                for u in list(er):
                    if u == t:
                        continue
                    locks = er[u]
                    clock = locks.pop(m, None)
                    if clock is not None:
                        cc_t.join(clock)
                    if not locks:
                        del er[u]
                if ew:
                    for u in list(ew):
                        if u == t:
                            continue
                        locks = ew[u]
                        locks.pop(m, None)
                        if not locks:
                            del ew[u]
            er.pop(t, None)
            if ew is not None:
                ew.pop(t, None)
            if not er:
                self._er.pop(x, None)
            if ew is not None and not ew:
                self._ew.pop(x, None)
        r = self._read[x]
        if r == META_VC:  # [Write Shared], lines 30–35
            self._count("write_shared")
            rvc = self._read_vc.pop(x)
            lr = self._lr[x]
            w_tid = (w & TID_MASK) if w >= 0 else -1
            raced = False
            for u in range(self.width):
                ru = rvc[u]
                if u == t or ru == 0:
                    continue
                cs_u = lr.get(u, EMPTY) if isinstance(lr, dict) else EMPTY
                residual, bad = self._multicheck(
                    t, cs_u, u, ru << TID_BITS | u)
                raced = raced or bad
                if residual:
                    self._er.setdefault(x, {})[u] = residual
                    if u == w_tid:
                        w_res, _ = self._multicheck(
                            t, self._lw[x] or EMPTY, u, None)
                        if w_res:
                            self._ew.setdefault(x, {})[u] = w_res
            if raced:
                self._race(i, site, x, t, "write", "access-write")
        elif r < 0 or (r & TID_MASK) == t:  # [Write Owned]
            self._count("write_owned" if r >= 0 else "write_exclusive")
        else:  # [Write Exclusive], lines 25–29
            self._count("write_exclusive")
            u = r & TID_MASK
            residual, raced = self._multicheck(
                t, self._lr[x] or EMPTY, u, r)
            if residual:
                self._er.setdefault(x, {})[u] = residual
                w_tid = (w & TID_MASK) if w >= 0 else -1
                if w_tid >= 0:
                    w_res, _ = self._multicheck(
                        t, self._lw[x] or EMPTY, w_tid, None)
                    if w_res:
                        self._ew.setdefault(x, {})[w_tid] = w_res
            if raced:
                self._race(i, site, x, t, "write", "access-write")
        self._eflags[x] = ((1 if self._er.get(x) else 0)
                           | (2 if self._ew.get(x) else 0))
        snap = tuple(self._stack[t])  # line 36
        self._lw[x] = snap
        self._lr[x] = snap
        self._write[x] = e  # line 37
        self._read[x] = e

    # -- reads (Algorithm 3 Read) ----------------------------------------------
    def read(self, t: int, x: int, i: int, site: int) -> None:
        cc_t = self.cc[t]
        time = self._time(t)
        e = time << TID_BITS | t
        try:
            r = self._read[x]
        except IndexError:
            self._grow_vars(x + 1)
            r = PACKED_BOTTOM
        if r == e:
            return  # [Read Same Epoch]
        is_vc = r == META_VC
        if is_vc:
            rvc = self._read_vc[x]
            if rvc[t] == time:
                return  # [Shared Same Epoch]
        ew = self._ew.get(x)
        if ew:  # lines 4–6: reads absorb (but keep) residual write CSs
            for m in self.held[t]:
                for u, locks in ew.items():
                    if u == t:
                        continue
                    clock = locks.get(m)
                    if clock is not None:
                        cc_t.join(clock)
        w = self._write[x]
        if is_vc:
            if rvc[t] != 0:  # [Read Shared Owned], lines 19–21
                self._count("read_shared_owned")
                self._lr_set_thread(x, t)
                rvc[t] = time
                return
            self._count("read_shared")  # [Read Shared], lines 22–25
            w_tid = (w & TID_MASK) if w >= 0 else -1
            residual, raced = self._multicheck(
                t, self._lw[x] or EMPTY, w_tid, w)
            if residual and w >= 0:
                # Deviation (DESIGN.md §4): keep the residual write CSs in
                # E^w_x so later owned-case reads inside critical sections
                # still absorb the rule (a) ordering.
                self._ew.setdefault(x, {})[w_tid] = residual
                self._eflags[x] |= 2
            if raced:
                self._race(i, site, x, t, "read", "write-read")
            self._lr_set_thread(x, t)
            rvc[t] = time
            return
        if r < 0:  # first access: trivial [Read Exclusive]
            self._count("read_exclusive")
            self._lr[x] = tuple(self._stack[t])
            self._read[x] = e
            return
        if (r & TID_MASK) == t:  # [Read Owned], lines 7–9
            self._count("read_owned")
            self._lr[x] = tuple(self._stack[t])
            self._read[x] = e
            return
        u = r & TID_MASK
        lr = self._lr[x] or EMPTY
        # lines 10–11: the last access's *outermost* release time decides
        # between [Read Exclusive] and [Read Share]
        if lr:
            outer = lr[0].clock
            ordered = outer[u] <= cc_t[u]
        else:
            ordered = packed_epoch_leq(r, cc_t, t)
        if ordered:  # [Read Exclusive], lines 12–14
            self._count("read_exclusive")
            self._lr[x] = tuple(self._stack[t])
            self._read[x] = e
            return
        self._count("read_share")  # [Read Share], lines 15–18
        w_tid = (w & TID_MASK) if w >= 0 else -1
        residual, raced = self._multicheck(
            t, self._lw[x] or EMPTY, w_tid, w)
        if residual and w >= 0:
            # Deviation (DESIGN.md §4): see [Read Shared] above.
            self._ew.setdefault(x, {})[w_tid] = residual
            self._eflags[x] |= 2
        if raced:
            self._race(i, site, x, t, "read", "write-read")
        self._lr[x] = {u: lr, t: tuple(self._stack[t])}
        vc = VectorClock.zeros(self.width)
        vc[u] = r >> TID_BITS
        vc[t] = time
        self._read_vc[x] = vc
        self._read[x] = META_VC

    def _lr_set_thread(self, x: int, t: int) -> None:
        lr = self._lr[x]
        if not isinstance(lr, dict):
            lr = {}
            self._lr[x] = lr
        lr[t] = tuple(self._stack[t])

    # -- bounded-window mode -------------------------------------------------
    def evict_window(self, cutoff: int, stale) -> None:
        """Reset per-variable epochs/CS-lists/extra-clock maps of stale
        variables (per-thread CS stacks and rule (b) queues are not
        per-variable and stay; DESIGN.md §11)."""
        read = self._read
        write = self._write
        lw = self._lw
        lr = self._lr
        eflags = self._eflags
        nv = len(read)
        for x in stale:
            if x < nv:
                read[x] = PACKED_BOTTOM
                write[x] = PACKED_BOTTOM
                lw[x] = None
                lr[x] = None
                eflags[x] = 0
            self._read_vc.pop(x, None)
            self._er.pop(x, None)
            self._ew.pop(x, None)

    # -- memory -------------------------------------------------------------
    def footprint_bytes(self) -> int:
        vc = _vc_bytes(self.width)
        total = self._base_footprint()
        writes = sum(1 for w in self._write if w != PACKED_BOTTOM)
        total += writes * (EPOCH_BYTES + DICT_ENTRY_BYTES)
        reads = sum(1 for r in self._read if r != PACKED_BOTTOM)
        shared = len(self._read_vc)
        total += reads * DICT_ENTRY_BYTES
        total += shared * vc + (reads - shared) * EPOCH_BYTES
        for cs in self._lw:
            if cs is not None:
                total += DICT_ENTRY_BYTES + len(cs) * 8  # entries shared
        for lr in self._lr:
            if lr is None:
                continue
            if isinstance(lr, dict):
                for cs in lr.values():
                    total += DICT_ENTRY_BYTES + len(cs) * 8
            else:
                total += DICT_ENTRY_BYTES + len(lr) * 8
        for emap in (self._er, self._ew):
            for per_thread in emap.values():
                for locks in per_thread.values():
                    total += DICT_ENTRY_BYTES + len(locks) * 16
        for stack in self._stack:
            total += len(stack) * (CS_ENTRY_BYTES + vc)
        if self._queues is not None:
            total += self._queues.footprint_bytes()
        return total


class SmartTrackWCP(_WcpMixin, SmartTrack):
    """SmartTrack-WCP (Table 1)."""

    name = "st-wcp"
    USES_RULE_B = True


class SmartTrackDC(SmartTrack):
    """SmartTrack-DC: Algorithm 3 as printed (Table 1)."""

    name = "st-dc"
    relation = "dc"
    USES_RULE_B = True


class SmartTrackWDC(SmartTrack):
    """SmartTrack-WDC: Algorithm 3 minus rule (b) (§3, §4.2)."""

    name = "st-wdc"
    relation = "wdc"
    USES_RULE_B = False
