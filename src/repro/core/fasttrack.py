"""FastTrack-family HB analyses: FT2 and FTO-HB (paper §2.3, §4.1, Table 1).

* :class:`FastTrack2` ("FT2") — the FastTrack2 algorithm [Flanagan & Freund
  2017]: write epochs, read epoch-or-vector-clock, same-epoch fast paths.
  Per §5.1, this implementation (unlike RoadRunner's) updates last-access
  metadata at races, never stops analyzing a variable, and counts every
  race.
* :class:`FTOHb` ("FTO") — the FastTrack-Ownership variant [Wood et al.
  2017]: adds the owned cases, which skip race checks when the last access
  is by the current thread, and maintains ``R_x`` as the last reads *and
  writes*.  SmartTrack builds on FTO's case structure (Algorithm 2/3).

HB analyses increment the local clock only at outgoing synchronization
(releases, volatile writes, forks), like FastTrack; predictive tiers also
increment at acquires (§5.1).

Epochs are packed ints (``c << TID_BITS | t``; see
:mod:`repro.clocks.epoch`): the same-epoch fast path is a single ``==``
between the stored metadata and the current thread's packed epoch, and no
tuple is allocated per access.

Last-access metadata lives in flat ``array('q')`` columns (one slot per
variable, negative sentinels for bottom/VC/reset — see the packed-column
constants in :mod:`repro.clocks.epoch`) so the engine's batch kernels
(:mod:`repro.core.kernels`, DESIGN.md §8) can gather and compare whole
chunks at once; read vector clocks live in the ``_read_vc`` side dict.
"""

from __future__ import annotations

from array import array
from typing import Dict

from repro.clocks.epoch import (
    META_RESET,
    META_VC,
    PACKED_BOTTOM,
    TID_BITS,
    TID_MASK,
    packed_epoch_leq,
)
from repro.clocks.vector_clock import VectorClock
from repro.core.base import DICT_ENTRY_BYTES, EPOCH_BYTES, VectorClockAnalysis, _vc_bytes
from repro.trace.trace import Trace

_BOTTOM_WORD = b"\xff" * 8  # int64 -1 == PACKED_BOTTOM, little/big agnostic


class _EpochHbBase(VectorClockAnalysis):
    """Shared lock handling and metadata for FT2/FTO-HB."""

    #: implements the [Read/Write Same Epoch] fast paths
    SAME_EPOCH_SKIP = True
    #: event kinds at which this tier bumps the local clock (release,
    #: fork, volatile read/write, static init — *not* acquire); the batch
    #: kernels derive exact per-position epochs from this set.
    BUMP_KINDS = (3, 4, 6, 7, 8)
    #: which mask family repro.core.kernels builds for this class
    KERNEL_STYLE = ""

    def __init__(self, trace: Trace, collect_cases: bool = False):
        super().__init__(trace, collect_cases=collect_cases)
        self._lock_clock: Dict[int, VectorClock] = {}
        # one slot, grown on demand (see _column_size)
        self._read = array("q", _BOTTOM_WORD)
        self._write = array("q", _BOTTOM_WORD)
        #: read metadata slots promoted to vector clocks (column holds
        #: META_VC); keyed by variable
        self._read_vc: Dict[int, VectorClock] = {}

    def _grow_vars(self, need: int) -> None:
        """Extend the metadata columns to at least ``need`` slots."""
        have = len(self._read)
        if need > have:
            pad = _BOTTOM_WORD * (self._column_size(need) - have)
            self._read.frombytes(pad)
            self._write.frombytes(pad)

    def make_kernel(self):
        """See :meth:`repro.core.base.Analysis.make_kernel`."""
        if self.case_counts is not None:
            return None
        from repro.core import kernels

        return kernels.make_kernel(self)

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

    def evict_window(self, cutoff: int, stale) -> None:
        """Bounded-window mode: reset epochs of stale variables to bottom
        and drop their shared-read clocks (per-lock clocks are O(locks),
        not per-variable, and stay; DESIGN.md §11)."""
        read = self._read
        write = self._write
        nv = len(read)
        for x in stale:
            if x < nv:
                read[x] = PACKED_BOTTOM
                write[x] = PACKED_BOTTOM
            self._read_vc.pop(x, None)

    def footprint_bytes(self) -> int:
        vc = _vc_bytes(self.width)
        total = self._base_footprint()
        total += len(self._lock_clock) * (vc + DICT_ENTRY_BYTES)
        writes = sum(1 for w in self._write if w != PACKED_BOTTOM)
        total += writes * (EPOCH_BYTES + DICT_ENTRY_BYTES)
        reads = sum(1 for r in self._read if r != PACKED_BOTTOM)
        shared = len(self._read_vc)
        total += reads * DICT_ENTRY_BYTES
        total += shared * vc + (reads - shared) * EPOCH_BYTES
        return total


class FastTrack2(_EpochHbBase):
    """The FastTrack2 HB analysis ("FT2" in Table 1)."""

    name = "ft2"
    relation = "hb"
    tier = "epoch"
    KERNEL_STYLE = "ft2"

    def read(self, t: int, x: int, i: int, site: int) -> None:
        cc_t = self.cc[t]
        time = cc_t[t]
        e = time << TID_BITS | t
        try:
            r = self._read[x]
        except IndexError:
            self._grow_vars(x + 1)
            r = PACKED_BOTTOM
        if r == e:
            return  # [Read Same Epoch]
        w = self._write[x]
        if r == META_VC:
            rvc = self._read_vc[x]
            if rvc[t] == time:
                self._count("read_shared_same_epoch")
                return
            if not packed_epoch_leq(w, cc_t, t):
                self._race(i, site, x, t, "read", "write-read")
            self._count("read_shared")
            rvc[t] = time
            return
        if not packed_epoch_leq(w, cc_t, t):
            self._race(i, site, x, t, "read", "write-read")
        if r < 0 or packed_epoch_leq(r, cc_t, t):
            self._count("read_exclusive")
            self._read[x] = e
        else:
            self._count("read_share")
            vc = VectorClock.zeros(self.width)
            vc[r & TID_MASK] = r >> TID_BITS
            vc[t] = time
            self._read_vc[x] = vc
            self._read[x] = META_VC

    def write(self, t: int, x: int, i: int, site: int) -> None:
        cc_t = self.cc[t]
        time = cc_t[t]
        e = time << TID_BITS | t
        try:
            w = self._write[x]
        except IndexError:
            self._grow_vars(x + 1)
            w = PACKED_BOTTOM
        if w == e:
            return  # [Write Same Epoch]
        r = self._read[x]
        kinds = []
        if not packed_epoch_leq(w, cc_t, t):
            kinds.append("write-write")
        if r == META_VC:
            self._count("write_shared")
            if not self._read_vc.pop(x).leq_except(cc_t, t):
                kinds.append("read-write")
            # FastTrack2 [Write Shared] resets the read metadata to bottom.
            self._read[x] = META_RESET
        else:
            self._count("write_exclusive")
            if not packed_epoch_leq(r, cc_t, t):
                kinds.append("read-write")
        if kinds:
            self._race(i, site, x, t, "write", "+".join(kinds))
        self._write[x] = e


class FTOHb(_EpochHbBase):
    """FTO-HB: FastTrack with ownership cases ("FTO" in Table 1).

    ``R_x`` tracks the last reads *and writes*; the owned cases ([Read
    Owned], [Read Shared Owned], [Write Owned]) skip race checks when the
    last access was by the current thread (Algorithm 2's case structure,
    restricted to HB).
    """

    name = "fto-hb"
    relation = "hb"
    tier = "fto"
    KERNEL_STYLE = "fto"

    def read(self, t: int, x: int, i: int, site: int) -> None:
        cc_t = self.cc[t]
        time = cc_t[t]
        e = time << TID_BITS | t
        try:
            r = self._read[x]
        except IndexError:
            self._grow_vars(x + 1)
            r = PACKED_BOTTOM
        if r == e:
            return  # [Read Same Epoch]
        if r == META_VC:
            rvc = self._read_vc[x]
            if rvc[t] == time:
                self._count("read_shared_same_epoch")
                return
            if rvc[t] != 0:
                self._count("read_shared_owned")
                rvc[t] = time
                return
            self._count("read_shared")
            if not packed_epoch_leq(self._write[x], cc_t, t):
                self._race(i, site, x, t, "read", "write-read")
            rvc[t] = time
            return
        if r < 0:
            self._count("read_exclusive")
            self._read[x] = e
            return
        if (r & TID_MASK) == t:
            self._count("read_owned")
            self._read[x] = e
            return
        if packed_epoch_leq(r, cc_t, t):
            self._count("read_exclusive")
            self._read[x] = e
            return
        self._count("read_share")
        if not packed_epoch_leq(self._write[x], cc_t, t):
            self._race(i, site, x, t, "read", "write-read")
        vc = VectorClock.zeros(self.width)
        vc[r & TID_MASK] = r >> TID_BITS
        vc[t] = time
        self._read_vc[x] = vc
        self._read[x] = META_VC

    def write(self, t: int, x: int, i: int, site: int) -> None:
        cc_t = self.cc[t]
        time = cc_t[t]
        e = time << TID_BITS | t
        try:
            w = self._write[x]
        except IndexError:
            self._grow_vars(x + 1)
            w = PACKED_BOTTOM
        if w == e:
            return  # [Write Same Epoch]
        r = self._read[x]
        if r == META_VC:
            self._count("write_shared")
            if not self._read_vc.pop(x).leq_except(cc_t, t):
                self._race(i, site, x, t, "write", "read-write")
        elif r < 0 or (r & TID_MASK) == t:
            self._count("write_owned" if r >= 0 else "write_exclusive")
        else:
            self._count("write_exclusive")
            if not packed_epoch_leq(r, cc_t, t):
                self._race(i, site, x, t, "write", "access-write")
        self._write[x] = e
        self._read[x] = e
