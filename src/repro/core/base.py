"""Analysis framework: base classes, race reports, and the event driver.

Every analysis in the matrix (paper Table 1) subclasses
:class:`VectorClockAnalysis`, which provides:

* per-thread clocks (``C_t``; plus ``H_t`` for WCP, which composes with HB),
* the local-clock/epoch discipline, including the increment-at-acquire
  policy for predictive analyses (§5.1),
* handling of the additional synchronization events (§5.1): thread
  fork/join, conflicting volatile accesses, and class-initialization edges,
  which establish order in every analysis,
* race reporting (one dynamic race per access; distinct sites are the
  "statically distinct" races of Table 7), and
* metadata footprint accounting for the memory experiments (Tables 3/4/6).

Relation-specific behaviour is captured by three small hooks
(`_acquire_compose`, `_release_publish`, `_publish_clock`) so that each
algorithm (Algorithms 1–3) is written once and instantiated per relation.

Dispatch-table contract
-----------------------

Analyses never branch on the event kind: every concrete analysis is a set
of per-kind handler methods (``read``, ``write``, ..., ``static_access``),
and :meth:`Analysis.dispatch_table` compiles them once into a tuple of
bound handlers indexed by the integer event kind (:data:`HANDLER_NAMES`
fixes the kind → method-name mapping).  Drivers — :meth:`Analysis.run` for
one analysis over a materialized trace, and
:class:`repro.core.engine.MultiRunner` for N analyses over one event
stream — call ``table[event.kind](tid, target, index, site)`` with no
per-event ``if kind ==`` chains.  Handlers must be self-contained per
instance: all mutable state (clocks, metadata maps, race lists, footprint
counters) lives on ``self``, so arbitrarily many instances — including two
instances of the *same* analysis — can be driven over one stream side by
side without interference.

An analysis can be constructed from a full :class:`Trace` or from a
:class:`~repro.trace.trace.TraceInfo` (dimensions only); only
:meth:`Analysis.run` requires materialized events — external drivers feed
the dispatch table directly and collect the report via
:meth:`Analysis.finish`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set

from repro.clocks.epoch import MAX_TID, TID_BITS
from repro.clocks.vector_clock import VectorClock
from repro.trace.event import (
    ACQUIRE,
    FORK,
    JOIN,
    READ,
    RELEASE,
    STATIC_ACCESS,
    STATIC_INIT,
    VOLATILE_READ,
    VOLATILE_WRITE,
    WRITE,
    KIND_NAMES,
)
from repro.trace.trace import Trace

#: Event kind -> handler method name; index == kind (the dispatch-table
#: contract, see module docstring).
HANDLER_NAMES = (
    "read",            # READ
    "write",           # WRITE
    "acquire",         # ACQUIRE
    "release",         # RELEASE
    "fork",            # FORK
    "join",            # JOIN
    "volatile_read",   # VOLATILE_READ
    "volatile_write",  # VOLATILE_WRITE
    "static_init",     # STATIC_INIT
    "static_access",   # STATIC_ACCESS
)

# The table above must stay aligned with the kind constants.
assert (HANDLER_NAMES.index("read"), HANDLER_NAMES.index("write")) == (READ, WRITE)
assert HANDLER_NAMES.index("acquire") == ACQUIRE
assert HANDLER_NAMES.index("release") == RELEASE
assert HANDLER_NAMES.index("fork") == FORK
assert HANDLER_NAMES.index("join") == JOIN
assert HANDLER_NAMES.index("volatile_read") == VOLATILE_READ
assert HANDLER_NAMES.index("volatile_write") == VOLATILE_WRITE
assert HANDLER_NAMES.index("static_init") == STATIC_INIT
assert HANDLER_NAMES.index("static_access") == STATIC_ACCESS
assert len(HANDLER_NAMES) == len(KIND_NAMES)

# Byte-cost model for metadata footprints.  The constants model a
# shadow-memory implementation like the paper's (RoadRunner attaches
# metadata objects to variables/locks directly), not CPython dicts: a
# vector clock is a T-slot array plus a header, an epoch is one word, and
# a metadata slot costs a couple of words of indirection.
VC_BYTES_BASE = 24
VC_BYTES_PER_SLOT = 8
EPOCH_BYTES = 8
QUEUE_ENTRY_OVERHEAD = 8
DICT_ENTRY_BYTES = 16
CS_ENTRY_BYTES = 32


class RaceRecord:
    """One dynamic race: the access where a check failed (§5.1)."""

    __slots__ = ("index", "site", "var", "tid", "access", "kinds")

    def __init__(self, index: int, site: int, var: int, tid: int,
                 access: str, kinds: str):
        self.index = index
        self.site = site
        self.var = var
        self.tid = tid
        self.access = access  # "read" or "write"
        self.kinds = kinds  # e.g. "write-read", "write-write+read-write"

    def __repr__(self) -> str:
        return "RaceRecord(event={}, site={}, var={}, T{}, {}: {})".format(
            self.index, self.site, self.var, self.tid, self.access, self.kinds)


class RaceReport:
    """The result of running one analysis over one trace.

    ``dynamic_count`` and ``static_count`` follow Table 7's counting: each
    access detecting one or more races counts as a single dynamic race, and
    dynamic races at the same program location are one static race.

    ``trimmed_dynamic``/``trimmed_sites`` account for race *records* an
    unbounded-feed session dropped to cap memory
    (:meth:`Analysis.trim_races`): the counts stay exact — trimmed races
    still contribute to ``dynamic_count``/``static_count`` — but their
    :class:`RaceRecord` details are gone, so ``races`` holds only the
    retained tail and ``racy_vars``/``races_on`` cover only that tail.
    Both default to empty; offline runs never trim.
    """

    def __init__(self, analysis_name: str, relation: str, tier: str,
                 races: List[RaceRecord], events_processed: int,
                 peak_footprint_bytes: int = 0,
                 case_counts: Optional[Dict[str, int]] = None,
                 trimmed_dynamic: int = 0,
                 trimmed_sites: Optional[Set[int]] = None):
        self.analysis_name = analysis_name
        self.relation = relation
        self.tier = tier
        self.races = races
        self.events_processed = events_processed
        self.peak_footprint_bytes = peak_footprint_bytes
        self.case_counts = case_counts or {}
        self.trimmed_dynamic = trimmed_dynamic
        self.trimmed_sites = frozenset(trimmed_sites or ())

    @property
    def dynamic_count(self) -> int:
        """Total dynamic races (one per racing access)."""
        return self.trimmed_dynamic + len(self.races)

    @property
    def static_count(self) -> int:
        """Statically distinct races (distinct program locations)."""
        return len({r.site for r in self.races} | self.trimmed_sites)

    @property
    def racy_vars(self) -> Set[int]:
        """Variables involved in at least one reported race."""
        return {r.var for r in self.races}

    @property
    def first_race(self) -> Optional[RaceRecord]:
        """The earliest dynamic race, or None."""
        return self.races[0] if self.races else None

    def races_on(self, var: int) -> List[RaceRecord]:
        """All dynamic races on one variable."""
        return [r for r in self.races if r.var == var]

    def __repr__(self) -> str:
        return "RaceReport({}: {} static / {} dynamic races over {} events)".format(
            self.analysis_name, self.static_count, self.dynamic_count,
            self.events_processed)


def _count_disabled(case: str) -> None:
    """Stand-in for :meth:`Analysis._count` when case counting is off."""


class Analysis:
    """Abstract analysis: per-event handlers driven over a trace.

    ``collect_cases=True`` turns on per-case counting (``case_counts`` in
    the report; paper Table 12).  It is *off* by default: the count is a
    dict update on nearly every access, which default runs should not pay.
    """

    name = "abstract"
    relation = "?"
    tier = "?"
    #: predictive analyses increment the local clock at acquires (§5.1)
    BUMP_AT_ACQUIRE = False
    #: True when repeated same-(thread, kind, variable) accesses within
    #: one epoch are no-ops for this analysis (the [Same Epoch] fast
    #: paths of §4.1 / §5.1).  The engine's shared same-epoch filter
    #: only drops events when *every* registered analysis declares this;
    #: subclasses without the fast-path semantics must leave it False.
    #: Declaring it also promises the thread's local clock advances
    #: *only* at the kinds marked in
    #: :data:`repro.core.engine._EPOCH_ENDERS` (acquire, release, fork,
    #: volatiles, static init) — the filter's epoch boundaries;
    #: ``tests/test_engine.py`` cross-checks that table against every
    #: registry analysis's observed bump sites.
    SAME_EPOCH_SKIP = False

    def __init__(self, trace: Trace, collect_cases: bool = False):
        # ``trace`` may be a full Trace or a TraceInfo (dimensions only);
        # only run() requires materialized events.
        self.trace = trace
        self.races: List[RaceRecord] = []
        # bounded-state accounting: races whose records were dropped by
        # trim_races() but whose counts must survive into the report
        self._trimmed_dynamic = 0
        self._trimmed_sites: Set[int] = set()
        self._events_processed = 0
        self._dispatch = None  # compiled lazily by dispatch_table()
        if collect_cases:
            self.case_counts: Optional[Dict[str, int]] = {}
        else:
            self.case_counts = None
            self._count = _count_disabled  # type: ignore[assignment]

    def _count(self, case: str) -> None:
        """Bump one case counter (only bound when ``collect_cases``)."""
        counts = self.case_counts
        counts[case] = counts.get(case, 0) + 1

    # -- state serialization (checkpoint contract) ----------------------
    def __getstate__(self):
        """The checkpoint serialization contract (:mod:`repro.checkpoint`).

        Everything an analysis owns — vector clocks, packed-epoch
        columns, per-variable metadata, CS lists, rule-(b) queues — is
        ordinary picklable state whose *object identity sharing* (CS
        entries shared between a thread's stack and the per-variable
        lists) pickle preserves within one dump.
        Two members need explicit handling:

        * ``trace`` is demoted to its :class:`~repro.trace.trace.TraceInfo`
          dimensions — a checkpoint must not embed the materialized
          event list, and a restored analysis is driven by the engine
          (never by solo :meth:`run`, which needs events);
        * ``_dispatch`` (a cached tuple of bound methods) is dropped and
          recompiled lazily after restore.
        """
        state = self.__dict__.copy()
        state["_dispatch"] = None
        trace = state.get("trace")
        if isinstance(trace, Trace):
            from repro.trace.trace import TraceInfo
            state["trace"] = TraceInfo.of(trace)
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._dispatch = None

    # -- handlers (overridden by concrete analyses) ---------------------
    def read(self, t: int, x: int, i: int, site: int) -> None:
        raise NotImplementedError

    def write(self, t: int, x: int, i: int, site: int) -> None:
        raise NotImplementedError

    def acquire(self, t: int, m: int, i: int, site: int) -> None:
        raise NotImplementedError

    def release(self, t: int, m: int, i: int, site: int) -> None:
        raise NotImplementedError

    def fork(self, t: int, u: int, i: int, site: int) -> None:
        raise NotImplementedError

    def join(self, t: int, u: int, i: int, site: int) -> None:
        raise NotImplementedError

    def volatile_read(self, t: int, v: int, i: int, site: int) -> None:
        raise NotImplementedError

    def volatile_write(self, t: int, v: int, i: int, site: int) -> None:
        raise NotImplementedError

    def static_init(self, t: int, c: int, i: int, site: int) -> None:
        raise NotImplementedError

    def static_access(self, t: int, c: int, i: int, site: int) -> None:
        raise NotImplementedError

    # -- driving ----------------------------------------------------------
    def dispatch_table(self):
        """The precompiled per-event-kind dispatch table.

        A tuple of bound handlers indexed by the integer event kind (see
        :data:`HANDLER_NAMES` and the module docstring); compiled once per
        instance and cached.  External drivers call
        ``table[kind](tid, target, index, site)`` directly.
        """
        table = self._dispatch
        if table is None:
            table = tuple(getattr(self, name) for name in HANDLER_NAMES)
            self._dispatch = table
        return table

    def make_kernel(self):
        """Build this analysis' chunk batch kernel, or return ``None``.

        The capability contract behind :mod:`repro.core.kernels`: an
        analysis that can replay *whole decoded chunks* through
        vectorized fast paths (falling back to its own per-event
        handlers for slow paths) returns a kernel object exposing
        ``process_chunk(plan)``; the engine then drives the kernel
        instead of the dispatch table, with bit-identical reports.
        Analyses return ``None`` when they have no kernel, when numpy
        is unavailable (``repro.core.kernels.kernels_available()``), or
        when per-event bookkeeping is on (``case_counts``) — the engine
        falls back to ordinary chunked replay.
        """
        return None

    def run(self, sample_every: int = 0) -> RaceReport:
        """Process the whole (materialized) trace and return the report.

        ``sample_every`` > 0 samples the metadata footprint every that many
        events (plus once at the end) and records the peak.  To analyze an
        event *stream* (or many analyses in one pass), drive the dispatch
        table externally via :class:`repro.core.engine.MultiRunner` and
        collect the report with :meth:`finish`.
        """
        handlers = self.dispatch_table()
        events = self.trace.events
        peak = 0
        if sample_every > 0:
            for i, e in enumerate(events):
                handlers[e.kind](e.tid, e.target, i, e.site)
                if i % sample_every == 0:
                    fp = self.footprint_bytes()
                    if fp > peak:
                        peak = fp
        else:
            for i, e in enumerate(events):
                handlers[e.kind](e.tid, e.target, i, e.site)
        return self.finish(len(events), peak)

    def finish(self, events_processed: int, peak_footprint: int = 0) -> RaceReport:
        """Seal the analysis after the driver fed its dispatch table.

        Takes a final footprint sample and returns the
        :class:`RaceReport`; ``peak_footprint`` is the largest sample the
        driver observed mid-run (0 if it never sampled).
        """
        fp = self.footprint_bytes()
        if fp > peak_footprint:
            peak_footprint = fp
        self._events_processed = events_processed
        return RaceReport(
            self.name, self.relation, self.tier, self.races,
            self._events_processed, peak_footprint, self.case_counts,
            trimmed_dynamic=self._trimmed_dynamic,
            trimmed_sites=self._trimmed_sites)

    def trim_races(self, count: int) -> int:
        """Drop the ``count`` oldest retained race records, keeping the
        report's counts exact.

        The bounded-state hook for infinite live feeds (see
        :class:`~repro.core.engine.MultiRunner`'s ``max_pending_races``):
        a race-heavy tenant would otherwise grow ``races`` without bound.
        The dropped records' dynamic count and distinct sites are folded
        into the trimmed accounting :meth:`finish` hands to
        :class:`RaceReport`, so ``dynamic_count``/``static_count`` are
        unaffected — only the per-race details of the dropped prefix are
        gone.  Returns the number of records actually dropped.
        """
        count = min(count, len(self.races))
        if count <= 0:
            return 0
        dropped = self.races[:count]
        del self.races[:count]
        self._trimmed_dynamic += count
        self._trimmed_sites.update(r.site for r in dropped)
        return count

    # -- race reporting ----------------------------------------------------
    def _race(self, i: int, site: int, x: int, t: int, access: str,
              kinds: str) -> None:
        self.races.append(RaceRecord(i, site, x, t, access, kinds))

    # -- bounded-window mode (engine ``window_events``; DESIGN.md §11) ------
    def evict_window(self, cutoff: int, stale) -> None:
        """Age out metadata older than the engine's event window.

        Called by the engine at window boundaries with the first event
        index still inside the window (``cutoff``) and the set of
        variables whose last access predates it (``stale``).  Analyses
        drop per-variable access metadata for ``stale`` variables and may
        prune any other per-event state older than ``cutoff``; dropping
        metadata trades precision for bounded state (races against
        evicted accesses are no longer reported).  The default is a
        no-op, which keeps unwindowed behavior for analyses that opt out.
        """

    # -- memory -------------------------------------------------------------
    def footprint_bytes(self) -> int:
        """Estimated bytes of live analysis metadata (see DESIGN.md §2)."""
        return 0


def _vc_bytes(width: int) -> int:
    return VC_BYTES_BASE + VC_BYTES_PER_SLOT * width


class VectorClockAnalysis(Analysis):
    """Shared clock infrastructure for every analysis in the matrix.

    Subclasses use:

    * ``self.cc[t]`` — the relation clock ``C_t`` (HB clock for HB
      analyses, DC/WDC clock for those relations, WCP clock for WCP).
    * ``self.hh[t]`` — the HB clock ``H_t``; only non-None for WCP, which
      composes with HB (§2.4).
    * ``self._time(t)`` / ``self._epoch(t)`` — the thread's local clock
      (``C_t(t)``, or ``H_t(t)`` for WCP, since WCP does not contain PO).
    * ``self._bump(t)`` — advance the local clock (ends the thread's epoch).
    * ``self.held[t]`` — the thread's lock stack (innermost last).
    """

    #: True for WCP analyses: maintain HB clocks alongside.
    TRACKS_HB = False

    def __init__(self, trace: Trace, collect_cases: bool = False):
        super().__init__(trace, collect_cases=collect_cases)
        width = max(trace.num_threads, 1)
        if width > MAX_TID + 1:
            raise ValueError(
                "trace declares {} threads; packed epochs support at most "
                "{} (TID_BITS={})".format(width, MAX_TID + 1, TID_BITS))
        self.width = width
        self.cc: List[VectorClock] = []
        for t in range(width):
            c = VectorClock.zeros(width)
            if not self.TRACKS_HB:
                c[t] = 1  # C_t(t) starts at 1 (paper §2.4)
            self.cc.append(c)
        if self.TRACKS_HB:
            self.hh: Optional[List[VectorClock]] = []
            for t in range(width):
                h = VectorClock.zeros(width)
                h[t] = 1
                self.hh.append(h)
        else:
            self.hh = None
        self.held: List[List[int]] = [[] for _ in range(width)]
        # lazily populated hard-edge clocks
        self._vol_w: Dict[int, VectorClock] = {}
        self._vol_r: Dict[int, VectorClock] = {}
        self._cls: Dict[int, VectorClock] = {}
        if self.TRACKS_HB:
            self._hvol_w: Dict[int, VectorClock] = {}
            self._hvol_r: Dict[int, VectorClock] = {}
            self._hcls: Dict[int, VectorClock] = {}

    def _column_size(self, need: int) -> int:
        """Slots a per-variable metadata column grows to when it must
        cover ``need`` (epoch tiers start their columns at one slot):
        the next power of two, capped at the trace's declared variable
        count while that still covers ``need``.  The declared count
        only caps growth — a remote producer writes the header it comes
        from — and the size depends on ``need`` alone, so the kernel
        and handler paths end with equal columns."""
        size = 1 << (need - 1).bit_length()
        declared = getattr(self.trace, "num_vars", 0) or 0
        return min(size, declared) if need <= declared else size

    # -- time -----------------------------------------------------------
    def _time(self, t: int) -> int:
        if self.hh is not None:
            return self.hh[t][t]
        return self.cc[t][t]

    def _epoch(self, t: int):
        # hot handlers inline this expression; keep the helper as the
        # single documented packing point for cold paths and tests
        return self._time(t) << TID_BITS | t

    def _bump(self, t: int) -> None:
        if self.hh is not None:
            self.hh[t][t] += 1
        else:
            self.cc[t][t] += 1

    def _event_clock(self, t: int) -> VectorClock:
        """A copy of ``C_t`` that *includes the current event itself*.

        For HB/DC/WDC this is just a copy (the own component is the local
        clock).  For WCP the own component of ``C_t`` is the thread's true
        WCP knowledge, so the local clock is patched in; used when
        publishing hard (fork/volatile/class-init) edges, which order the
        publishing event itself in every relation (§5.1).
        """
        out = self.cc[t].copy()
        if self.hh is not None:
            out[t] = self.hh[t][t]
        return out

    # -- relation hooks (overridden for WCP) -----------------------------
    def _acquire_compose(self, t: int, m: int) -> None:
        """Join lock-release knowledge at an acquire (WCP/HB only)."""

    def _release_publish(self, t: int, m: int) -> None:
        """Publish release-time knowledge at a release (WCP/HB only)."""

    def _publish_clock(self, t: int) -> VectorClock:
        """The clock stored into rule (a)/(b) metadata at a release.

        DC/WDC store the DC clock; WCP stores the HB clock (WCP composes
        with HB on the left, so everything HB-before the release becomes
        WCP-before any event the release gets rule (a)/(b)-ordered to).
        """
        if self.hh is not None:
            return self.hh[t].copy()
        return self.cc[t].copy()

    # -- hard edges (§5.1) -------------------------------------------------
    def fork(self, t: int, u: int, i: int, site: int) -> None:
        self.cc[u].join(self._event_clock(t))
        if self.hh is not None:
            self.hh[u].join(self.hh[t])
        self._bump(t)

    def join(self, t: int, u: int, i: int, site: int) -> None:
        self.cc[t].join(self._event_clock(u))
        if self.hh is not None:
            self.hh[t].join(self.hh[u])

    def volatile_write(self, t: int, v: int, i: int, site: int) -> None:
        w = self._vol_w.get(v)
        if w is not None:
            self.cc[t].join(w)
        r = self._vol_r.get(v)
        if r is not None:
            self.cc[t].join(r)
        if self.hh is not None:
            hw = self._hvol_w.get(v)
            if hw is not None:
                self.hh[t].join(hw)
            hr = self._hvol_r.get(v)
            if hr is not None:
                self.hh[t].join(hr)
        ec = self._event_clock(t)
        if w is None:
            self._vol_w[v] = ec
        else:
            w.join(ec)
        if self.hh is not None:
            if v not in self._hvol_w:
                self._hvol_w[v] = self.hh[t].copy()
            else:
                self._hvol_w[v].join(self.hh[t])
        self._bump(t)

    def volatile_read(self, t: int, v: int, i: int, site: int) -> None:
        w = self._vol_w.get(v)
        if w is not None:
            self.cc[t].join(w)
        if self.hh is not None:
            hw = self._hvol_w.get(v)
            if hw is not None:
                self.hh[t].join(hw)
        ec = self._event_clock(t)
        r = self._vol_r.get(v)
        if r is None:
            self._vol_r[v] = ec
        else:
            r.join(ec)
        if self.hh is not None:
            if v not in self._hvol_r:
                self._hvol_r[v] = self.hh[t].copy()
            else:
                self._hvol_r[v].join(self.hh[t])
        # A volatile read also *publishes* (it orders before later
        # conflicting volatile writes), so it ends the thread's epoch.
        self._bump(t)

    def static_init(self, t: int, c: int, i: int, site: int) -> None:
        ec = self._event_clock(t)
        if c not in self._cls:
            self._cls[c] = ec
        else:
            self._cls[c].join(ec)
        if self.hh is not None:
            if c not in self._hcls:
                self._hcls[c] = self.hh[t].copy()
            else:
                self._hcls[c].join(self.hh[t])
        self._bump(t)

    def static_access(self, t: int, c: int, i: int, site: int) -> None:
        k = self._cls.get(c)
        if k is not None:
            self.cc[t].join(k)
        if self.hh is not None:
            hk = self._hcls.get(c)
            if hk is not None:
                self.hh[t].join(hk)

    # -- memory ------------------------------------------------------------
    def _base_footprint(self) -> int:
        vcs = len(self.cc) + len(self._vol_w) + len(self._vol_r) + len(self._cls)
        if self.hh is not None:
            vcs += len(self.hh) + len(self._hvol_w) + len(self._hvol_r) + len(self._hcls)
        return vcs * _vc_bytes(self.width)
