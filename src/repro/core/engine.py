"""Single-pass multi-analysis engine.

The paper's deployment story (§4.3, "always-on" predictive detection)
wants many analysis configurations applied to *one* observed execution.
Re-running each analysis over the trace costs ``O(analyses × events)``
iterations and requires the trace to be materialized up front.
:class:`MultiRunner` instead drives one iteration of the event stream and
feeds every registered analysis from it:

* **one pass** — the event source is iterated exactly once and is never
  rewound, so it can be a generator (e.g. a
  :class:`~repro.trace.format.TraceStream` parsing a multi-gigabyte
  capture lazily) and the engine runs in memory bounded by analysis
  metadata, not trace length;
* **one column path: read → filter → replay** — the engine reads each
  chunk as four event columns (kind, tid, target, site) straight from
  the source (:meth:`~repro.trace.stream.TraceStreamBase.read_columns`:
  the binary reader decodes into int64 columns with numpy; text and
  in-memory events go through one Event→columns adapter), drops
  same-epoch repeats with one filter over the columns, and replays the
  kept events through each analysis — a batch kernel
  (:mod:`repro.core.kernels`) or the per-event-kind table of bound
  handlers (:meth:`repro.core.base.Analysis.dispatch_table`);
* **error isolation** — an analysis whose handler raises is detached and
  recorded as a :class:`AnalysisFailure`; the remaining analyses are
  unaffected and still produce reports;
* **shared sampling** — footprint peaks and progress callbacks are
  sampled once per cadence for all analyses, at the same event indices
  :meth:`Analysis.run` would use, so peaks are comparable across paths;
* **incremental sessions** — :meth:`MultiRunner.session` opens an
  :class:`EngineSession` whose :meth:`~EngineSession.feed` accepts the
  event stream in arbitrary installments (a live socket/FIFO feed drained
  in bounded windows — see :mod:`repro.trace.live`) and returns the races
  discovered by that installment the moment they exist;
  :meth:`~EngineSession.snapshot` is a cheap mid-stream progress view and
  :meth:`~EngineSession.finish` seals the pass.  The one-shot
  :meth:`MultiRunner.run` is a thin feed-everything-then-finish wrapper,
  so offline and online paths share every optimization (flat chunks,
  batch kernels, the same-epoch filter) and produce identical reports
  (the differential fuzz sweep replays every fuzzed trace through a live
  socket session and asserts this);
* **sharding** — ``MultiRunner(..., workers=N)`` runs the same session
  loop but broadcasts each kept chunk to worker processes that replay
  forked copies of the analyses (:mod:`repro.core.parallel`).

Analyses are ordinary instances; two instances of the *same* analysis can
run side by side (each owns all of its mutable state — the dispatch-table
contract in :mod:`repro.core.base`), so a single analysis behaves
identically inside and outside the engine.
"""

from __future__ import annotations

import gc
from itertools import chain, islice
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Union,
)

from repro.core.base import Analysis, HANDLER_NAMES, RaceReport
from repro.core.registry import create
from repro.trace.event import Event
from repro.trace.stream import column_source
from repro.trace.trace import Trace, TraceInfo

NUM_KINDS = len(HANDLER_NAMES)

#: A kept chunk in which synchronization events (every kind but READ and
#: WRITE) exceed this share replays through the dispatch tables even for
#: analyses with a batch kernel: a kernel walks every sync event through
#: its handler anyway, and on lock-heavy chunks most accesses next to
#: them, so its vector classification is extra work there.
KERNEL_MAX_SYNC_SHARE = 0.2

#: Event kinds that end the acting thread's epoch in at least one
#: analysis (the union of every tier's ``_bump`` sites: releases, forks,
#: volatiles, class inits always; acquires for the predictive tiers).
#: Indexed by kind; used by the engine's shared same-epoch filter.
_EPOCH_ENDERS = (
    False,  # READ
    False,  # WRITE
    True,   # ACQUIRE (predictive tiers bump; conservative for HB)
    True,   # RELEASE
    True,   # FORK
    False,  # JOIN (joins knowledge, never the local clock)
    True,   # VOLATILE_READ
    True,   # VOLATILE_WRITE
    True,   # STATIC_INIT
    False,  # STATIC_ACCESS (joins knowledge only)
)


def read_chunk(source, limit: int):
    """Read up to ``limit`` events from a column source (anything with
    ``read_columns``; see :func:`repro.trace.stream.column_source`).

    Returns ``(columns, n, error, exhausted)``: the four columns of the
    ``n`` events read — lists, or int64 arrays from the numpy binary
    decoder — the exception the source raised, if any (the events read
    before it are kept, so they still reach the analyses), and whether
    the source ran dry.
    """
    blocks = []
    n = 0
    error: Optional[BaseException] = None
    exhausted = False
    read = source.read_columns
    while n < limit:
        try:
            cols = read(limit - n)
        except BaseException as exc:
            error = exc
            break
        m = len(cols[0])
        if not m:
            exhausted = True
            break
        blocks.append(cols)
        n += m
    if len(blocks) == 1:
        return blocks[0], n, error, exhausted
    if not blocks:
        return None, 0, error, exhausted
    if all(isinstance(b[0], list) for b in blocks):
        cols = tuple(list(chain.from_iterable(b[c] for b in blocks))
                     for c in range(4))
    else:
        import numpy as np  # the numpy decoder made these blocks

        cols = tuple(np.concatenate([b[c] for b in blocks])
                     for c in range(4))
    return cols, n, error, exhausted


def filter_chunk(cols, n: int, base: int, filt, vector: bool):
    """Apply the shared same-epoch filter to one chunk from
    :func:`read_chunk` whose first event has global index ``base``.

    Returns ``(indices, kinds, tids, targets, sites, m, arrays)``: the
    ``m`` kept events as Python list columns (plain ints reach the
    handlers and the race records) with their global event indices, and
    — when ``vector`` is set — their kind/tid/target int64 arrays for a
    :class:`~repro.core.kernels.ChunkPlan` (else None).  ``filt`` is
    None (keep everything), a :class:`~repro.core.kernels.SameEpochFilter`,
    or, with ``vector``, a :class:`~repro.core.kernels.VecSameEpochFilter`.
    """
    kinds, tids, targets, sites = cols
    lists = isinstance(kinds, list)
    if not vector:
        if not lists:
            kinds, tids = kinds.tolist(), tids.tolist()
            targets, sites = targets.tolist(), sites.tolist()
        indices = list(range(base, base + n))
        m = n if filt is None else filt.apply(indices, kinds, tids, targets,
                                              sites, n)
        return indices, kinds, tids, targets, sites, m, None
    import numpy as np  # vector implies the kernels, hence numpy

    if lists:
        kv = np.fromiter(kinds, np.int64, count=n)
        tv = np.fromiter(tids, np.int64, count=n)
        xv = np.fromiter(targets, np.int64, count=n)
    else:
        kv, tv, xv = kinds, tids, targets
    keep = None if filt is None else filt.keep(kv, tv, xv)
    if keep is None:
        indices = list(range(base, base + n))
        if not lists:
            kinds, tids = kinds.tolist(), tids.tolist()
            targets, sites = targets.tolist(), sites.tolist()
        return indices, kinds, tids, targets, sites, n, (kv, tv, xv)
    kv, tv, xv = kv[keep], tv[keep], xv[keep]
    if lists:
        sites = [sites[p] for p in keep.tolist()]
    else:
        sites = sites[keep].tolist()
    return ((keep + base).tolist(), kv.tolist(), tv.tolist(), xv.tolist(),
            sites, len(keep), (kv, tv, xv))


class AnalysisFailure:
    """One detached analysis: the error and the event that triggered it."""

    __slots__ = ("name", "event_index", "error")

    def __init__(self, name: str, event_index: int, error: BaseException):
        self.name = name
        self.event_index = event_index
        self.error = error

    def __repr__(self) -> str:
        return "AnalysisFailure({} at event {}: {!r})".format(
            self.name, self.event_index, self.error)


class EngineEntry:
    """Per-analysis slot in a :class:`MultiResult`."""

    __slots__ = ("analysis", "report", "failure", "peak", "kernel")

    def __init__(self, analysis: Analysis):
        self.analysis = analysis
        self.report: Optional[RaceReport] = None
        self.failure: Optional[AnalysisFailure] = None
        self.peak = 0
        #: batch kernel (repro.core.kernels) replacing chunked per-event
        #: replay for this analysis; None means the scalar path
        self.kernel = None

    @property
    def name(self) -> str:
        return self.analysis.name

    @property
    def ok(self) -> bool:
        return self.failure is None


class MultiResult:
    """The outcome of one :class:`MultiRunner` pass.

    ``entries`` is ordered like the registered analyses (two instances of
    the same analysis keep distinct entries).  ``reports`` is a by-name
    convenience for the common all-distinct case (first instance wins).
    """

    def __init__(self, entries: List[EngineEntry], events_processed: int):
        self.entries = entries
        self.events_processed = events_processed

    @property
    def reports(self) -> Dict[str, RaceReport]:
        out: Dict[str, RaceReport] = {}
        for entry in self.entries:
            if entry.report is not None and entry.name not in out:
                out[entry.name] = entry.report
        return out

    @property
    def failures(self) -> List[AnalysisFailure]:
        return [e.failure for e in self.entries if e.failure is not None]

    @property
    def ok(self) -> bool:
        return not self.failures

    def report(self, name: str) -> RaceReport:
        """The (first) report of the named analysis; raises KeyError if it
        failed or was never registered."""
        for entry in self.entries:
            if entry.name == name and entry.report is not None:
                return entry.report
        raise KeyError(name)

    def __repr__(self) -> str:
        return "MultiResult({} analyses over {} events, {} failed)".format(
            len(self.entries), self.events_processed, len(self.failures))


class SessionSnapshot:
    """A cheap, read-only progress view of a live :class:`EngineSession`.

    Snapshots are O(races) counter reads: they copy no clocks or other
    analysis metadata.  Use :meth:`EngineSession.finish` to seal the pass
    and obtain real :class:`~repro.core.base.RaceReport` objects, or
    :meth:`EngineSession.save_checkpoint` (:mod:`repro.checkpoint`) when
    the full resumable state — clocks, metadata and all — is what you
    need.

    ``dynamic_counts``/``static_counts`` are keyed by analysis name (first
    instance wins when the same analysis is registered twice, mirroring
    :attr:`MultiResult.reports`).
    """

    __slots__ = ("events_processed", "dynamic_counts", "static_counts",
                 "failures", "events_acked")

    def __init__(self, events_processed: int,
                 dynamic_counts: Dict[str, int],
                 static_counts: Dict[str, int],
                 failures: List[AnalysisFailure],
                 events_acked: Optional[int] = None):
        self.events_processed = events_processed
        self.dynamic_counts = dynamic_counts
        self.static_counts = static_counts
        self.failures = failures
        #: the resume-safe offset (see :attr:`EngineSession.events_acked`);
        #: equals ``events_processed`` for in-process sessions
        self.events_acked = (events_processed if events_acked is None
                             else events_acked)

    def __repr__(self) -> str:
        return "SessionSnapshot({} events, {} dynamic races, {} failed)".format(
            self.events_processed, sum(self.dynamic_counts.values()),
            len(self.failures))


class EngineSession:
    """An incremental single-pass run: feed events in installments.

    Obtained from :meth:`MultiRunner.session`.  The session owns the
    pass-wide state the one-shot :meth:`MultiRunner.run` used to keep in
    locals — the shared same-epoch filter's per-thread/per-variable
    tokens, the running event index, and the live/detached
    bookkeeping — so an event stream can be delivered in
    arbitrary installments (e.g. bounded windows drained from a live
    socket) with results identical to one uninterrupted pass: chunk
    boundaries never affect analysis state, and the filter's epoch
    tokens survive across :meth:`feed` calls.

    Lifecycle: any number of :meth:`feed` calls, then exactly one
    :meth:`finish`.  :meth:`feed` returns the races *newly* discovered by
    that installment (each dynamic race is returned exactly once across
    the session) so a serving loop can emit reports the moment they
    exist.  :meth:`snapshot` may be called at any time.  After
    :meth:`finish` (or :meth:`close`), :meth:`feed` raises
    :class:`RuntimeError` and the owning runner may open a new session.
    """

    def __init__(self, runner: "MultiRunner"):
        self._runner = runner
        self.entries = runner.entries
        # entries that failed in a previous session stay detached: their
        # analyses are in an undefined mid-failure state
        self._live = [e for e in self.entries if e.failure is None]
        # The shared same-epoch filter drops accesses that are provably
        # no-ops in *every* analysis — a repeat of the same (thread,
        # kind, variable) access with no intervening epoch-ending event
        # by that thread and no intervening write to the variable hits a
        # [Same Epoch] fast path in each tier (§4.1; unopt's §5.1
        # equivalent) — so one check over the chunk's columns replaces N
        # dispatches.  Active only when every analysis declares the
        # fast-path semantics (SAME_EPOCH_SKIP), and disabled when
        # footprint sampling or case counting is on: a skipped access
        # would then miss a sample index / a same-epoch case bump.
        self._filter_on = (runner.sample_every == 0
                           and runner.window_events is None
                           and all(e.analysis.SAME_EPOCH_SKIP
                                   and e.analysis.case_counts is None
                                   for e in self.entries))
        # bounded-window mode: age out per-variable metadata at every
        # multiple of the window (see MultiRunner ``window_events``)
        self._window = runner.window_events
        self._var_last: Dict[int, int] = {}
        self._next_evict = (self._window if self._window is not None
                            else None)
        # batch kernels (repro.core.kernels): entries with a kernel skip
        # the per-event replay; chunks then stay numpy columns up to a
        # shared ChunkPlan, and the filter runs vectorized
        self._vector = runner._kernels_on
        self._make_plan = None
        self._filter = None
        if self._vector or self._filter_on:
            from repro.core import kernels

            if self._vector and any(e.kernel is not None
                                    for e in self._live):
                self._make_plan = kernels.ChunkPlan
            if self._filter_on and self._vector:
                width = max(e.analysis.width for e in self.entries)
                self._filter = kernels.make_filter(width, _EPOCH_ENDERS)
            elif self._filter_on:
                self._filter = kernels.SameEpochFilter(_EPOCH_ENDERS)
        self._events_seen = 0
        self._reported = 0  # last count handed to the progress callback
        self._races_seen = [len(e.analysis.races) for e in self.entries]
        self._max_pending = runner.max_pending_races
        self._finished = False

    @property
    def runner(self) -> "MultiRunner":
        """The owning :class:`MultiRunner` (checkpoint and serving code
        need its configuration)."""
        return self._runner

    @property
    def events_processed(self) -> int:
        """Source events consumed so far (filtered accesses included)."""
        return self._events_seen

    @property
    def events_acked(self) -> int:
        """Events whose analysis effects are fully applied — the safe
        resume offset for a reconnecting producer.

        Identical to :attr:`events_processed` by construction: a failing
        source replays its partially decoded chunk before the error
        propagates, so every counted event reached every live analysis
        and a producer that resends from this offset reproduces the
        uninterrupted run exactly (the server's reconnect protocol and
        its fuzz test rely on this).  Bytes of a *partially decoded*
        event are never counted, so the failed event is resent whole.
        """
        return self._events_seen

    @property
    def finished(self) -> bool:
        return self._finished

    # -- feeding -----------------------------------------------------------
    def feed(self, events: Union[Trace, Iterable[Event]],
             max_events: Optional[int] = None) -> List[tuple]:
        """Consume one installment of the stream; return its new races.

        ``events`` may be a :class:`Trace`, any iterable, a trace stream
        (read by columns), or a live iterator shared across calls — the
        installment ends when the source is exhausted or, with
        ``max_events``, after exactly that many events (pass the *same*
        source again to continue; an exhausted source makes ``feed`` a
        no-op, which is the caller's EOF signal via an unchanged
        :attr:`events_processed`).

        Each chunk runs the one column path: read the events as
        columns, drop same-epoch repeats with the shared filter, replay
        the kept events through each analysis' batch kernel or dispatch
        table.  Returns the races discovered by this installment as
        ``(analysis_name, RaceRecord)`` pairs ordered by event index
        (ties keep registration order); across a session every dynamic
        race is returned exactly once.  An analysis whose handler raises
        is detached exactly as in :meth:`MultiRunner.run`; errors raised
        by the *source* propagate after the events read before them were
        replayed, with all session state intact, so a caller may still
        :meth:`snapshot` or :meth:`finish` after a malformed or timed-out
        live feed.
        """
        if self._finished:
            raise RuntimeError(
                "engine session is finished; open a new session to feed "
                "more events")
        source = column_source(events)
        runner = self._runner
        progress = runner.progress
        chunk_size = runner.chunk_events
        window = self._window
        filt = self._filter
        vector = self._vector
        left = max_events
        # Batch-pass GC hygiene: with N analyses' metadata live at once,
        # every cyclic collection during the pass scans ~N times the
        # objects a solo run would, for data that is refcount-managed
        # anyway (the clocks and metadata maps are acyclic).  Suspend
        # cyclic GC for the installment and restore the caller's setting.
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        try:
            while left is None or left > 0:
                limit = chunk_size if left is None else min(chunk_size, left)
                if window is not None:
                    # clamp the chunk at the next eviction boundary, so
                    # windowed results are chunk-size-independent and
                    # identical across the serial and sharded paths
                    limit = min(limit, self._next_evict - self._events_seen)
                # a failing source (malformed live feed, read timeout)
                # keeps the events it delivered: they are replayed
                # below before the error is re-raised, so every event
                # counted in events_processed reached the analyses
                cols, n, error, exhausted = read_chunk(source, limit)
                if n:
                    base = self._events_seen
                    self._events_seen = base + n
                    (indices, kinds, tids, targets, sites, m,
                     arrays) = filter_chunk(cols, n, base, filt, vector)
                    if m:
                        self._replay_chunk(indices, kinds, tids, targets,
                                           sites, m, arrays)
                    if progress is not None:
                        progress(base + n)
                        self._reported = base + n
                    if left is not None:
                        left -= n
                if window is not None \
                        and self._events_seen == self._next_evict:
                    # evict even when the source just failed: the read
                    # prefix was replayed above, and a resumed feed must
                    # find the boundary already advanced
                    self._evict()
                if error is not None:
                    raise error
                if exhausted or not n:
                    break
        finally:
            if gc_was_enabled:
                gc.enable()
        return self._deliver()

    def feed_decoded(self, indices, kinds, tids, targets, sites, n: int,
                     events_seen: int) -> List[tuple]:
        """Replay one already-filtered chunk of list columns; return its
        new races.

        This is the multiprocess worker entry point
        (:mod:`repro.core.parallel`): a sharded session reads — and
        same-epoch-filters — the event stream exactly once through the
        same column path as :meth:`feed` and ships the five kept
        columns to each worker, whose shard session replays them here.
        ``indices`` holds each record's global event index (records are
        not contiguous when the parent's filter dropped events);
        ``events_seen`` is the parent's cumulative *source* event count
        after this chunk (filtered accesses included), which keeps
        :attr:`events_processed` — and therefore the final reports —
        identical to a serial pass.  ``n`` may be 0 (used by the
        end-of-stream marker to propagate the final event count).

        Analysis failures detach exactly as in :meth:`feed`; the chunk
        lists are never mutated.
        """
        if self._finished:
            raise RuntimeError(
                "engine session is finished; open a new session to feed "
                "more events")
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        try:
            if n:
                self._replay_chunk(indices, kinds, tids, targets, sites, n)
        finally:
            self._events_seen = events_seen
            if gc_was_enabled:
                gc.enable()
        if self._window is not None:
            # the parent clamps chunks at window boundaries, so the
            # boundary is crossed exactly at a chunk edge
            while events_seen >= self._next_evict:
                self._evict()
        return self._deliver()

    def _replay_chunk(self, indices, kinds, tids, targets, sites, m: int,
                      arrays=None) -> None:
        """Replay ``m`` kept events through every live analysis: one
        shared :class:`~repro.core.kernels.ChunkPlan` for the batch
        kernels (built from ``arrays`` when given), the dispatch tables
        for the rest — and for every analysis when synchronization
        events exceed :data:`KERNEL_MAX_SYNC_SHARE` of the chunk.  A
        raising analysis is detached.  In bounded-window mode the
        chunk's accesses first refresh their variables' ages."""
        if self._window is not None:
            self._track_ages(indices, kinds, targets, m)
        runner = self._runner
        live = self._live
        make_plan = self._make_plan
        plan = None
        if make_plan is not None:
            head = kinds if len(kinds) == m else kinds[:m]
            if (m - head.count(0) - head.count(1)
                    <= KERNEL_MAX_SYNC_SHARE * m):
                plan = make_plan(indices, kinds, tids, targets, sites, m,
                                 arrays)
        for entry in list(live):
            kernel = entry.kernel
            try:
                if kernel is not None and plan is not None:
                    kernel.process_chunk(plan)
                else:
                    if kernel is not None:
                        kernel.suspend()
                    runner._replay(entry, indices, kinds, tids, targets,
                                   sites, m)
            except Exception as exc:  # detach this analysis
                entry.failure = AnalysisFailure(
                    entry.name, runner._failure_index(exc), exc)
                live.remove(entry)

    def _track_ages(self, indices, kinds, targets, n: int) -> None:
        """Bounded-window mode: record each accessed variable's latest
        access index (what :meth:`_evict` ages out by)."""
        var_last = self._var_last
        for j, k, x in zip(islice(indices, n), kinds, targets):
            if k <= 1:
                var_last[x] = j

    def _evict(self) -> None:
        """Apply one window-boundary eviction (bounded-window mode):
        advance the boundary and hand every live analysis the stale
        variable set (last access before the new cutoff) via
        :meth:`~repro.core.base.Analysis.evict_window`."""
        window = self._window
        cutoff = self._next_evict - window
        self._next_evict += window
        if cutoff <= 0:
            return  # first boundary: everything is within the window
        var_last = self._var_last
        stale = [x for x, last in var_last.items() if last < cutoff]
        for x in stale:
            del var_last[x]
        stale_set = frozenset(stale)
        live = self._live
        for entry in list(live):
            try:
                entry.analysis.evict_window(cutoff, stale_set)
            except Exception as exc:  # detach this analysis
                entry.failure = AnalysisFailure(entry.name, -1, exc)
                live.remove(entry)

    def _deliver(self) -> List[tuple]:
        """Hand out the pending races, then enforce the bounded-state
        cap: once delivered, old race records may be trimmed."""
        races = self.pending_races()
        if self._max_pending is not None:
            self.trim_delivered(self._max_pending)
        return races

    def drain(self, events: Union[Trace, Iterable[Event]],
              window: int = 4096) -> Iterator[tuple]:
        """Feed ``events`` to exhaustion in bounded windows, yielding
        each ``(analysis_name, RaceRecord)`` pair as it is discovered.

        This is the canonical serving loop — it owns the EOF
        convention (a window that advances :attr:`events_processed` by
        nothing means the iterator is exhausted), so callers do not
        re-implement it.  When the *source* raises mid-installment, the
        races that installment's partial chunk did discover are yielded
        first and then the error propagates (session still usable) — a
        live consumer never loses a race that was found before the feed
        died.  Drive :meth:`feed` directly only when per-window work is
        needed (progress sampling, adaptive window sizes).

        The drain ends at a barrier (:meth:`_barrier`): when it returns
        or raises, every race found in the events it consumed has been
        yielded — immediate for an in-process session, a round trip to
        every worker for a sharded one.
        """
        source = column_source(events)
        while True:
            seen = self._events_seen
            try:
                races = self.feed(source, max_events=window)
            except BaseException:
                for pair in self._barrier() + self.pending_races():
                    yield pair
                raise
            for pair in races:
                yield pair
            if self._events_seen == seen:
                for pair in self._barrier():
                    yield pair
                return

    def _barrier(self) -> List[tuple]:
        """End-of-drain hook: the races still in flight.  An in-process
        session has none (:meth:`feed` replays and delivers each chunk
        before it returns); a sharded one waits for its workers."""
        return []

    def pending_races(self) -> List[tuple]:
        """Races discovered since the last :meth:`feed` (or call of this
        method) that have not been handed out yet, as ``(analysis_name,
        RaceRecord)`` pairs ordered by event index.

        Normally empty — :meth:`feed` drains them on return — but after
        a feed that *raised*, the partial chunk it replayed may have
        discovered races the exception swallowed; :meth:`drain` yields
        them before propagating, and direct ``feed`` callers can do the
        same with this method.
        """
        out: List[tuple] = []
        seen = self._races_seen
        for idx, entry in enumerate(self.entries):
            races = entry.analysis.races
            if len(races) > seen[idx]:
                name = entry.name
                out.extend((name, race) for race in races[seen[idx]:])
                seen[idx] = len(races)
        if len(out) > 1:
            out.sort(key=lambda pair: pair[1].index)
        return out

    def trim_delivered(self, keep: int = 0) -> int:
        """Drop already-delivered race records beyond ``keep`` per
        analysis, keeping report counts exact.

        The bounded-state half of serving an infinite feed: every race a
        :meth:`feed` call returned is still retained by its analysis (so
        :meth:`finish` can build the full report), which grows without
        bound on a race-heavy tenant.  This trims each analysis' oldest
        *delivered* records — never ones a caller has not seen — via
        :meth:`~repro.core.base.Analysis.trim_races`, so
        ``dynamic_count``/``static_count`` in the final reports are
        unchanged and only the trimmed records' details are gone.
        Sessions opened with ``max_pending_races`` call this
        automatically after each delivery.  Returns the number of
        records dropped across all analyses.
        """
        dropped = 0
        seen = self._races_seen
        for idx, entry in enumerate(self.entries):
            excess = min(seen[idx], len(entry.analysis.races)) - keep
            if excess > 0:
                trimmed = entry.analysis.trim_races(excess)
                seen[idx] -= trimmed
                dropped += trimmed
        return dropped

    # -- checkpointing -----------------------------------------------------
    def _filter_state(self):
        """The shared same-epoch filter's cross-chunk state as three
        plain dicts (``toks``, ``last_r``, ``last_w``) — numpy-free, so
        a checkpoint written under one filter implementation restores
        into the other (both keep the same token state)."""
        if self._filter is not None:
            return self._filter.export_state()
        return {}, {}, {}

    def _seed_filter(self, toks, last_r, last_w) -> None:
        """Load filter state captured by :meth:`_filter_state` into
        whichever filter implementation this session runs."""
        if self._filter is not None:
            self._filter.seed_state(toks, last_r, last_w)

    def save_checkpoint(self, fp) -> None:
        """Serialize the session's full resumable state to the binary
        file object ``fp`` — every analysis' clocks/metadata, the
        same-epoch filter tokens and the event offset — so :meth:`MultiRunner.restore_checkpoint` in
        another process can replay the remaining suffix and produce
        reports bit-identical to one uninterrupted pass.  Thin wrapper
        over :func:`repro.checkpoint.save_session`."""
        from repro.checkpoint import save_session

        save_session(self, fp)

    # -- observing ---------------------------------------------------------
    def snapshot(self) -> SessionSnapshot:
        """The session's progress so far (see :class:`SessionSnapshot`)."""
        dynamic: Dict[str, int] = {}
        static: Dict[str, int] = {}
        for entry in self.entries:
            if entry.failure is None and entry.name not in dynamic:
                analysis = entry.analysis
                races = analysis.races
                dynamic[entry.name] = (analysis._trimmed_dynamic
                                       + len(races))
                static[entry.name] = len({r.site for r in races}
                                         | analysis._trimmed_sites)
        return SessionSnapshot(
            self._events_seen, dynamic, static,
            [e.failure for e in self.entries if e.failure is not None],
            events_acked=self.events_acked)

    # -- sealing -----------------------------------------------------------
    def finish(self) -> MultiResult:
        """Seal the pass: final progress/footprint samples, reports built.

        Returns the same :class:`MultiResult` one uninterrupted
        :meth:`MultiRunner.run` over the concatenated installments would
        have produced.  The session is unusable afterwards; the owning
        runner may open a new one.
        """
        if self._finished:
            raise RuntimeError("engine session is already finished")
        self._finished = True
        self._runner._session_open = False
        events_processed = self._events_seen
        # a trailing residue dropped entirely by the same-epoch filter
        # produces no final chunk; progress must still reach the total
        progress = self._runner.progress
        if progress is not None and events_processed > self._reported:
            progress(events_processed)
            self._reported = events_processed
        self._seal(events_processed)
        return MultiResult(self.entries, events_processed)

    def _seal(self, events_processed: int) -> None:
        """Build every live entry's final report (:meth:`finish`)."""
        for entry in self.entries:
            if entry.failure is None:
                if entry.kernel is not None:
                    # settle lazily-derived metadata (StKernel CS lists)
                    # before the final footprint sample
                    entry.kernel.flush()
                entry.report = entry.analysis.finish(
                    events_processed, entry.peak)

    def close(self) -> None:
        """Abandon the session without building reports (the analyses
        keep their mid-stream state; a later session sees it)."""
        self._finished = True
        self._runner._session_open = False


class MultiRunner:
    """Drive N analyses over one iteration of an event stream.

    The engine works in *chunks*: it reads a bounded batch of events
    from the source as four columns (kind, tid, target, site — decoded
    exactly once per event, straight into int64 arrays by the numpy
    binary decoder), drops same-epoch repeats with one filter over the
    columns, and replays the kept events through each analysis' batch
    kernel or precompiled dispatch table in turn.  Chunked replay keeps
    each analysis' handler code and metadata hot in caches and costs one
    decode per event instead of one per (event, analysis) pair.  The
    source itself is still read exactly once and never rewound, so
    memory stays bounded by the chunk size plus analysis metadata.

    Every analysis owns its clocks, and each replays a chunk through one
    of two paths: its batch kernel (:meth:`Analysis.make_kernel`) or
    the per-event dispatch table (:meth:`_replay`).

    Parameters
    ----------
    analyses:
        Analysis instances (not names); construct via
        :func:`repro.core.registry.create` with a shared
        :class:`Trace`/:class:`TraceInfo`.
    sample_every:
        > 0 samples every analysis' metadata footprint at that cadence
        (same event indices as :meth:`Analysis.run`, so peaks are
        comparable across paths), recording per-analysis peaks.
    progress:
        Optional callback invoked as ``progress(events_seen)`` after each
        chunk (shared across all analyses).
    chunk_events:
        Batch size in source events; the engine's extra memory is a few
        columns of this length.
    share_hb:
        Accepted for compatibility and ignored: analyses no longer
        share clocks, so ``True`` and ``False`` give the same pass.
    use_kernels:
        None (the default) auto-selects the columnar batch kernels
        (:mod:`repro.core.kernels`) for every capable analysis when
        numpy is importable, ``REPRO_NO_NUMPY`` is unset, and footprint
        sampling is off; False forces the pure-Python replay paths.
        Reports are bit-identical either way (the fuzz sweep asserts
        this).
    max_pending_races:
        Bounded-state knob for unbounded live feeds (None = off, the
        offline default): each session trims already-delivered race
        records down to this many per analysis after every feed
        (:meth:`EngineSession.trim_delivered`), so a race-heavy tenant's
        memory stays bounded while ``dynamic_count``/``static_count`` in
        the final reports remain exact.
    window_events:
        Bounded-window mode (None = off, the offline default): at every
        multiple of N events the session ages out per-variable analysis
        metadata whose variable was last accessed more than N events ago
        (:meth:`~repro.core.base.Analysis.evict_window`), so
        per-variable state stays bounded by the variables active in the
        trailing window — the *metadata* half of serving an infinite
        feed, complementing ``max_pending_races``.  Races between
        accesses more than 2N events apart are no longer reported
        (metadata survives at least N and less than 2N events; DESIGN.md
        §11).  Chunks are clamped so no chunk crosses a window boundary,
        which makes windowed results independent of ``chunk_events`` and
        identical across the serial and sharded paths.  Windowed runs
        use the scalar replay paths (no batch kernels) and disable the
        shared same-epoch filter (a filtered repeat would not refresh
        its variable's last-access age).
    workers:
        > 1 shards the analyses across that many worker processes
        (clamped to the analysis count; DESIGN.md §6): this process
        still reads and filters the events once, and broadcasts the
        kept chunks to workers that replay their shard's analyses —
        forked copies of these instances.  Reports are bit-identical to
        the in-process pass.  A sharded runner opens exactly one
        session, because its analyses' state lives in that session's
        workers, and the session cannot be checkpointed.
    """

    def __init__(self, analyses: Sequence[Analysis], sample_every: int = 0,
                 progress: Optional[Callable[[int], None]] = None,
                 chunk_events: int = 8192, share_hb: bool = True,
                 use_kernels: Optional[bool] = None,
                 max_pending_races: Optional[int] = None,
                 window_events: Optional[int] = None, workers: int = 1):
        if not analyses:
            raise ValueError("MultiRunner needs at least one analysis")
        if window_events is not None:
            window_events = int(window_events)
            if window_events < 1:
                raise ValueError(
                    "window_events must be >= 1 (got {})".format(
                        window_events))
        self.entries = [EngineEntry(a) for a in analyses]
        self.sample_every = sample_every
        self.progress = progress
        self.chunk_events = max(chunk_events, 1)
        self.window_events = window_events
        self.max_pending_races = (None if max_pending_races is None
                                  else max(max_pending_races, 0))
        self.workers = max(1, min(int(workers), len(self.entries)))
        self._session_open = False
        self._sharded = False  # a sharded session was opened
        self._use_kernels = use_kernels
        self._kernels_attached = False
        self._kernels_on = False

    # -- batch kernel attachment -------------------------------------------
    def _kernels_allowed(self) -> bool:
        """Whether this pass may run the numpy column path: batch
        kernels and the vectorized filter.

        Sampling passes keep the scalar path: a kernel skips handler
        work per event, so per-event footprint peaks would be wrong.
        Window mode does too: kernel fast paths cache per-variable
        state that eviction would invalidate.
        """
        if (self._use_kernels is False or self.sample_every
                or self.window_events is not None):
            return False
        from repro.core import kernels

        return kernels.kernels_available()

    def _attach_kernels(self) -> None:
        """Hand each capable live analysis its batch kernel (once, before
        the first session: a kernel permanently claims its entry, whose
        fast paths then bypass the per-event handlers)."""
        if self._kernels_attached:
            return
        self._kernels_attached = True
        if not self._kernels_allowed():
            return
        for entry in self.entries:
            if entry.failure is None:
                entry.kernel = entry.analysis.make_kernel()
        self._kernels_on = any(e.kernel is not None for e in self.entries)

    # -- chunked per-analysis replay ---------------------------------------
    def _replay(self, entry: EngineEntry, indices, kinds, tids, targets,
                sites, n: int) -> None:
        """Replay one decoded chunk through one analysis' dispatch table.

        ``indices`` holds each record's global event index (records are
        not contiguous when the shared same-epoch filter dropped events);
        the islice bounds the zip to the ``n`` kept slots (the filter
        compacts list columns in place).
        """
        table = entry.analysis.dispatch_table()
        sample_every = self.sample_every
        bounded = islice(indices, n)
        if sample_every:
            analysis = entry.analysis
            peak = entry.peak
            for j, k, t, x, s in zip(bounded, kinds, tids, targets, sites):
                table[k](t, x, j, s)
                if j % sample_every == 0:
                    fp = analysis.footprint_bytes()
                    if fp > peak:
                        peak = fp
            entry.peak = peak
        else:
            for j, k, t, x, s in zip(bounded, kinds, tids, targets, sites):
                table[k](t, x, j, s)

    # -- failure localization ----------------------------------------------
    @staticmethod
    def _failure_index(exc: BaseException) -> int:
        """The event index a chunked replay failure happened at, recovered
        from the ``_replay`` frame — or a batch kernel's ordered-walk
        frame — in the traceback (the per-record loops are kept free of
        bookkeeping; the frame's ``j`` local is the index).  A failure in
        a kernel's vector phase has no per-event frame and reports -1."""
        codes = {MultiRunner._replay.__code__}
        try:
            from repro.core import kernels

            codes |= kernels.WALK_CODES
        except Exception:  # pragma: no cover - defensive
            pass
        tb = exc.__traceback__
        while tb is not None:
            if tb.tb_frame.f_code in codes:
                return tb.tb_frame.f_locals.get("j", -1)
            tb = tb.tb_next
        return -1

    # -- driving -----------------------------------------------------------
    def session(self) -> EngineSession:
        """Open an incremental session over these analyses.

        The session accepts the event stream in arbitrary installments
        (:meth:`EngineSession.feed`), reports new races per installment,
        and is sealed with :meth:`EngineSession.finish` — see
        :class:`EngineSession`.  Only one session may be open at a time
        (the analyses' mutable state is shared); :meth:`finish` (or
        :meth:`EngineSession.close`) releases the runner for the next
        one.  Batch kernels attach when the first session opens.  With
        ``workers`` > 1 the session forks the workers
        (:class:`repro.core.parallel.ShardedSession`), and it is the
        runner's only one.

        Example (drain a live source in bounded windows)::

            runner = MultiRunner([create(n, info) for n in names])
            session = runner.session()
            for name, race in session.drain(source, window=256):
                print(name, race.index)     # the moment it is found
            result = session.finish()       # identical to one run()
        """
        if self._session_open:
            raise RuntimeError(
                "another engine session over these analyses is still "
                "open; finish() or close() it first")
        if self.workers > 1:
            if self._sharded:
                raise RuntimeError(
                    "a sharded runner opens one session: its analyses' "
                    "state lived in that session's worker processes; "
                    "build a new MultiRunner")
            from repro.core.parallel import ShardedSession

            # no kernel attaches here (each worker attaches its own),
            # but the filter runs vectorized wherever they would
            self._kernels_on = self._kernels_allowed()
            session: EngineSession = ShardedSession(self)
            self._sharded = True
        else:
            self._attach_kernels()
            session = EngineSession(self)
        self._session_open = True
        return session

    @classmethod
    def restore_checkpoint(cls, fp) -> EngineSession:
        """Rebuild a runner from a checkpoint written by
        :meth:`EngineSession.save_checkpoint` and return its open
        session, positioned to :meth:`~EngineSession.feed` the event
        suffix from the checkpoint's ``events_processed`` offset
        onwards.  Thin wrapper over
        :func:`repro.checkpoint.restore_session`."""
        from repro.checkpoint import restore_session

        return restore_session(fp)

    def run(self, events: Union[Trace, Iterable[Event]]) -> MultiResult:
        """Feed one iteration of ``events`` to every analysis.

        ``events`` may be a :class:`Trace` or any iterable of events —
        including a one-shot generator; the engine never rewinds it.  An
        analysis whose handler raises is detached (its
        :class:`AnalysisFailure` records the event index); the others are
        unaffected.  Equivalent to one-installment use of
        :meth:`session`.
        """
        session = self.session()
        try:
            session.feed(events)
        except BaseException:
            # a failed *source* (not analysis) aborts the pass with no
            # reports, as it always did; release the runner for a retry
            session.close()
            raise
        return session.finish()


def run_analyses(trace: Union[Trace, TraceInfo], names: Sequence[str],
                 events: Optional[Iterable[Event]] = None,
                 sample_every: int = 0,
                 progress: Optional[Callable[[int], None]] = None) -> MultiResult:
    """Instantiate registry analyses and run them in one pass.

    ``trace`` supplies the dimensions (and, when it is a full
    :class:`Trace` and ``events`` is omitted, the event source).  Pass a
    :class:`TraceInfo` plus an ``events`` iterable for the streaming path.
    """
    if events is None:
        if not isinstance(trace, Trace):
            raise TypeError(
                "run_analyses needs an events iterable when given only "
                "trace dimensions (TraceInfo)")
        events = trace.events
    analyses = [create(name, trace) for name in names]
    runner = MultiRunner(analyses, sample_every=sample_every,
                         progress=progress)
    return runner.run(events)


def run_stream(source, names: Sequence[str], sample_every: int = 0,
               progress: Optional[Callable[[int], None]] = None,
               window_events: int = 0, workers: int = 1,
               evict_window: int = 0) -> MultiResult:
    """Analyze a trace file (or open handle) in one streaming pass.

    The trace — v1 text or v2 binary, autodetected from the leading
    bytes — is parsed lazily, so this is the bounded-memory path for
    large captures.  The file must declare its dimensions up front (the
    ``# repro trace v1`` header or the always-present v2 binary header,
    both written by :func:`repro.trace.format.dump_trace`);
    :class:`repro.trace.format.TraceFormatError` is raised otherwise.

    ``window_events`` > 0 drains the stream through an incremental
    session in bounded windows — exactly how a live ``repro serve``
    loop consumes a socket — instead of one uninterrupted feed.
    Reports are identical either way; the knob exists to measure the
    online path against the one-shot pass on the same capture.

    ``workers`` > 1 shards the analyses across that many worker
    processes (``MultiRunner(workers=...)``): this process still parses
    the file exactly once, and the reports — and ``progress`` calls —
    are identical to the in-process pass.

    ``evict_window`` > 0 turns on the engine's bounded-window mode
    (``MultiRunner(window_events=...)``): per-variable metadata older
    than that many events is aged out, trading long-range races for
    bounded state.  Distinct from ``window_events``, which only sets
    the drain granularity and never changes reports.
    """
    from repro.trace.format import stream_trace

    # everything after the open lives inside the with: a bad analysis
    # name or hostile header dimensions must not leak the descriptor
    with stream_trace(source) as stream:
        info = stream.require_info()
        runner = MultiRunner([create(name, info) for name in names],
                             sample_every=sample_every, progress=progress,
                             window_events=(evict_window if evict_window > 0
                                            else None),
                             workers=workers)
        if window_events <= 0:
            return runner.run(stream)
        session = runner.session()
        try:
            for _ in session.drain(stream, window=window_events):
                pass
        except BaseException:
            session.close()
            raise
        return session.finish()
