"""Multiprocess analysis sharding: one decode, N worker processes.

The single-pass engine (:class:`repro.core.engine.MultiRunner`) made one
Python process beat sequential replay, but the GIL caps the whole
11-analysis configuration at one core.  SmartTrack-style multi-tier runs
are embarrassingly parallel across the *analysis* axis — every tier
consumes the same decoded event stream independently — so
:class:`ParallelRunner` shards the co-scheduled analysis set across
worker processes instead of sharding the event stream across them
(chunk-parallel sharding would need cross-chunk vector-clock handoff;
see DESIGN.md §6.1):

* **one decode** — the parent reads the event source exactly once
  through the serial engine's column path
  (:func:`~repro.core.engine.read_chunk` then
  :func:`~repro.core.engine.filter_chunk`: the same read, the same
  shared same-epoch filter) into five kept columns (index, kind, tid,
  target, site), exactly as a serial
  :class:`~repro.core.engine.EngineSession` would;
* **shared-memory broadcast** — each decoded chunk is copied into a
  per-worker single-producer/single-consumer ring buffer in
  :mod:`multiprocessing.shared_memory` (semaphore flow control, no
  pickling on the hot path);
* **least-loaded shards** — analyses share no state, so each is placed
  on the shard holding the fewest so far (:func:`plan_shards`);
* **private engine per worker** — each worker runs an ordinary
  :class:`~repro.core.engine.MultiRunner` session over its shard
  (entering via :meth:`~repro.core.engine.EngineSession.feed_decoded`)
  and ships ``(analysis_name, RaceRecord)`` batches plus per-analysis
  reports back over a result queue, so races stream out of
  :meth:`ParallelSession.drain` the moment a worker finds them;
* **failure isolation** — an analysis that raises inside a worker is
  detached by that worker's engine exactly as in a serial pass; a
  worker process that *dies* maps onto the same detach semantics (every
  analysis of the dead shard becomes an
  :class:`~repro.core.engine.AnalysisFailure`, the survivors keep
  their reports, and the CLI's documented partial-summary exit-2 path
  fires).  Reports are bit-identical to serial runs either way — the
  differential fuzz sweep asserts it across randomized worker counts.

Quick use::

    from repro.core.parallel import ParallelRunner
    result = ParallelRunner(["st-wdc", "fto-hb"], trace, workers=2).run(trace)
    result.report("st-wdc").dynamic_count

The CLI surface is ``repro analyze/compare/serve --workers N`` and
``measure_stream(..., workers=N)``; ``benchmarks/bench_parallel.py``
records the scaling curve.
"""

from __future__ import annotations

import os
import queue as queue_module
import signal
import threading
import traceback
from array import array
from itertools import islice
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Union

from repro.clocks.epoch import MAX_TID, TID_BITS
from repro.core.engine import (
    _EPOCH_ENDERS,
    AnalysisFailure,
    MultiResult,
    filter_chunk,
    read_chunk,
)
from repro.core.registry import ANALYSIS_NAMES, create
from repro.trace.event import Event
from repro.trace.stream import column_source
from repro.trace.trace import Trace, TraceInfo

#: Ring slots per worker: enough to pipeline parent decode against
#: worker replay without unbounded buffering.
RING_SLOTS = 4

#: Slot header words: [0] event count (-1 = end of stream), [1] the
#: parent's cumulative source-event count after this chunk.
_HEADER_WORDS = 2
_WORD = 8  # bytes per int64 slot word

#: Serializes forking workers against every parent-side interaction with
#: multiprocessing's resource tracker: shm/semaphore creation registers
#: (transport build) and shm unlink unregisters (teardown), both under
#: the tracker's process-private heap RLock.  A fork taken in thread A
#: while thread B holds that RLock hands every worker a copy that is
#: locked forever — so builds, forks, and teardowns of *different*
#: sessions must not overlap.  RLock: the construction failure path
#: tears down while the build still holds it.
_FORK_LOCK = threading.RLock()


class WorkerDied(RuntimeError):
    """A worker process exited without delivering its shard's reports."""


class RemoteAnalysisError(RuntimeError):
    """An analysis failure reconstructed from a worker process.

    The original exception may not be picklable, so workers ship its
    ``repr``; this wrapper carries it across the process boundary while
    keeping the parent-side detach semantics
    (:class:`~repro.core.engine.AnalysisFailure`) unchanged.
    """


class ShardEntry:
    """Parent-side slot for one analysis that ran in a worker process.

    Mirrors the attribute surface :class:`~repro.core.engine.MultiResult`
    reads from :class:`~repro.core.engine.EngineEntry` (``name``,
    ``report``, ``failure``), without holding an analysis instance —
    the instance lives (and dies) in the worker.
    """

    __slots__ = ("name", "report", "failure", "shard")

    def __init__(self, name: str, shard: int):
        self.name = name
        self.shard = shard
        self.report = None
        self.failure: Optional[AnalysisFailure] = None

    @property
    def ok(self) -> bool:
        return self.failure is None


def plan_shards(names: Sequence[str], workers: int) -> List[List[int]]:
    """Shard assignment: positions of ``names`` per worker.

    Policy (DESIGN.md §6.2): every analysis owns its state, so analyses
    are placed one by one onto the least-loaded shard.  ``workers`` is
    clamped to ``len(names)``, so every returned shard is non-empty.

    >>> plan_shards(["unopt-hb", "fto-hb", "st-wcp", "st-dc", "st-wdc"], 2)
    [[0, 2, 4], [1, 3]]
    """
    workers = max(1, min(workers, len(names)))
    shards: List[List[int]] = [[] for _ in range(workers)]
    for pos in range(len(names)):
        min(shards, key=len).append(pos)
    return shards


def _mp_context():
    """The start method for worker processes.

    ``fork`` is preferred: workers inherit the parent's imported modules
    (no re-import cost per run) and the transport primitives directly.
    Platforms without it (Windows) use ``spawn`` — the worker main and
    every argument it takes are top-level/picklable for exactly that
    reason.
    """
    import multiprocessing

    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn")


# ---------------------------------------------------------------------------
# shared-memory chunk ring (parent -> worker)
# ---------------------------------------------------------------------------

class _ShmRing:
    """Parent side of one worker's shared-memory chunk ring.

    A fixed number of slots in a single ``SharedMemory`` segment; each
    slot is a 2-word header plus five ``chunk_events``-long int64
    columns.  Flow control is two semaphores (classic bounded buffer):
    the parent acquires ``free``, memcpys the chunk columns in, and
    releases ``filled``; the worker does the mirror image.  Single
    producer, single consumer, so slot indices advance locally on each
    side with no shared cursor.
    """

    def __init__(self, ctx, chunk_events: int):
        from multiprocessing import shared_memory

        self.chunk_events = chunk_events
        self.slot_words = _HEADER_WORDS + 5 * chunk_events
        self.shm = shared_memory.SharedMemory(
            create=True, size=RING_SLOTS * self.slot_words * _WORD)
        self.free = ctx.Semaphore(RING_SLOTS)
        self.filled = ctx.Semaphore(0)
        self._fork = ctx.get_start_method() == "fork"
        self._words = memoryview(self.shm.buf).cast("q")
        self._slot = 0

    def worker_args(self) -> tuple:
        # Forked workers take the parent's SharedMemory object itself
        # (the mapping survives the fork), NOT the name: attaching by
        # name calls resource_tracker.register, whose heap RLock may
        # have been captured in a locked state by the fork — see
        # _FORK_LOCK and _ShmRingReader.  Spawned workers get the name;
        # a fresh process attaches safely.
        return (self.shm if self._fork else self.shm.name,
                self.chunk_events, self.free, self.filled)

    def put(self, bufs, n: int, events_seen: int, alive) -> None:
        """Publish one chunk; raises :class:`WorkerDied` if the consumer
        is gone (a full ring that never drains would block forever)."""
        while not self.free.acquire(timeout=0.2):
            if not alive():
                raise WorkerDied("worker stopped draining its chunk ring")
        words = self._words
        base = self._slot * self.slot_words
        words[base] = n
        words[base + 1] = events_seen
        off = base + _HEADER_WORDS
        for buf in bufs:
            if n > 0:
                words[off:off + n] = memoryview(buf)[:n]
            off += self.chunk_events
        self._slot = (self._slot + 1) % RING_SLOTS
        self.filled.release()

    def close(self) -> None:
        self._words.release()
        self.shm.close()
        try:
            self.shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already gone
            pass


class _ShmRingReader:
    """Worker side of the ring: attach by name, drain slots."""

    def __init__(self, shm_or_name, chunk_events: int, free, filled):
        if isinstance(shm_or_name, str):
            # Spawned worker: attach by name.  This registers with the
            # worker's (= the parent's) resource tracker — a set no-op
            # there, and the parent's single unlink retires the segment
            # cleanly; do NOT unregister here (a second unregister
            # would KeyError in the tracker when the parent unlinks).
            from multiprocessing import shared_memory

            self.shm = shared_memory.SharedMemory(name=shm_or_name)
            self._owns_shm = True
        else:
            # Forked worker: the parent's mapping came through the
            # fork.  Never attach by name here — SharedMemory.__init__
            # unconditionally calls resource_tracker.register, and the
            # tracker's heap RLock may have been forked in a locked
            # state (another parent thread mid-register/unregister),
            # deadlocking this process on a lock no thread of it owns.
            self.shm = shm_or_name
            self._owns_shm = False
        self.chunk_events = chunk_events
        self.slot_words = _HEADER_WORDS + 5 * chunk_events
        self.free = free
        self.filled = filled
        self._words = memoryview(self.shm.buf).cast("q")
        self._slot = 0

    def get(self) -> tuple:
        """The next ``(n, events_seen, columns)`` chunk (blocking).

        The five columns are copied out (``tolist``) before the slot is
        recycled, so the parent may overwrite it immediately.
        """
        self.filled.acquire()
        words = self._words
        base = self._slot * self.slot_words
        n = words[base]
        events_seen = words[base + 1]
        cols = []
        off = base + _HEADER_WORDS
        for _ in range(5):
            cols.append(words[off:off + n].tolist() if n > 0 else [])
            off += self.chunk_events
        self._slot = (self._slot + 1) % RING_SLOTS
        self.free.release()
        return n, events_seen, cols

    def close(self) -> None:
        self._words.release()
        # An inherited mapping is left alone: forked copies of the
        # parent's exported memoryviews pin its mmap (closing would
        # raise BufferError), and the worker process is about to exit
        # anyway, which releases the descriptor and the mapping.
        if self._owns_shm:
            self.shm.close()


# ---------------------------------------------------------------------------
# worker process
# ---------------------------------------------------------------------------

def _close_inherited_sockets() -> None:
    """Close every socket descriptor in this (worker) process.

    Workers communicate over pipes and shared memory only; see the
    call site in :func:`_worker_main` for why inherited sockets are
    actively harmful.  Best-effort: without ``/proc`` the scan walks a
    bounded descriptor range.
    """
    import stat as stat_module
    try:
        fds = [int(name) for name in os.listdir("/proc/self/fd")]
    except OSError:  # pragma: no cover - no /proc
        fds = list(range(3, 256))
    for fd in fds:
        try:
            if stat_module.S_ISSOCK(os.fstat(fd).st_mode):
                os.close(fd)
        except OSError:
            continue


def _worker_main(shard_id: int, names: Sequence[str], info_dims: tuple,
                 transport_args: tuple, result_q, sample_every: int,
                 chunk_events: int, window_events: Optional[int],
                 crash_after: Optional[int]) -> None:
    """One worker: a private engine session over this shard's analyses.

    Drains decoded chunks from the transport until the end-of-stream
    marker, replaying each through
    :meth:`~repro.core.engine.EngineSession.feed_decoded`, and ships
    ``("races", shard_id, [(name, RaceRecord), ...])`` batches as races
    are found, then one ``("done", shard_id, [(report, failure), ...])``
    with the shard's sealed per-analysis results (entry order = shard
    order).  A worker-level crash ships ``("fatal", shard_id,
    traceback)`` when it still can; a hard death (kill, crashed
    interpreter) is detected by the parent via the process exit code.

    ``crash_after`` is a test hook: hard-exit (``os._exit``) after that
    many chunks, simulating a worker dying mid-stream.
    """
    from repro.core.engine import MultiRunner

    # Ctrl-C is delivered to the whole foreground process group; the
    # *parent* owns shutdown (it collects partial results, reaps the
    # workers, and unlinks the shared memory), so a worker must not kill
    # itself mid-protocol — that would turn an orderly interrupt into a
    # "worker process died" failure and lose the shard's partial reports.
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except (ValueError, OSError):  # pragma: no cover - exotic start method
        pass
    # A forked worker inherits every socket the parent had open —
    # listening endpoints, accepted producer connections, anything a
    # threaded server was serving at fork time.  Holding those copies
    # is worse than useless: a peer's close only produces EOF once the
    # *last* descriptor drops, so an inherited connection can stall the
    # parent's reads until its timeout.  Workers speak only pipes and
    # shared memory; drop every inherited socket.
    _close_inherited_sockets()
    rx = None
    try:
        info = TraceInfo(*info_dims)
        runner = MultiRunner([create(name, info) for name in names],
                             sample_every=sample_every,
                             chunk_events=chunk_events,
                             window_events=window_events)
        session = runner.session()
        rx = _ShmRingReader(*transport_args)
        chunks = 0
        while True:
            n, events_seen, cols = rx.get()
            if n < 0:
                session.feed_decoded([], [], [], [], [], 0, events_seen)
                break
            races = session.feed_decoded(cols[0], cols[1], cols[2],
                                         cols[3], cols[4], n, events_seen)
            if races:
                result_q.put(("races", shard_id, races))
            chunks += 1
            if crash_after is not None and chunks >= crash_after:
                os._exit(70)
        result = session.finish()
        done = []
        for entry in result.entries:
            if entry.failure is None:
                done.append((entry.report, None))
            else:
                done.append((None, (entry.failure.event_index,
                                    repr(entry.failure.error))))
        result_q.put(("done", shard_id, done))
    except BaseException:  # noqa: BLE001 - report, then die visibly
        try:
            result_q.put(("fatal", shard_id, traceback.format_exc()))
        except Exception:  # pragma: no cover - queue already broken
            pass
    finally:
        if rx is not None:
            rx.close()


# ---------------------------------------------------------------------------
# parent
# ---------------------------------------------------------------------------

class _Shard:
    """Parent-side bookkeeping for one worker process."""

    __slots__ = ("id", "positions", "tx", "proc", "alive", "done",
                 "silent_polls")

    def __init__(self, shard_id: int, positions: List[int], tx, proc):
        self.id = shard_id
        self.positions = positions
        self.tx = tx
        self.proc = proc
        self.alive = True   # still being fed
        self.done = False   # delivered its "done"/"fatal" message
        self.silent_polls = 0


class ParallelSession:
    """An in-flight :class:`ParallelRunner` pass.

    Mirrors the serving subset of
    :class:`~repro.core.engine.EngineSession`: :meth:`drain` consumes
    the event source to exhaustion, yielding ``(analysis_name,
    RaceRecord)`` pairs the moment a worker reports them, and
    :meth:`finish` merges the per-shard reports into one
    :class:`~repro.core.engine.MultiResult`.  When the *source* raises
    mid-stream (malformed live feed, read timeout), the already-decoded
    events are flushed to the workers, their results are collected, the
    races they found are yielded, and then the error propagates — the
    session can still :meth:`finish` for the partial summary, exactly
    like the serial session.

    Ordering: each analysis' races arrive in event order (each lives in
    exactly one worker), but interleaving *across* shards follows worker
    scheduling, so cross-analysis arrival order is unspecified — unlike
    the serial session's globally index-sorted stream.  The merged
    reports are unaffected.
    """

    def __init__(self, runner: "ParallelRunner"):
        self._runner = runner
        self._finished = False
        self._collected = False
        chunk = runner.chunk_events
        #: the last chunk's kept columns, as broadcast to the rings
        self._bufs = tuple(array("q") for _ in range(5))
        # the shared same-epoch filter, run once for every worker (see
        # EngineSession): vectorized when numpy is available
        from repro.core import kernels

        self._vector = kernels.kernels_available()
        self._filter = None
        if runner._filter_on:
            self._filter = ((self._vector and kernels.make_filter(
                max(runner.info.num_threads, 1), _EPOCH_ENDERS))
                or kernels.SameEpochFilter(_EPOCH_ENDERS))
        # bounded-window mode: the workers evict; the parent only clamps
        # its broadcast chunks at window boundaries (serial == parallel)
        self._window = runner.window_events
        self._next_evict = self._window
        self._i = -1
        self.entries = [ShardEntry(name, -1) for name in runner.names]
        ctx = _mp_context()
        self._shards: List[_Shard] = []
        info = runner.info
        info_dims = (info.num_threads, info.num_locks, info.num_vars,
                     info.num_volatiles, info.num_classes, info.num_events)
        with _FORK_LOCK:
            self._results = ctx.Queue()
            try:
                for shard_id, positions in enumerate(runner.shards):
                    tx = _ShmRing(ctx, chunk)
                    proc = ctx.Process(
                        target=_worker_main,
                        args=(shard_id,
                              [runner.names[p] for p in positions],
                              info_dims, tx.worker_args(), self._results,
                              runner.sample_every, chunk,
                              runner.window_events,
                              runner._crash_after.get(shard_id)),
                        daemon=True)
                    shard = _Shard(shard_id, positions, tx, proc)
                    for p in positions:
                        self.entries[p].shard = shard_id
                    self._shards.append(shard)
                    proc.start()
            except BaseException:
                self._teardown()
                raise

    def _entries_at(self, positions: List[int]) -> List[ShardEntry]:
        return [self.entries[p] for p in positions]

    @property
    def events_processed(self) -> int:
        """Source events decoded so far (filtered accesses included)."""
        return self._i + 1

    @property
    def events_acked(self) -> int:
        """The resume-safe offset a reconnecting producer may resend
        from (mirrors :attr:`~repro.core.engine.EngineSession.events_acked`).

        For the sharded pass this is the parent's decode-and-broadcast
        count: a chunk handed to the rings is replayed by every healthy
        worker before it reads the next slot, and a worker that dies
        instead surfaces as a detached shard in the final report — so
        resending from this offset never double-applies an event to a
        shard that will still produce a report.
        """
        return self._i + 1

    # -- decode (parent side) ---------------------------------------------
    def _fill_chunk(self, source, limit: int):
        """Read up to ``limit`` source events and filter them into the
        broadcast columns — the serial engine's column path
        (:func:`~repro.core.engine.read_chunk`,
        :func:`~repro.core.engine.filter_chunk`).

        Returns ``(kept, exhausted, source_error)`` — on a source error
        the events read before it are kept (the caller flushes them to
        the workers before re-raising, mirroring the serial session).
        """
        cols, n, err, exhausted = read_chunk(source, limit)
        if not n:
            return 0, True, err
        indices, kinds, tids, targets, sites, m, _ = filter_chunk(
            cols, n, self._i + 1, self._filter, self._vector)
        self._bufs = tuple(array("q", islice(col, m)) for col in
                           (indices, kinds, tids, targets, sites))
        self._i += n
        return m, exhausted, err

    # -- worker I/O --------------------------------------------------------
    def _live_shards(self) -> List[_Shard]:
        return [s for s in self._shards if s.alive]

    def _mark_dead(self, shard: _Shard, why: str) -> None:
        shard.alive = False
        shard.done = True
        exit_code = shard.proc.exitcode
        for entry in self._entries_at(shard.positions):
            if entry.failure is None and entry.report is None:
                entry.failure = AnalysisFailure(
                    entry.name, -1,
                    WorkerDied("{} (exit code {})".format(why, exit_code)))

    def _broadcast(self, n: int) -> None:
        events_seen = self._i + 1
        for shard in self._live_shards():
            try:
                shard.tx.put(self._bufs, n, events_seen,
                             alive=shard.proc.is_alive)
            except WorkerDied:
                self._mark_dead(shard, "worker process died mid-stream")

    def _handle(self, msg, pending: List[tuple]) -> None:
        kind, shard_id, payload = msg
        shard = self._shards[shard_id]
        if kind == "races":
            pending.extend(payload)
        elif kind == "done":
            shard.done = True
            shard.alive = False
            for entry, (report, failure) in zip(
                    self._entries_at(shard.positions), payload):
                if failure is None:
                    entry.report = report
                else:
                    event_index, err_repr = failure
                    entry.failure = AnalysisFailure(
                        entry.name, event_index,
                        RemoteAnalysisError(err_repr))
        else:  # "fatal": the worker loop itself crashed
            shard.done = True
            shard.alive = False
            for entry in self._entries_at(shard.positions):
                if entry.failure is None and entry.report is None:
                    entry.failure = AnalysisFailure(
                        entry.name, -1, RemoteAnalysisError(payload))

    def _poll_results(self, pending: List[tuple]) -> None:
        """Drain every result message currently queued (non-blocking)."""
        while True:
            try:
                msg = self._results.get_nowait()
            except queue_module.Empty:
                return
            self._handle(msg, pending)

    def _collect(self, pending: List[tuple]) -> None:
        """Block until every shard delivered its results or died.

        A worker that exited without a ``done``/``fatal`` message (hard
        kill, interpreter abort) is declared dead after a short grace
        period that lets an already-queued message flush through the
        result pipe.
        """
        if self._collected:
            return
        self._collected = True
        self._broadcast(-1)  # end-of-stream marker, final event count
        while any(not s.done for s in self._shards):
            try:
                msg = self._results.get(timeout=0.2)
            except queue_module.Empty:
                for shard in self._shards:
                    if shard.done or shard.proc.is_alive():
                        continue
                    shard.silent_polls += 1
                    if shard.silent_polls >= 10:
                        self._mark_dead(
                            shard, "worker process exited without results")
                continue
            self._handle(msg, pending)

    # -- driving -----------------------------------------------------------
    def drain(self, events: Union[Trace, Iterable[Event]],
              window: int = 0, seal: bool = True) -> Iterator[tuple]:
        """Feed ``events`` to exhaustion, yielding each ``(analysis_name,
        RaceRecord)`` pair as a worker reports it.

        ``window`` caps how many events are decoded before a chunk is
        broadcast (default: the runner's ``chunk_events``); smaller
        windows surface races sooner, exactly like the serial session's
        drain window.  On a source error the decoded prefix is flushed,
        every worker's results are collected and yielded, and then the
        error propagates with the session still :meth:`finish`-able.

        ``seal=False`` keeps the workers alive past exhaustion (and past
        a source error): no end-of-stream marker is broadcast, so a
        *later* ``drain`` call may feed more events to the same pass —
        the multi-tenant server's reconnect-with-resume path.  Races a
        worker reports after the last poll of an unsealed drain surface
        in the next drain (or in :meth:`finish`'s merged reports, which
        are complete either way).
        """
        if self._finished:
            raise RuntimeError("parallel session is finished")
        source = column_source(events)
        limit = min(window, self._runner.chunk_events) if window > 0 \
            else self._runner.chunk_events
        pending: List[tuple] = []
        while True:
            step = limit
            if self._window is not None:
                # never decode across an eviction boundary (mirrors the
                # serial session's chunk clamping)
                room = self._next_evict - (self._i + 1)
                if room < step:
                    step = room
            n, exhausted, err = self._fill_chunk(source, step)
            if n:
                self._broadcast(n)
            if (self._window is not None
                    and self._i + 1 == self._next_evict):
                self._next_evict += self._window
            self._poll_results(pending)
            while pending:
                yield pending.pop(0)
            if err is not None:
                if seal:
                    self._collect(pending)
                    while pending:
                        yield pending.pop(0)
                raise err
            if exhausted:
                break
        if seal:
            self._collect(pending)
        while pending:
            yield pending.pop(0)

    def finish(self) -> MultiResult:
        """Seal the pass and merge per-shard results.

        Returns a :class:`~repro.core.engine.MultiResult` whose entries
        are ordered like the runner's analysis names; analyses of a
        shard that died carry an :class:`~repro.core.engine.AnalysisFailure`
        (so ``result.ok`` is False — the CLI's partial-summary exit-2
        path).  Reports of surviving shards are bit-identical to a
        serial run over the same events.
        """
        if self._finished:
            raise RuntimeError("parallel session is already finished")
        self._finished = True
        try:
            if not self._collected:
                # finish() without a full drain (a source error or an
                # interrupt handled by the caller): collect whatever the
                # workers have — they ignore SIGINT, so they are alive to
                # seal their shards' partial reports
                leftovers: List[tuple] = []
                self._collect(leftovers)
        finally:
            # reap processes and unlink shared memory even when the
            # collect itself is interrupted (second Ctrl-C)
            self._teardown()
            self._runner._session_open = False
        return MultiResult(self.entries, self.events_processed)

    def close(self) -> None:
        """Abandon the pass: kill workers, release transports."""
        self._finished = True
        self._teardown()
        self._runner._session_open = False

    def _teardown(self) -> None:
        for shard in self._shards:
            if shard.proc.is_alive():
                shard.proc.terminate()
        for shard in self._shards:
            if shard.proc.pid is not None:
                shard.proc.join(timeout=5)
                if shard.proc.is_alive():  # pragma: no cover - wedged
                    shard.proc.kill()
                    shard.proc.join(timeout=5)
            try:
                shard.proc.close()  # releases the sentinel fd
            except ValueError:  # pragma: no cover - still not reaped
                pass
        with _FORK_LOCK:
            # transport close unregisters/unlinks shared memory — a
            # tracker interaction that must not overlap another
            # session's fork (see _FORK_LOCK)
            for shard in self._shards:
                try:
                    shard.tx.close()
                except Exception:  # pragma: no cover - best-effort
                    pass
        self._results.close()
        self._results.cancel_join_thread()
        # Queue.close() is a producer-side no-op in this process (we only
        # ever get()); the pipe fds would otherwise live until the session
        # object is garbage-collected — too long for a server that keeps
        # sealed sessions in its registry.
        for conn in (self._results._reader, self._results._writer):
            try:
                conn.close()
            except OSError:  # pragma: no cover - already closed
                pass


class ParallelRunner:
    """Run N analyses sharded across worker processes, one decode total.

    The constructor takes analysis *names* (not instances — instances
    are created inside each worker, where they stay) plus the trace
    dimensions; :meth:`run` is the one-shot pass and :meth:`session`
    the incremental/serving one.

    >>> from repro.workloads import figure1
    >>> trace = figure1()
    >>> runner = ParallelRunner(["fto-hb", "st-wdc"], trace, workers=2)
    >>> result = runner.run(trace)
    >>> result.ok and result.report("st-wdc").dynamic_count
    1

    Parameters
    ----------
    names:
        Registry analysis names (see
        :data:`repro.core.registry.ANALYSIS_NAMES`); duplicates allowed.
    info:
        A :class:`~repro.trace.trace.Trace` or
        :class:`~repro.trace.trace.TraceInfo` carrying the dimensions.
    workers:
        Worker process count; clamped to ``len(names)`` (see
        :func:`plan_shards`).
    sample_every:
        Per-analysis footprint sampling cadence, as in
        :class:`~repro.core.engine.MultiRunner` (sampling runs inside
        the workers; it disables the parent's same-epoch filter exactly
        as it does in the serial engine).
    chunk_events:
        Decode/broadcast chunk size; also the unit of shared-memory
        slot sizing (five int64 columns of this length per slot).
    window_events:
        Bounded-window mode, as in
        :class:`~repro.core.engine.MultiRunner`: each worker session
        ages out per-variable metadata older than this many events.
        The parent clamps its broadcast chunks at window boundaries and
        disables its shared same-epoch filter, so windowed sharded
        reports are bit-identical to a windowed serial pass.
    """

    def __init__(self, names: Sequence[str], info: Union[Trace, TraceInfo],
                 workers: int = 2, sample_every: int = 0,
                 chunk_events: int = 8192,
                 window_events: Optional[int] = None,
                 _crash_after: Optional[Dict[int, int]] = None):
        self.names = list(names)
        if not self.names:
            raise ValueError("ParallelRunner needs at least one analysis")
        for name in self.names:
            if name not in ANALYSIS_NAMES:
                raise ValueError(
                    "unknown analysis {!r}; choose from {}".format(
                        name, ", ".join(ANALYSIS_NAMES)))
        self.info = TraceInfo.of(info) if isinstance(info, Trace) else info
        if self.info.num_threads > MAX_TID + 1:
            raise ValueError(
                "trace declares {} threads; packed epochs support at most "
                "{} (TID_BITS={})".format(self.info.num_threads,
                                          MAX_TID + 1, TID_BITS))
        self.workers = max(1, min(int(workers), len(self.names)))
        self.shards = plan_shards(self.names, self.workers)
        self.sample_every = sample_every
        self.chunk_events = max(chunk_events, 1)
        if window_events is not None:
            window_events = int(window_events)
            if window_events < 1:
                raise ValueError(
                    "window_events must be >= 1 (got {})".format(
                        window_events))
        self.window_events = window_events
        # The parent applies the engine's shared same-epoch filter once
        # for every worker; legal under exactly the serial conditions
        # (every analysis declares the fast-path semantics, no sampling,
        # no bounded window — filtered repeats would not refresh ages).
        probe = TraceInfo(num_threads=1)
        self._filter_on = (sample_every == 0
                           and window_events is None
                           and all(create(name, probe).SAME_EPOCH_SKIP
                                   for name in set(self.names)))
        self._crash_after = _crash_after or {}
        self._session_open = False

    def session(self) -> ParallelSession:
        """Open an incremental pass (spawns the worker processes).

        Exactly one session may be open per runner; it is released by
        :meth:`ParallelSession.finish` or
        :meth:`ParallelSession.close`.
        """
        if self._session_open:
            raise RuntimeError(
                "another parallel session over these analyses is still "
                "open; finish() or close() it first")
        self._session_open = True
        try:
            return ParallelSession(self)
        except BaseException:
            self._session_open = False
            raise

    def run(self, events: Union[Trace, Iterable[Event]]) -> MultiResult:
        """One sharded pass over ``events``; returns the merged result.

        ``events`` may be a :class:`~repro.trace.trace.Trace` or any
        iterable of events (e.g. a lazily-parsed
        :class:`~repro.trace.format.TraceStream`) — it is iterated
        exactly once, in the parent.
        """
        session = self.session()
        try:
            for _ in session.drain(events):
                pass
        except BaseException:
            session.close()
            raise
        return session.finish()


def run_parallel(source, names: Sequence[str], workers: int,
                 sample_every: int = 0,
                 window_events: int = 0,
                 evict_window: int = 0) -> MultiResult:
    """Analyze a trace file (or open handle) with sharded workers.

    The parallel counterpart of :func:`repro.core.engine.run_stream`:
    the trace — v1 text or v2 binary, autodetected — is parsed lazily
    in the parent and broadcast to ``workers`` analysis shards.  The
    file must declare its dimensions up front (both formats written by
    :func:`repro.trace.format.dump_trace` do).  ``window_events`` > 0
    caps the broadcast chunk size (the serving-loop granularity knob);
    ``evict_window`` > 0 turns on the engine's bounded-window metadata
    eviction inside every worker (see
    :class:`~repro.core.engine.MultiRunner` ``window_events``).
    """
    from repro.trace.format import stream_trace

    # everything after the open lives inside the with: a bad analysis
    # name or hostile header dimensions must not leak the descriptor
    with stream_trace(source) as stream:
        info = stream.require_info()
        runner = ParallelRunner(
            names, info, workers=workers, sample_every=sample_every,
            window_events=evict_window if evict_window > 0 else None)
        session = runner.session()
        try:
            for _ in session.drain(stream, window=window_events):
                pass
        except BaseException:
            session.close()
            raise
        return session.finish()
