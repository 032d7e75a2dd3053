"""Multiprocess analysis sharding: one decode, N worker processes.

The single-pass engine (:class:`repro.core.engine.MultiRunner`) made one
Python process beat sequential replay, but the GIL caps the whole
11-analysis configuration at one core.  SmartTrack-style multi-tier runs
are embarrassingly parallel across the *analysis* axis — every tier
consumes the same decoded event stream independently — so
``MultiRunner(..., workers=N)`` shards the co-scheduled analysis set
across worker processes instead of sharding the event stream across them
(chunk-parallel sharding would need cross-chunk vector-clock handoff;
see DESIGN.md §6.1).  Its session is a :class:`ShardedSession`, an
:class:`~repro.core.engine.EngineSession` that keeps the engine's own
feed loop and changes only where kept chunks go:

* **one decode** — the parent reads and same-epoch-filters the event
  source exactly once, through the ordinary session's column path, into
  five kept columns (index, kind, tid, target, site);
* **shared-memory broadcast** — each kept chunk is copied into a
  per-worker single-producer/single-consumer ring buffer in
  :mod:`multiprocessing.shared_memory` (semaphore flow control, no
  pickling on the hot path);
* **least-loaded shards** — analyses share no state, so each is placed
  on the shard holding the fewest so far (:func:`plan_shards`);
* **private engine per worker** — each worker is forked with the
  runner's own analysis instances, runs an ordinary in-process session
  over its shard (entering via
  :meth:`~repro.core.engine.EngineSession.feed_decoded`) and ships race
  records plus final reports back over a result queue; the parent files
  the races under its own entries, so ``pending_races``, ``snapshot``
  and ``trim_delivered`` work unchanged;
* **failure isolation** — an analysis that raises inside a worker is
  detached by that worker's engine exactly as in a serial pass; a
  worker process that *dies* maps onto the same detach semantics (every
  analysis of the dead shard becomes an
  :class:`~repro.core.engine.AnalysisFailure`, the survivors keep
  their reports, and the CLI's documented partial-summary exit-2 path
  fires).  Reports are bit-identical to serial runs either way — the
  differential fuzz sweep asserts it across randomized worker counts.

Quick use::

    from repro.core.engine import MultiRunner
    from repro.core.registry import create
    runner = MultiRunner([create(n, trace) for n in ("st-wdc", "fto-hb")],
                         workers=2)
    runner.run(trace).report("st-wdc").dynamic_count

The CLI surface is ``repro analyze/compare/serve --workers N`` and
``run_stream(..., workers=N)``; ``benchmarks/bench_parallel.py`` records
the scaling curve.
"""

from __future__ import annotations

import os
import queue as queue_module
import signal
import threading
import traceback
from array import array
from itertools import islice
from typing import Dict, List, Optional, Sequence

from repro.core.engine import AnalysisFailure, EngineSession

#: Ring slots per worker: enough to pipeline parent decode against
#: worker replay without unbounded buffering.
RING_SLOTS = 4

#: Slot header words: [0] event count (or a negative marker below), [1]
#: the parent's cumulative source-event count after this chunk.
_HEADER_WORDS = 2
_WORD = 8  # bytes per int64 slot word

#: Slot markers: end of stream (the worker seals its shard) and the
#: drain-end barrier (the worker answers once every earlier chunk's
#: races are on the result queue).
_END = -1
_BARRIER = -2

#: Test hook: shard id -> chunk count after which that worker hard-exits
#: (``os._exit``), simulating a worker dying mid-stream.
_crash_after: Dict[int, int] = {}

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
    (no re-import cost per run), the transport primitives and the
    analysis instances directly.  Platforms without it (Windows) use
    ``spawn`` — the worker main is top-level and its arguments pickle
    (analyses through their checkpoint contract) for exactly that
    reason; a locally defined analysis class then cannot shard.
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


def _worker_main(shard_id: int, positions: Sequence[int], analyses,
                 config: tuple, transport_args: tuple, result_q,
                 crash_after: Optional[int]) -> None:
    """One worker: a private engine session over this shard's analyses.

    ``analyses`` are the runner's own instances (forked copies; pickled
    ones under ``spawn``) at the runner's ``positions``; ``config`` is
    ``(sample_every, chunk_events, window_events, use_kernels,
    max_pending_races)``.  Drains decoded chunks from the transport
    until the end-of-stream marker, replaying each through
    :meth:`~repro.core.engine.EngineSession.feed_decoded`, and ships
    ``("races", shard_id, [(position, RaceRecord), ...])`` batches as
    races are found, ``("sync", shard_id, None)`` at each barrier, then
    one ``("done", shard_id, [(report, failure), ...])`` with the
    shard's sealed per-analysis results (entry order = shard order).  A
    worker-level crash ships ``("fatal", shard_id, traceback)`` when it
    still can; a hard death (kill, crashed interpreter) is detected by
    the parent via the process exit code.

    ``crash_after`` is a test hook (see :data:`_crash_after`): hard-exit
    (``os._exit``) after that many chunks.
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
        sample_every, chunk_events, window_events, use_kernels, \
            max_pending = config
        runner = MultiRunner(analyses, sample_every=sample_every,
                             chunk_events=chunk_events,
                             use_kernels=use_kernels,
                             window_events=window_events)
        session = runner.session()
        entries = session.entries
        rx = _ShmRingReader(*transport_args)
        chunks = 0
        while True:
            n, events_seen, cols = rx.get()
            if n == _BARRIER:
                result_q.put(("sync", shard_id, None))
                continue
            if n < 0:
                session.feed_decoded([], [], [], [], [], 0, events_seen)
                break
            # delivered records are trimmed below, so each list's
            # length is where this chunk's races start
            before = [len(e.analysis.races) for e in entries]
            if session.feed_decoded(cols[0], cols[1], cols[2], cols[3],
                                    cols[4], n, events_seen):
                result_q.put(("races", shard_id, [
                    (positions[k], race)
                    for k, entry in enumerate(entries)
                    for race in entry.analysis.races[before[k]:]]))
                if max_pending is not None:
                    session.trim_delivered(max_pending)
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

    __slots__ = ("id", "positions", "tx", "proc", "alive", "pending",
                 "silent_polls")

    def __init__(self, shard_id: int, positions: List[int], tx, proc):
        self.id = shard_id
        self.positions = positions
        self.tx = tx
        self.proc = proc
        self.alive = True  # still being fed
        #: markers sent but not answered yet (an interrupted wait can
        #: leave one outstanding for the next)
        self.pending = 0
        self.silent_polls = 0


class ShardedSession(EngineSession):
    """The session of a ``MultiRunner(..., workers=N)`` pass.

    It keeps the base session's loop — :meth:`feed`/:meth:`drain` read,
    filter and window-clamp each chunk, a source error still replays the
    decoded prefix first, and :attr:`events_acked` counts what was
    handed on — and overrides only where chunks and races go:

    * a kept chunk is broadcast to every live worker's ring instead of
      replayed here (this process's analyses never run: forked copies
      of them do, one shard per worker);
    * delivery first files the races the workers reported so far under
      this process's entries, so :meth:`pending_races`,
      :meth:`snapshot` and :meth:`trim_delivered` work unchanged;
    * each :meth:`drain` ends at a barrier: every worker confirms it
      replayed every chunk and reported its races, so a drain that
      returns or raises has yielded every race of the events it
      consumed — and the workers live on for the next drain (the
      server's reconnect-with-resume path);
    * :meth:`finish` collects the workers' sealed reports, :meth:`close`
      kills them; both reap the processes and unlink the shared memory.

    Ordering: each analysis' races arrive in event order (each lives in
    exactly one worker), but interleaving *across* shards follows worker
    scheduling.  The final reports are unaffected.
    """

    def __init__(self, runner):
        super().__init__(runner)
        self._live = []  # no analysis replays in this process
        self._torn_down = False
        self._shards: List[_Shard] = []
        chunk = runner.chunk_events
        config = (runner.sample_every, chunk, runner.window_events,
                  runner._use_kernels, runner.max_pending_races)
        entries = self.entries
        ctx = _mp_context()
        with _FORK_LOCK:
            self._results = ctx.Queue()
            try:
                for shard_id, positions in enumerate(plan_shards(
                        [e.name for e in entries], runner.workers)):
                    tx = _ShmRing(ctx, chunk)
                    proc = ctx.Process(
                        target=_worker_main,
                        args=(shard_id, positions,
                              [entries[p].analysis for p in positions],
                              config, tx.worker_args(), self._results,
                              _crash_after.get(shard_id)),
                        daemon=True)
                    self._shards.append(_Shard(shard_id, positions, tx,
                                               proc))
                    proc.start()
            except BaseException:
                self._teardown()
                raise

    # -- worker I/O --------------------------------------------------------
    def _put(self, shard: _Shard, bufs, n: int) -> None:
        try:
            shard.tx.put(bufs, n, self._events_seen,
                         alive=shard.proc.is_alive)
        except WorkerDied:
            self._mark_dead(shard, "worker process died mid-stream")

    def _mark_dead(self, shard: _Shard, why: str) -> None:
        shard.alive = False
        shard.pending = 0
        for p in shard.positions:
            entry = self.entries[p]
            if entry.failure is None and entry.report is None:
                entry.failure = AnalysisFailure(
                    entry.name, -1, WorkerDied("{} (exit code {})".format(
                        why, shard.proc.exitcode)))

    def _handle(self, msg) -> None:
        kind, shard_id, payload = msg
        shard = self._shards[shard_id]
        entries = self.entries
        if kind == "races":
            for p, race in payload:
                entries[p].analysis.races.append(race)
        elif kind == "sync":
            # a shard already marked dead may still have answers in
            # flight; they settle nothing
            shard.pending = max(shard.pending - 1, 0)
        elif kind == "done":
            shard.alive = False
            shard.pending = 0
            for p, (report, failure) in zip(shard.positions, payload):
                entry = entries[p]
                if failure is None:
                    entry.report = report
                else:
                    event_index, err_repr = failure
                    entry.failure = AnalysisFailure(
                        entry.name, event_index,
                        RemoteAnalysisError(err_repr))
        else:  # "fatal": the worker loop itself crashed
            shard.alive = False
            shard.pending = 0
            for p in shard.positions:
                entry = entries[p]
                if entry.failure is None and entry.report is None:
                    entry.failure = AnalysisFailure(
                        entry.name, -1, RemoteAnalysisError(payload))

    def _sync(self, marker: int) -> None:
        """Send ``marker`` down every live worker's ring and block until
        each of them answered — ``sync`` for :data:`_BARRIER`, its
        sealed reports for :data:`_END` — or died.

        A worker that exited without answering (hard kill, interpreter
        abort) is declared dead after a short grace period that lets an
        already-queued message flush through the result pipe.
        """
        for shard in self._shards:
            if shard.alive:
                self._put(shard, (), marker)
                if shard.alive:
                    shard.pending += 1
        while any(shard.pending for shard in self._shards):
            try:
                msg = self._results.get(timeout=0.2)
            except queue_module.Empty:
                for shard in self._shards:
                    if not shard.pending or shard.proc.is_alive():
                        continue
                    shard.silent_polls += 1
                    if shard.silent_polls >= 10:
                        self._mark_dead(
                            shard, "worker process exited without results")
                continue
            self._handle(msg)

    # -- the overridden session steps --------------------------------------
    def _replay_chunk(self, indices, kinds, tids, targets, sites, m: int,
                      arrays=None) -> None:
        """Broadcast the ``m`` kept events to every live worker."""
        bufs = tuple(array("q", islice(col, m)) for col in
                     (indices, kinds, tids, targets, sites))
        for shard in self._shards:
            if shard.alive:
                self._put(shard, bufs, m)

    def _deliver(self) -> List[tuple]:
        """File every race the workers reported so far, then deliver
        (and trim) as the base session does."""
        while True:
            try:
                msg = self._results.get_nowait()
            except queue_module.Empty:
                break
            self._handle(msg)
        return super()._deliver()

    def _barrier(self) -> List[tuple]:
        self._sync(_BARRIER)
        return self._deliver()

    def _seal(self, events_processed: int) -> None:
        """Collect the workers' sealed reports into the entries; the
        analyses of a shard that died carry an
        :class:`~repro.core.engine.AnalysisFailure` instead."""
        try:
            # workers ignore SIGINT, so after an interrupted feed they
            # are alive to seal their shards' partial reports
            self._sync(_END)
        finally:
            # reap processes and unlink shared memory even when the
            # collect itself is interrupted (second Ctrl-C)
            self._teardown()

    def close(self) -> None:
        """Abandon the pass: kill workers, release transports."""
        super().close()
        self._teardown()

    def _teardown(self) -> None:
        if self._torn_down:
            return
        self._torn_down = True
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
