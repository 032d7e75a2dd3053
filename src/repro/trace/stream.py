"""Shared lifecycle for one-shot trace event streams.

Both trace formats — the v1 text format (:mod:`repro.trace.format`) and
the v2 binary format (:mod:`repro.trace.binfmt`) — expose the same
reader contract, and :class:`TraceStreamBase` is its single
implementation:

* **ownership** — constructed from a path, the stream opens and owns the
  file handle and closes it when iteration finishes (exhaustion or
  error); constructed from an open file object it does not close it,
  unless ``owns_fp=True`` is passed (the format-autodetection path in
  :func:`repro.trace.format.stream_trace` hands over wrapped handles
  this way).
* **close-on-init-failure** — header parsing happens during
  construction; if it raises (truncated binary header, undecodable
  bytes, malformed text header), an owned handle is closed before the
  exception propagates, so no file descriptor leaks.
* **one-shot iteration** — the stream can be iterated exactly once and
  is never rewound; a second ``iter()`` raises :class:`RuntimeError`.
  This is what lets the single-pass engine consume multi-gigabyte
  captures in bounded memory.
* **context-manager support** — ``with stream_trace(path) as s:`` closes
  an owned handle on scope exit even when iteration is abandoned early.
* **column reads** — :meth:`TraceStreamBase.read_columns` is the
  engine's way in: it hands out events as four parallel columns (kind,
  tid, target, site) instead of one :class:`Event` per event.  A column
  read returns as soon as it holds decoded events, so it never waits on
  the source while events are ready; an error found after some good
  events is raised by the *next* read, so those events reach the
  caller first.  Column reads and ``iter()`` are two views of the same
  one-shot stream: using one consumes the stream for the other.

Subclasses implement ``_read_header`` (called during construction; sets
``self.info`` when the source declares dimensions) plus one of two event
hooks: ``_read_block`` (a column decoder — the binary reader) or
``_events`` (a lazy :class:`Event` generator — the text reader).  The
base class derives the other view: per-event iteration over a column
decoder, or column reads over an event generator through
:class:`EventColumns`, the one Event→columns adapter.  The base class
also runs :meth:`TraceStreamBase.close` when either view ends — by
exhaustion *or* by an error — and keeps ``events_read``, so no subclass
can leak its handle or miscount by forgetting a ``finally``
(``close`` is idempotent).
"""

from __future__ import annotations

from itertools import islice
from typing import Iterator, Optional, Sequence, Tuple, Union

from repro.trace.event import Event
from repro.trace.trace import Trace, TraceInfo

#: Four parallel event columns: kinds, tids, targets, sites.  Lists of
#: ints, or int64 numpy arrays from the vectorized binary decoder.
Columns = Tuple[Sequence[int], Sequence[int], Sequence[int], Sequence[int]]

#: Events per column read behind per-event iteration of a column decoder.
_VIEW_EVENTS = 2048


class TraceFormatError(ValueError):
    """Raised on malformed trace input.

    ``lineno`` is the offending line for text traces; binary traces have
    no lines, so it stays 0 and the message carries the event index.
    """

    def __init__(self, message: str, lineno: int = 0):
        super().__init__(message)
        self.lineno = lineno


class TraceStreamBase:
    """Base of the one-shot trace readers (see the module docstring).

    Attributes
    ----------
    info:
        :class:`TraceInfo` with the declared dimensions, or ``None`` when
        the source carries none (header-less text).
    events_read:
        Events handed out so far, by iteration or by column reads.
    """

    _OPEN_MODE = "r"

    def __init__(self, source: Union[object, str],
                 owns_fp: Optional[bool] = None):
        if isinstance(source, str):
            self._fp = open(source, self._OPEN_MODE)
            self._owns_fp = True
        else:
            self._fp = source
            self._owns_fp = bool(owns_fp)
        self._consumed = ""  # "" unread, else "events" or "columns"
        self._event_columns: Optional[EventColumns] = None
        self.events_read = 0
        self.info: Optional[TraceInfo] = None
        try:
            self._read_header()
        except BaseException:
            self.close()
            raise

    # ------------------------------------------------------------------
    # Subclass hooks
    # ------------------------------------------------------------------
    def _read_header(self) -> None:
        """Consume the source's header, setting ``self.info``."""
        raise NotImplementedError

    def _events(self) -> Iterator[Event]:
        """The lazy event generator.  By default a view over
        :meth:`_read_block`; event-at-a-time readers override this
        instead.  Closing and counting are done by the base class."""
        read = self._read_block
        while True:
            kinds, tids, targets, sites = read(_VIEW_EVENTS)
            if not len(kinds):
                return
            if not isinstance(kinds, list):  # numpy columns
                kinds, tids = kinds.tolist(), tids.tolist()
                targets, sites = targets.tolist(), sites.tolist()
            yield from map(Event, tids, kinds, targets, sites)

    def _read_block(self, limit: int) -> Columns:
        """Decode up to ``limit`` (> 0) events as columns; empty columns
        mean the stream is exhausted.  By default the
        :class:`EventColumns` adapter over :meth:`_events`; column
        decoders override this instead."""
        adapter = self._event_columns
        if adapter is None:
            adapter = self._event_columns = EventColumns(self._events())
        return adapter.read_columns(limit)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release the underlying file if this stream owns it (iterating
        to exhaustion closes it automatically; this is for streams
        abandoned before or during iteration)."""
        if self._owns_fp:
            self._fp.close()

    def __enter__(self) -> "TraceStreamBase":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    def require_info(self) -> TraceInfo:
        """The declared dimensions, or TraceFormatError if there are none
        (streaming analysis needs the thread count up front).  Closes the
        stream on failure — it is unusable for analysis anyway."""
        if self.info is None:
            self.close()
            raise TraceFormatError(
                "trace has no '# repro trace v1: ...' header; streaming "
                "analysis needs the declared dimensions (re-record with "
                "dump_trace, or load the trace in full)")
        return self.info

    def _claim(self, view: str) -> None:
        """Enforce one-shot use: iteration starts once; column reads may
        repeat, each continuing the last."""
        if self._consumed == view == "columns":
            return
        if self._consumed:
            raise RuntimeError(
                "trace stream is one-shot and was already consumed; "
                "re-open the source to iterate again")
        self._consumed = view

    def __iter__(self) -> Iterator[Event]:
        self._claim("events")
        return self._guarded_events()

    def _guarded_events(self) -> Iterator[Event]:
        # Close-on-iteration-end is enforced here, once for every
        # subclass: a reader whose ``_events`` generator raises
        # mid-iteration (truncated input, undecodable bytes, a dropped
        # live connection) must not leak its underlying handle.
        try:
            for event in self._events():
                self.events_read += 1
                yield event
        finally:
            self.close()

    def read_columns(self, limit: int) -> Columns:
        """Read up to ``limit`` events as four parallel columns
        ``(kinds, tids, targets, sites)``.

        Columns are lists of ints, or int64 numpy arrays when the
        vectorized binary decoder produced them.  Fewer than ``limit``
        events come back whenever the source has no more ready: a read
        only waits on the source while it holds no decoded event.  Empty
        columns mean the stream is exhausted (and closed).  A malformed
        event is reported by the read *after* the one that returned the
        good events before it, and a source error closes the stream.
        Repeated calls continue where the last one stopped; per-event
        iteration is then no longer available (one-shot).
        """
        if limit <= 0:
            return [], [], [], []
        self._claim("columns")
        try:
            cols = self._read_block(limit)
        except BaseException:
            self.close()
            raise
        n = len(cols[0])
        if n:
            self.events_read += n
        else:
            self.close()
        return cols


class EventColumns:
    """The Event→columns adapter: column reads over any iterable of
    :class:`Event` (an in-memory list, a generator, the text reader).

    Reads pull at most ``limit`` events from the shared iterator, so a
    caller may wrap the same iterator again later without losing
    events.  When the iterator raises after yielding some events, the
    read returns those events and the error is raised by the next read.
    """

    __slots__ = ("_it", "_error")

    def __init__(self, events):
        self._it = iter(events)
        self._error: Optional[BaseException] = None

    def read_columns(self, limit: int) -> Columns:
        error = self._error
        if error is not None:
            self._error = None
            raise error
        batch: list = []
        try:
            batch.extend(islice(self._it, limit))
        except BaseException as exc:
            if not batch:
                raise
            self._error = exc
        return ([e.kind for e in batch], [e.tid for e in batch],
                [e.target for e in batch], [e.site for e in batch])


def column_source(events):
    """``events`` as an object with ``read_columns(limit)``: trace
    streams and other column sources as they are, a :class:`Trace` or
    any iterable of :class:`Event` through :class:`EventColumns`."""
    if hasattr(events, "read_columns"):
        return events
    if isinstance(events, Trace):
        events = events.events
    return EventColumns(events)
