"""Shared lifecycle and read loop of the one-shot trace readers.

Both trace formats — the v1 text format (:mod:`repro.trace.format`) and
the v2 binary format (:mod:`repro.trace.binfmt`) — are column decoders
over one byte buffer, and :class:`TraceStreamBase` is their contract:

* **ownership** — constructed from a path, the stream opens the file
  ``"rb"``, owns it, and closes it when reading finishes (exhaustion or
  error); constructed from an open file object it does not close it,
  unless ``owns_fp=True`` is passed (format autodetection in
  :func:`repro.trace.format.stream_trace` and the live sources of
  :mod:`repro.trace.live` hand over their handles this way).
  ``prefix`` is bytes already read off the source (sniffed by format
  detection, or left over from a session handshake): the stream's
  start.
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
  tid, target, site) instead of one :class:`Event` per event.  The
  source is read only while no complete event (or text line) is
  buffered, one read of what it has ready (``read1`` on buffered
  handles, one line at a time from text handles such as
  ``io.StringIO``); a partial event or line is carried over to the next
  read; an error found after good events is raised by the *next* read,
  so those events reach the caller first.  Column reads and ``iter()``
  are two views of the same one-shot stream: using one consumes the
  stream for the other.

Subclasses implement ``_read_header`` (called during construction; sets
``self.info`` when the source declares dimensions) and one decode hook,
``_decode(limit)``.  The base class runs the read loop and
:meth:`TraceStreamBase.close` when either view ends — by exhaustion
*or* by an error — and keeps ``events_read``, so no subclass can leak
its handle or miscount by forgetting a ``finally`` (``close`` is
idempotent).
"""

from __future__ import annotations

from itertools import islice
from typing import Iterator, Optional, Sequence, Tuple, Union

from repro.trace.event import Event
from repro.trace.trace import Trace, TraceInfo

#: Four parallel event columns: kinds, tids, targets, sites.  Lists of
#: ints, or int64 numpy arrays from the vectorized binary decoder.
Columns = Tuple[Sequence[int], Sequence[int], Sequence[int], Sequence[int]]

#: Events per column read behind per-event iteration.
_VIEW_EVENTS = 2048
#: Bytes asked of a byte source per read.
_READ_SIZE = 1 << 16


class TraceFormatError(ValueError):
    """Raised on malformed trace input.

    ``lineno`` is the offending line for text traces; binary traces have
    no lines, so it stays 0 and the message carries the event index.
    """

    def __init__(self, message: str, lineno: int = 0):
        super().__init__(message)
        self.lineno = lineno


def _byte_reader(fp):
    """``read(n)`` over ``fp`` returning bytes without waiting for more
    than the source has ready: ``read1`` where a buffered handle has it,
    the handle's own ``read`` for raw ones, and one UTF-8 encoded line
    at a time for text handles."""
    if isinstance(fp.read(0), str):
        readline = fp.readline
        return lambda n: readline().encode("utf-8", "surrogatepass")
    return getattr(fp, "read1", None) or fp.read


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

    #: Raised when the input ends inside an event (``{}``: the number
    #: of events decoded before it).
    _TRUNCATED = "trace truncated mid-event after {} events"

    def __init__(self, source: Union[object, str],
                 owns_fp: Optional[bool] = None, prefix: bytes = b""):
        if isinstance(source, str):
            self._fp = open(source, "rb")
            self._owns_fp = True
        else:
            self._fp = source
            self._owns_fp = bool(owns_fp)
        self._consumed = ""  # "" unread, else "events" or "columns"
        self.events_read = 0
        self.info: Optional[TraceInfo] = None
        self._data = bytes(prefix)  # buffered input
        self._pos = 0               # first unconsumed byte of _data
        self._eof = False
        self._decoded = 0           # events decoded so far
        #: the source's authoritative event count (0: read to the end)
        self._declared = 0
        #: an error found right after the events last decoded
        self._pending: Optional[TraceFormatError] = None
        try:
            self._read = _byte_reader(self._fp)
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

    def _decode(self, limit: int) -> Columns:
        """Decode up to ``limit`` (> 0) complete events buffered in
        ``self._data[self._pos:]`` into columns, advancing ``_pos``
        past what was consumed.  An error after the good events of this
        call goes to ``self._pending``.  At end of input (``_eof``)
        every byte left must be consumed or be an event cut short."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # The buffered-read loop
    # ------------------------------------------------------------------
    def _fill(self) -> bool:
        """One read of whatever the source has ready, appended to the
        unconsumed bytes; False (and ``_eof`` set) at end of input."""
        chunk = self._read(_READ_SIZE)
        if not chunk:
            self._eof = True
            return False
        self._data = self._data[self._pos:] + chunk
        self._pos = 0
        return True

    def _stop(self) -> None:
        """After an error: later reads find nothing."""
        self._pending = None
        self._data = b""
        self._pos = 0
        self._eof = True

    def _read_block(self, limit: int) -> Columns:
        """Up to ``limit`` events as columns; empty at the end."""
        if self._declared:
            limit = min(limit, self._declared - self._decoded)
        while limit > 0:
            error = self._pending
            if error is not None:
                self._stop()
                raise error
            cols = self._decode(limit)
            n = len(cols[0])
            if n:
                self._decoded += n
                return cols
            if self._pending is not None:
                continue
            if self._eof:
                if self._pos < len(self._data):
                    self._stop()
                    raise TraceFormatError(
                        self._TRUNCATED.format(self._decoded))
                break
            self._fill()
        return [], [], [], []

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
        """Per-event iteration: a view over column reads."""
        # Close-on-iteration-end is enforced here, once for every
        # subclass: a reader whose decoder raises mid-iteration
        # (truncated input, undecodable bytes, a dropped live
        # connection) must not leak its underlying handle.
        try:
            while True:
                kinds, tids, targets, sites = self._read_block(_VIEW_EVENTS)
                if not len(kinds):
                    return
                if not isinstance(kinds, list):  # numpy columns
                    kinds, tids = kinds.tolist(), tids.tolist()
                    targets, sites = targets.tolist(), sites.tolist()
                for event in map(Event, tids, kinds, targets, sites):
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
    """The Event→columns adapter: column reads over in-memory events
    (any iterable of :class:`Event`, such as a list or a generator).

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
