"""The v2 binary trace format: magic line + varint-encoded events.

Text parsing dominates the streaming hot path (splitting and int-ing
every line costs far more than any analysis handler), so large captures
get a compact binary encoding next to the v1 text format.  Both formats
share the :class:`~repro.trace.trace.TraceInfo` header/dimension
protocol and the one-shot reader contract of
:class:`~repro.trace.stream.TraceStreamBase`;
:func:`repro.trace.format.stream_trace` autodetects the format from the
leading bytes, so nothing downstream needs to know which one it got.

Layout::

    magic   b"# repro trace v2\\n"          (text-tool friendly: looks
                                             like a comment line)
    header  6 varints: threads, locks, vars, volatiles, classes,
            events (0 = unknown; a hint, exactly like the text header's
            ``events=`` field)
    events  3 varints each:
              kind | tid << 4     (kind is 4 bits; see repro.trace.event)
              target
              site

Varints are the standard LEB128 unsigned encoding: 7 value bits per
byte, high bit set on continuation bytes.  An event varint may be at
most 10 bytes long and must stay below 2**63 (every id fits a signed
64-bit column); anything longer or larger is malformed.  A typical
event is 3–5 bytes against ~15 for its text line.

:class:`BinaryTraceStream` decodes events straight into columns
(:meth:`~repro.trace.stream.TraceStreamBase.read_columns`): with numpy
(and ``REPRO_NO_NUMPY`` unset), a block of events at a time — varint
terminators are the bytes below ``0x80``, found with one vectorized
compare, and each value is the sum of its shifted 7-bit groups — into
int64 columns; without numpy, a pure-Python loop decodes into lists.
The two decoders accept and reject exactly the same bytes, with the
same :class:`~repro.trace.stream.TraceFormatError` messages.  Per-event
iteration is a view over the same decoder.

:class:`BinaryTraceWriter` is the streaming writer (header up front,
``write()`` per event) used by ``repro convert``;
:func:`dump_trace_binary` / :func:`dumps_trace_binary` serialize a
materialized trace.  Prefer the format-agnostic
:func:`repro.trace.format.stream_trace` /
:func:`repro.trace.format.load_trace` entry points over constructing
:class:`BinaryTraceStream` directly.
"""

from __future__ import annotations

import io
import os
from typing import BinaryIO, Optional, Union

from repro.trace.event import Event, KIND_NAMES
from repro.trace.stream import Columns, TraceFormatError, TraceStreamBase
from repro.trace.trace import Trace, TraceInfo

#: First bytes of every v2 binary trace.  Deliberately a valid v1 text
#: comment line so a text tool peeking at the file sees something sane.
MAGIC = b"# repro trace v2\n"

_NUM_KINDS = len(KIND_NAMES)
#: Header varints cap at 10 bytes (LEB128 for a 64-bit value: 9 x 7 + 1
#: bits).
_MAX_VARINT_SHIFT = 63
_READ_SIZE = 1 << 16
_FLUSH_BYTES = 1 << 16
#: Events per vectorized scan: bounds the numpy decoder's temporaries
#: (a few dozen bytes per event) whatever the caller's read limit.
_SCAN_EVENTS = 2048


def _numpy():
    """numpy, or None when it is missing or ``REPRO_NO_NUMPY`` is set
    (the knob :mod:`repro.core.kernels` honors too), which keeps the
    pure-Python decoders selectable and testable."""
    if os.environ.get("REPRO_NO_NUMPY"):
        return None
    try:
        import numpy
    except ImportError:
        return None
    return numpy


class _Oversized(Exception):
    """An event varint over 10 bytes, or of 2**63 or more."""


def _varint_tail(data: bytes, pos: int, first: int):
    """Finish an event varint whose first byte ``first`` (a continuation
    byte) was read; returns ``(value, pos)``.  IndexError when ``data``
    ends inside the varint; :class:`_Oversized` as soon as ten
    continuation bytes are seen, or when a 10-byte varint's last byte
    would put the value at 2**63 or more."""
    value = first & 0x7F
    shift = 7
    while True:
        b = data[pos]
        pos += 1
        if b < 0x80:
            if shift == 63 and b:
                raise _Oversized
            return value | (b << shift), pos
        value |= (b & 0x7F) << shift
        shift += 7
        if shift == 70:
            raise _Oversized


def _tail_oversized(data: bytes, pos: int, end: int) -> bool:
    """True when the incomplete event in ``data[pos:end]`` already shows
    an oversized varint (the rule of :func:`_varint_tail`)."""
    run = 0
    for p in range(pos, end):
        b = data[p]
        if b >= 0x80:
            run += 1
            if run == 10:
                return True
        else:
            if run == 9 and b:
                return True
            run = 0
    return False


def _append_varint(buf: bytearray, value: int) -> None:
    while value > 0x7F:
        buf.append((value & 0x7F) | 0x80)
        value >>= 7
    buf.append(value)


class BinaryTraceWriter:
    """Streaming v2 writer: header up front, one ``write()`` per event.

    ``sink`` is a path (owned and closed by :meth:`close`) or an open
    binary file object (left open).  ``dims`` is anything carrying the
    five ``num_*`` dimensions — a :class:`TraceInfo` or a full
    :class:`Trace`; the event-count hint is ``len(dims)`` (0 = unknown,
    fine for streaming conversion).  Supports ``with`` for
    flush-and-close.
    """

    def __init__(self, sink: Union[BinaryIO, str],
                 dims: Union[Trace, TraceInfo]):
        if isinstance(sink, str):
            self._fp: BinaryIO = open(sink, "wb")
            self._owns_fp = True
        else:
            self._fp = sink
            self._owns_fp = False
        self.events_written = 0
        buf = bytearray(MAGIC)
        for dim in (dims.num_threads, dims.num_locks, dims.num_vars,
                    dims.num_volatiles, dims.num_classes, len(dims)):
            _append_varint(buf, dim)
        self._buf = buf

    def write(self, event: Event) -> None:
        buf = self._buf
        _append_varint(buf, event.kind | (event.tid << 4))
        _append_varint(buf, event.target)
        _append_varint(buf, event.site)
        self.events_written += 1
        if len(buf) >= _FLUSH_BYTES:
            self.flush()

    def flush(self) -> None:
        if self._buf:
            self._fp.write(self._buf)
            self._buf = bytearray()

    def close(self) -> None:
        """Flush buffered bytes; close the file if this writer owns it."""
        self.flush()
        if self._owns_fp:
            self._fp.close()

    def __enter__(self) -> "BinaryTraceWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False


def dump_trace_binary(trace: Trace, fp: BinaryIO) -> None:
    """Serialize ``trace`` to an open binary file in the v2 format."""
    writer = BinaryTraceWriter(fp, trace)
    for event in trace.events:
        writer.write(event)
    writer.flush()


def dumps_trace_binary(trace: Trace) -> bytes:
    """Serialize ``trace`` to v2 bytes."""
    out = io.BytesIO()
    dump_trace_binary(trace, out)
    return out.getvalue()


class BinaryTraceStream(TraceStreamBase):
    """One-shot lazily decoded event stream over a v2 binary trace.

    Same contract as the text :class:`~repro.trace.format.TraceStream`
    (one-shot, ownership, context manager, column reads — see
    :class:`~repro.trace.stream.TraceStreamBase`), except that ``info``
    is always present: the binary header is mandatory, so
    :meth:`require_info` never fails.

    The header's event count, when nonzero, is authoritative: decoding
    stops there without another read (a live producer need not close
    its end), and bytes past it are ignored.  A read of the source only
    happens when no complete event is buffered; a trailing partial
    event is carried over to the next read.

    ``prefix`` is for the autodetection path: bytes already read off an
    unseekable handle while sniffing the magic, logically still the
    start of the stream.
    """

    _OPEN_MODE = "rb"

    def __init__(self, source: Union[BinaryIO, str],
                 owns_fp: Optional[bool] = None, prefix: bytes = b""):
        self._prefix = prefix
        super().__init__(source, owns_fp)

    def _read_header(self) -> None:
        # Parse incrementally, never requesting bytes beyond the header
        # itself: live sources (sockets, FIFOs) deliver the header the
        # moment the producer wrote it, and an over-sized probe would
        # stall a short live feed waiting for event bytes that may be
        # minutes away.  A one-byte-at-a-time tail costs nothing here
        # (the header is parsed once; events use the buffered fast path).
        data = self._prefix
        self._prefix = b""
        read = self._fp.read

        def ensure(k: int) -> bool:
            """Grow ``data`` to >= k bytes; False at end of input."""
            nonlocal data
            while len(data) < k:
                chunk = read(k - len(data))
                if not chunk:
                    return False
                data += chunk
            return True

        if not ensure(len(MAGIC)) or data[:len(MAGIC)] != MAGIC:
            raise TraceFormatError(
                "not a v2 binary trace: bad or truncated magic "
                "(expected {!r})".format(MAGIC))
        pos = len(MAGIC)
        dims = []
        for name in ("threads", "locks", "vars", "volatiles", "classes",
                     "events"):
            value = 0
            shift = 0
            while True:
                if pos >= len(data) and not ensure(pos + 1):
                    raise TraceFormatError(
                        "binary trace truncated in header "
                        "({} field)".format(name))
                b = data[pos]
                pos += 1
                if b < 0x80:
                    value |= b << shift
                    break
                value |= (b & 0x7F) << shift
                shift += 7
                if shift > _MAX_VARINT_SHIFT:
                    # endless continuation bits: reject instead of
                    # accumulating an unbounded int from a live feed
                    raise TraceFormatError(
                        "oversized varint in header ({} field)".format(
                            name))
            dims.append(value)
        self.info = TraceInfo(*dims)
        self._data = bytes(data)  # buffered input
        self._pos = pos           # first undecoded byte of _data
        self._count = 0           # events decoded
        self._eof = False
        #: a malformed event found right after the events last returned
        self._pending: Optional[TraceFormatError] = None
        np = _numpy()
        self._np = np
        self._decode = self._decode_py if np is None else self._decode_np
        self._bpe = 4.0  # bytes per event, sizes the vectorized scans

    def _read_block(self, limit: int) -> Columns:
        declared = self.info.num_events
        if declared:
            limit = min(limit, declared - self._count)
        while limit > 0:
            error = self._pending
            if error is not None:
                self._stop()
                raise error
            cols = self._decode(limit)
            n = len(cols[0])
            if n:
                self._count += n
                return cols
            if self._pending is not None:
                continue
            if self._eof:
                if self._pos < len(self._data):
                    self._stop()
                    raise TraceFormatError(
                        "binary trace truncated mid-event after {} "
                        "events".format(self._count))
                break
            # no complete event buffered: one read of whatever is
            # available (live sources return partial data), keeping the
            # partial event's bytes
            chunk = self._fp.read(_READ_SIZE)
            if chunk:
                self._data = self._data[self._pos:] + chunk
                self._pos = 0
            else:
                self._eof = True
        return [], [], [], []

    def _stop(self) -> None:
        """After an error: later reads find nothing."""
        self._pending = None
        self._data = b""
        self._pos = 0
        self._eof = True

    def _oversized(self, n: int) -> TraceFormatError:
        return TraceFormatError(
            "oversized varint at event {}".format(self._count + n))

    def _bad_kind(self, kind: int, n: int) -> TraceFormatError:
        return TraceFormatError("bad event kind {} at event {}".format(
            kind, self._count + n))

    def _decode_py(self, limit: int) -> Columns:
        """Decode up to ``limit`` buffered complete events into lists."""
        data = self._data
        pos = self._pos
        kinds: list = []
        tids: list = []
        targets: list = []
        sites: list = []
        n = 0
        while n < limit:
            start = pos
            try:
                b = data[pos]
                pos += 1
                if b < 0x80:
                    head = b
                else:
                    head, pos = _varint_tail(data, pos, b)
                b = data[pos]
                pos += 1
                if b < 0x80:
                    target = b
                else:
                    target, pos = _varint_tail(data, pos, b)
                b = data[pos]
                pos += 1
                if b < 0x80:
                    site = b
                else:
                    site, pos = _varint_tail(data, pos, b)
            except IndexError:  # a partial event (or none) is left
                pos = start
                break
            except _Oversized:
                pos = start
                self._pending = self._oversized(n)
                break
            kind = head & 0xF
            if kind >= _NUM_KINDS:
                pos = start
                self._pending = self._bad_kind(kind, n)
                break
            kinds.append(kind)
            tids.append(head >> 4)
            targets.append(target)
            sites.append(site)
            n += 1
        self._pos = pos
        return kinds, tids, targets, sites

    def _decode_np(self, limit: int) -> Columns:
        """Decode up to ``limit`` buffered complete events into int64
        columns, :data:`_SCAN_EVENTS` events per vectorized scan."""
        np = self._np
        data = self._data
        pos = self._pos
        end = len(data)
        cap = min(limit, (end - pos) // 3)
        if cap <= 0:  # under 3 bytes: no event, and nothing oversized
            return [], [], [], []
        out = np.empty((4, cap), np.int64)
        got = 0
        while got < cap and self._pending is None:
            want = min(cap - got, _SCAN_EVENTS)
            span = min(end - pos, int(want * self._bpe) + 64)
            win = np.frombuffer(data, np.uint8, span, pos)
            term = np.flatnonzero(win < 0x80)
            m = min(len(term) // 3, want)
            if not m:
                # at most a partial event left in the window; a window
                # short of the buffer's end always holds a complete
                # event unless a varint in it is oversized
                if _tail_oversized(data, pos, pos + span):
                    self._pending = self._oversized(got)
                break
            term = term[:3 * m]
            starts = np.empty(3 * m, np.int64)
            starts[0] = 0
            starts[1:] = term[:-1] + 1
            more = term - starts  # continuation bytes per varint
            heads = win[starts[::3]]
            bad = (more >= 10) | ((more == 9) & (win[term] != 0))
            badk = (heads & 0xF) >= _NUM_KINDS
            if bad.any() or badk.any():
                # deliver the events before the first malformed one; a
                # bad varint anywhere in an event outranks its kind
                over = int(np.argmax(bad)) // 3 if bad.any() else m
                kind = int(np.argmax(badk)) if badk.any() else m
                if over <= kind:
                    self._pending = self._oversized(got + over)
                    m = over
                else:
                    self._pending = self._bad_kind(
                        int(heads[kind]) & 0xF, got + kind)
                    m = kind
                if not m:
                    break
                term = term[:3 * m]
                starts = starts[:3 * m]
                more = more[:3 * m]
            vals = (win[starts] & 0x7F).astype(np.int64)
            # a 10th byte is 0 here (anything else was rejected above)
            for k in range(1, min(int(more.max()), 8) + 1):
                sel = np.flatnonzero(more >= k)
                vals[sel] |= (win[starts[sel] + k] & 0x7F).astype(
                    np.int64) << (7 * k)
            heads = vals[::3]
            hi = got + m
            np.bitwise_and(heads, 0xF, out=out[0, got:hi])
            np.right_shift(heads, 4, out=out[1, got:hi])
            out[2, got:hi] = vals[1::3]
            out[3, got:hi] = vals[2::3]
            used = int(term[-1]) + 1
            self._bpe = used / m
            pos += used
            got = hi
        self._pos = pos
        if not got:
            return [], [], [], []
        return out[0, :got], out[1, :got], out[2, :got], out[3, :got]
