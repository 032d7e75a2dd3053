"""Trace serialization: the v1 text format, and format autodetection.

One event per line::

    T0 acq m0
    T0 wr x3 @17
    T1 fork T2

Fields: thread, operation name (see :data:`repro.trace.event.KIND_NAMES`),
operand, optional ``@site``.  Comment lines start with ``#``; blank lines
are ignored.  Ids are written with a one-letter namespace prefix (``T``,
``m``, ``x``, ``v``, ``k``) that is stripped on parse.

The format exists so traces can be captured once and re-analyzed offline —
the same workflow the paper proposes for record & replay vindication (§4.3).

Streaming event protocol
------------------------

:func:`dump_trace` writes a header comment declaring the trace dimensions::

    # repro trace v1: threads=4 locks=8 vars=64 events=120000

(``volatiles=`` and ``classes=`` appear when nonzero; ``events=`` is a
hint, 0/absent when unknown.  Unknown ``key=count`` fields are ignored
for forward compatibility, but a header-prefixed line whose fields are
malformed raises :class:`TraceFormatError` — silently dropping declared
dimensions would surface later as a misleading "no header" error.)

:func:`stream_trace` returns a one-shot stream: its ``info`` attribute
is the :class:`~repro.trace.trace.TraceInfo` parsed from that header (or
``None`` for header-less text), and iterating it yields
:class:`~repro.trace.event.Event` objects parsed lazily — the full
:class:`~repro.trace.trace.Trace` is never materialized, so arbitrarily
large captures are analyzed in bounded memory (feed the stream to
:class:`repro.core.engine.MultiRunner`).  A stream is strictly one-shot:
it cannot be rewound, and a second iteration raises
:class:`RuntimeError`; it supports ``with`` for deterministic cleanup
when abandoned early (the shared lifecycle lives in
:class:`repro.trace.stream.TraceStreamBase`).  Malformed lines raise
:class:`TraceFormatError` carrying the offending line number
(``.lineno``).

Format autodetection
--------------------

There are two on-disk formats: this text format (``# repro trace v1``
header) and the v2 binary format of :mod:`repro.trace.binfmt`
(``# repro trace v2`` magic + varint-encoded events; >2x faster to
ingest).  :func:`stream_trace` and :func:`load_trace` sniff the leading
bytes of the source and pick the right reader — paths, binary file
objects (seekable or not), and text file objects all work, and no caller
ever passes a format flag.  ``repro convert`` translates between the
two; analysis entry points (``repro analyze --stream``, ``repro
compare``, :func:`repro.detect_races_stream`) accept either format
transparently.

:func:`load_trace` is the materializing wrapper: it drains a stream into
a :class:`~repro.trace.trace.Trace`, preferring header dimensions (so
e.g. a declared thread count survives a round trip even when some
threads logged no events).
"""

from __future__ import annotations

import io
from typing import BinaryIO, Iterator, Optional, TextIO, Union

from repro.trace.event import Event, KIND_NAMES, NAME_KINDS
from repro.trace.stream import TraceFormatError, TraceStreamBase
from repro.trace.trace import Trace, TraceInfo

__all__ = [
    "TraceFormatError",
    "TraceStream",
    "dump_trace",
    "dumps_trace",
    "format_event",
    "header_line",
    "load_trace",
    "loads_trace",
    "parse_event_line",
    "stream_trace",
]

_PREFIX = {
    "rd": "x",
    "wr": "x",
    "acq": "m",
    "rel": "m",
    "fork": "T",
    "join": "T",
    "vrd": "v",
    "vwr": "v",
    "sinit": "k",
    "sacc": "k",
}

_HEADER_PREFIX = "# repro trace v1:"

_HEADER_ATTRS = {
    "threads": "num_threads",
    "locks": "num_locks",
    "vars": "num_vars",
    "volatiles": "num_volatiles",
    "classes": "num_classes",
    "events": "num_events",
}


def format_event(event: Event) -> str:
    """One event as its text line (without the newline)."""
    name = KIND_NAMES[event.kind]
    return "T{} {} {}{} @{}".format(
        event.tid, name, _PREFIX[name], event.target, event.site)


def header_line(dims: Union[Trace, TraceInfo]) -> str:
    """The ``# repro trace v1:`` header for ``dims`` (a :class:`Trace`
    or :class:`TraceInfo`), without the newline.  ``volatiles=``,
    ``classes=`` and ``events=`` are written only when nonzero."""
    num_events = getattr(dims, "num_events", None)
    if num_events is None:
        num_events = len(dims)
    line = "{} threads={} locks={} vars={}".format(
        _HEADER_PREFIX, dims.num_threads, dims.num_locks, dims.num_vars)
    if dims.num_volatiles:
        line += " volatiles={}".format(dims.num_volatiles)
    if dims.num_classes:
        line += " classes={}".format(dims.num_classes)
    if num_events:
        line += " events={}".format(num_events)
    return line


def dumps_trace(trace: Trace) -> str:
    """Serialize ``trace`` to text."""
    out = io.StringIO()
    dump_trace(trace, out)
    return out.getvalue()


def dump_trace(trace: Trace, fp, binary: Optional[bool] = None) -> None:
    """Serialize ``trace`` to an open file.

    ``binary=True`` writes the v2 binary format (``fp`` must be a binary
    file), ``binary=False`` the v1 text format; the default ``None``
    infers from the handle: raw/buffered byte streams get binary, text
    streams (and duck-typed writers) get text.
    """
    if binary is None:
        binary = isinstance(fp, (io.RawIOBase, io.BufferedIOBase))
    if binary:
        from repro.trace.binfmt import dump_trace_binary
        dump_trace_binary(trace, fp)
        return
    fp.write(header_line(trace) + "\n")
    for e in trace.events:
        fp.write(format_event(e) + "\n")


#: Ids and sites must fit a signed 64-bit column (the engine's chunks).
_ID_LIMIT = 1 << 63


def _parse_id(token: str, lineno: int) -> int:
    digits = token.lstrip("Tmxvk")
    if digits.isdigit():
        value = int(digits)
        if value < _ID_LIMIT:
            return value
    raise TraceFormatError(
        "line {}: bad id {!r}".format(lineno, token), lineno)


def parse_event_line(line: str, lineno: int) -> Optional[Event]:
    """Parse one line; None for blanks/comments, TraceFormatError if bad."""
    line = line.strip()
    if not line or line.startswith("#"):
        return None
    parts = line.split()
    if len(parts) not in (3, 4):
        raise TraceFormatError(
            "line {}: expected 'Tn op operand [@site]'".format(lineno),
            lineno)
    tid = _parse_id(parts[0], lineno)
    kind = NAME_KINDS.get(parts[1])
    if kind is None:
        raise TraceFormatError(
            "line {}: unknown operation {!r}".format(lineno, parts[1]),
            lineno)
    target = _parse_id(parts[2], lineno)
    site = 0
    if len(parts) == 4:
        if not parts[3].startswith("@"):
            raise TraceFormatError(
                "line {}: expected '@site', got {!r}".format(
                    lineno, parts[3]), lineno)
        try:
            site = int(parts[3][1:])
            ok = -_ID_LIMIT <= site < _ID_LIMIT
        except ValueError:
            ok = False
        if not ok:
            raise TraceFormatError(
                "line {}: bad site {!r}".format(lineno, parts[3]), lineno)
    return Event(tid, kind, target, site)


def _parse_header(line: str, lineno: int) -> Optional[TraceInfo]:
    """Parse the ``# repro trace v1:`` header comment, if that's what
    ``line`` is.  Unknown ``key=count`` fields are ignored (forward
    compatibility), but malformed fields raise — a header-prefixed line
    declares dimensions, and dropping them silently turns into a
    misleading "no header" failure much later."""
    if not line.startswith(_HEADER_PREFIX):
        return None
    info = TraceInfo()
    for token in line[len(_HEADER_PREFIX):].split():
        key, eq, value = token.partition("=")
        if not eq or not value.isdigit():
            raise TraceFormatError(
                "line {}: bad trace-header field {!r} (expected "
                "key=count)".format(lineno, token), lineno)
        attr = _HEADER_ATTRS.get(key)
        if attr is not None:
            setattr(info, attr, int(value))
    return info


class TraceStream(TraceStreamBase):
    """A one-shot, lazily parsed event stream over v1 trace text.

    The lifecycle (ownership, close-on-init-failure, one-shot iteration,
    context-manager support) is shared with the binary reader — see
    :class:`repro.trace.stream.TraceStreamBase`.  ``info`` is the
    :class:`TraceInfo` from the header comment, or ``None`` if absent.
    """

    _OPEN_MODE = "r"

    def _read_header(self) -> None:
        # The header, when present, is the first line; peek at it so
        # ``info`` is available before iteration starts.
        try:
            self._pending: Optional[str] = self._fp.readline()
        except UnicodeDecodeError as exc:
            raise TraceFormatError(
                "line 1: trace is not valid text ({})".format(exc), 1)
        if self._pending:
            self.info = _parse_header(self._pending, 1)
            if self.info is not None:
                self._pending = None  # consumed as header

    def _events(self) -> Iterator[Event]:
        lineno = 0
        if self._pending is not None:
            lineno = 1
            event = parse_event_line(self._pending, lineno)
            self._pending = None
            if event is not None:
                yield event
        elif self.info is not None:
            lineno = 1  # the header line
        try:
            for line in self._fp:
                lineno += 1
                event = parse_event_line(line, lineno)
                if event is not None:
                    yield event
        except UnicodeDecodeError as exc:
            raise TraceFormatError(
                "line {}: trace is not valid text ({})".format(
                    lineno + 1, exc), lineno + 1)


class _PrefixedReader(io.RawIOBase):
    """Re-attaches sniffed magic bytes in front of an unseekable binary
    handle, so autodetection can fall back to the text reader without
    losing the bytes it peeked at.  Closing the adapter never closes the
    wrapped handle (it is not ours)."""

    def __init__(self, prefix: bytes, fp):
        self._prefix = prefix
        self._inner = fp

    def readable(self) -> bool:
        return True

    def readinto(self, b) -> int:
        if self._prefix:
            k = min(len(b), len(self._prefix))
            b[:k] = self._prefix[:k]
            self._prefix = self._prefix[k:]
            return k
        data = self._inner.read(len(b))
        if not data:
            return 0
        b[:len(data)] = data
        return len(data)


def stream_trace(source: Union[TextIO, BinaryIO, str]) -> TraceStreamBase:
    """Open a lazily parsed one-shot event stream over a recorded trace,
    autodetecting the format from the leading bytes.

    ``source`` is a file path, an open binary file object, or an open
    text file object.  A source starting with the v2 magic
    (:data:`repro.trace.binfmt.MAGIC`) gets the binary reader; anything
    else gets the text reader (text handles are taken at their word —
    binary content in a text handle fails to decode anyway).  Both
    readers honor the contract documented on
    :class:`repro.trace.stream.TraceStreamBase`.

    Example (bounded-memory walk over a capture in either format)::

        with repro.stream_trace("recorded.trace") as stream:
            info = stream.require_info()    # header-carried dimensions
            for event in stream:            # parsed lazily, one shot
                ...
    """
    from repro.trace import binfmt

    if isinstance(source, str):
        fp = open(source, "rb")
        try:
            prefix = fp.read(len(binfmt.MAGIC))
            if prefix == binfmt.MAGIC:
                return binfmt.BinaryTraceStream(fp, owns_fp=True,
                                                prefix=prefix)
            fp.seek(0)
            text = io.TextIOWrapper(fp, encoding="utf-8")
        except BaseException:
            fp.close()
            raise
        return TraceStream(text, owns_fp=True)
    probe = source.read(0)
    if isinstance(probe, str):
        return TraceStream(source)
    # Binary handle: sniff the magic without assuming seekability.
    prefix = b""
    while len(prefix) < len(binfmt.MAGIC):
        chunk = source.read(len(binfmt.MAGIC) - len(prefix))
        if not chunk:
            break
        prefix += chunk
    if prefix == binfmt.MAGIC:
        return binfmt.BinaryTraceStream(source, prefix=prefix)
    text = io.TextIOWrapper(_PrefixedReader(prefix, source),
                            encoding="utf-8")
    return TraceStream(text)


def loads_trace(text: str, validate: bool = True) -> Trace:
    """Parse trace text produced by :func:`dumps_trace`."""
    return load_trace(io.StringIO(text), validate=validate)


def load_trace(fp: Union[TextIO, str], validate: bool = True) -> Trace:
    """Parse a trace from an open file or a file path (either format;
    see :func:`stream_trace` for the autodetection rules).

    Built on :func:`stream_trace`; the header's declared dimensions are
    honored when they cover everything the events mention.
    """
    stream = stream_trace(fp)
    events = list(stream)
    info = stream.info
    derived = Trace(events, validate=validate)
    if info is None or (info.num_threads <= derived.num_threads
                        and info.num_locks <= derived.num_locks
                        and info.num_vars <= derived.num_vars
                        and info.num_volatiles <= derived.num_volatiles
                        and info.num_classes <= derived.num_classes):
        # header-less, or the header adds nothing over the events (the
        # common exact-header case): no second construction needed
        return derived
    return Trace(
        events,
        num_threads=max(info.num_threads, derived.num_threads),
        num_locks=max(info.num_locks, derived.num_locks),
        num_vars=max(info.num_vars, derived.num_vars),
        num_volatiles=max(info.num_volatiles, derived.num_volatiles),
        num_classes=max(info.num_classes, derived.num_classes),
        validate=False,  # already validated just above
    )
