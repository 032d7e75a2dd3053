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
``None`` for header-less text).  :class:`TraceStream` is a column
decoder: its column reads (what :class:`repro.core.engine.MultiRunner`
consumes) fill four int columns straight from the byte buffer, and
iterating it yields :class:`~repro.trace.event.Event` objects as a view
over the same reads.  The full :class:`~repro.trace.trace.Trace` is
never materialized, so arbitrarily large captures are analyzed in
bounded memory.  A stream is strictly one-shot: it cannot be rewound,
and a second iteration raises :class:`RuntimeError`; it supports
``with`` for deterministic cleanup when abandoned early (the shared
lifecycle and read loop live in
:class:`repro.trace.stream.TraceStreamBase`).  Lines end at ``\\n``,
``\\r\\n`` or a lone ``\\r``, as in a file read in text mode.
Malformed lines, and bytes that are not UTF-8, raise
:class:`TraceFormatError` carrying the offending line number
(``.lineno``).

The reader takes its input in blocks of complete lines, at most
16 KiB of them at a time.  A block of *clean* lines — each exactly as
:func:`format_event` writes it, ``T<digits> <op> <prefix><digits>
@<digits>`` and a ``\\n``, with at most 18 digits per number — is
checked by one compiled pattern and parsed by a few C-level passes over
the whole block (split, translate, ``int``).  Any other block (a
comment, a blank line, a ``\\r``, a three-token line, a negative or
19-digit number, odd spacing, no final line break) goes line by line
through :func:`parse_event_line`'s parser, which stays the reference:
both paths accept the same values and report the same errors at the
same lines.  The header is parsed on its own, so the first block of
events can be clean too.  The segment scan of
:mod:`repro.trace.segments` counts lines with the same rules
(:func:`_scan_lines`).

Format autodetection
--------------------

There are two on-disk formats: this text format (``# repro trace v1``
header) and the v2 binary format of :mod:`repro.trace.binfmt`
(``# repro trace v2`` magic + varint-encoded events; >2x faster to
ingest).  :func:`stream_trace` and :func:`load_trace` sniff the leading
bytes of the source and pick the right reader, which takes the sniffed
bytes as its ``prefix`` — paths, binary file objects (seekable or not),
and text file objects all work, and no caller ever passes a format
flag.  ``repro convert`` translates between the
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
import re
from typing import BinaryIO, List, Optional, TextIO, Tuple, Union

from repro.trace.event import Event, KIND_NAMES, NAME_KINDS
from repro.trace.stream import (Columns, TraceFormatError, TraceStreamBase,
                                _byte_reader)
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
    try:
        value = int(digits) if digits.isdecimal() else _ID_LIMIT
    except ValueError:  # more digits than int() converts
        value = _ID_LIMIT
    if value < _ID_LIMIT:
        return value
    raise TraceFormatError(
        "line {}: bad id {!r}".format(lineno, token), lineno)


def _parse_line(line: str, lineno: int) -> Optional[Tuple[int, int, int,
                                                          int]]:
    """Parse one line into ``(kind, tid, target, site)``; None for
    blanks/comments, TraceFormatError if bad."""
    parts = line.split()
    if not parts or parts[0][0] == "#":
        return None
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
    return kind, tid, target, site


def parse_event_line(line: str, lineno: int) -> Optional[Event]:
    """Parse one line; None for blanks/comments, TraceFormatError if bad."""
    fields = _parse_line(line, lineno)
    if fields is None:
        return None
    kind, tid, target, site = fields
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
        if not eq or not value.isdecimal():
            raise TraceFormatError(
                "line {}: bad trace-header field {!r} (expected "
                "key=count)".format(lineno, token), lineno)
        attr = _HEADER_ATTRS.get(key)
        if attr is not None:
            setattr(info, attr, int(value))
    return info


def _split_lines(text: str) -> List[str]:
    """``text`` as its lines, broken at ``\\n``, ``\\r\\n`` and a
    lone ``\\r`` like a file read in text mode."""
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    lines = text.split("\n")
    if not lines[-1]:
        del lines[-1]  # what follows the last line break
    return lines


#: Bytes of lines taken off the buffer at a time: bounds the parse's
#: temporaries (a clean block's tokens, a slow block's decoded lines).
_BLOCK_BYTES = 1 << 14

#: One line and its line break: ``\\n``, ``\\r\\n`` or a lone ``\\r``.
_LINE = re.compile(rb"[^\r\n]*(?:\r\n?|\n)?")

#: A run of clean event lines, each exactly as :func:`format_event`
#: writes it.  At most 18 digits a number keeps every value below 2**63.
_CLEAN = re.compile(
    rb"(?:T[0-9]{1,18} (?:"
    + b"|".join(re.escape(name.encode()) for name in KIND_NAMES.values())
    + rb") [" + "".join(sorted(set(_PREFIX.values()))).encode()
    + rb"][0-9]{1,18} @[0-9]{1,18}\n)*")

#: Operation name → kind, for the op tokens of a clean block.
_KIND_OF = {name.encode(): kind for kind, name in KIND_NAMES.items()}

#: Every byte but the digits and the separators: deleting them leaves a
#: clean line's three numbers (no operation name has a digit).
_NOT_NUMBERS = bytes(b for b in range(256) if b not in b"0123456789 \n")


def _lines_end(data: bytes, pos: int, eof: bool) -> int:
    """Where the next block of complete lines in ``data[pos:]`` ends:
    past the last line break in the next :data:`_BLOCK_BYTES` bytes
    when there is one.  When there is none: at end of input, the end;
    before it, past the last line break buffered.  ``pos`` or less: no
    line is complete yet.  A ``\\r`` whose next byte is out of reach
    ends no block, since it may start a ``\\r\\n``."""
    stop = min(pos + _BLOCK_BYTES, len(data))
    end = max(data.rfind(b"\n", pos, stop),
              data.rfind(b"\r", pos, stop - 1)) + 1
    if end > pos:
        return end
    if eof:
        return len(data)
    return max(data.rfind(b"\n", pos),
               data.rfind(b"\r", pos, len(data) - 1)) + 1


def _is_event_line(raw: bytes) -> bool:
    """Whether the line ``raw`` holds an event, or a malformed one, by
    :func:`_parse_line`'s rule: not blank (``str.split`` finds a token)
    and not a comment (the first token starts with ``#``).  A line that
    is not UTF-8 counts, since the reader stops there."""
    line = raw.decode("utf-8", "replace").lstrip()
    return bool(line) and line[0] != "#"


def _scan_lines(data: bytes, pos: int, want: int) -> Tuple[int, int, int]:
    """Walk the lines of ``data[pos:]``, the rest of the input, by the
    reader's rules, through its ``want``-th event line (a line neither
    blank nor a comment, see :func:`_is_event_line`) or to the end.

    Returns ``(events, lines, end)``: the event lines and the lines
    walked, and the offset just past the last.  This is the segment
    scan's line rule (:mod:`repro.trace.segments`): a clean block's
    lines are all events, so only other blocks are walked line by line.
    """
    events = lines = 0
    size = len(data)
    while pos < size and events < want:
        end = _lines_end(data, pos, True)
        if _CLEAN.fullmatch(data, pos, end):
            n = data.count(b"\n", pos, end)
            if events + n > want:  # the last line wanted ends inside
                n = want - events
                end = pos
                for _ in range(n):
                    end = data.index(b"\n", end) + 1
            events += n
            lines += n
            pos = end
            continue
        while pos < end and events < want:
            stop = _LINE.match(data, pos, end).end()
            lines += 1
            events += _is_event_line(data[pos:stop])
            pos = stop
    return events, lines, pos


class TraceStream(TraceStreamBase):
    """A one-shot column decoder over v1 trace text (the shared contract
    is :class:`repro.trace.stream.TraceStreamBase`'s).  ``info`` is the
    :class:`TraceInfo` from the header comment, or ``None`` if absent.

    The input is taken in blocks of complete lines (see the module
    docstring).  A clean block is parsed into columns at once and handed
    out ``limit`` events at a time; any other block is decoded and
    split, and a column read parses at most ``limit`` of its lines, with
    the parser :func:`parse_event_line` wraps.

    ``skipped_lines`` counts source lines that the input leaves out
    right after its header (a resumed read seeks past them), so errors
    name lines of the whole source; it is ignored without a header.
    """

    def __init__(self, source: Union[object, str],
                 owns_fp: Optional[bool] = None, prefix: bytes = b"",
                 skipped_lines: int = 0):
        self._skipped = skipped_lines
        super().__init__(source, owns_fp, prefix)

    def _read_header(self) -> None:
        #: a clean block's columns, and the first event not handed out
        self._cols: Optional[Columns] = None
        self._at = 0
        self._lines: List[str] = []  # a slow block's lines, not parsed
        self._next = 0               # first unparsed line in _lines
        self._lineno = 0             # lines parsed or taken as clean
        #: undecodable bytes right after the last line in _lines
        self._bad: Optional[TraceFormatError] = None
        # The header, when present, is the first line: parse it on its
        # own, so ``info`` is available before reading starts and the
        # first block of events can be clean.
        while True:
            end = _lines_end(self._data, self._pos, self._eof)
            if end > self._pos:
                break
            if self._eof:
                return  # empty input
            self._fill()
        end = _LINE.match(self._data, self._pos, end).end()
        try:
            line = self._data[self._pos:end].decode("utf-8")
        except UnicodeDecodeError as exc:
            raise TraceFormatError(
                "line 1: trace is not valid text ({})".format(exc), 1)
        self.info = _parse_header(line, 1)
        if self.info is not None:
            self._pos = end  # consumed as header
            self._lineno = 1 + self._skipped

    def _next_block(self) -> bool:
        """Take the next block of complete lines off the buffer: a clean
        one is parsed into ``_cols``, any other is decoded and split into
        ``_lines``.  False when no line is complete."""
        data, pos = self._data, self._pos
        end = _lines_end(data, pos, self._eof)
        if end <= pos:
            return False
        block = data[pos:end]
        self._pos = end
        if _CLEAN.fullmatch(block):
            kinds = list(map(_KIND_OF.__getitem__, block.split()[1::4]))
            numbers = list(map(int, block.translate(None, _NOT_NUMBERS)
                               .split()))
            self._cols = kinds, numbers[0::3], numbers[1::3], numbers[2::3]
            self._at = 0
            self._lineno += len(kinds)
            return True
        try:
            lines = _split_lines(block.decode("utf-8"))
        except UnicodeDecodeError as exc:
            # the lines before the bad one are whole and valid
            cut = max(block.rfind(b"\n", 0, exc.start),
                      block.rfind(b"\r", 0, exc.start)) + 1
            lines = _split_lines(block[:cut].decode("utf-8"))
            lineno = self._lineno + len(lines) + 1
            self._bad = TraceFormatError(
                "line {}: trace is not valid text ({})".format(lineno, exc),
                lineno)
        self._lines = lines
        self._next = 0
        return True

    def _decode(self, limit: int) -> Columns:
        while True:
            cols = self._cols
            if cols is not None:
                at = self._at
                end = at + limit
                if end < len(cols[0]):
                    self._at = end
                else:
                    self._cols = None
                    if not at:
                        return cols
                kinds, tids, targets, sites = cols
                return (kinds[at:end], tids[at:end], targets[at:end],
                        sites[at:end])
            lines, start = self._lines, self._next
            if start == len(lines):
                if self._bad is not None:
                    self._pending, self._bad = self._bad, None
                    return [], [], [], []
                if not self._next_block():
                    return [], [], [], []
                continue
            # at most ``limit`` lines: each holds at most one event
            batch = lines[start:start + limit]
            first = self._lineno + 1
            try:
                rows = list(map(_parse_line, batch,
                                range(first, first + len(batch))))
            except TraceFormatError as exc:
                # the lines before the bad one parse; nothing after it
                # is read
                rows = list(map(_parse_line, batch[:exc.lineno - first],
                                range(first, exc.lineno)))
                self._pending = exc
                self._lines, self._next, self._bad = [], 0, None
                self._lineno = exc.lineno
            else:
                self._next = start + len(batch)
                self._lineno = first + len(batch) - 1
            rows = list(filter(None, rows))  # drop blanks and comments
            if rows:
                kinds, tids, targets, sites = map(list, zip(*rows))
                return kinds, tids, targets, sites
            if self._pending is not None:
                return [], [], [], []


def _sniff(fp, owns_fp: bool = False, prefix: bytes = b"") -> TraceStreamBase:
    """The reader for the source ``fp``, picked from its leading bytes:
    ``prefix`` (bytes already read off it) and then what the source
    sends, read only until they match or leave the v2 magic.  Those
    bytes go to the chosen reader as its ``prefix``; an owned ``fp`` is
    closed if sniffing fails."""
    from repro.trace.binfmt import MAGIC, BinaryTraceStream

    try:
        read = _byte_reader(fp)
        while len(prefix) < len(MAGIC) and MAGIC.startswith(prefix):
            chunk = read(len(MAGIC) - len(prefix))
            if not chunk:
                break
            prefix += chunk
    except BaseException:
        if owns_fp:
            fp.close()
        raise
    reader = BinaryTraceStream if prefix.startswith(MAGIC) else TraceStream
    return reader(fp, owns_fp=owns_fp, prefix=prefix)


def stream_trace(source: Union[TextIO, BinaryIO, str]) -> TraceStreamBase:
    """Open a lazily parsed one-shot event stream over a recorded trace,
    autodetecting the format from the leading bytes.

    ``source`` is a file path (opened ``"rb"`` and owned), an open
    binary file object, or an open text file object.  A source starting
    with the v2 magic (:data:`repro.trace.binfmt.MAGIC`) gets the binary
    reader; anything else gets the text reader.  Both readers honor the
    contract documented on :class:`repro.trace.stream.TraceStreamBase`.

    Example (bounded-memory walk over a capture in either format)::

        with repro.stream_trace("recorded.trace") as stream:
            info = stream.require_info()    # header-carried dimensions
            for event in stream:            # parsed lazily, one shot
                ...
    """
    if isinstance(source, str):
        return _sniff(open(source, "rb"), owns_fp=True)
    return _sniff(source)


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
