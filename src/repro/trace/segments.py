"""Trace segment hashing and staleness detection.

Checkpointed re-analysis (:mod:`repro.checkpoint`) needs to answer one
question cheaply: *how much of this trace is the trace I analyzed last
time?*  The answer decides where replay restarts — from event 0, from a
mid-trace checkpoint, or (for a byte-identical trace) not at all.

The mechanism is content hashing in fixed *event-count* segments:

* the trace body is split at event boundaries every
  :data:`SEGMENT_EVENTS` events, and each full segment's **raw bytes**
  are hashed — no re-encoding, so segmenting a capture costs one
  sequential read plus a boundary scan, orders of magnitude cheaper
  than parsing it;
* the dimension header is **excluded** from segment hashes: both
  formats embed the event count in their header (``events=`` in v1
  text, the sixth varint in v2 binary), so a pure append rewrites the
  header while leaving every existing event byte untouched — hashing
  the header would invalidate everything on every append;
* a whole-file digest (header included) is kept alongside for the
  exact-match fast path: byte-identical trace ⇒ warm cache hit.

Segment boundaries are found without parsing: the text scanner counts
event lines (non-blank, non-comment) with the reader's own line-break
and blank-line rules, and records each boundary's line count so a
suffix read names lines as a whole-file read does; the binary scanner
counts LEB128 varint terminators (a byte with the high bit clear ends a
varint; every third terminator ends an event) — vectorized with numpy
when available, with a pure-Python fallback.  The binary scan honors the
header's declared event count exactly like the reader does: trailing
bytes past the declared count never shift boundaries.

Digests are format-specific by construction (the same events encode to
different bytes in v1 and v2); the result cache keys on the format, so
this never causes a false match — only a cold run after a conversion.

Staleness rules (:func:`match_events`):

* **append** — every old full segment still matches; replay resumes
  from the nearest checkpoint at or before the old trace's last full
  segment boundary;
* **mid-file rewrite** — segments before the edit match, the edited
  segment and everything after it do not (later boundaries shift with
  any length change, which is exactly the conservative behavior
  wanted);
* **truncation** — the surviving full-segment prefix matches;
* **dimension change** — nothing matches (analysis state is sized by
  the dimensions, so no checkpoint is reusable).
"""

from __future__ import annotations

import hashlib
from typing import List, Tuple, Union

from repro.trace.binfmt import MAGIC, _header_fields, _numpy
from repro.trace.stream import TraceFormatError

__all__ = [
    "SEGMENT_EVENTS",
    "TraceSegments",
    "match_events",
    "segment_trace",
]

#: Events per hash segment.  Checkpoints are placed at multiples of this,
#: so it bounds both the replayed-suffix granularity and (together with
#: the checkpoint cap in :mod:`repro.checkpoint.cache`) checkpoint count.
SEGMENT_EVENTS = 4096


class TraceSegments:
    """The segment-hash summary of one trace file.

    ``dims`` is the five-tuple (threads, locks, vars, volatiles,
    classes) — deliberately *without* the event count, which changes on
    append.  ``digests`` holds one hex digest per **full** segment (the
    trailing partial segment is covered only by ``trace_digest``; a
    partial segment can never byte-match a segment of a grown trace, so
    hashing it separately would buy nothing).

    ``boundaries`` holds each full segment's end offset in bytes,
    **relative to the end of the header** — relative, because the
    header's own length changes when the embedded event count grows a
    digit (text) or a varint byte (binary), while matching segments are
    byte-identical by definition and so sit at identical body-relative
    offsets in both files.  ``header_end`` is this file's header length,
    so ``header_end + boundaries[k-1]`` is the absolute seek offset of
    the ``k * segment_events``-event boundary — how the result cache
    starts a suffix replay without parsing the prefix.

    ``boundary_lines`` (text only) holds the lines after the header up
    to each full segment's end, so a suffix read from a boundary names
    its lines as the whole file does.  It describes the scanned file
    alone and is not kept in sidecars (:meth:`to_doc`): matching needs
    only the digests, and a suffix is always read after a fresh scan.
    """

    __slots__ = ("fmt", "segment_events", "total_events", "dims",
                 "digests", "trace_digest", "header_end", "boundaries",
                 "boundary_lines")

    def __init__(self, fmt: str, segment_events: int, total_events: int,
                 dims: Tuple[int, int, int, int, int],
                 digests: Tuple[str, ...], trace_digest: str,
                 header_end: int = 0, boundaries: Tuple[int, ...] = (),
                 boundary_lines: Tuple[int, ...] = ()):
        self.fmt = fmt
        self.segment_events = segment_events
        self.total_events = total_events
        self.dims = tuple(dims)
        self.digests = tuple(digests)
        self.trace_digest = trace_digest
        self.header_end = header_end
        self.boundaries = tuple(boundaries)
        self.boundary_lines = tuple(boundary_lines)

    def match_events(self, other: "TraceSegments") -> int:
        """Events of ``other`` proven identical to this trace's prefix
        (see :func:`match_events`)."""
        return match_events(self, other)

    # -- JSON round trip (checkpoint sidecars) ---------------------------
    def to_doc(self) -> dict:
        return {
            "format": self.fmt,
            "segment_events": self.segment_events,
            "total_events": self.total_events,
            "dims": list(self.dims),
            "digests": list(self.digests),
            "trace_digest": self.trace_digest,
            "header_end": self.header_end,
            "boundaries": list(self.boundaries),
        }

    @classmethod
    def from_doc(cls, doc: dict) -> "TraceSegments":
        return cls(doc["format"], doc["segment_events"],
                   doc["total_events"], tuple(doc["dims"]),
                   tuple(doc["digests"]), doc["trace_digest"],
                   doc.get("header_end", 0),
                   tuple(doc.get("boundaries", ())))

    def __repr__(self) -> str:
        return "TraceSegments({}, {} events, {} full segments)".format(
            self.fmt, self.total_events, len(self.digests))


def match_events(old: TraceSegments, new: TraceSegments) -> int:
    """How many leading events of ``new`` are byte-identical to ``old``.

    Returns a multiple of the segment size (the provable granularity) —
    or the full event count when the traces are byte-identical.  Zero
    when the formats, segment sizes, or dimensions differ: a dimension
    change resizes every analysis' state, so no prefix is resumable.
    """
    if (old.fmt != new.fmt
            or old.segment_events != new.segment_events
            or old.dims != new.dims):
        return 0
    if (old.trace_digest == new.trace_digest
            and old.total_events == new.total_events):
        return new.total_events
    matched = 0
    for a, b in zip(old.digests, new.digests):
        if a != b:
            break
        matched += 1
    return matched * old.segment_events


def _scan_binary(data: bytes, segment_events: int):
    """Boundary scan for a v2 binary trace: returns ``(dims, declared,
    total_events, header_end, segment_end_offsets)`` with offsets
    absolute in ``data``."""
    fields, header_end = _header_fields(data)
    declared = fields[5]
    body = data[header_end:]
    np = _numpy()
    if np is not None:
        arr = np.frombuffer(body, dtype=np.uint8)
        ends = np.flatnonzero(arr < 0x80)[2::3] + 1
        if declared and len(ends) > declared:
            # the reader stops at the declared count; bytes past it are
            # not events and must not shift any boundary
            ends = ends[:declared]
        total = int(len(ends))
        seg_ends = [header_end + int(o)
                    for o in ends[segment_events - 1::segment_events]]
        return tuple(fields[:5]), declared, total, header_end, seg_ends
    total = 0
    terms = 0
    seg_ends: List[int] = []
    for i, b in enumerate(body):
        if b < 0x80:
            terms += 1
            if terms == 3:
                terms = 0
                total += 1
                if total % segment_events == 0:
                    seg_ends.append(header_end + i + 1)
                if declared and total == declared:
                    break
    return tuple(fields[:5]), declared, total, header_end, seg_ends


def _scan_text(data: bytes, segment_events: int):
    """Boundary scan for a v1 text trace: returns ``(dims, total_events,
    header_end, segment_end_offsets, segment_end_lines)``.  Event lines
    are counted without parsing, by the reader's own line rules
    (:func:`repro.trace.format._scan_lines`); the first line must be the
    dimension header (segmenting a header-less capture is refused —
    every checkpoint flow needs the dimensions anyway)."""
    from repro.trace.format import _LINE, _parse_header, _scan_lines

    first_end = _LINE.match(data).end()
    try:
        first = data[:first_end].decode("utf-8")
    except UnicodeDecodeError as exc:
        raise TraceFormatError(
            "line 1: trace is not valid text ({})".format(exc), 1)
    info = _parse_header(first, 1)
    if info is None:
        raise TraceFormatError(
            "trace has no '# repro trace v1:' header; segment hashing "
            "needs declared dimensions")
    dims = (info.num_threads, info.num_locks, info.num_vars,
            info.num_volatiles, info.num_classes)
    total = lines = 0
    seg_ends: List[int] = []
    seg_lines: List[int] = []
    pos = first_end
    while True:
        events, walked, pos = _scan_lines(data, pos, segment_events)
        total += events
        lines += walked
        if events < segment_events:
            return dims, total, first_end, seg_ends, seg_lines
        seg_ends.append(pos)
        seg_lines.append(lines)


def segment_trace(source: Union[str, bytes],
                  segment_events: int = SEGMENT_EVENTS) -> TraceSegments:
    """Hash ``source`` (a trace file path, or raw trace bytes) into a
    :class:`TraceSegments` summary.

    Costs one sequential read plus an unparsed boundary scan — no
    events are decoded.  Raises
    :class:`~repro.trace.stream.TraceFormatError` for a header-less
    text trace or a binary trace truncated inside its header.
    """
    if segment_events < 1:
        raise ValueError("segment_events must be >= 1")
    if isinstance(source, (bytes, bytearray)):
        data = bytes(source)
    else:
        with open(source, "rb") as fp:
            data = fp.read()
    trace_digest = hashlib.sha256(data).hexdigest()
    if data[:len(MAGIC)] == MAGIC:
        dims, _declared, total, header_end, seg_ends = _scan_binary(
            data, segment_events)
        seg_lines: List[int] = []
        fmt = "binary-v2"
    else:
        dims, total, header_end, seg_ends, seg_lines = _scan_text(
            data, segment_events)
        fmt = "text-v1"
    digests = []
    prev = header_end
    for end in seg_ends:
        digests.append(hashlib.sha256(data[prev:end]).hexdigest())
        prev = end
    return TraceSegments(fmt, segment_events, total, dims,
                         tuple(digests), trace_digest, header_end,
                         tuple(end - header_end for end in seg_ends),
                         tuple(seg_lines))
