"""Seeded byte-mutation differential fuzz of the trace decoders.

v2 binary: valid blobs are mutated — bit flips, truncation, duplicated
spans, inserted runs of ``0x80`` continuation bytes — and each mutant is
read four ways: by the numpy decoder and by the pure-Python decoder,
each from one whole buffer and through a raw reader returning 1–7-byte
short reads.  All four runs must hand out the same events and end the
same way: at the end of input, or with the same ``TraceFormatError``
message.  Any other exception, a disagreement, or a run over the time
bound fails the test.  The magic line is never mutated: a blob without
it is read as text, which neither binary decoder sees.  Without numpy
(or with ``REPRO_NO_NUMPY`` set) only the pure-Python half runs.

v1 text: valid blobs (header or not, comments, blank lines, ``\\n``,
``\\r\\n`` and lone ``\\r`` line breaks, a missing final line
break, 3- and 4-token lines, ids and sites near 2**63) are mutated by
bit flips (some break UTF-8), truncation and duplicated spans.  Each
mutant is read whole and through the 1–7-byte reader, with random
column-read limits, and compared with a reference that splits the bytes
into lines and parses each decoded line with ``parse_event_line``: the
events must be identical, and an error must name the same line with the
same message, up to the codec's byte position.

Those blobs seldom hold a clean block (every line as ``format_event``
writes it), so writer-shaped blobs — runs of ``format_event`` lines
with ``\\n`` breaks, numbers of 1–19 digits around 10**18 and 2**63,
and a few defects inside a clean run — gate the reader's block fast
path against the same reference, as they are and mutated.  The segment
scan is checked against the reader on the valid blobs, with lines of
characters that ``str.split`` takes for whitespace.

Volume follows ``--fuzz-count`` / ``FUZZ_COUNT`` (see conftest).
"""

import io
import os
import random
import re
import time

import pytest

from repro.checkpoint.cache import _suffix_stream
from repro.trace import BinaryTraceWriter, TraceFormatError, stream_trace
from repro.trace import format as text_format
from repro.trace.binfmt import MAGIC, _numpy
from repro.trace.event import Event, KIND_NAMES
from repro.trace.format import (
    TraceStream,
    _parse_header,
    format_event,
    header_line,
    parse_event_line,
)
from repro.trace.segments import segment_trace
from repro.trace.trace import TraceInfo

#: Wall-clock bound on reading one mutant four ways.
TIME_BOUND_S = 5.0

HAVE_NUMPY = _numpy() is not None

#: 2**63 - 1 in nine bytes; a 10-byte value below 2**63; 2**63; 11 bytes.
_EDGE_VARINTS = (b"\xff" * 8 + b"\x7f", b"\x80" * 9 + b"\x00",
                 b"\x80" * 9 + b"\x01", b"\x80" * 10 + b"\x00")


class _ShortReader(io.RawIOBase):
    """A raw reader returning 1–7 bytes per read, like a live socket."""

    def __init__(self, data: bytes, rng: random.Random):
        self._data = data
        self._pos = 0
        self._rng = rng

    def readable(self) -> bool:
        return True

    def readinto(self, b) -> int:
        k = min(len(b), self._rng.randint(1, 7),
                len(self._data) - self._pos)
        b[:k] = self._data[self._pos:self._pos + k]
        self._pos += k
        return k


def _valid_blob(rng: random.Random) -> bytes:
    """A random valid v2 trace: ids up to 2**40 so varints of every
    length up to six bytes appear; event count declared or unknown."""
    n = rng.randint(0, 300)
    events = []
    for _ in range(n):
        width = rng.choice([7, 7, 14, 21, 40])
        events.append(Event(rng.randrange(8), rng.randrange(len(KIND_NAMES)),
                            rng.randrange(1 << width),
                            rng.randrange(1 << rng.choice([3, 10, 30]))))
    dims = TraceInfo(8, 16, 64, 2, 2, n if rng.random() < 0.5 else 0)
    buf = io.BytesIO()
    with BinaryTraceWriter(buf, dims) as writer:
        for event in events:
            writer.write(event)
    return buf.getvalue()


def _mutate(blob: bytes, rng: random.Random) -> bytes:
    data = bytearray(blob)
    lo = len(MAGIC)
    for _ in range(rng.randint(1, 3)):
        how = rng.choice(["flip", "truncate", "duplicate", "run", "edge"])
        hi = len(data)
        if how == "flip" and hi > lo:
            for _ in range(rng.randint(1, 4)):
                data[rng.randrange(lo, hi)] ^= 1 << rng.randrange(8)
        elif how == "truncate" and hi > lo:
            del data[rng.randrange(lo, hi):]
        elif how == "duplicate" and hi > lo:
            a = rng.randrange(lo, hi)
            b = rng.randint(a, min(hi, a + 40))
            at = rng.randint(lo, hi)
            data[at:at] = data[a:b]
        elif how == "edge":
            # varints at the 10-byte / 2**63 limits, either side of it
            at = rng.randint(lo, hi)
            data[at:at] = rng.choice(_EDGE_VARINTS)
        else:
            at = rng.randint(lo, hi)
            data[at:at] = b"\x80" * rng.randint(1, 40)
    return bytes(data)


def _read(blob: bytes, use_numpy: bool, short: bool, rng: random.Random):
    """Read ``blob`` to its end; returns ``(events, error_message)``."""
    saved = os.environ.get("REPRO_NO_NUMPY")
    if use_numpy:
        os.environ.pop("REPRO_NO_NUMPY", None)
    else:
        os.environ["REPRO_NO_NUMPY"] = "1"
    try:
        source = _ShortReader(blob, rng) if short else io.BytesIO(blob)
        try:
            stream = stream_trace(source)
        except TraceFormatError as exc:
            return [], str(exc)
    finally:
        if saved is None:
            os.environ.pop("REPRO_NO_NUMPY", None)
        else:
            os.environ["REPRO_NO_NUMPY"] = saved
    events = []
    try:
        while True:
            kinds, tids, targets, sites = stream.read_columns(
                rng.randint(1, 600))
            if not len(kinds):
                return events, None
            events.extend(zip(
                [int(v) for v in tids], [int(v) for v in kinds],
                [int(v) for v in targets], [int(v) for v in sites]))
    except TraceFormatError as exc:
        return events, str(exc)


def _decoders():
    return [False, True] if HAVE_NUMPY else [False]


def test_mutated_blobs_decode_identically_everywhere(fuzz_count):
    rng = random.Random(0xB1A5)
    errors = 0
    for trial in range(fuzz_count):
        blob = _mutate(_valid_blob(rng), rng)
        start = time.perf_counter()
        runs = [(use_numpy, short, _read(blob, use_numpy, short, rng))
                for use_numpy in _decoders() for short in (False, True)]
        elapsed = time.perf_counter() - start
        assert elapsed < TIME_BOUND_S, (trial, elapsed)
        first = runs[0][2]
        for use_numpy, short, got in runs[1:]:
            assert got == first, \
                "trial {}: numpy={} short={} disagrees: {} vs {}".format(
                    trial, use_numpy, short, got[1], first[1])
        errors += first[1] is not None
    # the mutations must actually exercise the error paths
    assert errors >= fuzz_count // 4


def test_unmutated_blobs_round_trip(fuzz_count):
    rng = random.Random(7)
    for _ in range(max(fuzz_count // 10, 5)):
        blob = _valid_blob(rng)
        expected = [(e.tid, e.kind, e.target, e.site)
                    for e in stream_trace(io.BytesIO(blob))]
        for use_numpy in _decoders():
            for short in (False, True):
                assert _read(blob, use_numpy, short, rng) == (expected, None)


@pytest.mark.skipif(not HAVE_NUMPY, reason="numpy decoder unavailable")
def test_numpy_half_runs():
    """Guards the differential: the numpy decoder is really selected."""
    saved = os.environ.pop("REPRO_NO_NUMPY", None)
    try:
        stream = stream_trace(io.BytesIO(_valid_blob(random.Random(1))))
    finally:
        if saved is not None:
            os.environ["REPRO_NO_NUMPY"] = saved
    assert stream._decode == stream._decode_np


# ---------------------------------------------------------------------------
# v1 text
# ---------------------------------------------------------------------------

#: Ids and sites at and near the signed 64-bit limits, and small ones.
_TEXT_IDS = (0, 1, 7, 4095, (1 << 63) - 1, (1 << 63) - 2)
_TEXT_SITES = (0, 1, 17, -1, -(1 << 63), (1 << 63) - 1)
_LINE_BREAKS = ("\n", "\n", "\r\n", "\r")
_BLANKS = ("", "  ", "\t")
#: Blank lines to ``str.split`` that ``bytes.strip`` keeps.
_ODD_BLANKS = ("\x1c", "\x1f", " \x85", "\xa0", "\u2000\t", "\u3000")


def _valid_text(rng: random.Random, blanks=_BLANKS) -> bytes:
    """A random valid v1 text trace."""
    lines = []
    if rng.random() < 0.7:
        lines.append(header_line(TraceInfo(8, 16, 64, 2, 2,
                                           rng.choice([0, 40]))))
    for _ in range(rng.randint(0, 200)):
        r = rng.random()
        if r < 0.05:
            lines.append("# note {}".format(rng.randrange(100)))
        elif r < 0.1:
            lines.append(rng.choice(blanks))
        else:
            line = format_event(Event(
                rng.choice(_TEXT_IDS), rng.randrange(len(KIND_NAMES)),
                rng.choice(_TEXT_IDS), rng.choice(_TEXT_SITES)))
            if rng.random() < 0.3:
                line = line.rsplit(" ", 1)[0]  # no site: three tokens
            lines.append(line)
    text = "".join(line + rng.choice(_LINE_BREAKS) for line in lines)
    if text and rng.random() < 0.3:
        text = text.rstrip("\r\n")  # no final line break
    return text.encode("utf-8")


def _mutate_text(blob: bytes, rng: random.Random) -> bytes:
    data = bytearray(blob)
    for _ in range(rng.randint(1, 3)):
        how = rng.choice(["flip", "flip", "truncate", "duplicate"])
        hi = len(data)
        if not hi:
            break
        if how == "flip":
            for _ in range(rng.randint(1, 4)):
                data[rng.randrange(hi)] ^= 1 << rng.randrange(8)
        elif how == "truncate":
            del data[rng.randrange(hi):]
        else:
            a = rng.randrange(hi)
            b = rng.randint(a, min(hi, a + 40))
            at = rng.randint(0, hi)
            data[at:at] = data[a:b]
    return bytes(data)


#: One line with its line break, as a file read in text mode breaks
#: lines: at ``\\r\\n``, a lone ``\\r`` or ``\\n``.
_LINE = re.compile(rb"[^\r\n]*(?:\r\n|\r|\n)|[^\r\n]+\Z")
_POSITION = re.compile(r"position \d+(-\d+)?")


def _text_reference(blob: bytes):
    """``(events, error_message)`` of ``blob`` read line by line."""
    events = []
    for lineno, raw in enumerate(_LINE.findall(blob), 1):
        try:
            line = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            return events, "line {}: trace is not valid text ({})".format(
                lineno, exc)
        try:
            if lineno == 1 and _parse_header(line, 1) is not None:
                continue
            event = parse_event_line(line, lineno)
        except TraceFormatError as exc:
            return events, str(exc)
        if event is not None:
            events.append((event.tid, event.kind, event.target,
                           event.site))
    return events, None


def _read_text(blob: bytes, short: bool, rng: random.Random):
    """Read ``blob`` with the text reader; returns ``(events,
    error_message)`` as :func:`_text_reference` does."""
    source = _ShortReader(blob, rng) if short else io.BytesIO(blob)
    try:
        stream = stream_trace(source)
    except TraceFormatError as exc:
        return [], str(exc)
    return _drain_text(stream, rng)


def _drain_text(stream, rng: random.Random):
    """:func:`_read_text` on an open text reader."""
    assert isinstance(stream, TraceStream)
    events = []
    try:
        while True:
            kinds, tids, targets, sites = stream.read_columns(
                rng.randint(1, 600))
            if not kinds:
                return events, None
            events.extend(zip(tids, kinds, targets, sites))
    except TraceFormatError as exc:
        return events, str(exc)


def _same_outcome(got, want) -> bool:
    """Equal events, and equal errors up to the codec's byte position."""
    (events, error), (ref_events, ref_error) = got, want
    if error is not None and ref_error is not None:
        error = _POSITION.sub("position ?", error)
        ref_error = _POSITION.sub("position ?", ref_error)
    return events == ref_events and error == ref_error


def test_mutated_text_decodes_like_the_line_parser(fuzz_count):
    rng = random.Random(0x7E47)
    errors = undecodable = 0
    for trial in range(fuzz_count):
        blob = _mutate_text(_valid_text(rng), rng)
        if blob.startswith(MAGIC):
            continue  # a binary trace now: not this property
        want = _text_reference(blob)
        start = time.perf_counter()
        for short in (False, True):
            got = _read_text(blob, short, rng)
            assert _same_outcome(got, want), \
                "trial {}: short={} got {} vs reference {}".format(
                    trial, short, got[1], want[1])
        assert time.perf_counter() - start < TIME_BOUND_S, trial
        errors += want[1] is not None
        undecodable += "not valid text" in (want[1] or "")
    # the mutations must exercise the error paths, the codec's included
    assert errors >= fuzz_count // 4
    assert undecodable >= fuzz_count // 20


def test_unmutated_text_round_trips(fuzz_count):
    rng = random.Random(11)
    for _ in range(max(fuzz_count // 10, 5)):
        blob = _valid_text(rng)
        want = _text_reference(blob)
        assert want[1] is None
        for short in (False, True):
            assert _read_text(blob, short, rng) == want


# ---------------------------------------------------------------------------
# v1 text as the writer shapes it: the reader's block fast path
# ---------------------------------------------------------------------------

#: Numbers at the fast path's 18-digit limit and at 2**63.
_EDGE_NUMBERS = (10 ** 18 - 1, 10 ** 18, (1 << 63) - 1, 1 << 63)

#: Rare defects put inside a clean run of lines.
_LINE_DEFECTS = ("tab", "double space", "trailing space", "@+7", "@-1",
                 "prefix run", "non-ASCII digit", "three tokens")
_INSERTED_LINES = ("\x1c", "# note", "")
_BREAK_DEFECTS = ("\r\n", "no final break")


def _writer_number(rng: random.Random) -> int:
    """Mostly 1–18 digits; rarely 19 digits or an edge value."""
    r = rng.random()
    if r < 0.002:
        return rng.choice(_EDGE_NUMBERS)
    digits = 19 if r < 0.004 else rng.randint(1, 18)
    return rng.randrange(10 ** (digits - 1) if digits > 1 else 0,
                         10 ** digits)


def _writer_text(rng: random.Random) -> bytes:
    """A text trace as ``format_event`` writes it, with ``\\n`` breaks
    and up to two rare defects; some blobs span several 16 KiB blocks."""
    lines = []
    if rng.random() < 0.9:
        lines.append(header_line(TraceInfo(8, 16, 64, 2, 2,
                                           rng.choice([0, 40]))))
    first = len(lines)
    n = rng.randint(0, 1200 if rng.random() < 0.125 else 400)
    for _ in range(n):
        lines.append(format_event(Event(
            _writer_number(rng), rng.randrange(len(KIND_NAMES)),
            _writer_number(rng), _writer_number(rng))))
    breaks_defects = []
    for _ in range(rng.choice([0, 0, 1, 1, 2])):
        how = rng.choice(_LINE_DEFECTS + _INSERTED_LINES + _BREAK_DEFECTS)
        if how in _BREAK_DEFECTS:
            breaks_defects.append(how)
            continue
        at = rng.randint(first, len(lines))
        if how in _INSERTED_LINES:
            lines.insert(at, how)
            continue
        tokens = lines[at].split(" ") if at < len(lines) else []
        if len(tokens) != 4:
            continue  # no clean event line to spoil here
        if how == "tab":
            tokens[:2] = [tokens[0] + "\t" + tokens[1]]
        elif how == "double space":
            tokens[1] = " " + tokens[1]
        elif how == "trailing space":
            tokens[-1] += " "
        elif how in ("@+7", "@-1"):
            tokens[3] = how
        elif how == "prefix run":
            tokens[2] = tokens[2][0] + tokens[2]
        elif how == "non-ASCII digit":
            tokens[0] = "T١"  # ARABIC-INDIC DIGIT ONE: isdecimal()
        else:
            del tokens[3]
        lines[at] = " ".join(tokens)
    breaks = ["\n"] * len(lines)
    for how in breaks_defects:
        if lines and how == "\r\n":
            breaks[rng.randrange(len(lines))] = "\r\n"
        elif lines:
            breaks[-1] = ""
    return "".join(line + brk for line, brk in zip(lines, breaks)).encode()


class _CountingPattern:
    """A compiled pattern that counts the blocks it fully matches."""

    def __init__(self, pattern):
        self._pattern = pattern
        self.matched = 0

    def fullmatch(self, *args):
        match = self._pattern.fullmatch(*args)
        self.matched += match is not None
        return match


def test_writer_shaped_text_decodes_like_the_line_parser(fuzz_count,
                                                         monkeypatch):
    rng = random.Random(0xC1EA7)
    clean = _CountingPattern(text_format._CLEAN)
    monkeypatch.setattr(text_format, "_CLEAN", clean)
    errors = 0
    for trial in range(fuzz_count):
        blob = _writer_text(rng)
        for data in (blob, _mutate_text(blob, rng)):
            if data.startswith(MAGIC):
                continue  # a binary trace now: not this property
            want = _text_reference(data)
            start = time.perf_counter()
            for short in (False, True):
                got = _read_text(data, short, rng)
                assert _same_outcome(got, want), \
                    "trial {}: short={} got {} vs reference {}".format(
                        trial, short, got[1], want[1])
            assert time.perf_counter() - start < TIME_BOUND_S, trial
            errors += want[1] is not None
    # the fast path ran, and the defects and mutations reached the errors
    assert clean.matched >= fuzz_count
    assert errors >= fuzz_count // 4


def test_clean_trace_never_reaches_the_line_parser(monkeypatch):
    """A canonical trace, header included, decodes entirely on the
    block fast path, through column reads and through iteration."""
    rng = random.Random(5)
    events = [Event(rng.randrange(16), rng.randrange(len(KIND_NAMES)),
                    rng.randrange(1 << 20), rng.randrange(1 << 12))
              for _ in range(12000)]
    blob = (header_line(TraceInfo(16, 1 << 20, 1 << 20, 0, 0, len(events)))
            + "\n" + "".join(format_event(e) + "\n" for e in events)
            ).encode()

    def refuse(line, lineno):
        raise AssertionError("line {} reached the line parser".format(
            lineno))

    monkeypatch.setattr(text_format, "_parse_line", refuse)
    want = [(e.kind, e.tid, e.target, e.site) for e in events]
    stream = stream_trace(io.BytesIO(blob))
    got = []
    while True:
        cols = stream.read_columns(rng.randint(1, 5000))
        if not cols[0]:
            break
        got.extend(zip(*cols))
    assert got == want
    assert [(e.kind, e.tid, e.target, e.site)
            for e in stream_trace(io.BytesIO(blob))] == want


def test_segment_scan_counts_lines_like_the_reader(fuzz_count, tmp_path):
    """``segment_trace`` counts the events the reader reads; cutting the
    trace at a boundary leaves exactly that many segments of events; and
    the result cache's suffix read from a boundary names a bad line as a
    whole read does.  Lines of characters that ``str.split`` takes for
    whitespace (and ``bytes.strip`` does not) are blank to all three."""
    assert all(not b.split() and b.encode().strip() for b in _ODD_BLANKS)
    rng = random.Random(0x5E65)
    path = str(tmp_path / "t.trace")
    checked = 0
    for trial in range(fuzz_count):
        blob = _valid_text(rng, blanks=_BLANKS + _ODD_BLANKS)
        if not blob.startswith(b"# repro trace v1:"):
            continue  # segmenting needs the header
        seg = rng.randint(1, 30)
        segs = segment_trace(blob, seg)
        events, error = _read_text(blob, False, rng)
        assert error is None
        assert segs.total_events == len(events), trial
        for k, end in enumerate(segs.boundaries, 1):
            cut = blob[:segs.header_end + end]
            assert _read_text(cut, False, rng) == (events[:k * seg], None)

        bad = blob + b"\nT0 bogus x1 @1\n"
        want = _read_text(bad, False, rng)[1]
        assert "'bogus'" in want
        with open(path, "wb") as fp:
            fp.write(bad)
        segs = segment_trace(path, seg)
        for k, end in enumerate(segs.boundaries, 1):
            if segs.header_end + end == len(bad):
                continue  # the bad line ends the last segment
            got = _drain_text(_suffix_stream(path, segs, k * seg), rng)
            assert got[1] == want, trial
        checked += 1
    assert checked >= fuzz_count // 2


@pytest.mark.parametrize("brk", ["\n", "\r\n", "\r"])
def test_line_breaks_around_the_block_bound(brk):
    """Shifting a trace byte by byte puts each of its line breaks — a
    ``\\r\\n`` split between two blocks included — on every side of the
    reader's 16 KiB block bound; reads and the segment scan still match
    the line-by-line reference."""
    rng = random.Random(3)
    lines = [format_event(Event(i % 4, i % len(KIND_NAMES), i, i))
             for i in range(1200)]
    body = "".join(line + brk for line in lines)
    for shift in range(24):
        blob = ("# repro trace v1: threads=4 locks=1200 vars=1200\n"
                + "#" * shift + brk + body).encode()
        want = _text_reference(blob)
        assert want == _read_text(blob, False, rng)
        assert segment_trace(blob, 7).total_events == len(want[0]) == 1200
