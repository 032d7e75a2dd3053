"""Seeded byte-mutation differential fuzz of the v2 binary decoders.

Valid v2 blobs are mutated — bit flips, truncation, duplicated spans,
inserted runs of ``0x80`` continuation bytes — and each mutant is read
four ways: by the numpy decoder and by the pure-Python decoder, each
from one whole buffer and through a raw reader returning 1–7-byte short
reads.  All four runs must hand out the same events and end the same
way: at the end of input, or with the same ``TraceFormatError``
message.  Any other exception, a disagreement, or a run over the time
bound fails the test.

The magic line is never mutated: a blob without it is read as text,
which neither binary decoder sees.  Without numpy (or with
``REPRO_NO_NUMPY`` set) only the pure-Python half runs.  Volume follows
``--fuzz-count`` / ``FUZZ_COUNT`` (see conftest).
"""

import io
import os
import random
import time

import pytest

from repro.trace import BinaryTraceWriter, TraceFormatError, stream_trace
from repro.trace.binfmt import MAGIC, _numpy
from repro.trace.event import Event, KIND_NAMES
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
