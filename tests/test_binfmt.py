"""Tests for the v2 binary trace format and format autodetection.

Covers the binfmt writer/reader round trip, the `stream_trace` /
`load_trace` autodetection rules (empty file, header-less text,
truncated magic, truncated binary header), and the lifecycle contract
shared between the text and binary readers (one-shot iteration,
context-manager support, close-on-init-failure).
"""

import builtins
import io

import pytest

from repro.trace import (
    BinaryTraceStream,
    BinaryTraceWriter,
    Trace,
    TraceFormatError,
    TraceInfo,
    TraceStream,
    dump_trace,
    dumps_trace,
    dumps_trace_binary,
    load_trace,
    stream_trace,
)
from repro.trace.binfmt import MAGIC
from repro.workloads import WorkloadSpec, figure1, figure2, figure3, generate_trace
from repro.workloads.litmus import LITMUS


def _same_events(a, b):
    return [(e.tid, e.kind, e.target, e.site) for e in a] == \
        [(e.tid, e.kind, e.target, e.site) for e in b]


class TestRoundTrip:
    def _binary_round_trip(self, trace):
        back = load_trace(io.BytesIO(dumps_trace_binary(trace)))
        assert _same_events(trace.events, back.events)
        assert (back.num_threads, back.num_locks, back.num_vars,
                back.num_volatiles, back.num_classes) == \
            (trace.num_threads, trace.num_locks, trace.num_vars,
             trace.num_volatiles, trace.num_classes)
        # the text rendering is the canonical lossless witness
        assert dumps_trace(back) == dumps_trace(trace)

    def test_every_litmus_workload(self):
        for name, build in LITMUS.items():
            self._binary_round_trip(build())

    def test_figures(self):
        for build in (figure1, figure2, figure3):
            self._binary_round_trip(build())

    def test_generator_workloads(self):
        for seed in (1, 2, 3):
            spec = WorkloadSpec(name="rt", threads=3 + seed, events=2000,
                                predictive_races=1, hb_races=1, seed=seed)
            self._binary_round_trip(generate_trace(spec))

    def test_text_to_binary_to_text_byte_identical(self, tmp_path):
        trace = generate_trace(WorkloadSpec(
            name="rt", threads=4, events=3000, predictive_races=1, seed=11))
        text_path = tmp_path / "t.trace"
        with open(text_path, "w") as fp:
            dump_trace(trace, fp)
        binary_path = tmp_path / "t.bin"
        source = stream_trace(str(text_path))
        with source, BinaryTraceWriter(str(binary_path),
                                       source.require_info()) as writer:
            for event in source:
                writer.write(event)
        assert writer.events_written == len(trace)
        # binary is denser, decodes to the identical trace
        assert binary_path.stat().st_size < text_path.stat().st_size / 2
        assert dumps_trace(load_trace(str(binary_path))) == \
            text_path.read_text()

    def test_events_hint_in_header(self):
        trace = figure1()
        stream = stream_trace(io.BytesIO(dumps_trace_binary(trace)))
        assert stream.require_info().num_events == len(trace)

    def test_wide_ids_encode(self):
        # multi-byte varints on every field: big tid, target, and site
        from repro.trace.event import READ, WRITE, Event
        events = [Event(0, WRITE, 1 << 20, 1 << 30),
                  Event(4097, READ, 1 << 20, 1 << 30),
                  Event(4097, WRITE, 0, 0)]
        trace = Trace(events, validate=False)
        back = load_trace(io.BytesIO(dumps_trace_binary(trace)),
                          validate=False)
        assert _same_events(events, back.events)


class TestAutodetect:
    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.trace"
        path.write_bytes(b"")
        stream = stream_trace(str(path))
        assert stream.info is None
        assert list(stream) == []
        assert len(load_trace(str(path))) == 0

    def test_headerless_text(self, tmp_path):
        path = tmp_path / "raw.trace"
        path.write_text("T0 rd x0\nT1 wr x0\n")
        stream = stream_trace(str(path))
        assert isinstance(stream, TraceStream)
        assert stream.info is None
        assert len(list(stream)) == 2

    def test_truncated_magic_is_text(self, tmp_path):
        # a prefix of the magic is just a text comment line
        path = tmp_path / "trunc.trace"
        path.write_bytes(MAGIC[:-3])
        stream = stream_trace(str(path))
        assert isinstance(stream, TraceStream)
        assert stream.info is None
        assert list(stream) == []

    def test_magic_with_truncated_header(self, tmp_path):
        path = tmp_path / "cut.trace"
        path.write_bytes(MAGIC + b"\x82")  # dims cut mid-varint
        with pytest.raises(TraceFormatError, match="truncated"):
            stream_trace(str(path))

    def test_magic_with_no_header(self, tmp_path):
        path = tmp_path / "cut.trace"
        path.write_bytes(MAGIC)
        with pytest.raises(TraceFormatError, match="truncated"):
            stream_trace(str(path))

    def test_binary_handle(self):
        blob = dumps_trace_binary(figure1())
        stream = stream_trace(io.BytesIO(blob))
        assert isinstance(stream, BinaryTraceStream)
        assert len(list(stream)) == len(figure1())

    def test_text_content_in_binary_handle(self):
        # e.g. piping a text trace through stdin.buffer: the sniffed
        # prefix is re-attached and the text reader takes over
        text = dumps_trace(figure1())
        stream = stream_trace(io.BytesIO(text.encode()))
        assert isinstance(stream, TraceStream)
        assert stream.info is not None
        assert len(list(stream)) == len(figure1())

    def test_text_handle(self):
        stream = stream_trace(io.StringIO(dumps_trace(figure1())))
        assert isinstance(stream, TraceStream)
        assert len(list(stream)) == len(figure1())

    def test_short_binaryish_file_is_text(self, tmp_path):
        path = tmp_path / "tiny.trace"
        path.write_bytes(b"# hi\n")
        stream = stream_trace(str(path))
        assert isinstance(stream, TraceStream)
        assert list(stream) == []

    def test_binary_file_from_path(self, tmp_path):
        path = tmp_path / "b.trace"
        path.write_bytes(dumps_trace_binary(figure2()))
        assert _same_events(load_trace(str(path)).events, figure2().events)


class TestLifecycle:
    def _binary_path(self, tmp_path):
        path = tmp_path / "b.trace"
        path.write_bytes(dumps_trace_binary(figure1()))
        return str(path)

    def test_one_shot(self, tmp_path):
        stream = stream_trace(self._binary_path(tmp_path))
        list(stream)
        with pytest.raises(RuntimeError, match="one-shot"):
            iter(stream)

    def test_exhaustion_closes_owned_file(self, tmp_path):
        stream = stream_trace(self._binary_path(tmp_path))
        assert len(list(stream)) == stream.events_read == len(figure1())
        assert stream._fp.closed

    def test_context_manager_closes_abandoned_stream(self, tmp_path):
        with stream_trace(self._binary_path(tmp_path)) as stream:
            next(iter(stream))  # abandon mid-iteration
        assert stream._fp.closed

    def test_context_manager_on_text_stream(self, tmp_path):
        path = tmp_path / "t.trace"
        with open(path, "w") as fp:
            dump_trace(figure1(), fp)
        with stream_trace(str(path)) as stream:
            next(iter(stream))
        assert stream._fp.closed

    def test_require_info_always_succeeds_on_binary(self, tmp_path):
        with stream_trace(self._binary_path(tmp_path)) as stream:
            assert stream.require_info().num_threads == \
                figure1().num_threads

    def test_unowned_handle_not_closed(self):
        fp = io.BytesIO(dumps_trace_binary(figure1()))
        stream = stream_trace(fp)
        list(stream)
        stream.close()
        assert not fp.closed

    def _opened_files(self, monkeypatch):
        opened = []
        real_open = builtins.open

        def recording_open(*args, **kwargs):
            fp = real_open(*args, **kwargs)
            opened.append(fp)
            return fp

        monkeypatch.setattr(builtins, "open", recording_open)
        return opened

    def test_init_failure_closes_owned_file_binary(self, tmp_path,
                                                   monkeypatch):
        path = tmp_path / "cut.trace"
        path.write_bytes(MAGIC + b"\x80")
        opened = self._opened_files(monkeypatch)
        with pytest.raises(TraceFormatError):
            stream_trace(str(path))
        assert opened and all(fp.closed for fp in opened)

    def test_init_failure_closes_owned_file_text(self, tmp_path,
                                                 monkeypatch):
        # undecodable bytes surface while peeking at the header line;
        # the handle must not leak (and the error is a TraceFormatError,
        # so the CLI exits 2 instead of crashing)
        path = tmp_path / "junk.trace"
        path.write_bytes(b"\xff\xfe\x00garbage")
        opened = self._opened_files(monkeypatch)
        with pytest.raises(TraceFormatError, match="not valid text"):
            stream_trace(str(path))
        assert opened and all(fp.closed for fp in opened)

    def test_init_failure_closes_owned_file_bad_text_header(
            self, tmp_path, monkeypatch):
        path = tmp_path / "badhdr.trace"
        path.write_text("# repro trace v1: threads=x4\nT0 rd x0\n")
        opened = self._opened_files(monkeypatch)
        with pytest.raises(TraceFormatError, match="header field"):
            stream_trace(str(path))
        assert opened and all(fp.closed for fp in opened)


class TestErrors:
    def test_truncated_mid_event(self):
        blob = dumps_trace_binary(figure1())
        stream = stream_trace(io.BytesIO(blob[:-1]))
        with pytest.raises(TraceFormatError, match="truncated mid-event"):
            list(stream)

    def test_bad_event_kind(self):
        blob = dumps_trace_binary(Trace([], num_threads=1, num_locks=0,
                                        num_vars=0))
        # kind 15 is unused: head byte 0x0F, then target 0 and site 0
        stream = stream_trace(io.BytesIO(blob + b"\x0f\x00\x00"))
        with pytest.raises(TraceFormatError, match="bad event kind"):
            list(stream)

    def test_oversized_varint_in_header(self):
        # endless continuation bits must be rejected, not accumulated
        # into an unbounded int (a live producer could stream 0x80s)
        with pytest.raises(TraceFormatError, match="oversized varint"):
            stream_trace(io.BytesIO(MAGIC + b"\x80" * 80))

    def test_oversized_varint_in_event(self):
        blob = dumps_trace_binary(Trace([], num_threads=1, num_locks=0,
                                        num_vars=0))
        stream = stream_trace(io.BytesIO(blob + b"\x80" * 40))
        with pytest.raises(TraceFormatError, match="oversized varint"):
            list(stream)

    @staticmethod
    def _with_event(target_bytes):
        """figure 1's binary trace plus one read whose target varint is
        ``target_bytes`` (event count unknown, so the reader reaches
        it), and the number of good events in front of it."""
        trace = figure1()
        buf = io.BytesIO()
        hint = TraceInfo(trace.num_threads, trace.num_locks,
                         trace.num_vars, 0, 0, 0)
        with BinaryTraceWriter(buf, hint) as writer:
            for event in trace.events:
                writer.write(event)
        return buf.getvalue() + b"\x00" + target_bytes + b"\x00", \
            len(trace.events)

    @staticmethod
    def _events_then_error(blob):
        got = []
        with pytest.raises(TraceFormatError) as exc:
            for event in stream_trace(io.BytesIO(blob)):
                got.append(event)
        return got, str(exc.value)

    def test_varint_over_ten_bytes_in_event(self):
        # 11 bytes: ten continuation bytes, then a terminator
        blob, good = self._with_event(b"\x81" * 10 + b"\x00")
        got, msg = self._events_then_error(blob)
        assert msg == "oversized varint at event {}".format(good)
        assert _same_events(got, figure1().events)

    def test_event_varint_of_2_63_or_more(self):
        # 2**63 needs ten bytes whose last carries bit 63; 2**80 eleven
        for value in (1 << 63, 1 << 80):
            data = bytearray()
            while value > 0x7F:
                data.append((value & 0x7F) | 0x80)
                value >>= 7
            data.append(value)
            blob, good = self._with_event(bytes(data))
            got, msg = self._events_then_error(blob)
            assert msg == "oversized varint at event {}".format(good)
            assert len(got) == good

    def test_ten_byte_varint_below_2_63_is_valid(self):
        # a non-minimal ten-byte encoding of a small value still fits
        blob, good = self._with_event(b"\x85" + b"\x80" * 8 + b"\x00")
        events = list(stream_trace(io.BytesIO(blob)))
        assert len(events) == good + 1 and events[-1].target == 5

    def test_text_id_of_2_63_or_more_is_bad_id(self):
        for token in ("x{}".format(1 << 63), "x{}".format(1 << 80)):
            text = ("# repro trace v1: threads=1 locks=0 vars=1\n"
                    "T0 rd x0\nT0 wr {}\n".format(token))
            stream = stream_trace(io.StringIO(text))
            got = []
            with pytest.raises(TraceFormatError, match="bad id") as exc:
                for event in stream:
                    got.append(event)
            assert exc.value.lineno == 3
            assert "line 3" in str(exc.value) and len(got) == 1

    def test_undecodable_bytes_mid_file(self):
        # enough valid lines that the bad bytes land beyond the text
        # wrapper's first decoded chunk: the error surfaces mid-iteration
        # and still maps to a TraceFormatError with a line number
        n = 2000
        text = ("# repro trace v1: threads=1 locks=1 vars=1\n"
                + "T0 rd x0\n" * n)
        stream = stream_trace(io.BytesIO(text.encode() + b"\xff\xfe"))
        with pytest.raises(TraceFormatError, match="not valid text") as exc:
            list(stream)
        assert exc.value.lineno > 1


class TestDeclaredCount:
    """The header's event count is authoritative for stopping.

    A reader that insists on seeing EOF after the last declared event
    blocks live sources whose producer keeps the connection open — or
    whose socket is also held open by an unrelated forked process — so
    reaching the declared count must end iteration without another
    read.
    """

    def test_trailing_bytes_after_declared_count_ignored(self):
        trace = figure1()
        stream = stream_trace(
            io.BytesIO(dumps_trace_binary(trace) + b"\x01"))
        assert len(list(stream)) == len(trace.events)

    def test_reader_stops_without_eof_on_live_pipe(self):
        import os
        import threading

        trace = figure1()
        r, w = os.pipe()
        os.write(w, dumps_trace_binary(trace))
        got = []

        def run():
            # unbuffered: short reads, like the live socket/FIFO sources
            # (a BufferedReader would block for a full chunk regardless)
            with open(r, "rb", buffering=0) as fp:
                got.extend(stream_trace(fp))

        reader = threading.Thread(target=run, daemon=True)
        reader.start()
        reader.join(10)  # the write end is still open: EOF never comes
        try:
            assert not reader.is_alive(), \
                "reader blocked waiting for EOF past the declared count"
            assert len(got) == len(trace.events)
        finally:
            os.close(w)

    def test_engine_stops_without_eof_on_live_pipe(self):
        # engine twin: column reads stop at the declared count too, and
        # max_events consumes exactly that many events of a live pipe
        import os
        import threading

        from tests.test_live import event_rows, recording_session

        trace = figure1()
        r, w = os.pipe()
        os.write(w, dumps_trace_binary(trace))
        state = {}

        def run():
            with open(r, "rb", buffering=0) as fp:
                stream = stream_trace(fp)
                recorder, session = recording_session(stream.require_info())
                session.feed(stream, max_events=3)
                state["acked_at_3"] = session.events_acked
                state["seen_at_3"] = list(recorder.seen)
                session.feed(stream)
                state["acked"] = session.events_acked
                state["seen"] = recorder.seen
                state["processed"] = session.finish().events_processed

        reader = threading.Thread(target=run, daemon=True)
        reader.start()
        reader.join(10)  # the write end is still open: EOF never comes
        try:
            assert not reader.is_alive(), \
                "engine blocked waiting for EOF past the declared count"
            assert state["acked_at_3"] == 3
            assert state["seen_at_3"] == event_rows(trace.events[:3])
            assert state["acked"] == state["processed"] == len(trace)
            assert state["seen"] == event_rows(trace.events)
        finally:
            os.close(w)

    def test_zero_declared_count_reads_to_eof(self):
        # events=0 means unknown (a streaming writer's hint); those
        # headers keep reading until the input ends
        from repro.trace import TraceInfo

        trace = figure1()
        hint = TraceInfo(trace.num_threads, trace.num_locks,
                         trace.num_vars, trace.num_volatiles,
                         trace.num_classes, 0)
        buf = io.BytesIO()
        with BinaryTraceWriter(buf, hint) as writer:
            for event in trace.events:
                writer.write(event)
        assert len(list(stream_trace(
            io.BytesIO(buf.getvalue())))) == len(trace.events)


class TestEngineAndHarness:
    def test_run_stream_on_binary(self, tmp_path):
        from repro.core.engine import run_stream
        path = tmp_path / "b.trace"
        path.write_bytes(dumps_trace_binary(figure1()))
        result = run_stream(str(path), ["st-wdc", "fto-hb"])
        assert result.ok
        assert result.report("st-wdc").dynamic_count == 1
        assert result.report("fto-hb").dynamic_count == 0

    def test_column_path_races_hold_plain_ints(self, tmp_path):
        # the numpy decoder's int64 columns must never leak numpy
        # scalars into race records (kernel and scalar tiers alike)
        from repro.core.engine import run_stream
        trace = generate_trace(WorkloadSpec(
            name="ints", threads=4, events=3000, predictive_races=2,
            hb_races=2, seed=4))
        path = tmp_path / "ints.trace"
        path.write_bytes(dumps_trace_binary(trace))
        result = run_stream(str(path), ["st-wdc", "fto-hb", "unopt-hb"])
        races = [r for e in result.entries for r in e.report.races]
        assert races
        for race in races:
            assert all(type(v) is int for v in
                       (race.index, race.site, race.var, race.tid)), race

    def test_measure_stream_on_binary(self, tmp_path):
        from repro.harness.measure import measure_stream
        path = tmp_path / "b.trace"
        path.write_bytes(dumps_trace_binary(figure1()))
        result = measure_stream(str(path), ["st-wdc"])
        assert result.events == len(figure1())
        assert result.reports["st-wdc"].dynamic_count == 1

