"""Tests for the live trace sources (repro.trace.live).

Covers the socket and pipe/FIFO sources end to end (both wire formats,
Unix and TCP endpoints), the one-producer contract (reconnect refusal),
and the adversarial inputs a live feed is exposed to: truncated varints
landing on a read boundary, the binary magic split across packets,
mid-stream disconnects, and slow-writer timeouts — each must surface as
``TraceFormatError``/``TimeoutError`` *and* close every descriptor
(the fd-leak regression discipline of tests/test_binfmt.py).

Also pins the shared-lifecycle guarantee the live sources rely on: a
``TraceStreamBase`` subclass that fails *mid*-iteration closes its owned
handle even when its ``_decode`` hook has no ``finally`` of its own
(the close guard lives in ``TraceStreamBase.__iter__``).
"""

import gc
import io
import os
import socket
import threading
import time

import pytest

from repro.core.base import HANDLER_NAMES, Analysis
from repro.core.engine import MultiRunner
from repro.core.registry import create
from repro.trace import Trace, TraceFormatError, dumps_trace, dumps_trace_binary
from repro.trace.binfmt import MAGIC
from repro.trace.event import Event, READ, WRITE
from repro.trace.live import (
    PipeTraceSource,
    TraceListener,
    connect_endpoint,
    open_live_source,
    parse_endpoint,
    send_trace,
)
from repro.trace.stream import TraceStreamBase
from repro.workloads import figure1


def _same_events(a, b):
    return [(e.tid, e.kind, e.target, e.site) for e in a] == \
        [(e.tid, e.kind, e.target, e.site) for e in b]


class RecordingAnalysis(Analysis):
    """Records every event the engine replays to it, in order, as
    ``(tid, kind, target, site)``.  It declares no [Same Epoch] fast
    path, so the engine's filter stays off and every event arrives."""

    name = "recording"

    def __init__(self, info):
        super().__init__(info)
        self.seen = []

    def dispatch_table(self):
        seen = self.seen

        def handler(kind):
            return lambda t, x, i, site: seen.append((t, kind, x, site))

        return tuple(handler(kind) for kind in range(len(HANDLER_NAMES)))


def recording_session(info):
    """An engine session over one :class:`RecordingAnalysis`."""
    recorder = RecordingAnalysis(info)
    return recorder, MultiRunner([recorder]).session()


def event_rows(events):
    return [(e.tid, e.kind, e.target, e.site) for e in events]


def _spawn_raw_client(addr, chunks, delay=0.0, hold_open=0.0):
    """Connect to ``addr`` and send the byte chunks, optionally pausing
    between them and lingering before the close."""

    def run():
        sock = connect_endpoint(addr, connect_timeout=10)
        try:
            for chunk in chunks:
                sock.sendall(chunk)
                if delay:
                    time.sleep(delay)
            if hold_open:
                time.sleep(hold_open)
        finally:
            sock.close()

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    return thread


def _header_and_two_events(trace, binary):
    """The wire bytes of ``trace``'s header and first two events."""
    if binary:
        # the magic, six one-byte dimensions, then two events
        return dumps_trace_binary(trace)[:len(MAGIC) + 6 + 7]
    return "".join(dumps_trace(trace).splitlines(True)[:3]).encode()


def _assert_source_closed(source):
    """Every layer of a live source is released after an error: its raw
    reader and the connection it holds."""
    assert source._fp.closed
    conn = source._fp._handle
    if isinstance(conn, socket.socket):
        assert conn.fileno() == -1


def _open_fd_count():
    if not os.path.isdir("/proc/self/fd"):
        pytest.skip("needs /proc to count descriptors")
    gc.collect()
    return len(os.listdir("/proc/self/fd"))


class TestEndpoints:
    def test_host_port_is_tcp(self):
        assert parse_endpoint("127.0.0.1:9009") == \
            ("tcp", ("127.0.0.1", 9009))
        assert parse_endpoint("localhost:0") == ("tcp", ("localhost", 0))

    def test_paths_are_unix(self):
        assert parse_endpoint("/tmp/x.sock") == ("unix", "/tmp/x.sock")
        assert parse_endpoint("rel.sock") == ("unix", "rel.sock")
        # a colon inside a directory name does not make it TCP
        assert parse_endpoint("/tmp/a:1/x.sock") == \
            ("unix", "/tmp/a:1/x.sock")
        # a non-numeric final component is a path too
        assert parse_endpoint("host:name") == ("unix", "host:name")


class TestSocketSource:
    @pytest.mark.parametrize("binary", [True, False])
    def test_unix_round_trip(self, tmp_path, binary):
        trace = figure1()
        addr = str(tmp_path / "rt.sock")
        listener = TraceListener(addr)
        sender = threading.Thread(
            target=send_trace, args=(trace, addr), kwargs={"binary": binary})
        sender.start()
        source = listener.accept(timeout=10)
        info = source.require_info()
        assert info.num_threads == trace.num_threads
        events = list(source)
        sender.join()
        assert _same_events(events, trace.events)
        assert source.events_read == len(trace)
        # iteration finished: everything is closed and the path unlinked
        _assert_source_closed(source)
        assert not os.path.exists(addr)

    def test_tcp_port_zero_round_trip(self):
        trace = figure1()
        listener = TraceListener("127.0.0.1:0")
        host, port = listener.address
        assert port != 0  # the kernel assigned a real one
        sender = threading.Thread(
            target=send_trace, args=(trace, "127.0.0.1:{}".format(port)))
        sender.start()
        with listener.accept(timeout=10) as source:
            events = list(source)
        sender.join()
        assert _same_events(events, trace.events)
        # the address survives accept (a serving loop logs it after)
        assert listener.address == (host, port)
        assert listener.describe() == "{}:{}".format(host, port)

    @pytest.mark.parametrize("binary", [True, False])
    def test_producer_fails_when_consumer_hangs_up_unread(self, tmp_path,
                                                          binary):
        # figure1 fits in the socket buffer, so sendall returns before
        # the consumer hangs up; the producer must still not report a
        # clean send of bytes nobody read
        addr = str(tmp_path / "unread.sock")
        listener = TraceListener(addr)

        def accept_and_drop():
            conn = listener.accept_connection(timeout=10)
            time.sleep(0.2)
            conn.close()
            listener.close()

        dropper = threading.Thread(target=accept_and_drop, daemon=True)
        dropper.start()
        with pytest.raises(OSError):
            send_trace(figure1(), addr, binary=binary)
        dropper.join()

    def test_magic_split_across_packets(self, tmp_path):
        # the format sniffer must keep reading until it has the whole
        # magic, however the packets slice it
        blob = dumps_trace_binary(figure1())
        addr = str(tmp_path / "split.sock")
        listener = TraceListener(addr)
        client = _spawn_raw_client(
            addr, [blob[:5], blob[5:11], blob[11:]], delay=0.05)
        with listener.accept(timeout=10) as source:
            events = list(source)
        client.join()
        assert _same_events(events, figure1().events)

    def test_engine_runs_straight_off_the_socket(self, tmp_path):
        trace = figure1()
        addr = str(tmp_path / "eng.sock")
        listener = TraceListener(addr)
        sender = threading.Thread(target=send_trace, args=(trace, addr))
        sender.start()
        source = listener.accept(timeout=10)
        result = MultiRunner(
            [create("st-wdc", source.require_info())]).run(source)
        sender.join()
        assert result.report("st-wdc").dynamic_count == 1

    @pytest.mark.parametrize("binary", [True, False])
    def test_trickle_feed_yields_buffered_events_immediately(self, tmp_path,
                                                             binary):
        # regression: the binary reader used to wait for a 32-byte
        # window before decoding, so complete events already received
        # sat undelivered while the producer idled — a slow live feed
        # must yield what has arrived, not block for more bytes
        trace = figure1()
        addr = str(tmp_path / "trickle.sock")
        listener = TraceListener(addr)
        client = _spawn_raw_client(
            addr, [_header_and_two_events(trace, binary)], hold_open=3.0)
        source = listener.accept(timeout=0.5)
        received = []
        with pytest.raises(TimeoutError):
            for event in source:
                received.append(event)
        client.join()
        # both fully-delivered events came through before the stall hit
        assert _same_events(received, trace.events[:2])

    @pytest.mark.parametrize("binary", [True, False])
    def test_trickle_feed_reaches_engine_before_stall(self, tmp_path, binary):
        # engine twin of the trickle test: the column path replays the
        # buffered events before the stall's TimeoutError propagates,
        # and max_events stops the installment at exactly that many
        trace = figure1()
        addr = str(tmp_path / "trickle_engine.sock")
        listener = TraceListener(addr)
        client = _spawn_raw_client(
            addr, [_header_and_two_events(trace, binary)], hold_open=3.0)
        source = listener.accept(timeout=0.5)
        recorder, session = recording_session(source.require_info())
        session.feed(source, max_events=1)
        assert session.events_acked == 1
        assert recorder.seen == event_rows(trace.events[:1])
        with pytest.raises(TimeoutError):
            session.feed(source, max_events=5)
        assert session.events_acked == 2
        assert recorder.seen == event_rows(trace.events[:2])
        assert session.finish().events_processed == 2
        client.join()
        _assert_source_closed(source)

    @pytest.mark.parametrize("binary", [True, False])
    def test_column_read_returns_buffered_events_before_timeout(
            self, tmp_path, binary):
        # regression: a text column read waited for more lines until the
        # read timeout fired, holding back complete lines already
        # received; it must return them at once, like binary
        trace = figure1()
        addr = str(tmp_path / "cols.sock")
        listener = TraceListener(addr)
        release = threading.Event()

        def produce():
            sock = connect_endpoint(addr, connect_timeout=10)
            try:
                sock.sendall(_header_and_two_events(trace, binary))
                release.wait(10)
            finally:
                sock.close()

        client = threading.Thread(target=produce, daemon=True)
        client.start()
        timeout = 2.0
        source = listener.accept(timeout=timeout)
        try:
            start = time.monotonic()
            kinds, tids, targets, sites = source.read_columns(256)
            elapsed = time.monotonic() - start
        finally:
            release.set()
            client.join()
            source.close()
        assert elapsed < timeout / 2
        assert list(zip(tids, kinds, targets, sites)) == \
            event_rows(trace.events[:2])

    def test_reconnect_refused_after_accept(self, tmp_path):
        addr = str(tmp_path / "one.sock")
        listener = TraceListener(addr)
        client = _spawn_raw_client(addr, [dumps_trace_binary(figure1())],
                                   hold_open=0.5)
        with listener.accept(timeout=10) as source:
            # the listener is gone the moment the first producer landed
            with pytest.raises(ConnectionRefusedError):
                connect_endpoint(addr, connect_timeout=None)
            list(source)
        client.join()

    @pytest.mark.parametrize("binary", [True, False])
    def test_producer_header_goes_out_immediately(self, tmp_path, binary):
        # regression: the header sat in the producer's batch until the
        # first flush window filled, so a slow producer stalled the
        # consumer's header parse (and serve --timeout exited 2 on a
        # healthy feed)
        from repro.trace.event import READ
        from repro.trace.live import send_events
        from repro.trace.trace import TraceInfo

        release = threading.Event()
        info = TraceInfo(num_threads=1, num_vars=8)

        def trickle():
            for i in range(10):  # far fewer than one flush window
                yield Event(0, READ, i % 7, 1)
            release.wait(10)

        addr = str(tmp_path / "hdr{}.sock".format(binary))
        listener = TraceListener(addr)
        sender = threading.Thread(
            target=send_events, args=(info, trickle(), addr),
            kwargs={"binary": binary}, daemon=True)
        sender.start()
        # the header must arrive long before the producer finishes
        source = listener.accept(timeout=2)
        assert source.require_info().num_threads == 1
        release.set()
        list(source)
        sender.join(10)

    def test_producer_flushes_for_liveness(self, tmp_path):
        # regression: send_events buffered ~64 KB before anything hit
        # the wire, so a slow real-time producer's events (and the
        # header itself) sat unsent; the default flush cadence must put
        # them on the wire long before the generator finishes
        from repro.trace.event import READ
        from repro.trace.live import send_events
        from repro.trace.trace import TraceInfo

        release = threading.Event()
        info = TraceInfo(num_threads=1, num_vars=8)

        def slow_producer():
            for i in range(520):  # just past one default flush window
                yield Event(0, READ, i % 7, 1)
            release.wait(10)
            for i in range(8):
                yield Event(0, READ, i % 7, 1)

        addr = str(tmp_path / "flush.sock")
        listener = TraceListener(addr)
        sender = threading.Thread(
            target=send_events, args=(info, slow_producer(), addr),
            daemon=True)
        sender.start()
        source = listener.accept(timeout=10)
        feed = iter(source)
        first = [next(feed) for _ in range(512)]
        # the flushed window arrived while the producer is still blocked
        assert not release.is_set()
        assert len(first) == 512
        release.set()
        rest = list(feed)
        sender.join(10)
        assert len(first) + len(rest) == 528

    def test_stale_unix_socket_file_is_reclaimed(self, tmp_path):
        # a server killed before accept leaves its socket file behind;
        # the next serve on the same path must reclaim it
        addr = str(tmp_path / "stale.sock")
        crashed = TraceListener(addr)
        # simulate SIGKILL: descriptors die (kernel releases the flock),
        # no cleanup runs, the socket file stays behind
        crashed._sock.close()
        crashed._sock = None
        crashed._release_lock()
        assert os.path.exists(addr)
        listener = TraceListener(addr)  # reclaims instead of EADDRINUSE
        client = _spawn_raw_client(addr, [dumps_trace_binary(figure1())])
        with listener.accept(timeout=10) as source:
            assert len(list(source)) == len(figure1())
        client.join()

    def test_live_endpoint_is_not_reclaimed(self, tmp_path):
        # a second server on the same path must be refused via the
        # endpoint lock, NOT via a connect-probe: a probe would be
        # accepted by the healthy server as its one allowed producer,
        # killing its session
        trace = figure1()
        addr = str(tmp_path / "busy.sock")
        alive = TraceListener(addr)
        with pytest.raises(OSError):
            TraceListener(addr)  # someone is listening: refuse to steal
        # the waiting server is undisturbed: its real producer still
        # connects and round-trips
        sender = threading.Thread(target=send_trace, args=(trace, addr),
                                  daemon=True)
        sender.start()
        with alive.accept(timeout=10) as source:
            assert len(list(source)) == len(trace)
        sender.join()

    def test_regular_file_at_endpoint_path_is_never_deleted(self, tmp_path):
        # reclaim must be confined to leftover sockets: a typo'd path
        # pointing at a real file is refused, not unlinked
        path = tmp_path / "notes.txt"
        path.write_text("do not delete")
        with pytest.raises(OSError, match="not a socket"):
            TraceListener(str(path))
        assert path.read_text() == "do not delete"

    def test_active_session_still_holds_the_endpoint(self, tmp_path):
        # the lock travels from listener to source: while a session is
        # being served, a new server on the path is still refused
        addr = str(tmp_path / "held.sock")
        listener = TraceListener(addr)
        client = _spawn_raw_client(addr, [dumps_trace_binary(figure1())],
                                   hold_open=1.0)
        source = listener.accept(timeout=10)
        with pytest.raises(OSError):
            TraceListener(addr)
        list(source)
        client.join()
        # released with the session: the path can be served again
        TraceListener(addr).close()

    def test_accept_timeout_cleans_up(self, tmp_path):
        addr = str(tmp_path / "never.sock")
        before = _open_fd_count()
        with pytest.raises(TimeoutError):
            open_live_source(addr, timeout=0.05)
        assert _open_fd_count() == before
        assert not os.path.exists(addr)  # bound path unlinked

    def test_clean_close_leaves_no_lock_sidecar(self, tmp_path):
        # regression: a clean shutdown used to leave <path>.lock behind,
        # accumulating stale sidecars across serve runs
        addr = str(tmp_path / "tidy.sock")
        TraceListener(addr).close()
        assert not os.path.exists(addr)
        assert not os.path.exists(addr + ".lock")

    def test_served_session_close_removes_lock_sidecar(self, tmp_path):
        # the lock travels listener -> source on accept; the *source's*
        # close is then responsible for removing the sidecar
        addr = str(tmp_path / "served.sock")
        listener = TraceListener(addr)
        client = _spawn_raw_client(addr, [dumps_trace_binary(figure1())])
        with listener.accept(timeout=10) as source:
            assert os.path.exists(addr + ".lock")  # held while serving
            list(source)
        client.join()
        assert not os.path.exists(addr + ".lock")
        assert not os.path.exists(addr)


class TestSocketAdversarial:
    def test_truncated_varint_at_read_boundary(self, tmp_path):
        # multi-byte varints cut so that EOF lands mid-varint, with the
        # packet boundary inside the varint as well
        wide = Trace([Event(0, WRITE, 1 << 20, 1 << 30),
                      Event(1, READ, 1 << 20, 1 << 30)], validate=False)
        blob = dumps_trace_binary(wide)
        cut = len(blob) - 2  # inside the final site varint
        addr = str(tmp_path / "tv.sock")
        listener = TraceListener(addr)
        client = _spawn_raw_client(
            addr, [blob[:cut - 3], blob[cut - 3:cut]], delay=0.05)
        source = listener.accept(timeout=10)
        with pytest.raises(TraceFormatError, match="truncated mid-event"):
            list(source)
        client.join()
        _assert_source_closed(source)

    def test_truncated_varint_reaches_engine_first(self, tmp_path):
        # engine twin: the whole first event reaches the analyses, then
        # the truncation error propagates with events_acked exact
        wide = Trace([Event(0, WRITE, 1 << 20, 1 << 30),
                      Event(1, READ, 1 << 20, 1 << 30)], validate=False)
        blob = dumps_trace_binary(wide)
        cut = len(blob) - 2  # inside the final site varint
        addr = str(tmp_path / "tv_engine.sock")
        listener = TraceListener(addr)
        client = _spawn_raw_client(
            addr, [blob[:cut - 3], blob[cut - 3:cut]], delay=0.05)
        source = listener.accept(timeout=10)
        recorder, session = recording_session(source.require_info())
        session.feed(source, max_events=1)
        assert session.events_acked == 1
        with pytest.raises(TraceFormatError, match="truncated mid-event"):
            for _ in session.drain(source, window=8):
                pass
        assert session.events_acked == 1
        assert recorder.seen == event_rows(wide.events[:1])
        client.join()
        _assert_source_closed(source)

    def test_mid_stream_disconnect(self, tmp_path):
        blob = dumps_trace_binary(figure1())
        addr = str(tmp_path / "dc.sock")
        listener = TraceListener(addr)
        client = _spawn_raw_client(addr, [blob[:-1]])  # dies mid-event
        source = listener.accept(timeout=10)
        with pytest.raises(TraceFormatError, match="truncated mid-event"):
            list(source)
        client.join()
        _assert_source_closed(source)

    def test_slow_writer_timeout_mid_stream(self, tmp_path):
        blob = dumps_trace_binary(figure1())
        addr = str(tmp_path / "slow.sock")
        listener = TraceListener(addr)
        # the header and most events arrive, then the producer goes
        # quiet (but keeps the connection open, so no EOF saves us)
        client = _spawn_raw_client(addr, [blob[:-4]], hold_open=2.0)
        source = listener.accept(timeout=0.2)
        with pytest.raises(TimeoutError):
            list(source)
        _assert_source_closed(source)
        client.join()

    def test_timeout_while_waiting_for_header(self, tmp_path):
        addr = str(tmp_path / "hdr.sock")
        before = _open_fd_count()
        listener = TraceListener(addr)
        client = _spawn_raw_client(addr, [MAGIC[:9]], hold_open=2.0)
        # the header never completes; construction itself must time out
        # and release both the listener and the accepted connection
        with pytest.raises(TimeoutError):
            listener.accept(timeout=0.2)
        client.join()
        assert _open_fd_count() <= before

    def test_garbage_header_closes_connection(self, tmp_path):
        addr = str(tmp_path / "junk.sock")
        before = _open_fd_count()
        listener = TraceListener(addr)
        client = _spawn_raw_client(addr, [b"\xff\xfe\x00garbage" * 4])
        with pytest.raises(TraceFormatError, match="not valid text"):
            listener.accept(timeout=10)
        client.join()
        assert _open_fd_count() <= before


class TestPipeSource:
    def _write_binary(self, path, trace):
        from repro.trace.binfmt import BinaryTraceWriter

        def run():
            with open(path, "wb") as fp:
                writer = BinaryTraceWriter(fp, trace)
                for event in trace.events:
                    writer.write(event)
                writer.flush()

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        return thread

    def test_fifo_round_trip(self, tmp_path):
        trace = figure1()
        path = str(tmp_path / "rt.fifo")
        os.mkfifo(path)
        writer = self._write_binary(path, trace)
        source = PipeTraceSource(path, timeout=10)
        assert source.require_info().num_threads == trace.num_threads
        events = list(source)
        writer.join()
        assert _same_events(events, trace.events)
        assert source._fp.closed

    def test_fifo_text_round_trip(self, tmp_path):
        trace = figure1()
        path = str(tmp_path / "txt.fifo")
        os.mkfifo(path)
        payload = dumps_trace(trace).encode("ascii")

        def run():
            with open(path, "wb") as fp:
                fp.write(payload)

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        source = PipeTraceSource(path, timeout=10)
        events = list(source)
        thread.join()
        assert _same_events(events, trace.events)

    def test_inherited_fd_pair(self):
        trace = figure1()
        r, w = os.pipe()
        blob = dumps_trace_binary(trace)

        def run():
            with os.fdopen(w, "wb") as fp:
                fp.write(blob)

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        source = PipeTraceSource(r, timeout=10)
        events = list(source)
        thread.join()
        assert _same_events(events, trace.events)

    def test_fifo_truncated_raises_and_closes(self, tmp_path):
        path = str(tmp_path / "tr.fifo")
        os.mkfifo(path)
        blob = dumps_trace_binary(figure1())

        def run():
            with open(path, "wb") as fp:
                fp.write(blob[:-1])

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        source = PipeTraceSource(path, timeout=10)
        with pytest.raises(TraceFormatError, match="truncated mid-event"):
            list(source)
        thread.join()
        assert source._fp.closed

    def test_fifo_no_producer_times_out(self, tmp_path):
        # regression: the blocking FIFO open sat outside the read
        # timeout's reach, so timeout= never fired when no producer
        # ever opened the write end
        path = str(tmp_path / "never.fifo")
        os.mkfifo(path)
        before = _open_fd_count()
        start = time.monotonic()
        with pytest.raises(TimeoutError):
            PipeTraceSource(path, timeout=0.3)
        assert time.monotonic() - start < 5
        assert _open_fd_count() <= before  # the nonblocking fd is closed

    def test_fifo_late_producer_within_timeout(self, tmp_path):
        trace = figure1()
        path = str(tmp_path / "late.fifo")
        os.mkfifo(path)

        def run():
            time.sleep(0.3)  # producer shows up late, but in time
            with open(path, "wb") as fp:
                fp.write(dumps_trace_binary(trace))

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        source = PipeTraceSource(path, timeout=10)
        events = list(source)
        thread.join()
        assert _same_events(events, trace.events)

    def test_fifo_slow_writer_timeout(self, tmp_path):
        path = str(tmp_path / "slow.fifo")
        os.mkfifo(path)
        blob = dumps_trace_binary(figure1())
        release = threading.Event()

        def run():
            with open(path, "wb") as fp:
                # header and most events, then silence with the write
                # end still open (no EOF)
                fp.write(blob[:-4])
                fp.flush()
                release.wait(5)

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        source = PipeTraceSource(path, timeout=0.2)
        with pytest.raises(TimeoutError):
            list(source)
        release.set()
        thread.join()
        assert source._fp.closed

    def test_header_failure_closes_opened_fifo(self, tmp_path):
        path = str(tmp_path / "junk.fifo")
        os.mkfifo(path)
        done = threading.Event()

        def run():
            with open(path, "wb") as fp:
                fp.write(b"\xff\xfe\x00garbage" * 4)
            done.set()

        before = _open_fd_count()
        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        with pytest.raises(TraceFormatError, match="not valid text"):
            PipeTraceSource(path, timeout=10)
        thread.join()
        done.wait(5)
        assert _open_fd_count() <= before


class _ForgetfulStream(TraceStreamBase):
    """A reader whose ``_decode`` has no ``finally`` of its own — the
    base class must still close an owned handle when it fails or
    finishes mid-iteration (the latent one-shot bug class)."""

    def _read_header(self) -> None:
        pass

    def _decode(self, limit):
        end = self._data.find(b"\n", self._pos)
        if end < 0:
            return [], [], [], []
        line = self._data[self._pos:end]
        self._pos = end + 1
        if line.startswith(b"boom"):
            raise TraceFormatError("boom mid-iteration")
        return [READ], [0], [0], [0]


class TestMidIterationClose:
    def test_failure_mid_iteration_closes_owned_handle(self, tmp_path):
        path = tmp_path / "boom.txt"
        path.write_text("ok\nok\nboom\n")
        stream = _ForgetfulStream(str(path))
        with pytest.raises(TraceFormatError, match="mid-iteration"):
            list(stream)
        assert stream._fp.closed

    def test_exhaustion_closes_owned_handle(self, tmp_path):
        path = tmp_path / "ok.txt"
        path.write_text("ok\nok\n")
        stream = _ForgetfulStream(str(path))
        assert len(list(stream)) == 2
        assert stream._fp.closed

    def test_unowned_handle_survives_failure(self):
        fp = io.StringIO("ok\nboom\n")
        stream = _ForgetfulStream(fp)
        with pytest.raises(TraceFormatError):
            list(stream)
        assert not fp.closed  # not ours to close

    def test_one_shot_contract_still_enforced(self, tmp_path):
        path = tmp_path / "ok.txt"
        path.write_text("ok\n")
        stream = _ForgetfulStream(str(path))
        list(stream)
        with pytest.raises(RuntimeError, match="one-shot"):
            iter(stream)
