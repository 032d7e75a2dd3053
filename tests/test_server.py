"""Tests for the multi-tenant detection server (repro.server).

Covers the session handshake frames, concurrent tenants whose
summaries must be byte-identical to solo ``repro analyze``, the
reconnect/refusal/eviction state machine, the MI control socket, and
the analysis-parallel (``workers > 1``) tenant path.
"""

import io
import json
import os
import re
import socket
import threading
import time

import pytest

from repro.core.engine import run_analyses
from repro.reporting import print_entries
from repro.server import ServerApp, ServerConfig
from repro.server.mi import control_endpoint, query
from repro.trace.binfmt import BinaryTraceWriter
from repro.trace.live import (
    HELLO_MAGIC,
    _read_reply_line,
    _SendallSink,
    connect_endpoint,
    format_hello,
    format_refuse,
    format_welcome,
    parse_hello,
    parse_welcome,
    read_handshake,
    send_trace,
)
from repro.trace.stream import TraceFormatError
from repro.trace.trace import TraceInfo
from repro.workloads import figure1
from repro.workloads.dacapo import dacapo_trace


@pytest.fixture(scope="module")
def avrora():
    """A small racy trace (~1.3k events, 45 st-wdc races)."""
    return dacapo_trace("avrora", scale=0.05, cache=False)


def _wait_for(pred, timeout=20.0, what="condition"):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if pred():
            return
        time.sleep(0.02)
    pytest.fail("timed out waiting for {}".format(what))


def solo_summary(trace, analyses=("st-wdc",), max_races=10):
    """What ``repro analyze`` prints for this trace — the byte-identical
    reference for a tenant's summary block."""
    result = run_analyses(trace, list(analyses))
    buf = io.StringIO()
    print_entries(result, max_races=max_races, out=buf)
    return buf.getvalue()


def tenant_block(out_text, tenant):
    """Extract one tenant's summary block: (state, events, body)."""
    pattern = (r"--- tenant {0}: (\w+) after (\d+) events ---\n"
               r"(.*?)--- end tenant {0} ---\n").format(re.escape(tenant))
    match = re.search(pattern, out_text, re.S)
    if match is None:
        return None
    return match.group(1), int(match.group(2)), match.group(3)


class _Server:
    """A ServerApp on a tmp unix socket, running in a thread."""

    def __init__(self, tmp_path, name="srv.sock", **overrides):
        self.addr = str(tmp_path / name)
        cfg = dict(endpoint=self.addr, analyses=["st-wdc"], multi=True,
                   timeout=10.0, accept_poll=0.05)
        cfg.update(overrides)
        self.config = ServerConfig(**cfg)
        self.out, self.err = io.StringIO(), io.StringIO()
        self.app = ServerApp(self.config, out=self.out, err=self.err)
        self.code = None
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        self.code = self.app.run()

    def __enter__(self):
        self._thread.start()
        _wait_for(lambda: self.app._listener is not None,
                  what="server bind")
        return self

    def __exit__(self, exc_type, exc, tb):
        self.app.stop()
        self._thread.join(timeout=30)
        assert not self._thread.is_alive(), "server thread wedged"
        return False

    def stop(self):
        self.app.stop()
        self._thread.join(timeout=30)
        assert not self._thread.is_alive()

    def block(self, tenant):
        return tenant_block(self.out.getvalue(), tenant)

    def wait_block(self, tenant):
        _wait_for(lambda: self.block(tenant) is not None,
                  what="summary block for {}".format(tenant))
        return self.block(tenant)

    def session_state(self, tenant):
        sess = self.app.sessions.get(tenant)
        return None if sess is None else sess.state


def _hello_conn(addr, tenant, total=None, timeout=10.0):
    """Producer-side handshake; returns (socket, resume_offset)."""
    sock = connect_endpoint(addr, connect_timeout=timeout)
    sock.sendall(format_hello(tenant, total=total))
    resume = parse_welcome(_read_reply_line(sock, timeout))
    return sock, resume


def _send_binary_events(sock, trace, events):
    writer = BinaryTraceWriter(_SendallSink(sock), trace)
    for event in events:
        writer.write(event)
    writer.flush()


def _abort(sock):
    """Close with RST so the server sees a hard producer death."""
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                    struct_pack_linger())
    sock.close()


def struct_pack_linger():
    import struct
    return struct.pack("ii", 1, 0)


class TestHandshakeFrames:
    def test_hello_round_trip(self):
        line = format_hello("web-1", total=123)
        assert line.startswith(HELLO_MAGIC) and line.endswith(b"\n")
        parsed = parse_hello(line.rstrip(b"\n"))
        assert parsed == {"tenant": "web-1", "resume": 0, "total": 123}

    def test_hello_unknown_total(self):
        parsed = parse_hello(format_hello("a.b_c-d", resume=7).rstrip(b"\n"))
        assert parsed["resume"] == 7 and parsed["total"] is None

    @pytest.mark.parametrize("tenant", ["", "has space", "x" * 65, "a/b"])
    def test_bad_tenant_ids_rejected(self, tenant):
        with pytest.raises(ValueError):
            format_hello(tenant)
        bad = HELLO_MAGIC + "tenant={} resume=0 total=?".format(
            tenant).encode("latin-1")
        with pytest.raises(TraceFormatError):
            parse_hello(bad)

    def test_welcome_and_refuse_round_trip(self):
        assert parse_welcome(format_welcome(42).rstrip(b"\n")) == 42
        with pytest.raises(TraceFormatError, match="refused session: busy"):
            parse_welcome(format_refuse("busy").rstrip(b"\n"))
        with pytest.raises(TraceFormatError, match="welcome"):
            parse_welcome(b"junk")

    def test_read_handshake_parses_hello_and_keeps_leftover(self):
        a, b = socket.socketpair()
        try:
            b.sendall(format_hello("t1", total=9) + b"# repro trace")
            hello, prefix = read_handshake(a, timeout=5.0)
            assert hello["tenant"] == "t1" and hello["total"] == 9
            assert prefix == b"# repro trace"
        finally:
            a.close()
            b.close()

    def test_read_handshake_passes_legacy_bytes_through(self):
        a, b = socket.socketpair()
        try:
            b.sendall(b"# repro trace v1: threads=2\n0 r 1 @ 3\n")
            b.shutdown(socket.SHUT_WR)
            hello, prefix = read_handshake(a, timeout=5.0)
            assert hello is None
            # every sniffed byte is handed back for the format readers
            assert b"# repro trace v1".startswith(prefix) or \
                prefix.startswith(b"# repro ")
        finally:
            a.close()
            b.close()

    def test_read_handshake_bounds_the_frame(self):
        a, b = socket.socketpair()
        try:
            b.sendall(HELLO_MAGIC + b"x" * 1024)
            with pytest.raises(TraceFormatError, match="exceeds"):
                read_handshake(a, timeout=5.0)
        finally:
            a.close()
            b.close()


class TestMultiTenantServe:
    def test_concurrent_tenants_match_solo_analyze(self, tmp_path, avrora):
        solo = solo_summary(avrora)
        with _Server(tmp_path) as srv:
            threads = [threading.Thread(
                target=send_trace, args=(avrora, srv.addr),
                kwargs={"tenant": "t{}".format(i), "binary": i % 2 == 0},
                daemon=True) for i in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
            for i in range(4):
                state, events, body = srv.wait_block("t{}".format(i))
                assert state == "complete"
                assert events == len(avrora)
                assert body == solo
            srv.stop()
        assert srv.code == 1  # races found, no failures

    def test_anonymous_legacy_producer_completes(self, tmp_path, avrora):
        with _Server(tmp_path) as srv:
            send_trace(avrora, srv.addr)
            state, events, body = srv.wait_block("anon/1")
            assert state == "complete" and events == len(avrora)
            assert body == solo_summary(avrora)
        # races stream tagged with the generated tenant name
        assert "[anon/1] race st-wdc" in srv.out.getvalue()

    def test_second_producer_for_attached_tenant_refused_busy(
            self, tmp_path, avrora):
        with _Server(tmp_path) as srv:
            sock, resume = _hello_conn(srv.addr, "dup", total=len(avrora))
            assert resume == 0
            try:
                with pytest.raises(TraceFormatError, match="busy"):
                    _hello_conn(srv.addr, "dup")
            finally:
                sock.close()

    def test_resume_from_unreachable_offset_refused_gap(self, tmp_path):
        with _Server(tmp_path) as srv:
            sock = connect_endpoint(srv.addr, connect_timeout=10)
            try:
                sock.sendall(format_hello("fresh", resume=5))
                with pytest.raises(TraceFormatError, match="gap"):
                    parse_welcome(_read_reply_line(sock, 10.0))
            finally:
                sock.close()

    def test_resume_after_abrupt_disconnect(self, tmp_path, avrora):
        cut = len(avrora) // 2
        with _Server(tmp_path) as srv:
            sock, resume = _hello_conn(srv.addr, "web", total=len(avrora))
            assert resume == 0
            _send_binary_events(sock, avrora, avrora.events[:cut])
            _wait_for(lambda: (srv.app.sessions["web"].events_acked
                               >= cut - 512), what="first half applied")
            _abort(sock)
            _wait_for(lambda: srv.session_state("web") == "detached",
                      what="detach")
            acked = srv.app.sessions["web"].events_acked
            sent = send_trace(avrora, srv.addr, tenant="web")
            assert sent == len(avrora) - acked
            state, events, body = srv.wait_block("web")
            assert state == "complete" and events == len(avrora)
            assert body == solo_summary(avrora)
            assert "resumed at event {}".format(acked) in srv.err.getvalue()

    def test_reconnect_with_changed_dimensions_is_rejected(
            self, tmp_path, avrora):
        other = figure1()  # different thread/var counts
        with _Server(tmp_path) as srv:
            sock, _ = _hello_conn(srv.addr, "web", total=len(avrora))
            _send_binary_events(sock, avrora, avrora.events[:100])
            _wait_for(lambda: srv.app.sessions["web"].events_acked > 0,
                      what="some events applied")
            sock.close()
            _wait_for(lambda: srv.session_state("web") == "detached",
                      what="detach")
            acked = srv.app.sessions["web"].events_acked
            sock2, resume = _hello_conn(srv.addr, "web")
            assert resume == acked
            _send_binary_events(sock2, other, other.events)
            sock2.close()
            _wait_for(lambda: "different trace dimensions"
                      in srv.err.getvalue(), what="mismatch log")
            # the original state survived the bad reconnect
            assert srv.session_state("web") == "detached"
            assert srv.app.sessions["web"].events_acked == acked

    def test_resume_grace_expiry_seals_the_session(self, tmp_path, avrora):
        with _Server(tmp_path, resume_grace=0.2) as srv:
            sock, _ = _hello_conn(srv.addr, "gone", total=len(avrora))
            _send_binary_events(sock, avrora, avrora.events[:200])
            sock.close()  # clean FIN but short of the declared total
            state, events, body = srv.wait_block("gone")
            assert state == "failed"
            assert "resume grace expired" in srv.err.getvalue()
            srv.stop()
        assert srv.code == 2  # a failed session is a failed serve

    def test_idle_sessions_are_evicted(self, tmp_path, avrora):
        with _Server(tmp_path, idle_ttl=0.2) as srv:
            send_trace(avrora, srv.addr, tenant="brief")
            srv.wait_block("brief")
            _wait_for(lambda: "brief" not in srv.app.sessions,
                      what="eviction")
            doc = query(srv.addr, {"command": "status"})
            assert doc["results"]["data"] == []

    def test_status_and_metadata_documents(self, tmp_path, avrora):
        with _Server(tmp_path) as srv:
            send_trace(avrora, srv.addr, tenant="seen")
            srv.wait_block("seen")
            meta = query(srv.addr, {"command": "metadata"})
            assert meta["class"] == "metadata"
            assert "sessions" in meta["table-classes"]
            assert "races" in meta["table-classes"]
            doc = query(srv.addr, {"command": "status"})
            assert doc["class"] == "results"
            rows = doc["results"]["data"]
            assert [r[0] for r in rows] == ["seen"]
            tenant, state, events, total, races, eps, lag, reconn = rows[0]
            assert state == "complete" and events == len(avrora)
            assert total == len(avrora) and races == 45 and reconn == 0
            assert doc["server"]["pid"] == os.getpid()
            assert doc["server"]["rss_kb"] > 0
            assert doc["server"]["session_counts"] == {"complete": 1}

    def test_races_command_replays_retained_races(self, tmp_path, avrora):
        with _Server(tmp_path, retain_races=16) as srv:
            send_trace(avrora, srv.addr, tenant="r")
            srv.wait_block("r")
            doc = query(srv.addr, {"command": "races", "tenant": "r"})
            assert doc["races-total"] == 45
            assert len(doc["results"]["data"]) == 16  # bounded replay
            analysis, event, tid, var, site, access, kinds = \
                doc["results"]["data"][-1]
            assert analysis == "st-wdc" and access in ("read", "write")
            missing = query(srv.addr, {"command": "races", "tenant": "no"})
            assert missing["class"] == "error"

    def test_shutdown_command_stops_the_server(self, tmp_path):
        srv = _Server(tmp_path)
        with srv:
            doc = query(srv.addr, {"command": "shutdown"})
            assert doc["results"]["class"] == "shutdown"
            srv._thread.join(timeout=30)
            assert not srv._thread.is_alive()
        assert srv.code == 0  # no sessions, no races

    def test_unknown_and_malformed_commands_get_error_docs(self, tmp_path):
        with _Server(tmp_path) as srv:
            assert query(srv.addr, {"command": "frobnicate"})["class"] \
                == "error"
            assert "command" in query(srv.addr, {})["error"]

    def test_endpoint_files_cleaned_up_on_exit(self, tmp_path):
        srv = _Server(tmp_path)
        with srv:
            assert os.path.exists(srv.addr)
            assert os.path.exists(srv.addr + ".lock")
            assert os.path.exists(control_endpoint(srv.addr))
        assert not os.path.exists(srv.addr)
        assert not os.path.exists(srv.addr + ".lock")
        assert not os.path.exists(control_endpoint(srv.addr))

    def test_jsonl_emission_tags_tenants(self, tmp_path, avrora):
        with _Server(tmp_path, emit="jsonl") as srv:
            send_trace(avrora, srv.addr, tenant="j")
            _wait_for(lambda: '"type": "summary"' in srv.out.getvalue(),
                      what="jsonl summary")
        lines = [json.loads(line)
                 for line in srv.out.getvalue().splitlines()]
        kinds = {line["type"] for line in lines}
        assert kinds == {"race", "session", "summary"}
        assert all(line["tenant"] == "j" for line in lines)
        summary = [l for l in lines if l["type"] == "summary"][0]
        assert summary["dynamic"] == 45 and summary["events"] == len(avrora)


class TestConnectionEnds:
    """Every way a served connection ends reaches one disposition rule
    (TenantSession.end_connection)."""

    def test_refused_first_header_fails_the_session(self, tmp_path):
        # more threads than packed epochs hold: no engine to resume
        with _Server(tmp_path) as srv:
            sock, _ = _hello_conn(srv.addr, "wide", total=10)
            _send_binary_events(sock, TraceInfo(num_threads=70_000), [])
            state, events, body = srv.wait_block("wide")
            assert (state, events, body) == ("failed", 0, "")
            assert "cannot analyze this feed" in srv.err.getvalue()
            sock.close()
            with pytest.raises(TraceFormatError, match="finished"):
                _hello_conn(srv.addr, "wide")
            srv.stop()
        assert srv.code == 2

    def test_hangup_before_the_welcome_stays_resumable(self, tmp_path,
                                                      avrora):
        with _Server(tmp_path) as srv:
            sock = connect_endpoint(srv.addr, connect_timeout=10)
            sock.sendall(format_hello("early", total=len(avrora)))
            sock.close()  # before reading the welcome
            _wait_for(lambda: srv.session_state("early") == "detached",
                      what="detach")
            assert send_trace(avrora, srv.addr, tenant="early") \
                == len(avrora)
            state, events, body = srv.wait_block("early")
            assert state == "complete" and events == len(avrora)
            assert body == solo_summary(avrora)
            assert "tenant early: resumed at event 0" in srv.err.getvalue()

    def test_unexpected_engine_error_fails_named_and_anonymous(
            self, tmp_path, avrora, monkeypatch):
        from repro.core.engine import EngineSession

        real_feed = EngineSession.feed

        def feed(self, events, max_events=None):
            if self.events_processed >= 256:
                raise RuntimeError("engine exploded")
            return real_feed(self, events, max_events)

        monkeypatch.setattr(EngineSession, "feed", feed)
        with _Server(tmp_path) as srv:
            for tenant in (None, "named"):
                try:
                    send_trace(avrora, srv.addr, tenant=tenant)
                except OSError:
                    pass  # the server may hang up with bytes unread
            for tenant in ("anon/1", "named"):
                state, events, _ = srv.wait_block(tenant)
                assert (state, events) == ("failed", 256), tenant
                assert "tenant {}: feed failed after 256 events: " \
                    "RuntimeError('engine exploded')".format(tenant) \
                    in srv.err.getvalue()
            with pytest.raises(TraceFormatError, match="finished"):
                _hello_conn(srv.addr, "named")
            srv.stop()
        assert srv.code == 2


class TestParallelTenants:
    def test_workers_tenant_matches_solo(self, tmp_path, avrora):
        analyses = ["st-wdc", "fto-hb"]
        with _Server(tmp_path, analyses=analyses, workers=2) as srv:
            send_trace(avrora, srv.addr, tenant="par")
            state, events, body = srv.wait_block("par")
            assert state == "complete" and events == len(avrora)
            assert body == solo_summary(avrora, analyses)

    def test_workers_tenant_survives_reconnect(self, tmp_path, avrora):
        cut = len(avrora) // 3
        with _Server(tmp_path, workers=2) as srv:
            sock, _ = _hello_conn(srv.addr, "par", total=len(avrora))
            _send_binary_events(sock, avrora, avrora.events[:cut])
            _wait_for(lambda: srv.app.sessions["par"].events_acked > 0,
                      what="first installment applied")
            sock.close()
            _wait_for(lambda: srv.session_state("par") == "detached",
                      what="detach")
            send_trace(avrora, srv.addr, tenant="par")
            state, events, body = srv.wait_block("par")
            assert state == "complete" and events == len(avrora)
            assert body == solo_summary(avrora)

    def test_workers_resume_emits_every_race_live(self, tmp_path, avrora):
        # each connection's drain ends at a barrier with the workers, so
        # every race of the events it fed is printed live — before the
        # connection is released, and before the summary
        analyses = ["st-wdc", "fto-hb"]
        expected = run_analyses(avrora, analyses)
        cut = len(avrora) // 2
        with _Server(tmp_path, analyses=analyses, workers=2,
                     emit="jsonl") as srv:
            sock, _ = _hello_conn(srv.addr, "par", total=len(avrora))
            _send_binary_events(sock, avrora, avrora.events[:cut])
            _wait_for(lambda: srv.app.sessions["par"].events_acked >= cut,
                      what="first half applied")
            _abort(sock)
            _wait_for(lambda: srv.session_state("par") == "detached",
                      what="detach")
            first = [json.loads(line) for line in
                     srv.out.getvalue().splitlines()]
            assert sorted((d["analysis"], d["event"]) for d in first) == \
                sorted((name, race.index) for name in analyses
                       for race in expected.report(name).races
                       if race.index < cut)
            send_trace(avrora, srv.addr, tenant="par")
            _wait_for(lambda: '"type": "summary"' in srv.out.getvalue(),
                      what="jsonl summary")
        lines = [json.loads(line)
                 for line in srv.out.getvalue().splitlines()]
        kinds = [line["type"] for line in lines]
        assert "race" not in kinds[kinds.index("session"):]
        for name in analyses:
            live = [line["event"] for line in lines
                    if line["type"] == "race" and line["analysis"] == name]
            assert live == [r.index for r in expected.report(name).races]
            summary = [line for line in lines if line["type"] == "summary"
                       and line["analysis"] == name]
            assert summary[0]["dynamic"] == len(live) > 0


def _reply_server(payload):
    """A one-shot TCP 'control server': accepts one connection, reads
    the request line, sends ``payload`` verbatim, and closes.  Returns
    (endpoint, thread)."""
    sock = socket.socket(socket.AF_INET)
    sock.bind(("127.0.0.1", 0))
    sock.listen(1)
    endpoint = "127.0.0.1:{}".format(sock.getsockname()[1])

    def serve():
        try:
            conn, _ = sock.accept()
            conn.settimeout(10.0)
            data = b""
            while b"\n" not in data:
                chunk = conn.recv(4096)
                if not chunk:
                    break
                data += chunk
            try:
                conn.sendall(payload)
            except OSError:
                pass  # the client bails at its read cap; EPIPE is fine
            conn.close()
        finally:
            sock.close()

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    return endpoint, thread


class TestControlPathEdges:
    """The MI control-path bugfixes: port derivation at the top of the
    TCP range, connection failures that name ``--control``, and replies
    that come back without their newline terminator."""

    def test_control_endpoint_derivation(self):
        assert control_endpoint("example.org:1234") == "example.org:1235"
        assert control_endpoint("/tmp/x.sock").endswith(".ctl")

    def test_control_endpoint_port_65535_refused_with_hint(self):
        with pytest.raises(ValueError) as exc:
            control_endpoint("example.org:65535")
        assert "--control" in str(exc.value)
        assert "65536" in str(exc.value)

    def test_connect_failure_names_control_flag(self):
        # a port nothing listens on: bind-then-release
        probe = socket.socket(socket.AF_INET)
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        with pytest.raises(OSError) as exc:
            query("127.0.0.1:{}".format(port - 1), {"command": "status"},
                  timeout=2.0)
        message = str(exc.value)
        assert "cannot connect to control endpoint" in message
        assert "--control" in message  # derived endpoint: hint included
        with pytest.raises(OSError) as exc:
            query("ignored", {"command": "status"}, timeout=2.0,
                  control="127.0.0.1:{}".format(port))
        assert "--control" not in str(exc.value)  # explicit: no hint

    def test_truncated_control_reply_is_descriptive(self):
        endpoint, thread = _reply_server(b'{"class": "results"')
        with pytest.raises(ValueError, match="truncated control reply"):
            query("ignored", {"command": "status"}, control=endpoint)
        thread.join(timeout=10)

    def test_oversized_control_reply_is_descriptive(self):
        endpoint, thread = _reply_server(b"x" * ((1 << 22) + 10))
        with pytest.raises(ValueError, match="oversized control reply"):
            query("ignored", {"command": "status"}, control=endpoint,
                  timeout=30.0)
        thread.join(timeout=30)

    def test_control_port_65535_falls_back_to_ephemeral(self):
        """The server half of the fix: a trace listener on port 65535
        must not crash binding its control socket (port+1 would be
        65536, an OverflowError the old OSError fallback never caught)
        — it binds an ephemeral port and serves MI on it."""
        app = ServerApp(ServerConfig(endpoint="127.0.0.1:65535",
                                     multi=True, accept_poll=0.05))
        thread = app._start_control("127.0.0.1:65535")
        try:
            assert app.control_address is not None
            port = int(app.control_address.rsplit(":", 1)[1])
            assert 0 < port < 65535 and port != 65535
            doc = query("ignored", {"command": "metadata"},
                        control=app.control_address)
            assert doc["class"] == "metadata"
        finally:
            app._stop.set()
            app._close_control()
            thread.join(timeout=10)
            assert not thread.is_alive()
