"""The multi-tenant detection server: accept loop, session registry,
and the single-producer compatibility path.

:class:`ServerApp` is what ``repro serve --multi`` runs: one
:class:`~repro.trace.live.TraceListener` accepting any number of
producers, a thread per connection, and a registry of
:class:`~repro.server.session.TenantSession` objects that outlive the
connections feeding them.  The accept loop polls on a short timeout so
it doubles as the housekeeping tick (resume-grace expiry, idle-session
eviction, shutdown checks) — no dedicated timer thread.

Output discipline: races stream to stdout the moment they are found
(tagged with their tenant), and each session's final summary block is
rendered into a buffer and written under one lock, so concurrent
tenants never interleave *within* a block — the block's body is
byte-identical to ``repro analyze`` of the same trace, which is what
the server-smoke CI job asserts.

:func:`run_single` is the legacy one-producer ``repro serve`` body,
byte-compatible with the pre-server CLI (same banner, same summary,
same 0/1/2/130 exit contract); the CLI dispatches here so
:mod:`repro.cli` itself stays a thin shell.
"""

from __future__ import annotations

import dataclasses
import io
import json
import os
import socket
import sys
import threading
import time
from typing import Dict, List, Optional, Sequence

from repro.reporting import (emit_live_race, emit_summary_jsonl,
                             print_entries)
from repro.server.session import ATTACHED, DETACHED, FAILED, TenantSession
from repro.trace.live import (SocketTraceSource, TraceListener,
                              format_refuse, format_welcome, parse_endpoint,
                              read_handshake)
from repro.trace.stream import TraceFormatError

__all__ = [
    "ServerApp",
    "ServerConfig",
    "run_single",
]


@dataclasses.dataclass
class ServerConfig:
    """Everything a detection server needs, CLI-independent.

    ``endpoint`` is a Unix socket path or ``HOST:PORT``.  ``timeout``
    bounds the producer handshake and every feed read (``None`` = wait
    forever, like classic ``serve``).  ``resume_grace`` is how long a
    detached named session waits for its producer to come back before
    it is sealed; ``idle_ttl`` how long a sealed session stays visible
    to ``status`` before eviction.  ``max_pending_races`` bounds
    retained race *records* per analysis (counts stay exact — the
    engine's bounded-state knob); ``retain_races`` bounds the races the
    MI ``races`` command can replay per session.
    """

    endpoint: str
    analyses: Sequence[str] = ("st-wdc",)
    workers: int = 1
    window: int = 256
    timeout: Optional[float] = None
    emit: str = "text"
    max_races: int = 10
    multi: bool = False
    max_pending_races: Optional[int] = None
    resume_grace: float = 30.0
    idle_ttl: float = 300.0
    retain_races: int = 256
    accept_poll: float = 0.25
    #: bounded-window mode: age out per-variable analysis metadata older
    #: than this many events (None = keep everything forever); with
    #: ``max_pending_races`` this gives bounded state on infinite feeds
    window_events: Optional[int] = None


class ServerApp:
    """A running multi-tenant server (``repro serve --multi``).

    Construct with a :class:`ServerConfig` and call :meth:`run`, which
    blocks until :meth:`stop` (the MI ``shutdown`` command) or
    KeyboardInterrupt, then seals every open session, prints their
    summaries, and returns the CLI exit code: 2 if any session failed,
    else 1 if any found races, else 0 (130 when interrupted).

    Example::

        app = ServerApp(ServerConfig("/tmp/repro.sock", multi=True))
        threading.Thread(target=app.run, daemon=True).start()
        send_trace(trace, "/tmp/repro.sock", tenant="web-1")
    """

    def __init__(self, config: ServerConfig, out=None, err=None):
        self.config = config
        self.out = out or sys.stdout
        self.err = err or sys.stderr
        self.sessions: Dict[str, TenantSession] = {}
        self._registry_lock = threading.Lock()
        self._print_lock = threading.Lock()
        self._state_lock = threading.Lock()
        self._stop = threading.Event()
        self._threads: List[threading.Thread] = []
        self._live_conns: set = set()
        self._anon_counter = 0
        self._exit_code = 0
        self._started = time.monotonic()
        self._listener: Optional[TraceListener] = None
        self._ctl_sock: Optional[socket.socket] = None
        self._ctl_path: Optional[str] = None
        self.control_address: Optional[str] = None

    # -- logging -----------------------------------------------------------
    def _log(self, message: str) -> None:
        with self._print_lock:
            print(message, file=self.err)
            self.err.flush()

    # -- lifecycle ---------------------------------------------------------
    def stop(self) -> None:
        """Ask the accept loop to wind down (thread-safe; the MI
        ``shutdown`` command calls this)."""
        self._stop.set()

    def run(self) -> int:
        """Serve until stopped; returns the process exit code."""
        config = self.config
        listener = TraceListener(config.endpoint, backlog=16)
        self._listener = listener
        ctl_thread = self._start_control(listener.describe())
        self._log("serving on {} (analyses: {}; multi-tenant; control: "
                  "{})".format(listener.describe(),
                               ", ".join(config.analyses),
                               self.control_address))
        interrupted = False
        try:
            while not self._stop.is_set():
                try:
                    conn = listener.accept_connection(
                        timeout=config.accept_poll)
                except TimeoutError:
                    self._sweep()
                    continue
                except OSError:
                    break
                thread = threading.Thread(
                    target=self._serve_conn, args=(conn,), daemon=True)
                self._threads.append(thread)
                thread.start()
        except KeyboardInterrupt:
            interrupted = True
        finally:
            self._stop.set()
            listener.close()
        # force-close live feeds so their threads observe the shutdown,
        # then give each a moment to detach cleanly
        with self._state_lock:
            conns = list(self._live_conns)
        for conn in conns:
            try:
                conn.close()
            except OSError:
                pass
        for thread in self._threads:
            thread.join(timeout=5.0)
        ctl_thread.join(timeout=5.0)
        self._close_control()
        self._seal_all()
        if interrupted:
            self._log("interrupted; sealed {} session(s)".format(
                len(self.sessions)))
            return 130
        return self._exit_code

    def _seal_all(self) -> None:
        with self._registry_lock:
            sessions = list(self.sessions.values())
        for sess in sessions:
            self._seal(sess)

    # -- housekeeping tick -------------------------------------------------
    def _sweep(self) -> None:
        """Accept-loop tick: expire resume grace, evict sealed idlers."""
        now = time.monotonic()
        config = self.config
        with self._registry_lock:
            items = list(self.sessions.items())
        for name, sess in items:
            with sess.lock:
                state = sess.state
                idle = now - sess.last_active
            if state == DETACHED and idle > config.resume_grace \
                    and sess.reconnects >= 0:
                self._log("tenant {}: resume grace expired after {} "
                          "events".format(name, sess.events_acked))
                self._seal(sess, only_if_detached=True)
            elif sess.sealed and idle > config.idle_ttl:
                with self._registry_lock:
                    if self.sessions.get(name) is sess:
                        del self.sessions[name]

    # -- per-connection thread ---------------------------------------------
    def _next_anon(self) -> str:
        with self._state_lock:
            self._anon_counter += 1
            # "/" cannot appear in a hello tenant id, so generated names
            # can never collide with a named session
            return "anon/{}".format(self._anon_counter)

    def _track(self, conn, on: bool) -> None:
        with self._state_lock:
            if on:
                self._live_conns.add(conn)
            else:
                self._live_conns.discard(conn)

    def _serve_conn(self, conn: socket.socket) -> None:
        """Serve one producer connection.  Handshake, attach, header,
        engine build and feed run in one block; what ended it — None
        for a clean EOF, else the exception it raised — reaches
        :meth:`_end_connection` exactly once when a session was
        attached.  A connection refused or rejected before attaching
        has no session to end."""
        config = self.config
        sess: Optional[TenantSession] = None
        source = None
        error: Optional[Exception] = None
        self._track(conn, True)
        try:
            try:
                hello, prefix = read_handshake(conn, config.timeout)
                name = self._next_anon() if hello is None \
                    else hello["tenant"]
                with self._registry_lock:
                    tenant = self.sessions.get(name)
                    if tenant is None:
                        tenant = self.sessions[name] = TenantSession(
                            name, config, anonymous=hello is None)
                ok, outcome = tenant.try_attach(hello)
                if not ok:
                    self._log("tenant {}: refused ({})".format(
                        name, outcome))
                    conn.sendall(format_refuse(outcome))
                else:
                    sess = tenant
                    if hello is not None:
                        conn.sendall(format_welcome(outcome))
                        if sess.reconnects:
                            self._log("tenant {}: resumed at event "
                                      "{}".format(name, outcome))
                    # the constructor parses the wire header, so a
                    # producer dying mid-header ends the block here
                    source = SocketTraceSource(conn, timeout=config.timeout,
                                               prefix=prefix)
                    sess.ensure_engine(source.require_info())
                    for analysis, race in sess.pump(source):
                        self._emit_race(sess, analysis, race)
            except Exception as exc:  # end_connection sorts it out
                error = exc
            if sess is not None:
                self._end_connection(sess, error)
            elif error is not None:
                self._log("rejected connection: {}".format(error))
        finally:
            self._track(conn, False)
            if source is not None:
                source.close()
            else:
                try:
                    conn.close()
                except OSError:
                    pass

    def _end_connection(self, sess: TenantSession,
                        error: Optional[Exception]) -> None:
        """Log what :meth:`TenantSession.end_connection` decided for an
        ended connection, and seal the session unless it awaits a
        resume."""
        disposition = sess.end_connection(error)
        if disposition == DETACHED:
            self._log("tenant {}: detached at event {}{} (resume within "
                      "{:.0f}s)".format(
                          sess.name, sess.events_acked,
                          "" if error is None else " ({})".format(error),
                          self.config.resume_grace))
            return
        if disposition == FAILED:
            self._log("tenant {}: feed failed after {} events: {!r}".format(
                sess.name, sess.events_acked, error))
        self._seal(sess)

    # -- output ------------------------------------------------------------
    def _emit_race(self, sess: TenantSession, name: str, race) -> None:
        with self._print_lock:
            emit_live_race(name, race, self.config.emit == "jsonl",
                           tenant=sess.name, out=self.out)

    def _seal(self, sess: TenantSession,
              only_if_detached: bool = False) -> None:
        """Seal one session and print its summary block exactly once
        (:meth:`TenantSession.finalize` decides complete or failed).

        ``only_if_detached`` is the sweep's guard: between its state
        snapshot and this call a producer may have resumed, and an
        attached session must never be sealed under a live feed.
        """
        with sess.lock:
            if sess.seal_claimed:
                return
            if only_if_detached and sess.state == ATTACHED:
                return
            sess.seal_claimed = True
        result = sess.finalize()
        config = self.config
        block = io.StringIO()
        if config.emit == "jsonl":
            payload = {"type": "session", "tenant": sess.name,
                       "state": sess.state,
                       "events": 0 if result is None
                       else result.events_processed}
            print(json.dumps(payload, sort_keys=True), file=block)
            races = (emit_summary_jsonl(result, tenant=sess.name, out=block)
                     if result is not None else 0)
        else:
            print("--- tenant {}: {} after {} events ---".format(
                sess.name, sess.state,
                0 if result is None else result.events_processed),
                file=block)
            races = (print_entries(result, max_races=config.max_races,
                                   out=block)
                     if result is not None else 0)
            print("--- end tenant {} ---".format(sess.name), file=block)
        with self._print_lock:
            self.out.write(block.getvalue())
            self.out.flush()
        with self._state_lock:
            if result is None or not result.ok or sess.state == FAILED:
                self._exit_code = 2
            elif races and self._exit_code == 0:
                self._exit_code = 1

    # -- observation -------------------------------------------------------
    def status(self) -> dict:
        """Point-in-time server + per-session status (the ``status``
        MI command's payload)."""
        with self._registry_lock:
            sessions = sorted(self.sessions.values(),
                              key=lambda s: s.created)
        rows = [sess.metrics() for sess in sessions]
        counts: Dict[str, int] = {}
        for row in rows:
            counts[row["state"]] = counts.get(row["state"], 0) + 1
        try:
            import resource
            rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        except Exception:  # pragma: no cover - non-posix fallback
            rss_kb = 0
        endpoint = (self._listener.describe()
                    if self._listener is not None else self.config.endpoint)
        return {
            "endpoint": endpoint,
            "control": self.control_address,
            "analyses": list(self.config.analyses),
            "workers": self.config.workers,
            "pid": os.getpid(),
            "uptime_seconds": time.monotonic() - self._started,
            "rss_kb": rss_kb,
            "session_counts": counts,
            "sessions": rows,
        }

    # -- control socket ----------------------------------------------------
    def _start_control(self, endpoint: str) -> threading.Thread:
        """Bind the MI control socket at :func:`mi.control_endpoint
        <repro.server.mi.control_endpoint>` of the bound trace
        ``endpoint``.  A TCP server with no ``port+1`` to derive, or
        whose ``port+1`` is taken, binds an ephemeral port instead; the
        banner prints the real address."""
        from repro.server import mi

        kind, addr = parse_endpoint(endpoint)
        if kind == "unix":
            path = mi.control_endpoint(endpoint)
            try:
                os.unlink(path)
            except OSError:
                pass
            sock = socket.socket(socket.AF_UNIX)
            sock.bind(path)
            self._ctl_path = path
            self.control_address = path
        else:
            sock = socket.socket(socket.AF_INET)
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            try:
                sock.bind(parse_endpoint(mi.control_endpoint(endpoint))[1])
            except (ValueError, OSError):
                sock.bind((addr[0], 0))
            self.control_address = "{}:{}".format(*sock.getsockname()[:2])
        sock.listen(8)
        sock.settimeout(self.config.accept_poll)
        self._ctl_sock = sock
        thread = threading.Thread(target=self._control_loop, daemon=True)
        thread.start()
        return thread

    def _close_control(self) -> None:
        sock, self._ctl_sock = self._ctl_sock, None
        if sock is not None:
            sock.close()
        path, self._ctl_path = self._ctl_path, None
        if path is not None:
            try:
                os.unlink(path)
            except OSError:
                pass

    def _control_loop(self) -> None:
        from repro.server import mi
        while not self._stop.is_set():
            try:
                conn, _ = self._ctl_sock.accept()
            except TimeoutError:
                continue
            except OSError:
                return
            try:
                conn.settimeout(5.0)
                data = b""
                while b"\n" not in data and len(data) < 65536:
                    chunk = conn.recv(4096)
                    if not chunk:
                        break
                    data += chunk
                try:
                    request = json.loads(
                        data.split(b"\n", 1)[0].decode("utf-8") or "null")
                except (ValueError, UnicodeDecodeError):
                    request = None
                doc = mi.handle_command(self, request)
                conn.sendall(json.dumps(doc, sort_keys=True)
                             .encode("utf-8") + b"\n")
            except OSError:
                pass
            finally:
                try:
                    conn.close()
                except OSError:
                    pass


def run_single(config: ServerConfig) -> int:
    """The classic one-producer ``repro serve`` body, byte-compatible
    with the pre-:mod:`repro.server` CLI: same banner, same live race
    lines, same summary block, same 0/1/2/130 exit contract, and the
    same reconnect refusal (the listener closes at accept)."""
    from repro.core.engine import MultiRunner
    from repro.core.registry import create

    analyses = list(config.analyses)
    emit_json = config.emit == "jsonl"
    window = max(config.window, 1)
    listener = TraceListener(config.endpoint)
    print("serving on {} (analyses: {}; one producer, then exit)".format(
        listener.describe(), ", ".join(analyses)), file=sys.stderr)
    sys.stderr.flush()
    source = listener.accept(timeout=config.timeout)
    feed_error: Optional[BaseException] = None
    with source:
        info = source.require_info()
        try:
            runner = MultiRunner(
                [create(name, info) for name in analyses],
                max_pending_races=config.max_pending_races,
                window_events=config.window_events,
                workers=config.workers)
        except ValueError as exc:
            # a remote producer controls these dimensions; an absurd
            # header (e.g. more threads than packed epochs support) is a
            # bad feed (exit 2), not a crash with an undocumented code
            print("error: cannot analyze this feed: {}".format(exc),
                  file=sys.stderr)
            return 2
        session = runner.session()
        interrupted = False
        try:
            for name, race in session.drain(source, window=window):
                emit_live_race(name, race, emit_json)
        except (TraceFormatError, OSError) as exc:
            # the feed died (malformed bytes, timeout, reset/dropped
            # connection), the session did not: emit what the surviving
            # analyses know, then exit 2
            feed_error = exc
        except KeyboardInterrupt:
            # Ctrl-C: stop consuming the feed but still emit the partial
            # summary; finish() reaps any worker processes and unlinks
            # their shared memory (exit 130, the conventional SIGINT code)
            interrupted = True
        result = session.finish()
    if emit_json:
        races_found = emit_summary_jsonl(result)
    else:
        races_found = print_entries(result, max_races=config.max_races)
    if interrupted:
        print("interrupted after {} events; partial summary above".format(
            result.events_processed), file=sys.stderr)
        return 130
    if feed_error is not None:
        print("error: live feed failed after {} events: {}".format(
            result.events_processed, feed_error), file=sys.stderr)
        return 2
    return 2 if not result.ok else races_found
