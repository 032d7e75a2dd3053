"""Live trace sources: analyze an execution *while it runs*.

SmartTrack's pitch is predictive detection cheap enough to stay on
during execution (paper §1); the offline readers already never rewind,
so the only missing piece for online analysis is a source whose bytes
arrive as the monitored program produces them.  This module provides
two:

* :func:`SocketTraceSource` — one accepted connection on a Unix or TCP
  endpoint.  The server side (``repro serve``) binds and waits via
  :class:`TraceListener`; the producer side connects and streams a trace
  with :func:`send_trace` (or ``repro generate --to-socket``).
* :func:`PipeTraceSource` — a FIFO path, an inherited file descriptor,
  or an open pipe handle.

Both speak the same wire formats as the offline readers — the v1 text
format and the v2 binary format, autodetected from the leading bytes as
:func:`repro.trace.format.stream_trace` does — and each *returns* that
format reader (a :class:`~repro.trace.stream.TraceStreamBase`), so
everything downstream (the engine,
:class:`~repro.core.engine.EngineSession`, the CLI) treats a live feed
exactly like a file.  What differs is the byte transport, which is one
raw reader the format reader owns:

* **partial reads are the normal case** — the raw reader's ``read(n)``
  returns whatever one ``recv``/``read`` syscall produced, and the
  format readers decode every complete event or line they hold before
  reading again; a buffered layer would block a live feed until its
  buffer filled, stalling reports;
* **timeouts** — a ``timeout`` makes a stalled producer raise
  :class:`TimeoutError` (``socket.timeout`` is the same type on
  Python >= 3.10) instead of hanging the analysis forever; the CLI maps
  it to exit code 2 like any other unreadable trace;
* **reconnect refusal** — a listener serves exactly one connection per
  analysis session: the listening socket closes the moment a producer is
  accepted, so a second connect is refused (``ECONNREFUSED``) rather
  than silently queued behind a stream it could never join;
* **clean EOF** — a producer closing its end (or finishing its trace)
  ends iteration exactly like end-of-file; a connection dropped
  mid-event surfaces as the same
  :class:`~repro.trace.stream.TraceFormatError` a truncated file would.

Failing mid-iteration (malformed bytes, disconnect, timeout) never leaks
a descriptor: the shared stream lifecycle closes the raw reader, and
closing it releases the connection or pipe, and for a Unix endpoint the
source served, unlinks the socket path and releases its lock.
"""

from __future__ import annotations

import errno
import io
import os
import re
import select
import socket
import stat
import time
from itertools import islice
from typing import Optional, Tuple, Union

from repro.trace.format import _sniff
from repro.trace.stream import TraceFormatError, TraceStreamBase
from repro.trace.trace import Trace, TraceInfo

__all__ = [
    "HANDSHAKE_LIMIT",
    "HELLO_MAGIC",
    "PipeTraceSource",
    "REFUSE_MAGIC",
    "SocketTraceSource",
    "TraceListener",
    "WELCOME_MAGIC",
    "connect_endpoint",
    "format_hello",
    "format_refuse",
    "format_welcome",
    "open_live_source",
    "parse_endpoint",
    "parse_hello",
    "parse_welcome",
    "read_handshake",
    "send_events",
    "send_trace",
]


def parse_endpoint(spec: str) -> Tuple[str, Union[str, Tuple[str, int]]]:
    """Classify an endpoint spec: ``("tcp", (host, port))`` or
    ``("unix", path)``.

    ``HOST:PORT`` (a numeric final component with no ``/`` in the host
    part) is TCP; anything else is a Unix socket path, so relative and
    absolute paths — even ones containing ``:`` in a directory name —
    keep working.
    """
    host, sep, port = spec.rpartition(":")
    if sep and host and port.isdigit() and "/" not in host:
        return "tcp", (host, int(port))
    return "unix", spec


class _LiveReader(io.RawIOBase):
    """The one raw reader under a live source, owned by its format
    reader.

    ``read(n)`` is one ``recv``/``read`` syscall on ``handle`` (a
    connected socket, or a pipe opened unbuffered).  ``timeout`` bounds
    each read with a ``select`` first: pipes have no native timeout,
    while a socket's comes from ``settimeout``.  Closing releases all
    the source holds: the handle and, for a Unix endpoint it served, the
    socket path and the endpoint lock.
    """

    def __init__(self, handle, timeout: Optional[float] = None,
                 unlink_path: Optional[str] = None,
                 lock_fd: Optional[int] = None,
                 lock_path: Optional[str] = None):
        self._handle = handle
        self._recv = (handle.recv if isinstance(handle, socket.socket)
                      else handle.read)
        self._timeout = timeout
        self._unlink_path = unlink_path
        self._lock_fd = lock_fd
        self._lock_path = lock_path

    def read(self, n: int) -> bytes:
        if not n:
            return b""
        if self._timeout is not None:
            ready, _, _ = select.select([self._handle], [], [],
                                        self._timeout)
            if not ready:
                raise TimeoutError(
                    "live trace source: no data for {:.3g}s".format(
                        self._timeout))
        return self._recv(n)

    def close(self) -> None:
        if self.closed:
            return
        super().close()
        try:
            self._handle.close()
        except OSError:
            pass
        path, self._unlink_path = self._unlink_path, None
        if path is not None:
            try:
                os.unlink(path)
            except OSError:
                pass
        lock_fd, self._lock_fd = self._lock_fd, None
        _release_endpoint_lock(lock_fd, self._lock_path)


def _is_fifo(path: str) -> bool:
    try:
        return stat.S_ISFIFO(os.stat(path).st_mode)
    except OSError:
        return False


def _open_fifo_nonblocking(path: str):
    """Open a FIFO for reading without waiting for a producer.

    A plain blocking ``open`` waits until a producer opens the write
    end — outside any read timeout's reach — so the FIFO is opened
    ``O_NONBLOCK`` (which succeeds immediately) and switched back to
    blocking mode.  The per-read ``select`` of
    :class:`_LiveReader` then bounds *everything*: a FIFO with no
    producer (or a silent one) is simply never readable, so the very
    first header read raises :class:`TimeoutError` on schedule.
    """
    fd = os.open(path, os.O_RDONLY | os.O_NONBLOCK)
    try:
        os.set_blocking(fd, True)
    except BaseException:
        os.close(fd)
        raise
    return os.fdopen(fd, "rb", buffering=0)


def PipeTraceSource(source: Union[str, int, io.RawIOBase],
                    timeout: Optional[float] = None) -> TraceStreamBase:
    """Live events from a FIFO path, a readable fd, or an open pipe: the
    format reader over it.

    ``source`` is one of:

    * a path — typically a FIFO made with ``os.mkfifo``; opening blocks
      until a producer opens the other end (POSIX FIFO semantics),
    * an integer file descriptor (ownership is taken), or
    * an open binary file object (ownership is taken; it should be
      unbuffered, e.g. ``open(path, "rb", buffering=0)``).

    ``timeout`` bounds every read: a producer that connects but stops
    writing raises :class:`TimeoutError` instead of stalling the
    analysis (the descriptor is closed either way).

    Example (analyze a recorder writing to a FIFO)::

        os.mkfifo("/tmp/repro.fifo")
        with PipeTraceSource("/tmp/repro.fifo", timeout=30) as source:
            result = MultiRunner(
                [create("st-wdc", source.require_info())]).run(source)
    """
    if isinstance(source, str):
        if timeout is not None and _is_fifo(source):
            # with a timeout, even the wait for a producer to open
            # the write end must be bounded
            raw = _open_fifo_nonblocking(source)
        else:
            raw = open(source, "rb", buffering=0)
    elif isinstance(source, int):
        raw = os.fdopen(source, "rb", buffering=0)
    else:
        raw = source
    return _sniff(_LiveReader(raw, timeout=timeout), owns_fp=True)


def SocketTraceSource(conn: socket.socket, timeout: Optional[float] = None,
                      prefix: bytes = b"",
                      _unlink_path: Optional[str] = None,
                      _lock_fd: Optional[int] = None,
                      _lock_path: Optional[str] = None) -> TraceStreamBase:
    """Live events from one accepted socket connection: the format
    reader over it.

    Called by :meth:`TraceListener.accept` (or the
    :func:`open_live_source` convenience) with an already-connected
    socket.  ``prefix`` is bytes already read off the connection — what
    :func:`read_handshake` sniffed past a hello frame — and starts the
    format detection.  The reader owns the connection and, for a Unix
    endpoint it served, unlinks the socket path and releases the
    endpoint lock on close.
    """
    raw = _LiveReader(conn, unlink_path=_unlink_path, lock_fd=_lock_fd,
                      lock_path=_lock_path)
    try:
        conn.settimeout(timeout)
    except BaseException:
        raw.close()
        raise
    return _sniff(raw, owns_fp=True, prefix=prefix)


def _acquire_endpoint_lock(path: str) -> int:
    """Take the advisory lock guarding a Unix endpoint; returns the fd.

    The lock (``flock`` on a ``<path>.lock`` sidecar) is how a new
    server distinguishes a *stale* socket file — the leftover of a
    server that died without cleanup, whose lock the kernel released —
    from a *live* one.  A connect-probe cannot make that distinction
    safely: the probe would be accepted by a healthy waiting server as
    its one allowed producer, killing its session.

    A clean shutdown unlinks the sidecar (:func:`_release_endpoint_lock`)
    so the endpoint leaves nothing behind.  Unlinking a lock file opens
    the classic double-lock race — locker B may flock the *old* inode
    just as the shutting-down holder unlinks it, while locker C creates
    and flocks a fresh inode at the same path, leaving B and C each
    convinced they own the endpoint — so after every successful flock
    the fd is verified to still be what the path names; a mismatch
    (or a vanished path) means the inode was retired mid-acquire, and
    the open/flock/verify sequence simply retries on the fresh inode.

    Raises ``OSError(EADDRINUSE)`` when a live server holds the lock.
    """
    import fcntl

    lock_path = path + ".lock"
    while True:
        fd = os.open(lock_path, os.O_CREAT | os.O_RDWR, 0o644)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except OSError:
            os.close(fd)
            raise OSError(
                errno.EADDRINUSE,
                "endpoint {} is in use by a live server".format(path))
        try:
            st = os.stat(lock_path)
        except OSError:  # unlinked between our open and the flock
            os.close(fd)
            continue
        fst = os.fstat(fd)
        if (st.st_ino, st.st_dev) != (fst.st_ino, fst.st_dev):
            os.close(fd)  # the path was re-created under us; retry
            continue
        return fd


def _release_endpoint_lock(fd: Optional[int], path: Optional[str]) -> None:
    """Release the endpoint lock and remove its sidecar file.

    The unlink happens *while the flock is still held* — any concurrent
    :func:`_acquire_endpoint_lock` that grabbed the doomed inode detects
    the swap via its fstat-vs-stat verify and retries — so a clean
    shutdown leaves no ``<path>.lock`` litter without reopening the
    double-lock race.
    """
    if fd is None:
        return
    if path is not None:
        try:
            os.unlink(path + ".lock")
        except OSError:
            pass
    os.close(fd)


class TraceListener:
    """A bound, listening endpoint awaiting exactly one trace producer.

    Splitting bind from accept lets a server publish its address before
    blocking (``repro serve`` prints it; tests bind TCP port 0 and read
    the real port back), and :meth:`accept` then enforces the
    one-producer contract: the listening socket closes as soon as the
    connection lands, so any later connect is refused instead of queued.

    Example (one live analysis session over a Unix socket)::

        listener = TraceListener("/tmp/repro.sock")
        source = listener.accept(timeout=30)   # the format reader
        with source:
            info = source.require_info()
            session = MultiRunner(
                [create("st-wdc", info)]).session()
            for name, race in session.drain(source, window=256):
                print(name, race.index)
            result = session.finish()
    """

    def __init__(self, spec: str, backlog: int = 1):
        self.kind, addr = parse_endpoint(spec)
        self._unlink_path: Optional[str] = None
        self._lock_fd: Optional[int] = None
        self._lock_path: Optional[str] = None
        if self.kind == "unix":
            sock = socket.socket(socket.AF_UNIX)
        else:
            sock = socket.socket(socket.AF_INET)
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        try:
            if self.kind == "unix":
                # holding the endpoint lock proves no live server owns
                # this path, so an existing socket file is the leftover
                # of a crashed server (SIGKILL before cleanup releases
                # the flock) and is safe to reclaim
                self._lock_fd = _acquire_endpoint_lock(addr)
                self._lock_path = addr
                try:
                    sock.bind(addr)
                except OSError as exc:
                    if exc.errno != errno.EADDRINUSE:
                        raise
                    # reclaim is for leftover *sockets* only — a
                    # regular file at the endpoint path (a typo'd
                    # `repro serve ./notes.txt`) must never be deleted
                    if not stat.S_ISSOCK(os.stat(addr).st_mode):
                        raise OSError(
                            errno.EADDRINUSE,
                            "endpoint {} exists and is not a socket; "
                            "refusing to replace it".format(addr))
                    os.unlink(addr)
                    sock.bind(addr)
                self._unlink_path = addr
            else:
                sock.bind(addr)
            sock.listen(backlog)
        except BaseException:
            sock.close()
            self._release_lock()
            raise
        self._sock: Optional[socket.socket] = sock
        # captured at bind time: valid for the listener's whole life,
        # including after accept() hands the endpoint to the source
        self._address = addr if self.kind == "unix" \
            else sock.getsockname()[:2]

    def _release_lock(self) -> None:
        fd, self._lock_fd = self._lock_fd, None
        path, self._lock_path = self._lock_path, None
        _release_endpoint_lock(fd, path)

    @property
    def address(self) -> Union[str, Tuple[str, int]]:
        """The bound address: the path for Unix, ``(host, port)`` for TCP
        (with the kernel-assigned port when 0 was requested).  Stays
        valid after :meth:`accept`."""
        return self._address

    def describe(self) -> str:
        addr = self.address
        if isinstance(addr, str):
            return addr
        return "{}:{}".format(*addr)

    def accept(self, timeout: Optional[float] = None) -> TraceStreamBase:
        """Block until one producer connects; return the live source
        (:func:`SocketTraceSource`: the format reader over the
        connection).

        ``timeout`` bounds both the wait for the connection and every
        subsequent read (:class:`TimeoutError` on expiry).  Whatever
        happens, the listening socket is closed before this returns —
        on success the accepted connection is the only way in, and the
        endpoint's Unix path (if any) is unlinked once the *source*
        closes.
        """
        sock = self._sock
        if sock is None:
            raise RuntimeError("listener already accepted or closed")
        path = self._unlink_path
        try:
            sock.settimeout(timeout)
            conn, _ = sock.accept()
        except BaseException:
            self.close()
            raise
        # reconnect refusal: stop listening the moment we have a feed.
        # The endpoint lock moves to the source, so the path stays
        # claimed until the session's cleanup unlinks it (socket file
        # and lock sidecar both).
        self._sock = None
        self._unlink_path = None
        lock_fd, self._lock_fd = self._lock_fd, None
        lock_path, self._lock_path = self._lock_path, None
        sock.close()
        return SocketTraceSource(conn, timeout=timeout, _unlink_path=path,
                                 _lock_fd=lock_fd, _lock_path=lock_path)

    def accept_connection(self,
                          timeout: Optional[float] = None) -> socket.socket:
        """Accept one producer connection and *keep listening*.

        The multi-tenant counterpart of :meth:`accept`
        (:mod:`repro.server` drives this in its accept loop): the
        returned socket is raw — wrap it with
        :func:`SocketTraceSource` (optionally after reading a session
        handshake with :func:`read_handshake`) — and the listener stays
        bound, so any number of producers can be accepted concurrently.
        The endpoint's Unix path and lock stay with the listener and are
        released by :meth:`close`.  ``timeout`` bounds only the wait for
        a connection (``TimeoutError`` on expiry; the listener survives
        and can accept again), which is how a server loop polls for
        shutdown between accepts.
        """
        sock = self._sock
        if sock is None:
            raise RuntimeError("listener already accepted or closed")
        sock.settimeout(timeout)
        conn, _ = sock.accept()
        return conn

    def close(self) -> None:
        sock, self._sock = self._sock, None
        if sock is not None:
            sock.close()
        path, self._unlink_path = self._unlink_path, None
        if path is not None:
            try:
                os.unlink(path)
            except OSError:
                pass
        self._release_lock()

    def __enter__(self) -> "TraceListener":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False


def open_live_source(spec: str,
                     timeout: Optional[float] = None) -> TraceStreamBase:
    """Bind ``spec``, wait for one producer, return the connected source
    (the one-call form of ``TraceListener(spec).accept(timeout)``)."""
    return TraceListener(spec).accept(timeout=timeout)


def connect_endpoint(spec: str, connect_timeout: Optional[float] = 10.0,
                     retry_interval: float = 0.05) -> socket.socket:
    """Producer side: connect to a live endpoint, returning the socket.

    Retries until ``connect_timeout`` elapses (the server may not have
    bound yet — the natural startup race of "start ``repro serve``, then
    start the producer"); ``connect_timeout=None`` tries exactly once.
    """
    kind, addr = parse_endpoint(spec)
    family = socket.AF_UNIX if kind == "unix" else socket.AF_INET
    deadline = (None if connect_timeout is None
                else time.monotonic() + connect_timeout)
    while True:
        sock = socket.socket(family)
        try:
            sock.connect(addr)
            return sock
        except OSError:
            sock.close()
            if deadline is None or time.monotonic() >= deadline:
                raise
            time.sleep(retry_interval)


# ---------------------------------------------------------------------------
# Session handshake frames (multi-tenant serving, repro.server)
# ---------------------------------------------------------------------------
#
# A producer that wants a *named*, resumable session leads with one
# ASCII hello line before its trace bytes; the server answers with a
# welcome (carrying the resume offset to resend from) or a refuse frame.
# Legacy producers simply start with trace bytes — the frames share the
# trace headers' "# repro " prefix but diverge immediately after, so
# :func:`read_handshake` can sniff without consuming anything a format
# reader needs (sniffed bytes are re-attached via the source's
# ``prefix``).  All three frames are one line, ≤ ``HANDSHAKE_LIMIT``
# bytes, with space-separated ``key=value`` fields.

HELLO_MAGIC = b"# repro hello v1 "
WELCOME_MAGIC = b"# repro welcome v1 "
REFUSE_MAGIC = b"# repro refuse v1 "
#: Hard cap on one handshake frame; a flood of non-newline bytes after a
#: hello magic is a malformed handshake, not an unbounded buffer.
HANDSHAKE_LIMIT = 256

_TENANT_RE = re.compile(r"^[A-Za-z0-9._-]{1,64}$")


def format_hello(tenant: str, resume: int = 0,
                 total: Optional[int] = None) -> bytes:
    """The producer's session-opening frame.

    ``tenant`` names the session (``[A-Za-z0-9._-]{1,64}``) so a
    reconnecting producer reaches the same analysis state; ``resume`` is
    the earliest event offset this producer is still able to resend (0
    when it can replay from the start); ``total`` declares the trace's
    event count when known (``None`` → ``?``), which is how the server
    tells a completed session from one whose producer died at an event
    boundary.
    """
    if not _TENANT_RE.match(tenant):
        raise ValueError(
            "tenant id {!r} is not [A-Za-z0-9._-]{{1,64}}".format(tenant))
    if resume < 0:
        raise ValueError("resume offset must be >= 0")
    return HELLO_MAGIC + "tenant={} resume={} total={}\n".format(
        tenant, resume, "?" if total is None else int(total)).encode("ascii")


def _parse_fields(body: bytes, what: str) -> dict:
    try:
        text = body.decode("ascii")
    except UnicodeDecodeError:
        raise TraceFormatError("{} frame is not ASCII".format(what))
    fields = {}
    for token in text.split():
        key, sep, value = token.partition("=")
        if not sep or not key:
            raise TraceFormatError(
                "malformed {} field {!r}".format(what, token))
        fields[key] = value
    return fields


def parse_hello(line: bytes) -> dict:
    """Parse a hello frame (sans trailing newline) into
    ``{"tenant": str, "resume": int, "total": Optional[int]}``; raises
    :class:`~repro.trace.stream.TraceFormatError` on malformed input."""
    if not line.startswith(HELLO_MAGIC):
        raise TraceFormatError("not a hello frame")
    fields = _parse_fields(line[len(HELLO_MAGIC):], "hello")
    tenant = fields.get("tenant", "")
    if not _TENANT_RE.match(tenant):
        raise TraceFormatError("hello frame has a bad tenant id")
    try:
        resume = int(fields.get("resume", "0"))
        raw_total = fields.get("total", "?")
        total = None if raw_total == "?" else int(raw_total)
    except ValueError:
        raise TraceFormatError("hello frame has non-numeric offsets")
    if resume < 0 or (total is not None and total < 0):
        raise TraceFormatError("hello frame has negative offsets")
    return {"tenant": tenant, "resume": resume, "total": total}


def format_welcome(resume: int) -> bytes:
    """The server's acceptance frame: resend events from ``resume``."""
    return WELCOME_MAGIC + "resume={}\n".format(int(resume)).encode("ascii")


def format_refuse(reason: str) -> bytes:
    """The server's rejection frame; ``reason`` is a short token
    (``busy``, ``gap``, ``mismatch``, ``shutdown``, ...)."""
    return REFUSE_MAGIC + "reason={}\n".format(reason).encode("ascii")


def parse_welcome(line: bytes) -> int:
    """Parse the server's reply; returns the resume offset or raises
    :class:`~repro.trace.stream.TraceFormatError` (a refuse frame's
    reason is carried in the message)."""
    if line.startswith(REFUSE_MAGIC):
        fields = _parse_fields(line[len(REFUSE_MAGIC):], "refuse")
        raise TraceFormatError("server refused session: {}".format(
            fields.get("reason", "unspecified")))
    if not line.startswith(WELCOME_MAGIC):
        raise TraceFormatError("expected a welcome frame, got {!r}".format(
            line[:40]))
    fields = _parse_fields(line[len(WELCOME_MAGIC):], "welcome")
    try:
        resume = int(fields.get("resume", ""))
    except ValueError:
        raise TraceFormatError("welcome frame has a bad resume offset")
    if resume < 0:
        raise TraceFormatError("welcome frame has a negative resume offset")
    return resume


def read_handshake(conn: socket.socket,
                   timeout: Optional[float] = None
                   ) -> Tuple[Optional[dict], bytes]:
    """Server side: sniff whether a fresh connection leads with a hello.

    Reads just enough bytes to decide.  Returns ``(hello, prefix)``:
    ``hello`` is the parsed frame dict (or ``None`` for a legacy
    producer that starts straight with trace bytes) and ``prefix`` is
    every sniffed byte *not* consumed by the frame — hand it to
    :func:`SocketTraceSource(prefix=...) <SocketTraceSource>` so the
    format readers see the stream from its true start.  A connection
    closed mid-frame or a frame past :data:`HANDSHAKE_LIMIT` raises
    :class:`~repro.trace.stream.TraceFormatError`.
    """
    conn.settimeout(timeout)
    buf = b""
    while len(buf) < len(HELLO_MAGIC) and buf == HELLO_MAGIC[:len(buf)]:
        chunk = conn.recv(len(HELLO_MAGIC) - len(buf))
        if not chunk:
            return None, buf
        buf += chunk
    if not buf.startswith(HELLO_MAGIC):
        return None, buf
    line, rest = _read_frame(conn, buf, "hello frame")
    return parse_hello(line), rest


def _read_frame(sock: socket.socket, buf: bytes,
                what: str) -> Tuple[bytes, bytes]:
    """Read one handshake frame line — ``buf`` holds its bytes read so
    far — bounded by :data:`HANDSHAKE_LIMIT`; returns the line without
    its newline and the bytes received after it."""
    while b"\n" not in buf:
        if len(buf) > HANDSHAKE_LIMIT:
            raise TraceFormatError("{} exceeds {} bytes".format(
                what, HANDSHAKE_LIMIT))
        chunk = sock.recv(256)
        if not chunk:
            raise TraceFormatError("connection closed mid-{}".format(what))
        buf += chunk
    line, _, rest = buf.partition(b"\n")
    return line, rest


def _read_reply_line(sock: socket.socket,
                     timeout: Optional[float]) -> bytes:
    """Producer side: read the server's one-line handshake reply."""
    sock.settimeout(timeout)
    return _read_frame(sock, b"", "handshake reply")[0]


class _SendallSink:
    """A write-only file over a socket whose every write is a complete
    ``sendall`` (a raw ``send`` may transmit a short count)."""

    __slots__ = ("_sock",)

    def __init__(self, sock: socket.socket):
        self._sock = sock

    def write(self, data) -> int:
        self._sock.sendall(data)
        return len(data)


def send_events(dims: Union[Trace, TraceInfo], events, spec: str,
                binary: bool = True,
                connect_timeout: Optional[float] = 10.0,
                flush_every: int = 512,
                tenant: Optional[str] = None,
                total: Optional[int] = None) -> int:
    """Stream ``events`` to a waiting live endpoint; returns the count
    of events put on the wire by *this* connection.

    The call returns only after the consumer has read every byte and
    closed the connection.  A consumer that hangs up early raises
    :class:`OSError` (a broken pipe mid-send, or a reset afterwards).

    ``dims`` supplies the header every live analysis needs up front (a
    :class:`Trace` or :class:`TraceInfo`).  ``binary`` picks the wire
    format: v2 binary (default, >2x cheaper to ingest) or v1 text; the
    receiver autodetects either.  ``events`` may be any iterable — a
    generator keeps the producer's memory bounded too.

    ``flush_every`` puts accumulated events on the wire every that many
    events (plus once at the end).  This is what makes the producer
    *live*: with default file buffering a slow producer's events would
    sit unsent for tens of kilobytes, and the consumer's races would
    surface arbitrarily late.  Raise it for bulk replay throughput.

    ``tenant`` opens a *named session* against a multi-tenant server
    (``repro serve --multi``): a hello frame is sent first, the server's
    welcome tells this producer how many events the server already
    holds, and that many leading events are skipped — which is exactly
    the reconnect-with-resume path.  ``total`` declares the run's full
    event count (auto-derived when ``events`` is sized) so the server
    can tell a finished trace from a producer that died at an event
    boundary.  Without ``tenant`` the producer speaks the legacy
    handshake-free protocol.
    """
    from repro.trace.binfmt import BinaryTraceWriter
    from repro.trace.format import format_event, header_line

    flush_every = max(flush_every, 1)
    sock = connect_endpoint(spec, connect_timeout=connect_timeout)
    try:
        if tenant is not None:
            if total is None:
                try:
                    total = len(events)
                except TypeError:
                    pass
            sock.settimeout(connect_timeout)
            sock.sendall(format_hello(tenant, total=total))
            skip = parse_welcome(_read_reply_line(sock, connect_timeout))
            sock.settimeout(None)
            if skip:
                events = islice(iter(events), skip, None)
        # sendall, not a raw file write: a single send() may transmit a
        # short count (signal mid-send), and a buffered file would hold
        # bytes back from a live consumer — every flushed batch must hit
        # the wire whole, immediately
        sink = _SendallSink(sock)
        if binary:
            writer = BinaryTraceWriter(sink, dims)
            # the header goes out before the first event: the consumer
            # parses it at accept time and must not wait out the first
            # flush window of a slow producer
            writer.flush()
            for event in events:
                writer.write(event)
                if writer.events_written % flush_every == 0:
                    writer.flush()
            writer.flush()
            count = writer.events_written
        else:
            sink.write((header_line(dims) + "\n").encode("ascii"))
            lines = []
            count = 0
            for event in events:
                lines.append(format_event(event) + "\n")
                count += 1
                if count % flush_every == 0:
                    sink.write("".join(lines).encode("ascii"))
                    lines = []
            if lines:
                sink.write("".join(lines).encode("ascii"))
        _await_consumed(sock)
        return count
    finally:
        sock.close()


def _await_consumed(sock: socket.socket) -> None:
    """Half-close, then block until the consumer closes its end.

    A finished ``sendall`` only means the kernel buffered the bytes: a
    whole trace can fit in the socket buffer of a consumer that then
    hangs up unread.  So the producer sends EOF (``SHUT_WR``) and waits
    for the consumer's close.  A consumer that read every byte closes
    cleanly (``recv`` returns ``b""``); one that hangs up with bytes
    still unread resets the connection, which raises
    :class:`ConnectionResetError` here.
    """
    sock.shutdown(socket.SHUT_WR)
    while sock.recv(4096):
        pass


def send_trace(trace: Trace, spec: str, binary: bool = True,
               connect_timeout: Optional[float] = 10.0,
               tenant: Optional[str] = None) -> int:
    """Stream a materialized trace to a waiting live endpoint.

    The producer half of the online workflow (``repro generate
    --to-socket`` uses it); returns the number of events sent.
    ``spec`` is a Unix socket path or ``HOST:PORT``.

    Example (feed a ``repro serve`` session from another thread)::

        threading.Thread(
            target=send_trace, args=(trace, "/tmp/repro.sock"),
            daemon=True).start()
    """
    return send_events(trace, trace.events, spec, binary=binary,
                       connect_timeout=connect_timeout,
                       tenant=tenant, total=len(trace.events))
