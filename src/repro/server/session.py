"""One tenant's detection session inside a multi-tenant server.

A :class:`TenantSession` is the unit the server's registry holds: the
analysis state for one monitored program, living across any number of
producer connections.  The state machine is deliberately small::

            attach               connection ends
    (new) ----------> ATTACHED -----------------> COMPLETE | FAILED
              ^          |  a named producer gone short of its
              |          v  total (transport error or clean EOF)
              +------ DETACHED --- resume grace expires ---> COMPLETE | FAILED

A *detached* session is the whole point of the resume protocol: the
producer dropped (crash, network, redeploy) but the engine session — an
:class:`~repro.core.engine.EngineSession`, whose worker processes stay
alive across connections when it is sharded — keeps every analysis'
mid-stream state, and :attr:`events_acked` is the exact offset a
reconnecting producer must resend from.  Anonymous producers (no hello
frame) cannot be addressed again, so their clean EOF completes the
session and their error fails it immediately.

:meth:`TenantSession.end_connection` holds the rule (DESIGN.md §9.2).

Thread model: the owning :class:`~repro.server.app.ServerApp` runs one
thread per connection.  ``lock`` guards the attach/detach state and the
metrics; the engine session itself is only ever driven by the single
thread that holds the attachment, so feeding needs no lock.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Iterator, Optional

from repro.core.engine import MultiRunner
from repro.core.registry import create
from repro.trace.stream import TraceFormatError, column_source
from repro.trace.trace import TraceInfo

__all__ = [
    "ATTACHED",
    "COMPLETE",
    "DETACHED",
    "FAILED",
    "TenantSession",
]

#: A producer is connected and feeding.
ATTACHED = "attached"
#: No producer; the engine state is intact and awaiting a resume.
DETACHED = "detached"
#: All events analyzed; the final :class:`~repro.core.engine.MultiResult`
#: is sealed.
COMPLETE = "complete"
#: Sealed short of the declared total or with an error (see
#: :attr:`TenantSession.incomplete`).
FAILED = "failed"

#: Errors that end a connection but leave the engine state sound:
#: malformed or cut bytes, socket errors and timeouts, and a reconnect
#: whose header changes the dimensions.  A named tenant stays
#: resumable after one; any other exception fails the session.
TRANSPORT_ERRORS = (TraceFormatError, OSError)

#: Sharded sessions fork workers, and the server forks from a thread pool:
#: a fork taken while *another* connection thread is mid-way through
#: creating shared memory or registering with the resource tracker hands
#: the child a held lock it can never acquire.  Serializing engine
#: construction closes that window (feeding never forks).
_ENGINE_BUILD_LOCK = threading.Lock()


class _Liveness:
    """A column source that stamps its tenant's liveness once per
    column read (one per engine window or less, never per event), so
    the metrics advance even when no races are found."""

    __slots__ = ("_source", "_tenant")

    def __init__(self, source, tenant: "TenantSession"):
        self._source = source
        self._tenant = tenant

    def read_columns(self, limit: int):
        cols = self._source.read_columns(limit)
        self._tenant.last_active = time.monotonic()
        return cols


class TenantSession:
    """Registry entry for one tenant: engine state + attachment state.

    ``config`` is the owning server's
    :class:`~repro.server.app.ServerConfig`; ``anonymous`` marks a
    legacy producer that never sent a hello frame (auto-named, not
    resumable).
    """

    def __init__(self, name: str, config, anonymous: bool = False):
        self.name = name
        self.config = config
        self.anonymous = anonymous
        self.lock = threading.RLock()
        self.state = DETACHED
        self.info: Optional[TraceInfo] = None
        self.session = None
        self.result = None
        self.error: Optional[BaseException] = None
        self.expected_total: Optional[int] = None
        self.reconnects = -1  # first attach brings it to 0
        self.races_total = 0
        #: claimed (under ``lock``) by whoever seals the session, so the
        #: summary prints exactly once and a late resume cannot attach
        #: to a session mid-seal
        self.seal_claimed = False
        self.recent_races = deque(maxlen=max(config.retain_races, 0))
        now = time.monotonic()
        self.created = now
        self.last_active = now
        self._active_seconds = 0.0
        self._attach_started: Optional[float] = None

    # -- attachment --------------------------------------------------------
    @property
    def events_acked(self) -> int:
        """Resume offset: events fully applied to every live analysis."""
        session = self.session
        return 0 if session is None else session.events_acked

    @property
    def sealed(self) -> bool:
        return self.state in (COMPLETE, FAILED)

    def try_attach(self, hello: Optional[dict]):
        """Claim the session for one producer connection.

        Returns ``(True, resume_offset)`` on success or ``(False,
        reason)`` with a refuse-frame reason token: ``busy`` (another
        producer is attached), ``finished`` (already sealed), or ``gap``
        (the producer cannot resend back to our ack offset, so resuming
        would silently skip events).
        """
        with self.lock:
            if self.state == ATTACHED:
                return False, "busy"
            if self.sealed or self.seal_claimed:
                return False, "finished"
            resume = self.events_acked
            if hello is not None:
                if hello["resume"] > resume:
                    return False, "gap"
                if hello["total"] is not None:
                    self.expected_total = hello["total"]
            self.state = ATTACHED
            # the producer came back: whatever killed the previous
            # connection is history, not this session's verdict
            self.error = None
            self.reconnects += 1
            self._attach_started = time.monotonic()
            self.last_active = self._attach_started
            return True, resume

    def ensure_engine(self, info: TraceInfo) -> None:
        """Build the engine session from the first connection's header,
        or verify a reconnect's header against it.

        Raises :class:`ValueError` when the engine cannot be built
        (dimensions the packed epochs cannot represent), which fails the
        session, and :class:`~repro.trace.stream.TraceFormatError` when
        a reconnecting producer declares different dimensions, which
        only ends its connection.  Either way the feed must not be
        applied.
        """
        with self.lock:
            if self.info is not None:
                old, new = self.info, info
                if any(getattr(old, f) != getattr(new, f)
                       for f in ("num_threads", "num_locks", "num_vars",
                                 "num_volatiles", "num_classes")):
                    raise TraceFormatError(
                        "reconnect header declares different trace "
                        "dimensions than the original feed")
                return
            config = self.config
            try:
                with _ENGINE_BUILD_LOCK:
                    self.session = MultiRunner(
                        [create(name, info) for name in config.analyses],
                        max_pending_races=config.max_pending_races,
                        window_events=config.window_events,
                        workers=config.workers).session()
            except ValueError as exc:
                raise ValueError(
                    "cannot analyze this feed: {}".format(exc)) from exc
            self.info = info

    # -- feeding -----------------------------------------------------------
    def pump(self, source) -> Iterator[tuple]:
        """Feed one connection's events, yielding ``(analysis_name,
        RaceRecord)`` pairs; source errors propagate with the session
        resumable.  Runs in the connection's thread — the attachment is
        this thread's exclusive claim, so no lock is held while feeding.
        """
        window = max(self.config.window, 1)
        source = _Liveness(column_source(source), self)
        for pair in self.session.drain(source, window=window):
            self.races_total += 1
            race = pair[1]
            self.recent_races.append(
                {"analysis": pair[0], "event": race.index, "tid": race.tid,
                 "var": race.var, "site": race.site, "access": race.access,
                 "kinds": race.kinds})
            yield pair

    # -- ending a connection and sealing ------------------------------------
    @property
    def incomplete(self) -> bool:
        """Whether sealing now fails the session: its feed ended with an
        error, or short of the total its producer declared."""
        return self.error is not None or (
            self.expected_total is not None
            and self.events_acked < self.expected_total)

    def end_connection(self, error: Optional[BaseException]) -> str:
        """Release the attachment when its connection ends; returns the
        disposition.

        ``error`` is what ended the connection, None for a clean EOF.
        :data:`COMPLETE` and :data:`FAILED` tell the caller to seal the
        session now; :data:`DETACHED` means it awaits a resume within
        the grace window.  A transport error (:data:`TRANSPORT_ERRORS`)
        fails an anonymous session and detaches a named one; any other
        exception fails either, as the engine state is no longer
        trusted.
        """
        with self.lock:
            now = time.monotonic()
            if self._attach_started is not None:
                self._active_seconds += now - self._attach_started
                self._attach_started = None
            self.last_active = now
            if error is not None and not isinstance(error,
                                                    TRANSPORT_ERRORS):
                self.error = error
                return FAILED
            if self.expected_total is not None \
                    and self.events_acked >= self.expected_total:
                # every declared event was applied: how the connection
                # died afterwards (late FIN, timeout waiting for bytes
                # the producer never owed us) is irrelevant
                return COMPLETE
            self.error = error
            if self.anonymous:
                # an anonymous producer cannot come back for its state
                return FAILED if self.incomplete else COMPLETE
            self.state = DETACHED
            return DETACHED

    def finalize(self):
        """Seal the session: build the final
        :class:`~repro.core.engine.MultiResult` (``None`` when no
        header ever arrived) and fix the terminal state, failed when
        :attr:`incomplete`.  Idempotent.
        """
        with self.lock:
            if self.sealed:
                return self.result
            if self.session is not None:
                self.result = self.session.finish()
            self.state = FAILED if (self.incomplete or self.result is None) \
                else COMPLETE
            self.last_active = time.monotonic()
            return self.result

    # -- observation -------------------------------------------------------
    def metrics(self) -> dict:
        """A point-in-time metrics snapshot (the ``status`` endpoint's
        per-session row)."""
        with self.lock:
            now = time.monotonic()
            active = self._active_seconds
            if self._attach_started is not None:
                active += now - self._attach_started
            events = self.events_acked
            return {
                "tenant": self.name,
                "state": self.state,
                "anonymous": self.anonymous,
                "events": events,
                "total": self.expected_total,
                "races": self.races_total,
                "retained_races": len(self.recent_races),
                "events_per_second": (events / active) if active > 0 else 0.0,
                "lag_seconds": max(now - self.last_active, 0.0),
                "age_seconds": now - self.created,
                "reconnects": max(self.reconnects, 0),
                "error": None if self.error is None else str(self.error),
            }
