"""One tenant's detection session inside a multi-tenant server.

A :class:`TenantSession` is the unit the server's registry holds: the
analysis state for one monitored program, living across any number of
producer connections.  The state machine is deliberately small::

            attach                    clean EOF (all events in)
    (new) ----------> ATTACHED ----------------------------> COMPLETE
              ^          |  feed error / clean EOF short of
              |          |  the declared total
              |          v
              +------ DETACHED --- resume grace expires ---> FAILED

A *detached* session is the whole point of the resume protocol: the
producer dropped (crash, network, redeploy) but the engine session — an
:class:`~repro.core.engine.EngineSession` or
:class:`~repro.core.parallel.ParallelSession` — keeps every analysis'
mid-stream state, and :attr:`events_acked` is the exact offset a
reconnecting producer must resend from.  Anonymous producers (no hello
frame) cannot be addressed again, so their clean EOF completes the
session and their error fails it immediately.

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

from repro.core.registry import create
from repro.trace.stream import column_source
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
#: Sealed without reaching the declared total (feed error on an
#: anonymous producer, or the resume grace expired).
FAILED = "failed"

#: Parallel workers are forked, and the server forks from a thread pool:
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
        self.runner = None
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

    def ensure_engine(self, info: TraceInfo) -> Optional[str]:
        """Build the engine session from the first connection's header,
        or verify a reconnect's header against it.

        Returns an error string when the engine cannot be built
        (dimensions the packed epochs cannot represent) or when a
        reconnecting producer declares different dimensions — either
        way the feed must not be applied.
        """
        with self.lock:
            if self.info is not None:
                old, new = self.info, info
                if any(getattr(old, f) != getattr(new, f)
                       for f in ("num_threads", "num_locks", "num_vars",
                                 "num_volatiles", "num_classes")):
                    return ("reconnect header declares different trace "
                            "dimensions than the original feed")
                return None
            config = self.config
            try:
                with _ENGINE_BUILD_LOCK:
                    if config.workers > 1:
                        from repro.core.parallel import ParallelRunner
                        self.runner = ParallelRunner(
                            list(config.analyses), info,
                            workers=config.workers,
                            window_events=config.window_events)
                    else:
                        from repro.core.engine import MultiRunner
                        self.runner = MultiRunner(
                            [create(name, info) for name in config.analyses],
                            max_pending_races=config.max_pending_races,
                            window_events=config.window_events)
                    self.session = self.runner.session()
            except ValueError as exc:
                self.runner = None
                return "cannot analyze this feed: {}".format(exc)
            self.info = info
            return None

    # -- feeding -----------------------------------------------------------
    def pump(self, source) -> Iterator[tuple]:
        """Feed one connection's events, yielding ``(analysis_name,
        RaceRecord)`` pairs; source errors propagate with the session
        resumable.  Runs in the connection's thread — the attachment is
        this thread's exclusive claim, so no lock is held while feeding.
        """
        window = max(self.config.window, 1)
        source = _Liveness(column_source(source), self)
        if self.config.workers > 1:
            races = self.session.drain(source, window=window, seal=False)
        else:
            races = self.session.drain(source, window=window)
        for pair in races:
            self.races_total += 1
            race = pair[1]
            self.recent_races.append(
                {"analysis": pair[0], "event": race.index, "tid": race.tid,
                 "var": race.var, "site": race.site, "access": race.access,
                 "kinds": race.kinds})
            yield pair

    # -- detachment and sealing --------------------------------------------
    def detach(self, error: Optional[BaseException] = None,
               clean_eof: bool = False) -> str:
        """Release the attachment after a connection ends; returns the
        disposition: ``"complete"`` (all events in — seal it),
        ``"failed"`` (anonymous producer died — seal it), or
        ``"detached"`` (await a resume within the grace window).
        """
        with self.lock:
            now = time.monotonic()
            if self._attach_started is not None:
                self._active_seconds += now - self._attach_started
                self._attach_started = None
            self.last_active = now
            if error is not None:
                self.error = error
            acked = self.events_acked
            if self.expected_total is not None \
                    and acked >= self.expected_total:
                # every declared event was applied: how the connection
                # died afterwards (late FIN, timeout waiting for bytes
                # the producer never owed us) is irrelevant
                return "complete"
            if error is None and clean_eof:
                if self.anonymous:
                    return "complete"
            elif self.anonymous:
                # an anonymous producer cannot come back for its state
                return "failed"
            self.state = DETACHED
            return "detached"

    def finalize(self, failed: bool = False):
        """Seal the session: build the final
        :class:`~repro.core.engine.MultiResult` (``None`` when no
        header ever arrived) and fix the terminal state.  Idempotent.
        """
        with self.lock:
            if self.sealed:
                return self.result
            if self.session is not None:
                self.result = self.session.finish()
            # `failed` is the caller's disposition verdict; a transient
            # error from an earlier connection does not fail a session
            # that went on to complete
            self.state = FAILED if (failed or self.result is None) \
                else COMPLETE
            self.last_active = time.monotonic()
            return self.result

    def abandon(self) -> None:
        """Drop the session without reports (server shutdown teardown
        for sessions whose summary nobody will read)."""
        with self.lock:
            if not self.sealed and self.session is not None:
                self.session.close()
            self.state = FAILED

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
