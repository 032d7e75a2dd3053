"""Engine-session checkpoints: serialize a live pass, resume elsewhere.

A checkpoint is the *complete* resumable state of an
:class:`~repro.core.engine.EngineSession` mid-stream — the thing
:class:`~repro.core.engine.SessionSnapshot` deliberately is not.  One
pickle of the session's object graph captures:

* every analysis' mutable state — vector clocks, packed epochs,
  per-variable metadata maps, SmartTrack CS lists — via the
  serialization contract on :meth:`repro.core.base.Analysis.__getstate__`
  (which also demotes the ``trace`` back-reference to its dimensions and
  drops the unpicklable compiled dispatch table);
* the engine's cross-installment state: the event offset, per-entry
  peaks and failures, and the shared same-epoch filter's tokens
  (exported as plain dicts, so a checkpoint written under the
  vectorized numpy filter restores into the scalar one and vice versa).

What is *not* serialized — and why that is correct:

* **batch kernels** (:mod:`repro.core.kernels`): they hold numpy views
  into the analyses' live columns, which cannot outlive the process.
  :func:`save_session` flushes them first (settling lazily-derived
  metadata into the analyses), and :func:`restore_session` attaches
  fresh kernels by the *restoring* environment's capability — a
  checkpoint written with numpy restores fine without it, and vice
  versa, because kernel and scalar replay are bit-identical by
  invariant (the differential fuzz sweep proves it);
* the progress callback (not picklable, presentation-only).

File layout: a magic line, one JSON metadata line (version, event
offset, analysis names — readable without unpickling via
:func:`peek_checkpoint`), then the pickle payload.
"""

from __future__ import annotations

import json
import pickle
from typing import BinaryIO, Union

from repro.core.engine import AnalysisFailure, EngineSession, MultiRunner

__all__ = [
    "MAGIC",
    "STATE_VERSION",
    "CheckpointError",
    "peek_checkpoint",
    "restore_session",
    "save_session",
]

#: First line of every checkpoint file (a valid text comment, like the
#: trace formats' magic, so a peeking text tool sees something sane).
MAGIC = b"# repro checkpoint v1\n"

#: Version of the serialized state's shape; bump on any change to what
#: the payload contains or how it is reconstructed.  Part of the result
#: cache's key, so stale checkpoints are never restored.
STATE_VERSION = 2

_PROTOCOL = 4


class CheckpointError(ValueError):
    """A file that is not a readable checkpoint of this version."""


def _portable_error(error: BaseException) -> BaseException:
    """The failure's exception if it survives a pickle round trip, else
    a stand-in carrying its repr (exceptions with custom constructors
    may not unpickle; a checkpoint must never fail over a diagnostic)."""
    try:
        pickle.loads(pickle.dumps(error, protocol=_PROTOCOL))
        return error
    except Exception:
        return RuntimeError(repr(error))


def save_session(session: EngineSession,
                 fp: Union[BinaryIO, str]) -> dict:
    """Write ``session``'s full resumable state to ``fp`` (a binary file
    object or a path); returns the metadata dict that was embedded.

    Non-destructive: the session stays open and feedable.  Races already
    delivered by earlier :meth:`~repro.core.engine.EngineSession.feed`
    calls are not re-delivered by the restored session (their records
    are in the analysis state, so final reports are unaffected).
    Raises :class:`CheckpointError` for a finished or sharded session.
    """
    if session.finished:
        raise CheckpointError("cannot checkpoint a finished session; "
                              "checkpoints capture a live mid-stream pass")
    runner = session.runner
    if runner.workers > 1:
        raise CheckpointError(
            "cannot checkpoint a sharded session (workers={}): its "
            "analyses' state lives in its worker processes; checkpoint "
            "an in-process (workers=1) session".format(runner.workers))
    entries = session.entries
    # settle lazily-derived metadata (e.g. StKernel CS lists) into the
    # analyses before pickling them; the kernels themselves are not
    # serialized (numpy views die with the process)
    for entry in entries:
        if entry.kernel is not None and entry.failure is None:
            entry.kernel.flush()
    payload = {
        "version": STATE_VERSION,
        "events": session.events_processed,
        "analyses": [entry.analysis for entry in entries],
        "failures": [(i, entry.failure.name, entry.failure.event_index,
                      _portable_error(entry.failure.error))
                     for i, entry in enumerate(entries)
                     if entry.failure is not None],
        "peaks": [entry.peak for entry in entries],
        "filter": session._filter_state(),
        # bounded-window bookkeeping (empty/None when windowing is off)
        "window": (dict(session._var_last), session._next_evict),
        "config": {
            "sample_every": runner.sample_every,
            "chunk_events": runner.chunk_events,
            "use_kernels": runner._use_kernels,
            "max_pending_races": runner.max_pending_races,
            "window_events": runner.window_events,
        },
    }
    meta = {
        "version": STATE_VERSION,
        "events": session.events_processed,
        "analyses": [entry.name for entry in entries],
    }
    owns = isinstance(fp, str)
    out = open(fp, "wb") if owns else fp
    try:
        out.write(MAGIC)
        out.write(json.dumps(meta, sort_keys=True).encode("utf-8") + b"\n")
        pickle.dump(payload, out, protocol=_PROTOCOL)
    finally:
        if owns:
            out.close()
    return meta


def _read_meta(fp: BinaryIO) -> dict:
    magic = fp.readline()
    if magic != MAGIC:
        raise CheckpointError(
            "not a repro checkpoint (expected leading {!r})".format(MAGIC))
    line = fp.readline()
    try:
        meta = json.loads(line.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise CheckpointError(
            "corrupt checkpoint metadata line: {}".format(exc))
    if not isinstance(meta, dict) or meta.get("version") != STATE_VERSION:
        raise CheckpointError(
            "unsupported checkpoint version {!r} (this build reads "
            "version {})".format(
                meta.get("version") if isinstance(meta, dict) else None,
                STATE_VERSION))
    return meta


def peek_checkpoint(fp: Union[BinaryIO, str]) -> dict:
    """The checkpoint's metadata (version, event offset, analysis
    names) without unpickling any state."""
    owns = isinstance(fp, str)
    inp = open(fp, "rb") if owns else fp
    try:
        return _read_meta(inp)
    finally:
        if owns:
            inp.close()


def restore_session(fp: Union[BinaryIO, str]) -> EngineSession:
    """Rebuild the runner and return its open session, positioned at the
    checkpoint's event offset.

    Feed the trace suffix from that offset onwards and
    :meth:`~repro.core.engine.EngineSession.finish`; the reports are
    bit-identical to one uninterrupted pass over the whole trace.
    Raises :class:`CheckpointError` for anything unreadable.
    """
    owns = isinstance(fp, str)
    inp = open(fp, "rb") if owns else fp
    try:
        _read_meta(inp)
        try:
            payload = pickle.load(inp)
        except Exception as exc:
            raise CheckpointError(
                "corrupt checkpoint payload: {!r}".format(exc))
    finally:
        if owns:
            inp.close()
    config = payload["config"]
    runner = MultiRunner(
        payload["analyses"],
        sample_every=config["sample_every"],
        chunk_events=config["chunk_events"],
        use_kernels=config["use_kernels"],
        max_pending_races=config["max_pending_races"],
        window_events=config["window_events"],
    )
    entries = runner.entries
    for i, peak in enumerate(payload["peaks"]):
        entries[i].peak = peak
    for i, name, event_index, error in payload["failures"]:
        entries[i].failure = AnalysisFailure(name, event_index, error)
    # the first session attaches fresh kernels to every live entry by
    # the *restoring* environment's capability; kernels attach mid-run
    # exactly (StKernel seeds its repair log from the restored lock
    # stacks)
    session = runner.session()
    session._events_seen = payload["events"]
    if runner.window_events is not None:
        var_last, next_evict = payload["window"]
        session._var_last = dict(var_last)
        session._next_evict = next_evict
    toks, last_r, last_w = payload["filter"]
    session._seed_filter(toks, last_r, last_w)
    return session
