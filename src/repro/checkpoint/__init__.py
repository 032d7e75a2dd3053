"""Checkpointed incremental re-analysis.

The pipeline's offline story used to be all-or-nothing: any change to a
recorded trace — one appended window, a re-recorded tail — cost a full
replay.  This package makes re-analysis proportional to what actually
changed (ROADMAP open item 5):

* :mod:`repro.checkpoint.state` — serialize a live
  :class:`~repro.core.engine.EngineSession` (every analysis' clocks,
  epochs, per-variable metadata and CS lists, the same-epoch filter
  tokens) and restore it in another process, positioned to replay the
  remaining suffix with reports bit-identical to an uninterrupted pass;
* :mod:`repro.checkpoint.cache` — an on-disk result cache keyed by
  (trace digest, analysis set, format/kernel version): a warm hit
  returns the byte-identical summary with zero events replayed, a stale
  trace resumes from the nearest still-valid checkpoint (staleness via
  :mod:`repro.trace.segments`);
* :mod:`repro.checkpoint.watch` — ``repro watch DIR``: poll a directory
  and re-analyze traces as they change, through the cache.
"""

from repro.checkpoint.state import (
    MAGIC,
    STATE_VERSION,
    CheckpointError,
    peek_checkpoint,
    restore_session,
    save_session,
)
from repro.checkpoint.cache import CACHE_SCHEMA, ResultCache, analyze_cached
from repro.checkpoint.watch import watch_directory

__all__ = [
    "CACHE_SCHEMA",
    "CheckpointError",
    "MAGIC",
    "ResultCache",
    "STATE_VERSION",
    "analyze_cached",
    "peek_checkpoint",
    "restore_session",
    "save_session",
    "watch_directory",
]
