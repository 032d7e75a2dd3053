"""The on-disk result cache behind ``repro analyze --cache DIR``.

Layout under the cache root::

    results/<key>.json        one finished run: the rendered summary
                              text, its exit code, and provenance
    checkpoints/<cfg>-<N>.ckpt    engine checkpoint at event N
    checkpoints/<cfg>-<N>.json    its sidecar: segment hashes of the
                                  trace as it was when the checkpoint
                                  was written

The **result key** hashes everything the printed summary depends on:
the whole-file trace digest, the on-disk format, the ordered analysis
list, ``max_races``, and :data:`CACHE_SCHEMA` (checkpoint state version
+ kernels replay version — bumping either invalidates every cached
result rather than replaying stale semantics).  A warm hit therefore
returns the byte-identical summary with **zero** events replayed.

On a miss, the trace's segment hashes (:mod:`repro.trace.segments`) are
matched against each compatible checkpoint's sidecar; the newest
checkpoint whose event offset lies inside the still-identical prefix is
restored and only the suffix is replayed.  Replay accounting goes to
stderr (stdout carries exactly the summary, so cold and warm output
remain byte-comparable)::

    cache: replayed 4096 of 120000 events (resumed from checkpoint at ...)

Checkpoints are written at the largest segment boundary at or below the
trace's event count, so a later append resumes from within one segment
of the old end.  At most :data:`MAX_CHECKPOINTS` checkpoints are kept
per configuration (oldest pruned).
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import sys
from typing import List, Optional, Sequence

from repro.checkpoint.state import (
    STATE_VERSION,
    CheckpointError,
    restore_session,
    save_session,
)
from repro.core.engine import MultiRunner
from repro.core.kernels import KERNELS_VERSION
from repro.core.registry import create
from repro.reporting import print_entries
from repro.trace.binfmt import BinaryTraceStream
from repro.trace.format import TraceStream, stream_trace
from repro.trace.segments import (
    SEGMENT_EVENTS,
    TraceSegments,
    match_events,
    segment_trace,
)
from repro.trace.stream import TraceStreamBase

__all__ = [
    "CACHE_SCHEMA",
    "MAX_CHECKPOINTS",
    "ResultCache",
    "analyze_cached",
]

#: Versions whose change invalidates every cached result and checkpoint.
CACHE_SCHEMA = "state{}-kernels{}".format(STATE_VERSION, KERNELS_VERSION)

#: Checkpoints kept per (analysis set, format) configuration.
MAX_CHECKPOINTS = 4


def _key(*parts) -> str:
    blob = json.dumps(parts, sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:32]


def _suffix_stream(path: str, segs: TraceSegments,
                   from_events: int) -> TraceStreamBase:
    """The trace from the segment boundary at ``from_events`` (a
    positive multiple of the segment size covered by
    ``segs.boundaries``), opened with the format's ordinary reader and
    seeked straight to the boundary's byte offset, so the skipped prefix
    is never parsed.  The reader gets the real header, re-read from the
    file, as its ``prefix``; a comment or blank line at the boundary
    stays one, and a text reader numbers lines as in the whole file."""
    k = from_events // segs.segment_events - 1
    fp = open(path, "rb")
    try:
        header = fp.read(segs.header_end)
        fp.seek(segs.header_end + segs.boundaries[k])
    except BaseException:
        fp.close()
        raise
    if segs.fmt == "binary-v2":
        return BinaryTraceStream(fp, owns_fp=True, prefix=header)
    # a lone "\r" ending the header would pair with a "\n" that starts
    # the suffix (a blank line), so the header ends in "\n" here
    return TraceStream(fp, owns_fp=True,
                       prefix=header.rstrip(b"\r\n") + b"\n",
                       skipped_lines=segs.boundary_lines[k])


class ResultCache:
    """One cache root: result lookups, checkpoint placement and pruning."""

    def __init__(self, root: str):
        self.root = root
        self.results_dir = os.path.join(root, "results")
        self.checkpoints_dir = os.path.join(root, "checkpoints")
        os.makedirs(self.results_dir, exist_ok=True)
        os.makedirs(self.checkpoints_dir, exist_ok=True)

    # -- results ---------------------------------------------------------
    def result_key(self, segs: TraceSegments, analyses: Sequence[str],
                   max_races: int) -> str:
        return _key("result", CACHE_SCHEMA, segs.fmt, segs.trace_digest,
                    list(analyses), max_races)

    def load_result(self, key: str) -> Optional[dict]:
        path = os.path.join(self.results_dir, key + ".json")
        try:
            with open(path, "r", encoding="utf-8") as fp:
                doc = json.load(fp)
        except (OSError, ValueError):
            return None
        if not isinstance(doc, dict) or "summary" not in doc:
            return None
        return doc

    def store_result(self, key: str, doc: dict) -> None:
        path = os.path.join(self.results_dir, key + ".json")
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fp:
            json.dump(doc, fp, sort_keys=True, indent=1)
        os.replace(tmp, path)

    # -- checkpoints -----------------------------------------------------
    def config_key(self, fmt: str, analyses: Sequence[str],
                   segment_events: int) -> str:
        return _key("config", CACHE_SCHEMA, fmt, list(analyses),
                    segment_events)

    def _sidecars(self, cfg: str) -> List[str]:
        prefix = cfg + "-"
        try:
            names = os.listdir(self.checkpoints_dir)
        except OSError:
            return []
        return sorted(n for n in names
                      if n.startswith(prefix) and n.endswith(".json"))

    def best_checkpoint(self, cfg: str,
                        segs: TraceSegments) -> Optional[dict]:
        """The usable checkpoint with the largest event offset: its
        sidecar's segment hashes must still match a prefix of ``segs``
        covering the checkpoint's offset.  Returns the sidecar doc with
        ``"path"`` pointing at the ``.ckpt`` file, or None."""
        best: Optional[dict] = None
        for name in self._sidecars(cfg):
            path = os.path.join(self.checkpoints_dir, name)
            try:
                with open(path, "r", encoding="utf-8") as fp:
                    doc = json.load(fp)
                saved = TraceSegments.from_doc(doc["segments"])
                events = doc["events"]
            except (OSError, ValueError, KeyError):
                continue
            if events > match_events(saved, segs):
                continue
            ckpt = path[:-len(".json")] + ".ckpt"
            if not os.path.exists(ckpt):
                continue
            if best is None or events > best["events"]:
                doc["path"] = ckpt
                best = doc
        return best

    def store_checkpoint(self, cfg: str, session, events: int,
                         segs: TraceSegments,
                         analyses: Sequence[str]) -> str:
        """Checkpoint ``session`` (which must be positioned at
        ``events``) and write its sidecar; prunes old checkpoints past
        :data:`MAX_CHECKPOINTS`."""
        stem = os.path.join(self.checkpoints_dir,
                            "{}-{:012d}".format(cfg, events))
        tmp = stem + ".ckpt.tmp"
        with open(tmp, "wb") as fp:
            save_session(session, fp)
        os.replace(tmp, stem + ".ckpt")
        sidecar = {
            "schema": CACHE_SCHEMA,
            "config": cfg,
            "analyses": list(analyses),
            "events": events,
            "segments": segs.to_doc(),
        }
        tmp = stem + ".json.tmp"
        with open(tmp, "w", encoding="utf-8") as fp:
            json.dump(sidecar, fp, sort_keys=True)
        os.replace(tmp, stem + ".json")
        self._prune(cfg)
        return stem + ".ckpt"

    def _prune(self, cfg: str) -> None:
        names = self._sidecars(cfg)  # sorted ascending by event offset
        for name in names[:-MAX_CHECKPOINTS]:
            stem = os.path.join(self.checkpoints_dir, name[:-len(".json")])
            for suffix in (".json", ".ckpt"):
                try:
                    os.unlink(stem + suffix)
                except OSError:
                    pass


def analyze_cached(cache_dir: str, trace_path: str,
                   analyses: Sequence[str], max_races: int = 10,
                   out=None, err=None,
                   segment_events: int = SEGMENT_EVENTS) -> int:
    """``repro analyze TRACE --cache DIR``: cached, checkpointed,
    streaming analysis.  Returns the CLI exit code (0/1/2 contract);
    the summary goes to ``out`` (default stdout) and the replay
    accounting line to ``err`` (default stderr), so stdout is
    byte-identical across cold, resumed, and warm runs.
    """
    out = sys.stdout if out is None else out
    err = sys.stderr if err is None else err
    analyses = list(analyses)
    cache = ResultCache(cache_dir)
    segs = segment_trace(trace_path, segment_events)
    total = segs.total_events

    result_key = cache.result_key(segs, analyses, max_races)
    cached = cache.load_result(result_key)
    if cached is not None:
        out.write(cached["summary"])
        print("cache: warm hit - replayed 0 of {} events".format(total),
              file=err)
        return cached["exit"]

    cfg = cache.config_key(segs.fmt, analyses, segment_events)
    resumed_from = 0
    session = None
    checkpoint = cache.best_checkpoint(cfg, segs)
    if checkpoint is not None:
        try:
            session = restore_session(checkpoint["path"])
            resumed_from = checkpoint["events"]
        except CheckpointError:
            session = None  # unreadable checkpoint: fall back to cold
            resumed_from = 0
    boundary = (total // segment_events) * segment_events
    if session is None:
        source = stream_trace(trace_path)
        rest = None  # a cold pass reads to the end, as analyze does
    else:
        source = _suffix_stream(trace_path, segs, resumed_from)
        # the binary header counts the whole trace: stop the suffix at
        # the trace's event count, where the segment scan stopped
        rest = total - boundary
    # replay to the newest segment boundary, checkpoint there (so the
    # next append resumes within one segment of this trace's end), then
    # replay the partial tail
    with source:
        if session is None:
            info = source.require_info()
            session = MultiRunner(
                [create(name, info) for name in analyses]).session()
        if boundary > resumed_from:
            session.feed(source, max_events=boundary - resumed_from)
            cache.store_checkpoint(cfg, session, boundary, segs, analyses)
        session.feed(source, max_events=rest)
    result = session.finish()

    buf = io.StringIO()
    races_found = print_entries(result, max_races=max_races, out=buf)
    exit_code = 2 if not result.ok else races_found
    summary = buf.getvalue()
    out.write(summary)
    if resumed_from:
        print("cache: replayed {} of {} events (resumed from checkpoint "
              "at {})".format(total - resumed_from, total, resumed_from),
              file=err)
    else:
        print("cache: replayed {} of {} events (cold)".format(total, total),
              file=err)
    cache.store_result(result_key, {
        "schema": CACHE_SCHEMA,
        "analyses": analyses,
        "max_races": max_races,
        "format": segs.fmt,
        "trace_digest": segs.trace_digest,
        "events": total,
        "exit": exit_code,
        "summary": summary,
    })
    return exit_code
