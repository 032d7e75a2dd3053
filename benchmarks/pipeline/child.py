"""Child-interpreter side of the pipeline benchmark.

Every timed repetition runs in a fresh interpreter, because every
``repro analyze`` invocation pays a cold start.  The parent runs::

    python -m benchmarks.pipeline.child pass '<json spec>'
    python -m benchmarks.pipeline.child traced '<json spec>'
    python -m benchmarks.pipeline.child serve <repro serve arguments>

with the repository root and ``src`` on ``PYTHONPATH``.  ``pass`` and
``traced`` print one JSON object as the last line of standard output.

``pass`` times ``repro.core.engine.run_stream`` over each trace file;
imports (numpy included) happen before the clock starts, since
``setup_s`` measures them separately.  ``traced`` decomposes the same
pass into public calls with spans, between two untraced passes that
give its overhead, then runs the layer pass: the decoded columns go
through each layer's public functions one at a time.
``serve`` is ``repro serve`` (through ``repro.cli.main``) that reports
its peak RSS and a speed probe as the last line of standard error when
it exits.

Peak RSS is the process's own high-water mark (``VmHWM``).  Linux
carries the forking parent's peak over ``exec`` into the child's
``ru_maxrss``, so ``wait4`` would report the benchmark's own size
whenever that is the larger.
"""

from __future__ import annotations

import gc
import hashlib
import io
import json
import sys
import time
from itertools import islice

from benchmarks.pipeline.spans import SpanRecorder, seconds, self_times

#: Events per ``EngineSession.feed`` call in the traced pass (a multiple
#: of the engine's chunk size, so chunking matches ``run_stream``).
FEED_BATCH = 65536
#: The engine's default chunk size (``MultiRunner(chunk_events=...)``).
CHUNK = 8192
#: Source events per file replayed by the solo tier and shared-HB
#: measurements of the layer pass, which are scalar and slow.
TIER_EVENTS = 131072
#: Iterations of the speed probe's loop (~10 ms on a 2-CPU Xeon VM).
PROBE_LOOPS = 60000


def speed_probe() -> float:
    """Seconds a fixed pure-Python loop takes right now (best of three).

    On a shared host the CPU's speed drifts by about 10% over tens of
    seconds, for every process alike.  Timings taken next to a probe are
    scaled by it to a fixed reference speed, so runs made minutes apart
    compare the code, not the host's load.  The loop runs no ``repro``
    code, so no change to the system can move it.
    """
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        table = {}
        get = table.get
        for i in range(PROBE_LOOPS):
            key = (i * 2654435761) & 4095
            table[key] = get(key, 0) + i
        best = min(best, time.perf_counter() - start)
    return best


def race_digest(rows) -> str:
    """Digest of ``[index, site, var, tid, access, kinds]`` race rows."""
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


def summarize(report) -> dict:
    """The parts of a race report every path must reproduce exactly:
    counts, and a digest of the race tuples in report order."""
    return {"dynamic": report.dynamic_count, "static": report.static_count,
            "races": race_digest([[r.index, r.site, r.var, r.tid, r.access,
                                   r.kinds] for r in report.races])}


def summarize_result(result) -> dict:
    """:func:`summarize` for every entry of a ``MultiResult``."""
    analyses = {}
    for entry in result.entries:
        if entry.failure is not None:
            analyses[entry.name] = {"failure": repr(entry.failure)}
        else:
            analyses[entry.name] = summarize(entry.report)
    return {"events": result.events_processed, "analyses": analyses}


def peak_rss_mb() -> float:
    """This process's peak resident set size, in MiB."""
    try:
        with open("/proc/self/status") as fp:
            for line in fp:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    import resource  # no procfs: ru_maxrss (KiB on Linux)

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_pass(spec: dict) -> dict:
    """One timed repetition: ``run_stream`` over each file in turn, with
    a speed probe before the first file and after each one.  A file's
    ``probe_s`` is the mean of the two probes next to it."""
    import repro.core.kernels  # noqa: F401  (numpy import, untimed)
    from repro.core.engine import run_stream

    files = []
    before = speed_probe()
    for path in spec["files"]:
        start = time.perf_counter()
        result = run_stream(path, spec["analyses"])
        wall = time.perf_counter() - start
        after = speed_probe()
        files.append(dict(summarize_result(result), wall_s=wall,
                          probe_s=(before + after) / 2))
        before = after
    return {"files": files, "peak_rss_mb": peak_rss_mb()}


def run_serve(argv) -> int:
    """``repro serve``, then its peak RSS and a speed probe reported as
    the last line of standard error."""
    from repro.cli import main as repro_main

    try:
        return repro_main(["serve"] + list(argv))
    finally:
        print("peak_rss_mb {} probe_s {}".format(peak_rss_mb(),
                                                 speed_probe()),
              file=sys.stderr, flush=True)


def _source(path: str, live: bool):
    """The live workload's wire bytes are decoded from memory, as the
    server decodes them from its socket; trace files are read from disk
    as ``run_stream`` reads them."""
    if not live:
        return path
    with open(path, "rb") as fp:
        return io.BytesIO(fp.read())


def _untraced_pass(spec: dict) -> float:
    """The pass :func:`_traced_pass` decomposes, as one ``run_stream``
    call per source with no spans; returns its wall time."""
    from repro.core.engine import run_stream

    sources = [_source(path, spec["live"]) for path in spec["files"]]
    gc.collect()
    start = time.perf_counter()
    for source in sources:
        run_stream(source, spec["analyses"],
                   evict_window=spec["window_events"] or 0)
    return time.perf_counter() - start


def _traced_pass(rec: SpanRecorder, spec: dict) -> tuple:
    """The e2e pass decomposed into public calls: batches decoded from
    ``stream_trace`` via ``islice``, ``EngineSession.feed`` per batch,
    then ``EngineSession.finish``.  Returns the root span id, the pass
    wall time and one summary per file."""
    from repro.core.engine import MultiRunner
    from repro.core.registry import create
    from repro.trace.format import stream_trace

    live = spec["live"]
    sources = [_source(path, live) for path in spec["files"]]
    results = []
    gc.collect()
    # run_stream decodes inside EngineSession.feed, which suspends the
    # cyclic GC; decoding outside it must run under the same setting
    gc.disable()
    try:
        start = time.perf_counter()
        with rec.span("pipeline.pass") as root:
            for source in sources:
                with rec.span("engine.open"):
                    stream = stream_trace(source)
                    info = stream.require_info()
                    events = iter(stream)  # one-shot: iterate it once
                    runner = MultiRunner(
                        [create(name, info) for name in spec["analyses"]],
                        window_events=spec["window_events"])
                    session = runner.session()
                while True:
                    with rec.span("trace.decode"):
                        batch = list(islice(events, FEED_BATCH))
                    if not batch:
                        break
                    with rec.span("engine.feed"):
                        session.feed(batch)
                with rec.span("engine.finish"):
                    results.append(session.finish())
        wall = time.perf_counter() - start
    finally:
        gc.enable()
    return root, wall, [summarize_result(r) for r in results]


def _decode_chunks(source, size: int):
    """Decode a trace into engine-shaped flat chunks: five int lists
    (index, kind, tid, target, site), the live length and the source
    events seen up to the chunk's end."""
    from repro.trace.format import stream_trace

    stream = stream_trace(source)
    info = stream.require_info()
    chunks = []
    it = iter(stream)
    base = 0
    while True:
        events = list(islice(it, size))
        if not events:
            break
        m = len(events)
        chunks.append([list(range(base, base + m)),
                       [e.kind for e in events], [e.tid for e in events],
                       [e.target for e in events], [e.site for e in events],
                       m, base + m])
        base += m
    return info, chunks, base


def _feed_all(session, chunks) -> None:
    for idx, kinds, tids, targets, sites, kept, seen in chunks:
        session.feed_decoded(idx, kinds, tids, targets, sites, kept, seen)


def _layer_pass(rec: SpanRecorder, spec: dict) -> tuple:
    """Each layer's public functions called one by one over the decoded
    columns.  Returns (metrics, check summaries)."""
    from repro.core import kernels
    # make_filter takes the engine's by-kind epoch-ender table as its
    # documented argument
    from repro.core.engine import _EPOCH_ENDERS, MultiRunner
    from repro.core.registry import MAIN_MATRIX, create
    from repro.trace.format import stream_trace

    if not kernels.kernels_available():
        raise SystemExit("the traced run needs numpy: it measures the "
                         "filter and kernel layers")
    analyses = spec["analyses"]
    live = spec["live"]
    seen = kept_total = 0
    footprint = {name: 0 for name in MAIN_MATRIX}
    ckpt_bytes = 0
    checks = []
    with rec.span("layers"):
        for path in spec["files"]:
            with rec.span("layers.decode"):
                info, chunks, n = _decode_chunks(_source(path, live), CHUNK)
            width = max(create(name, info).width for name in analyses)
            filt = kernels.make_filter(width, _EPOCH_ENDERS)
            for chunk in chunks:
                with rec.span("engine.filter"):
                    kept = filt.apply(*chunk[:5], chunk[5])
                for col in chunk[:5]:
                    del col[kept:]
                chunk[5] = kept
                kept_total += kept
            seen += n
            chunks = [c for c in chunks if c[5]]

            # batch kernels against their scalar twin on identical chunks
            solo = {name: create(name, info) for name in analyses}
            batch = {name: a.make_kernel() for name, a in solo.items()}
            kernel_names = [name for name in analyses
                            if batch[name] is not None]
            for idx, kinds, tids, targets, sites, kept, _ in chunks:
                with rec.span("kernels.plan"):
                    plan = kernels.ChunkPlan(idx, kinds, tids, targets,
                                             sites, kept)
                for name in kernel_names:
                    with rec.span("kernels.replay"):
                        batch[name].process_chunk(plan)
            for name in kernel_names:
                with rec.span("kernels.replay"):
                    batch[name].flush()
            scalar = MultiRunner([create(name, info)
                                  for name in kernel_names],
                                 use_kernels=False, share_hb=False)
            session = scalar.session()
            with rec.span("kernels.scalar_replay"):
                _feed_all(session, chunks)
            scalar_result = summarize_result(session.finish())
            checks.append({"path": path,
                           "kernel": {"events": n, "analyses": {
                               name: summarize(solo[name].finish(n))
                               for name in kernel_names}},
                           "scalar": scalar_result})

            # each paper tier solo, on the capped prefix
            prefix = [c for c in chunks if c[6] <= TIER_EVENTS]
            for name in MAIN_MATRIX:
                analysis = create(name, info)
                session = MultiRunner([analysis], use_kernels=False,
                                      share_hb=False).session()
                with rec.span("analysis.{}.replay".format(name)):
                    _feed_all(session, prefix)
                footprint[name] += analysis.footprint_bytes()
                session.close()
            for share in (False, True):
                session = MultiRunner([create(name, info)
                                       for name in MAIN_MATRIX],
                                      share_hb=share).session()
                with rec.span("hb_shared.on" if share else "hb_shared.off"):
                    _feed_all(session, prefix)
                session.close()

            # checkpoint at the trace midpoint
            stream = stream_trace(_source(path, live))
            session = MultiRunner(
                [create(name, stream.require_info()) for name in analyses],
                window_events=spec["window_events"]).session()
            with rec.span("checkpoint.feed"):
                session.feed(stream, max_events=n // 2)
            buf = io.BytesIO()
            with rec.span("checkpoint.save"):
                session.save_checkpoint(buf)
            ckpt_bytes += len(buf.getvalue())
            session.close()
            stream.close()
    spans = rec.spans
    kernel_s = seconds(spans, "kernels.replay")
    metrics = {
        "engine.filter_s": seconds(spans, "engine.filter"),
        "engine.filter_kept_ratio": kept_total / seen,
        "kernels.plan_s": seconds(spans, "kernels.plan"),
        "kernels.replay_s": kernel_s,
        "kernels.gain_ratio": seconds(spans, "kernels.scalar_replay")
        / kernel_s,
        "hb_shared.gain_ratio": seconds(spans, "hb_shared.off")
        / seconds(spans, "hb_shared.on"),
        "checkpoint.bytes": ckpt_bytes,
        "checkpoint.save_s": seconds(spans, "checkpoint.save"),
    }
    for name in MAIN_MATRIX:
        metrics["analysis.{}.replay_s".format(name)] = seconds(
            spans, "analysis.{}.replay".format(name))
        metrics["analysis.{}.footprint_bytes".format(name)] = footprint[name]
    return metrics, checks


def run_traced(spec: dict) -> dict:
    """The traced pass between two untraced ones (its overhead is over
    their mean), then the layer pass."""
    rec = SpanRecorder(spec["workload"])
    before = _untraced_pass(spec)
    root, wall, results = _traced_pass(rec, spec)
    after = _untraced_pass(spec)
    metrics, checks = _layer_pass(rec, spec)
    decode_s = seconds(rec.spans, "trace.decode")
    metrics.update({
        "trace.decode_s": decode_s,
        "trace.decode_events_per_s":
            sum(r["events"] for r in results) / decode_s,
        "engine.feed_s": seconds(rec.spans, "engine.feed"),
        "engine.finish_s": seconds(rec.spans, "engine.finish"),
        "tracing.overhead_ratio": wall / ((before + after) / 2),
        "tracing.span_coverage":
            sum(self_times(rec.spans, root).values()) / wall,
    })
    return {"spans": rec.spans, "pass_root": root, "pass_wall_s": wall,
            "results": results, "checks": checks, "metrics": metrics}


def main(argv) -> int:
    if argv[0] == "serve":
        return run_serve(argv[1:])
    mode, spec = argv[0], json.loads(argv[1])
    out = run_pass(spec) if mode == "pass" else run_traced(spec)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
