"""Single-pass engine vs sequential per-analysis runs.

The always-on deployment analyzes one recorded execution with many
configurations.  The old harness path re-iterates (and, offline,
re-parses) the trace once per configuration — ``O(analyses × events)``;
the :class:`~repro.core.engine.MultiRunner` pays one iteration *and*
shares cross-analysis work (one same-epoch redundancy check for all
tiers).  Three scenarios:

* **offline / streaming** (the headline): each sequential run streams the
  recorded trace file from disk, as every ``repro analyze`` invocation
  does; the engine parses the file once and feeds all analyses.  This is
  where the ``>= 2.5x`` single-pass win lives (the sequential baseline
  pays the lazy parse N times).
* **in-memory**: with the trace already materialized, handler work
  dominates — and the engine must now *beat* sequential re-iteration
  (``>= 1.15x``), because the shared same-epoch filter dispatches each
  provably-redundant access zero times instead of N times, and the
  batch kernels replay whole chunks for the tiers that have one.
* **binary ingest**: raw streaming decode of the same 1M-event capture
  in the v1 text format vs the v2 binary format
  (:mod:`repro.trace.binfmt`) — varint decoding beats line
  splitting/int-parsing by >= 2x, which is the dominant cost of the
  whole offline streaming path.

Workloads scale with ``REPRO_BENCH_SCALE`` (default 0.5; see conftest),
so the CI smoke job can run a reduced cut of the same benchmarks.
"""

import os
import tempfile
import time

import pytest

from benchmarks.conftest import bench_scale, gate, write_result
from repro.clocks.epoch import TID_BITS
from repro.core.engine import _EPOCH_ENDERS, MultiRunner, run_stream
from repro.core.kernels import kernels_available
from repro.core.registry import MAIN_MATRIX, create
from repro.trace.binfmt import BinaryTraceWriter
from repro.trace.format import dump_trace, stream_trace
from repro.workloads import generate_trace, WorkloadSpec

#: All Table 3-6 configurations of the paper's main matrix.
ANALYSES = list(MAIN_MATRIX)


def _spec():
    return WorkloadSpec(name="engine-bench", threads=6,
                        events=max(int(60000 * bench_scale()), 2000),
                        predictive_races=2, hb_races=2, seed=7)


def _best_pair(fn_a, fn_b, repeats=3, warmup=0):
    """Best-of-N for two timed functions, trials interleaved so thermal
    and allocator drift hits both sides equally.  ``warmup`` untimed
    rounds let CPython's adaptive interpreter specialize the hot loops
    before the first counted trial."""
    for _ in range(warmup):
        fn_a()
        fn_b()
    best_a = best_b = float("inf")
    for _ in range(repeats):
        best_a = min(best_a, fn_a())
        best_b = min(best_b, fn_b())
    return best_a, best_b


def _workload():
    trace = generate_trace(_spec())
    path = os.path.join(tempfile.mkdtemp(), "engine-bench.trace")
    with open(path, "w") as fp:
        dump_trace(trace, fp)
    return trace, path


def test_streaming_single_pass_speedup(results_dir):
    """One parse feeding all analyses vs one parse per analysis."""
    trace, path = _workload()

    def sequential():
        t0 = time.perf_counter()
        for name in ANALYSES:
            result = run_stream(path, [name])
            assert result.ok
        return time.perf_counter() - t0

    def single_pass():
        t0 = time.perf_counter()
        result = run_stream(path, ANALYSES)
        assert result.ok
        return time.perf_counter() - t0

    seq, multi = _best_pair(sequential, single_pass)
    speedup = seq / multi
    text = ("engine streaming single-pass vs sequential per-analysis\n"
            "workload: {} events, {} analyses\n"
            "sequential: {:.3f}s   single-pass: {:.3f}s   speedup: {:.2f}x"
            .format(len(trace), len(ANALYSES), seq, multi, speedup))
    print(text)
    write_result(results_dir, "engine_streaming.txt", text, data={
        "workload": {"events": len(trace), "analyses": len(ANALYSES)},
        "sequential_s": round(seq, 4),
        "single_pass_s": round(multi, 4),
        "events_per_s": round(len(trace) / multi, 1),
        "ratio": round(speedup, 3),
    })
    gate(speedup >= 2.5, text)


def test_in_memory_single_pass_advantage(results_dir):
    """With the trace materialized, the engine's one same-epoch filter
    for all analyses (plus the batch kernels) must beat sequential
    re-iteration outright."""
    trace, _ = _workload()

    def sequential():
        t0 = time.perf_counter()
        for name in ANALYSES:
            create(name, trace).run()
        return time.perf_counter() - t0

    def single_pass():
        t0 = time.perf_counter()
        result = MultiRunner(
            [create(name, trace) for name in ANALYSES]).run(trace)
        assert result.ok
        return time.perf_counter() - t0

    seq, multi = _best_pair(sequential, single_pass, repeats=7, warmup=1)
    ratio = seq / multi
    text = ("engine in-memory single-pass vs sequential re-iteration\n"
            "workload: {} events, {} analyses\n"
            "sequential: {:.3f}s   single-pass: {:.3f}s   ratio: {:.2f}x"
            .format(len(trace), len(ANALYSES), seq, multi, ratio))
    print(text)
    write_result(results_dir, "engine_inmemory.txt", text, data={
        "workload": {"events": len(trace), "analyses": len(ANALYSES)},
        "sequential_s": round(seq, 4),
        "single_pass_s": round(multi, 4),
        "events_per_s": round(len(trace) / multi, 1),
        "ratio": round(ratio, 3),
    })
    gate(ratio >= 1.15, text)


def test_binary_ingest_speedup(results_dir):
    """v2 binary vs v1 text: raw streaming ingest of ~1M events.

    Times a bare drain of ``stream_trace`` (no analyses attached) so the
    comparison isolates parse/decode cost — exactly what dominates the
    streaming path's overhead.
    """
    n = (max(int(2_000_000 * bench_scale()), 80_000) // 8) * 8
    base = tempfile.mkdtemp()
    text_path = os.path.join(base, "ingest.trace")
    with open(text_path, "w") as fp:
        fp.write("# repro trace v1: threads=2 locks=1 vars=4 "
                 "events={}\n".format(n))
        chunk = (
            "T0 acq m0 @1\nT0 wr x0 @2\nT0 rel m0 @3\n"
            "T1 acq m0 @4\nT1 wr x0 @5\nT1 rel m0 @6\n"
            "T0 rd x1 @7\nT1 rd x2 @8\n"
        )
        for _ in range(n // 8):
            fp.write(chunk)
    binary_path = os.path.join(base, "ingest.bintrace")
    source = stream_trace(text_path)
    with source, BinaryTraceWriter(binary_path, source.require_info()) as w:
        for event in source:
            w.write(event)
    assert w.events_written == n

    def ingest(path):
        def run():
            t0 = time.perf_counter()
            stream = stream_trace(path)
            for _ in stream:
                pass
            dt = time.perf_counter() - t0
            assert stream.events_read == n
            return dt
        return run

    text_s, binary_s = _best_pair(ingest(text_path), ingest(binary_path),
                                  repeats=2)
    speedup = text_s / binary_s
    text = ("trace ingest: v2 binary vs v1 text (raw streaming decode)\n"
            "workload: {} events; text {} bytes, binary {} bytes "
            "({:.1f}x smaller)\n"
            "text: {:.3f}s ({:.2f}M ev/s)   binary: {:.3f}s "
            "({:.2f}M ev/s)   speedup: {:.2f}x"
            .format(n, os.path.getsize(text_path),
                    os.path.getsize(binary_path),
                    os.path.getsize(text_path) / os.path.getsize(binary_path),
                    text_s, n / text_s / 1e6,
                    binary_s, n / binary_s / 1e6, speedup))
    print(text)
    write_result(results_dir, "engine_binary_ingest.txt", text, data={
        "workload": {"events": n},
        "text_s": round(text_s, 4),
        "binary_s": round(binary_s, 4),
        "text_bytes": os.path.getsize(text_path),
        "binary_bytes": os.path.getsize(binary_path),
        "events_per_s": round(n / binary_s, 1),
        "ratio": round(speedup, 3),
    })
    gate(speedup >= 2.0, text)


#: The epoch tiers with batch kernels (DESIGN.md §8) — the replay hot
#: path the columnar kernels accelerate.
KERNEL_ANALYSES = ["ft2", "fto-hb", "st-wcp", "st-dc", "st-wdc"]


def _kernel_spec():
    """A RoadRunner-shaped workload for the replay hot path: long bursty
    access runs, mostly lock-free (low ``p_cs``), so the per-event
    interpreter dispatch the kernels eliminate dominates the scalar
    baseline — the regime Table 2's DaCapo programs live in."""
    return WorkloadSpec(name="kernel-bench", threads=8,
                        events=max(int(1_000_000 * bench_scale()), 20_000),
                        locks=16, shared_vars=512, local_vars=128,
                        p_cs=0.002, read_fraction=0.75, burst=8.0,
                        p_volatile=0.002, predictive_races=2, hb_races=2,
                        seed=11)


def _predecode(trace, chunk_size):
    """Decode + shared same-epoch filter, once, into flat chunk columns —
    the exact loop the parallel parent runs — so the timed region below
    is pure replay (``feed_decoded``), not parsing."""
    toks, last_r, last_w = {}, {}, {}
    chunks = []
    idx_b, kind_b, tid_b, tgt_b, site_b = [], [], [], [], []
    i = -1
    for e in trace.events:
        i += 1
        k = e.kind
        t = e.tid
        x = e.target
        if k <= 1:
            tok = toks.get(t, t)
            if k == 0:
                if last_r.get(x) == tok:
                    continue
                last_r[x] = tok
            else:
                if last_w.get(x) == tok:
                    continue
                last_w[x] = tok
                if x in last_r:
                    del last_r[x]
        elif _EPOCH_ENDERS[k]:
            toks[t] = toks.get(t, t) + (1 << TID_BITS)
        idx_b.append(i)
        kind_b.append(k)
        tid_b.append(t)
        tgt_b.append(x)
        site_b.append(e.site)
        if len(idx_b) == chunk_size:
            chunks.append((idx_b, kind_b, tid_b, tgt_b, site_b,
                           chunk_size, i + 1))
            idx_b, kind_b, tid_b, tgt_b, site_b = [], [], [], [], []
    if idx_b:
        chunks.append((idx_b, kind_b, tid_b, tgt_b, site_b,
                       len(idx_b), i + 1))
    return chunks, i + 1


def test_kernel_batch_speedup(results_dir):
    """Columnar batch kernels vs per-event replay on the epoch tiers.

    Both sides replay the same predecoded flat chunks through
    ``feed_decoded`` — the only difference is ``use_kernels`` — and the
    reports (race tuples and peak footprint) must match bit for bit.
    """
    if not kernels_available():
        pytest.skip("numpy unavailable or REPRO_NO_NUMPY set")
    chunk_size = 32768
    trace = generate_trace(_kernel_spec())
    chunks, total = _predecode(trace, chunk_size)

    def replay(use_kernels):
        def run():
            analyses = [create(n, trace) for n in KERNEL_ANALYSES]
            runner = MultiRunner(analyses, chunk_events=chunk_size,
                                 use_kernels=use_kernels)
            sess = runner.session()
            t0 = time.perf_counter()
            for c in chunks:
                sess.feed_decoded(list(c[0]), list(c[1]), list(c[2]),
                                  list(c[3]), list(c[4]), c[5], c[6])
            res = sess.finish()
            dt = time.perf_counter() - t0
            assert res.ok
            run.signature = tuple(
                (en.name,
                 tuple((r.index, r.site, r.var, r.tid, r.access, r.kinds)
                       for r in en.report.races),
                 en.report.peak_footprint_bytes)
                for en in res.entries)
            return dt
        return run

    scalar, kernel = replay(False), replay(True)
    off, on = _best_pair(scalar, kernel, repeats=5, warmup=1)
    assert scalar.signature == kernel.signature
    ratio = off / on
    text = ("engine batch kernels vs per-event replay (epoch tiers)\n"
            "workload: {} events ({} after same-epoch filter), "
            "{} analyses, chunk {}\n"
            "scalar: {:.3f}s ({:.2f}M ev/s)   kernels: {:.3f}s "
            "({:.2f}M ev/s)   speedup: {:.2f}x"
            .format(total, sum(c[5] for c in chunks), len(KERNEL_ANALYSES),
                    chunk_size, off, total / off / 1e6,
                    on, total / on / 1e6, ratio))
    print(text)
    write_result(results_dir, "engine_kernels.txt", text, data={
        "workload": {"events": total,
                     "kept_events": sum(c[5] for c in chunks),
                     "analyses": len(KERNEL_ANALYSES),
                     "chunk_events": chunk_size},
        "scalar_s": round(off, 4),
        "kernels_s": round(on, 4),
        "events_per_s": round(total / on, 1),
        "ratio": round(ratio, 3),
    })
    gate(ratio >= 3.0, text)


def test_single_pass_reports_match_sequential():
    """The speedup is not bought with wrong answers: identical reports —
    including through the batch kernels and the same-epoch filter."""
    trace, path = _workload()
    streamed = run_stream(path, ANALYSES)
    assert streamed.ok
    for name in ANALYSES:
        solo = create(name, trace).run()
        multi = streamed.report(name)
        assert [(r.index, r.var, r.kinds) for r in multi.races] == \
            [(r.index, r.var, r.kinds) for r in solo.races], name
