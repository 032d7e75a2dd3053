"""Batch kernels (DESIGN.md §8) and interrupt handling.

Two contracts:

* **Differential**: the columnar kernel path must be *bit-identical* to
  the per-event scalar path — same races, same counts, same peak
  footprint, same per-variable metadata (last-access epochs and, for
  SmartTrack, the CS-list slots the lazy derivation repairs) — across
  randomized workloads, chunk sizes (down to 1), and analysis subsets,
  and the engine must auto-select the pure-Python path when numpy is
  unavailable (``REPRO_NO_NUMPY=1``).
* **Interrupt hygiene**: Ctrl-C through a sharded ``MultiRunner`` and
  ``repro serve`` yields a partial summary with every worker reaped and
  every shared-memory segment unlinked — no leaked processes or
  segments.
"""

import json
import os
import random
import signal
import subprocess
import sys
import time

import pytest

from repro.core.engine import MultiRunner
from repro.core.kernels import kernels_available
from repro.core.registry import ANALYSIS_NAMES, create
from repro.workloads import WorkloadSpec, generate_trace

EPOCH_TIERS = ["ft2", "fto-hb", "st-wcp", "st-dc", "st-wdc"]

needs_numpy = pytest.mark.skipif(
    not kernels_available(), reason="numpy unavailable or REPRO_NO_NUMPY set")


def _race_key(report):
    return [(r.index, r.site, r.var, r.tid, r.access, r.kinds)
            for r in report.races]


def _cs_snapshot(cs):
    # SmartTrack slots hold CS-entry lists; other tiers keep plain
    # dicts/ints in the same attribute names — snapshot either shape
    if cs is None:
        return None
    if isinstance(cs, dict):
        return tuple((k, _cs_snapshot(v)) for k, v in sorted(cs.items()))
    try:
        return tuple((e.lock, tuple(e.clock)) for e in cs)
    except AttributeError:
        return tuple(cs) if isinstance(cs, (list, set, tuple)) else cs


def _state_of(analysis):
    """Every piece of per-variable metadata the kernels touch."""
    state = {}
    if hasattr(analysis, "_read") and not isinstance(
            analysis._read, (dict, list)):
        state["read"] = bytes(analysis._read)
        state["write"] = bytes(analysis._write)
    if hasattr(analysis, "_read_vc"):
        state["read_vc"] = {x: tuple(vc)
                            for x, vc in analysis._read_vc.items()}
    if hasattr(analysis, "_lr"):  # SmartTrack CS-list slots
        state["lr"] = [_cs_snapshot(c) for c in analysis._lr]
        state["lw"] = [_cs_snapshot(c) for c in analysis._lw]
    if hasattr(analysis, "_eflags"):
        state["eflags"] = bytes(analysis._eflags)
    return state


def _run(trace, names, use_kernels, chunk):
    analyses = [create(name, trace) for name in names]
    result = MultiRunner(analyses, chunk_events=chunk,
                         use_kernels=use_kernels).run(trace.events)
    out = {}
    for entry, analysis in zip(result.entries, analyses):
        report = entry.report
        out[entry.name] = (_race_key(report), report.dynamic_count,
                           report.static_count,
                           report.peak_footprint_bytes,
                           _state_of(analysis))
    return out


def _spec(rng, i, max_events=6000):
    return WorkloadSpec(
        name="kernel-fuzz-{}".format(i),
        threads=rng.choice([1, 2, 4, 8]),
        events=rng.choice([300, 1500, max_events]),
        locks=rng.choice([1, 2, 8]),
        shared_vars=rng.choice([4, 16, 64]),
        local_vars=rng.choice([2, 16]),
        p_cs=rng.choice([0.0, 0.05, 0.3, 0.8]),
        read_fraction=rng.choice([0.2, 0.7, 0.9]),
        burst=rng.choice([1.0, 4.0, 8.0]),
        p_volatile=rng.choice([0.0, 0.02, 0.1]),
        predictive_races=rng.choice([0, 1, 3]),
        hb_races=rng.choice([0, 1, 2]),
        hb_single_races=rng.choice([0, 1]),
        dynamic_multiplier=rng.choice([1, 3]),
        seed=rng.randrange(10 ** 6),
    )


@needs_numpy
class TestDifferentialFuzz:
    def test_kernel_path_bit_identical(self):
        """Randomized chunk sizes (incl. 1) × analysis subsets: the
        kernel pass must equal the scalar pass bit for bit."""
        rng = random.Random(1234)
        for i in range(8):
            spec = _spec(rng, i)
            trace = generate_trace(spec)
            if rng.random() < 0.5:
                names = EPOCH_TIERS
            else:
                names = rng.sample(list(ANALYSIS_NAMES),
                                   rng.randrange(1, len(ANALYSIS_NAMES) + 1))
            chunk = 1 if i == 0 else rng.choice([2, 7, 64, 1000, 8192])
            off = _run(trace, names, False, chunk)
            on = _run(trace, names, True, chunk)
            assert on == off, \
                "spec {} chunk {} names {}".format(i, chunk, names)

    def test_vec_filter_matches_scalar_filter(self):
        """The decode-time same-epoch filter drops the same events on
        both paths (high-burst workload so drops dominate)."""
        trace = generate_trace(WorkloadSpec(
            name="filter", threads=4, events=8000, burst=12.0,
            predictive_races=1, hb_races=1, seed=3))
        off = _run(trace, EPOCH_TIERS, False, 512)
        on = _run(trace, EPOCH_TIERS, True, 512)
        assert on == off

    def test_sync_heavy_chunks_take_the_handlers_bit_identical(self):
        """Chunks whose kept events are mostly synchronization replay
        through the dispatch tables, the rest through the kernels; a
        pass that switches between the two many times leaves the same
        reports and per-variable metadata as the scalar pass."""
        trace = generate_trace(WorkloadSpec(
            name="mixed", threads=4, events=6000, locks=2,
            shared_vars=16, p_cs=0.3, read_fraction=0.7, burst=4.0,
            predictive_races=3, hb_races=2, seed=17))
        analyses = [create(n, trace) for n in EPOCH_TIERS]
        runner = MultiRunner(analyses, chunk_events=48, use_kernels=True)
        session = runner.session()
        routes = {"kernel": 0, "handlers": 0}
        for entry in runner.entries:
            kernel = entry.kernel

            def process_chunk(plan, _inner=kernel.process_chunk):
                routes["kernel"] += 1
                _inner(plan)

            def suspend(_inner=kernel.suspend):
                routes["handlers"] += 1
                _inner()

            kernel.process_chunk = process_chunk
            kernel.suspend = suspend
        session.feed(trace)
        result = session.finish()
        assert routes["kernel"] and routes["handlers"]
        on = {entry.name: (_race_key(entry.report),
                           entry.report.dynamic_count,
                           entry.report.static_count,
                           entry.report.peak_footprint_bytes,
                           _state_of(analysis))
              for entry, analysis in zip(result.entries, analyses)}
        assert on == _run(trace, EPOCH_TIERS, False, 48)

    def test_snapshot_logs_stay_bounded_on_sync_light_feed(self,
                                                          monkeypatch):
        """On a long sync-light feed every chunk takes the kernel, whose
        per-thread snapshot logs gain an entry per walked acquire or
        release.  They are compacted once they outgrow the slots left to
        repair, so after any chunk they hold at most dirty-set size +
        width + that chunk's sync events — and the reports and metadata
        stay those of the scalar pass."""
        from repro.core import engine
        from repro.trace.event import ACQUIRE, RELEASE

        # every chunk through the kernel: no handler chunk restarts logs
        monkeypatch.setattr(engine, "KERNEL_MAX_SYNC_SHARE", 1.0)

        trace = generate_trace(WorkloadSpec(
            name="sync-light", threads=8, events=30000, locks=16,
            shared_vars=64, local_vars=16, p_cs=0.03, read_fraction=0.75,
            burst=8.0, p_volatile=0.002, predictive_races=2, hb_races=2,
            seed=5))
        chunk = 1024
        analysis = create("st-wdc", trace)
        session = MultiRunner([analysis], chunk_events=chunk,
                              use_kernels=True).session()
        kernel = session.entries[0].kernel
        events = trace.events
        walked = 0
        for start in range(0, len(events), chunk):
            piece = events[start:start + chunk]
            session.feed(piece)
            syncs = sum(1 for e in piece if e.kind in (ACQUIRE, RELEASE))
            walked += syncs
            logged = sum(map(len, kernel._log_times))
            assert logged <= len(kernel._dirty) + analysis.width + syncs
        assert walked > 10 * analysis.width  # the logs had room to grow
        result = session.finish()
        report = result.entries[0].report
        got = {"st-wdc": (_race_key(report), report.dynamic_count,
                          report.static_count, report.peak_footprint_bytes,
                          _state_of(analysis))}
        assert got == _run(trace, ["st-wdc"], False, chunk)

    def test_checkpoint_resume_keeps_cs_list_slots(self, monkeypatch):
        """Kernels rebuilt on a restored session re-derive only the
        CS-list slots that their own fast accesses committed, so the
        final metadata equals an uninterrupted scalar pass."""
        import io

        from repro.core import engine

        # every chunk through the kernels: only the restore hands the
        # analyses from one kernel to the next
        monkeypatch.setattr(engine, "KERNEL_MAX_SYNC_SHARE", 1.0)
        rng = random.Random(99)
        for i in range(6):
            trace = generate_trace(_spec(rng, i, max_events=3000))
            cut = len(trace.events) // 2
            session = MultiRunner([create(n, trace) for n in EPOCH_TIERS],
                                  chunk_events=64,
                                  use_kernels=True).session()
            session.feed(iter(trace.events), max_events=cut)
            buf = io.BytesIO()
            session.save_checkpoint(buf)
            session.close()
            buf.seek(0)
            restored = MultiRunner.restore_checkpoint(buf)
            restored.feed(iter(trace.events[cut:]))
            result = restored.finish()
            got = {entry.name: (_race_key(entry.report),
                                _state_of(entry.analysis))
                   for entry in result.entries}
            off = _run(trace, EPOCH_TIERS, False, 64)
            assert got == {name: (v[0], v[4]) for name, v in off.items()}, \
                "spec {}".format(i)

    def test_engine_attaches_kernels(self):
        """The capability flag actually takes the batch path (guards
        against silently falling back and "passing" the differential)."""
        trace = generate_trace(WorkloadSpec(
            name="attach", threads=2, events=500, seed=5))
        runner = MultiRunner([create(n, trace) for n in EPOCH_TIERS],
                             use_kernels=True)
        session = runner.session()
        assert all(entry.kernel is not None for entry in runner.entries)
        session.feed(trace)
        session.finish()


_SUBPROCESS_SCRIPT = """
import json, sys
from repro.core.engine import MultiRunner
from repro.core.kernels import kernels_available
from repro.core.registry import create
from repro.workloads import WorkloadSpec, generate_trace

assert not kernels_available()
trace = generate_trace(WorkloadSpec(name="nonumpy", threads=4, events=4000,
                                    predictive_races=1, hb_races=1, seed=9))
names = {names!r}
runner = MultiRunner([create(n, trace) for n in names])  # auto-select
assert all(e.kernel is None for e in runner.entries)
result = runner.run(trace.events)
out = {{}}
for entry in result.entries:
    out[entry.name] = [(r.index, r.site, r.var, r.tid, r.access, r.kinds)
                       for r in entry.report.races]
print(json.dumps(out, sort_keys=True))
"""


class TestNoNumpyFallback:
    def test_env_knob_forces_pure_python_same_reports(self):
        """``REPRO_NO_NUMPY=1`` in a fresh interpreter: kernels report
        unavailable, the engine attaches none, reports match this
        process's run of the same workload."""
        env = dict(os.environ, REPRO_NO_NUMPY="1")
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(os.path.dirname(__file__), "..", "src")]
            + env.get("PYTHONPATH", "").split(os.pathsep))
        script = _SUBPROCESS_SCRIPT.format(names=EPOCH_TIERS)
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        sub = json.loads(proc.stdout)
        trace = generate_trace(WorkloadSpec(
            name="nonumpy", threads=4, events=4000, predictive_races=1,
            hb_races=1, seed=9))
        here = MultiRunner([create(n, trace) for n in EPOCH_TIERS]).run(
            trace.events)
        for entry in here.entries:
            assert [list(k) for k in _race_key(entry.report)] == \
                sub[entry.name]


# ---------------------------------------------------------------------------
# interrupt hygiene
# ---------------------------------------------------------------------------

def _shm_segments():
    if not os.path.isdir("/dev/shm"):
        return None
    return set(os.listdir("/dev/shm"))


@pytest.fixture(scope="module")
def workload():
    return generate_trace(WorkloadSpec(
        name="sigint-test", threads=4, events=12000,
        predictive_races=1, hb_races=1, seed=11))


class TestParallelInterrupt:
    def test_interrupt_mid_stream_partial_summary_no_leaks(self, workload):
        """KeyboardInterrupt in the parent's feed: the session still
        finishes with the workers' partial reports, every worker is
        reaped, and every shared-memory segment is unlinked."""
        import multiprocessing

        shm_before = _shm_segments()
        children_before = len(multiprocessing.active_children())
        cut = 6000

        def interrupted_source():
            for i, event in enumerate(workload.events):
                if i == cut:
                    raise KeyboardInterrupt
                yield event

        runner = MultiRunner([create(name, workload)
                              for name in ("st-wdc", "fto-hb")],
                             workers=2, chunk_events=512)
        session = runner.session()
        with pytest.raises(KeyboardInterrupt):
            for _ in session.drain(interrupted_source(), window=512):
                pass
        result = session.finish()
        assert result.ok  # analyses survived; only the feed was interrupted
        assert result.events_processed == cut
        # partial pass == serial pass over the same prefix
        serial = MultiRunner([create("st-wdc", workload)]).run(
            workload.events[:cut])
        assert _race_key(result.report("st-wdc")) == \
            _race_key(serial.report("st-wdc"))
        # no zombie workers, no leaked segments
        deadline = time.time() + 5
        while (len(multiprocessing.active_children()) > children_before
               and time.time() < deadline):
            time.sleep(0.05)
        assert len(multiprocessing.active_children()) <= children_before
        shm_after = _shm_segments()
        if shm_before is not None:
            assert shm_after - shm_before == set()

    @pytest.mark.skipif(not hasattr(signal, "SIGINT")
                        or sys.platform == "win32",
                        reason="POSIX signals required")
    def test_workers_ignore_sigint(self, workload):
        """A Ctrl-C fans out to the whole process group; workers must
        shrug it off and keep draining so the parent can collect."""
        runner = MultiRunner([create(name, workload)
                              for name in ("st-wdc", "fto-hb")],
                             workers=2, chunk_events=512)
        session = runner.session()
        time.sleep(0.5)  # let workers install their SIGINT handler
        for shard in session._shards:
            os.kill(shard.proc.pid, signal.SIGINT)
        for _ in session.drain(workload):
            pass
        result = session.finish()
        assert result.ok
        serial = MultiRunner([create("st-wdc", workload)]).run(workload)
        assert _race_key(result.report("st-wdc")) == \
            _race_key(serial.report("st-wdc"))


@pytest.mark.skipif(not hasattr(signal, "SIGINT") or sys.platform == "win32",
                    reason="POSIX signals required")
class TestServeInterrupt:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_sigint_emits_partial_summary_and_exits_130(
            self, tmp_path, workers):
        from repro.trace import dumps_trace_binary
        from repro.trace.live import connect_endpoint

        sock = str(tmp_path / "serve.sock")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(os.path.dirname(__file__), "..", "src")]
            + env.get("PYTHONPATH", "").split(os.pathsep))
        proc = subprocess.Popen(
            [sys.executable, "-c",
             "import sys; from repro.cli import main; "
             "sys.exit(main(sys.argv[1:]))",
             "serve", sock, "--analysis", "st-wdc", "--emit", "jsonl",
             "--workers", str(workers), "--timeout", "30"],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True)
        try:
            deadline = time.time() + 10
            while not os.path.exists(sock):
                assert time.time() < deadline, proc.stderr.read()
                assert proc.poll() is None, proc.stderr.read()
                time.sleep(0.05)
            shm_before = _shm_segments()
            from repro.workloads import figure1
            payload = dumps_trace_binary(figure1())
            conn = connect_endpoint(sock, connect_timeout=10)
            try:
                # header + all but the tail of the last event: the
                # reader stops on its own once every *declared* event
                # arrives, so hold the final one back to keep the serve
                # mid-drain when the interrupt lands
                conn.sendall(payload[:-2])
                time.sleep(1.0)  # let the drain loop consume them
                proc.send_signal(signal.SIGINT)
                out, err = proc.communicate(timeout=30)
            finally:
                conn.close()
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 130, (out, err)
        assert "interrupted" in err
        summaries = [json.loads(line) for line in out.splitlines()
                     if '"summary"' in line]
        assert any(s["analysis"] == "st-wdc" for s in summaries), (out, err)
        if workers > 1:
            shm_after = _shm_segments()
            if shm_before is not None:
                assert shm_after - shm_before == set()
