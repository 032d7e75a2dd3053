"""Multiprocess sharding: ``MultiRunner(workers=N)`` correctness and
failure paths.

The contract under test (DESIGN.md §6): a sharded pass produces reports
*bit-identical* to the serial single-pass engine on the same events —
across worker counts and the sampling path — and a worker
process dying mid-stream degrades exactly like a detached analysis
(partial results for the survivors, ``result.ok`` False, the CLI's
exit-2 path).  The sharded session is the engine's own session with the
replay step swapped for a broadcast, so progress callbacks, bounded
race retention and every lifecycle rule hold on it too.  The heavier
randomized parallel==serial sweep lives in
``tests/test_fuzz_differential.py``.
"""

import io
import os

import pytest

from repro.core import parallel
from repro.core.engine import MultiRunner, run_stream
from repro.core.parallel import RemoteAnalysisError, WorkerDied, plan_shards
from repro.core.registry import MAIN_MATRIX, create
from repro.trace.format import dump_trace
from repro.workloads import WorkloadSpec, generate_trace
from tests.conftest import ALL_ANALYSES


def _rec(r):
    return (r.index, r.var, r.tid, r.access, r.kinds)


def _key(report):
    return [_rec(r) for r in report.races]


def _sharded(names, trace, workers=2, **kwargs):
    return MultiRunner([create(name, trace) for name in names],
                       workers=workers, **kwargs)


@pytest.fixture(scope="module")
def workload():
    return generate_trace(WorkloadSpec(
        name="parallel-test", threads=6, events=12000,
        predictive_races=2, hb_races=2, seed=11))


@pytest.fixture(scope="module")
def serial(workload):
    result = MultiRunner(
        [create(name, workload) for name in MAIN_MATRIX]).run(workload)
    assert result.ok
    return result


@pytest.fixture
def trace_file(workload, tmp_path):
    path = str(tmp_path / "t.trace")
    with open(path, "w") as fp:
        dump_trace(workload, fp)
    return path


class TestShardPlanning:
    def test_spread_balances_load(self):
        shards = plan_shards(ALL_ANALYSES, 4)
        sizes = sorted(len(s) for s in shards)
        assert sum(sizes) == len(ALL_ANALYSES)
        assert sizes[-1] - sizes[0] <= 1

    def test_workers_clamped_to_analyses(self, workload):
        assert plan_shards(["st-wdc"], 8) == [[0]]
        runner = _sharded(["st-wdc", "st-dc"], workload, workers=16)
        assert runner.workers == 2
        assert len(plan_shards(["st-wdc", "st-dc"], runner.workers)) == 2

    def test_every_position_assigned_exactly_once(self):
        for workers in (1, 2, 3, 4, 7, 11):
            shards = plan_shards(ALL_ANALYSES, workers)
            flat = sorted(p for shard in shards for p in shard)
            assert flat == list(range(len(ALL_ANALYSES))), workers

    def test_unknown_name_rejected_eagerly(self, trace_file):
        import multiprocessing

        before = len(multiprocessing.active_children())
        with pytest.raises(ValueError, match="unknown analysis"):
            run_stream(trace_file, ["st-wdc", "no-such-analysis"],
                       workers=2)
        assert len(multiprocessing.active_children()) == before


class TestParallelEqualsSerial:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_full_matrix(self, workload, serial, workers):
        result = _sharded(MAIN_MATRIX, workload, workers).run(workload)
        assert result.ok, result.failures
        assert result.events_processed == serial.events_processed
        for name in MAIN_MATRIX:
            assert _key(result.report(name)) == _key(serial.report(name)), \
                name
            assert result.report(name).events_processed == \
                serial.report(name).events_processed

    def test_shard_of_size_one(self, workload):
        solo = create("st-wdc", workload).run()
        result = _sharded(["st-wdc", "fto-hb"], workload).run(workload)
        assert result.ok
        assert _key(result.report("st-wdc")) == _key(solo)

    def test_sampling_path_matches_solo_peaks(self, workload):
        # sampling disables the parent's same-epoch filter (as in the
        # serial engine) and the peaks are measured inside the workers
        result = _sharded(MAIN_MATRIX, workload,
                          sample_every=1024).run(workload)
        assert result.ok
        solo = create("st-wdc", workload).run(sample_every=1024)
        report = result.report("st-wdc")
        assert _key(report) == _key(solo)
        assert report.peak_footprint_bytes == solo.peak_footprint_bytes > 0

    def test_streamed_file_source(self, workload, serial, tmp_path):
        path = str(tmp_path / "t.bin")
        with open(path, "wb") as fp:
            dump_trace(workload, fp, binary=True)
        result = run_stream(path, MAIN_MATRIX, workers=3)
        assert result.ok
        assert result.events_processed == len(workload)
        for name in MAIN_MATRIX:
            assert _key(result.report(name)) == _key(serial.report(name))

    def test_run_stream_workers_param(self, serial, trace_file):
        result = run_stream(trace_file, MAIN_MATRIX, workers=2)
        assert result.ok
        for name in MAIN_MATRIX:
            assert _key(result.report(name)) == _key(serial.report(name))

    def test_incremental_drain_reassembles(self, workload):
        session = _sharded(MAIN_MATRIX, workload).session()
        streamed = list(session.drain(workload, window=257))
        result = session.finish()
        assert result.ok
        for name in MAIN_MATRIX:
            incremental = [_rec(r) for n, r in streamed if n == name]
            assert incremental == _key(result.report(name)), name

    def test_progress_counts_match_serial(self, workload, trace_file):
        counts = {}
        for workers in (1, 2):
            calls = counts[workers] = []
            run_stream(trace_file, ["st-wdc", "fto-hb", "unopt-hb"],
                       progress=calls.append, workers=workers)
        assert counts[2] == counts[1]
        assert counts[1][-1] == len(workload) and len(counts[1]) > 1

    def test_max_pending_races_bounds_parent_records(self, workload):
        names = ["st-wdc", "fto-hb", "unopt-dc"]
        full = MultiRunner([create(n, workload) for n in names]).run(
            workload)
        runner = _sharded(names, workload, max_pending_races=1)
        session = runner.session()
        delivered = []
        for pair in session.drain(workload, window=300):
            delivered.append(pair)
            # every delivery trims the parent's copies to the cap
            for entry in session.entries:
                assert len(entry.analysis.races) <= 1, entry.name
        snap = session.snapshot()
        result = session.finish()
        assert result.ok
        for name in names:
            expected = full.report(name)
            assert expected.dynamic_count > 1, name
            report = result.report(name)
            assert [_rec(r) for n, r in delivered if n == name] == \
                _key(expected), name
            assert snap.dynamic_counts[name] == report.dynamic_count == \
                expected.dynamic_count
            assert snap.static_counts[name] == report.static_count == \
                expected.static_count
            assert _key(report) == _key(expected)[-1:], name


class TestWorkerFailure:
    def test_crash_mid_stream_partial_results(self, workload, serial,
                                              monkeypatch):
        # shard 0 hard-exits after its first chunk: its analyses become
        # AnalysisFailures (WorkerDied), every other shard's reports
        # stay bit-identical to serial, and events_processed still
        # counts the whole decode
        monkeypatch.setattr(parallel, "_crash_after", {0: 1})
        result = _sharded(MAIN_MATRIX, workload, workers=3,
                          chunk_events=1024).run(workload)
        assert not result.ok
        dead_names = {MAIN_MATRIX[p] for p in plan_shards(MAIN_MATRIX, 3)[0]}
        failed_names = {f.name for f in result.failures}
        assert failed_names == dead_names
        for failure in result.failures:
            assert isinstance(failure.error, WorkerDied)
        for entry in result.entries:
            if entry.failure is None:
                assert _key(entry.report) == \
                    _key(serial.report(entry.name)), entry.name
        assert result.events_processed == len(workload)

    def test_analysis_error_detaches_inside_worker(self, workload, serial):
        # a locally defined analysis reaches its worker through the
        # fork; when it raises there, that worker's engine detaches it
        # and its shard-mate survives with a bit-identical report
        class Exploding(type(create("ft2", workload))):
            def write(self, t, x, i, site):
                if i >= 400:
                    raise RuntimeError("boom at {}".format(i))
                super().write(t, x, i, site)

        local = MultiRunner([Exploding(workload),
                             create("st-wdc", workload)]).run(workload)
        # shards: [Exploding, fto-hb] and [st-wdc]
        result = MultiRunner([Exploding(workload), create("st-wdc", workload),
                              create("fto-hb", workload)],
                             workers=2).run(workload)
        assert [f.name for f in result.failures] == ["ft2"]
        failure = result.failures[0]
        assert isinstance(failure.error, RemoteAnalysisError)
        assert "boom at" in str(failure.error)
        assert failure.event_index == local.failures[0].event_index >= 400
        for name in ("st-wdc", "fto-hb"):
            assert _key(result.report(name)) == _key(serial.report(name))

    def test_remote_failure_reconstruction(self, workload):
        err = RemoteAnalysisError("ValueError('x')")
        assert "ValueError" in str(err)


class TestSourceFailure:
    def test_source_error_yields_partial_then_finishes(self, workload):
        # a live feed dying mid-stream (TraceFormatError/OSError in the
        # source iterator) must flush the decoded prefix to the workers,
        # surface their races, and leave the session finish()-able with
        # a partial summary — the serve exit-2 contract
        from repro.trace.format import TraceFormatError

        cut = 5000

        def dying_source():
            for i, event in enumerate(workload.events):
                if i == cut:
                    raise TraceFormatError("feed died")
                yield event

        session = _sharded(["st-wdc", "fto-hb"], workload,
                           chunk_events=512).session()
        streamed = []
        with pytest.raises(TraceFormatError):
            for pair in session.drain(dying_source(), window=512):
                streamed.append(pair)
        assert session.events_acked == cut
        result = session.finish()
        assert result.ok  # the *analyses* survived; only the feed died
        assert result.events_processed == cut
        # the partial pass equals a serial pass over the same prefix
        prefix = MultiRunner([create("st-wdc", workload)]).run(
            workload.events[:cut])
        assert _key(result.report("st-wdc")) == \
            _key(prefix.report("st-wdc"))
        streamed_st = [_rec(r) for n, r in streamed if n == "st-wdc"]
        assert streamed_st == _key(result.report("st-wdc"))


class TestSessionLifecycle:
    def test_single_open_session(self, workload):
        runner = _sharded(["st-wdc", "fto-hb"], workload)
        session = runner.session()
        with pytest.raises(RuntimeError, match="still open"):
            runner.session()
        for _ in session.drain(workload):
            pass
        assert session.finish().ok

    def test_second_session_on_sharded_runner_rejected(self, workload):
        # the runner's analyses never advance in this process (forked
        # copies did), so a second session could only start over
        runner = _sharded(["st-wdc", "fto-hb"], workload)
        runner.session().close()
        with pytest.raises(RuntimeError, match="one session"):
            runner.session()
        runner = _sharded(["st-wdc", "fto-hb"], workload)
        assert runner.run(workload).ok
        with pytest.raises(RuntimeError, match="one session"):
            runner.run(workload)

    def test_finish_twice_rejected(self, workload):
        session = _sharded(["st-wdc", "fto-hb"], workload).session()
        for _ in session.drain(workload):
            pass
        session.finish()
        with pytest.raises(RuntimeError, match="finished"):
            session.finish()
        session.close()  # closing a finished session is harmless

    def test_checkpoint_rejected(self, workload):
        from repro.checkpoint import CheckpointError

        session = _sharded(["st-wdc", "fto-hb"], workload).session()
        try:
            session.feed(workload.events[:1000])
            with pytest.raises(CheckpointError, match="sharded"):
                session.save_checkpoint(io.BytesIO())
        finally:
            session.close()


def test_forked_workers_never_touch_resource_tracker(workload, monkeypatch):
    """Forked workers must not call into multiprocessing's resource
    tracker: its lock is a process-private heap RLock, and a fork taken
    while any other parent thread holds it (another session's shm
    register/unregister) hands the child a permanently locked copy —
    the worker then deadlocks attaching to its chunk ring.  Guard the
    tracker entry points: a child that reaches them hard-exits, which
    surfaces as a dead shard and fails the run.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("no fork start method on this platform")
    parent = os.getpid()

    def _guard(wrapped):
        def checked(*args, **kwargs):
            if os.getpid() != parent:  # pragma: no cover - bug path
                os._exit(86)
            return wrapped(*args, **kwargs)
        return checked

    monkeypatch.setattr(resource_tracker, "register",
                        _guard(resource_tracker.register))
    monkeypatch.setattr(resource_tracker, "ensure_running",
                        _guard(resource_tracker.ensure_running))
    result = _sharded(["st-wdc", "fto-hb"], workload).run(workload)
    assert result.ok


def test_no_process_leak(workload):
    """Every worker is reaped by finish() — no zombie accumulation."""
    import multiprocessing

    before = len(multiprocessing.active_children())
    for _ in range(3):
        result = _sharded(["st-wdc", "fto-hb"], workload).run(workload)
        assert result.ok
    assert len(multiprocessing.active_children()) <= before
