"""Tests for the single-pass multi-analysis engine (repro.core.engine)."""

import io
import json
import os
import subprocess
import sys
import textwrap

import pytest

import repro
from repro.core.base import Analysis
from repro.core.engine import MultiRunner, run_analyses, run_stream
from repro.core.registry import ANALYSIS_NAMES, MAIN_MATRIX, create
from repro.harness.tables import TABLE3_ANALYSES
from repro.trace.trace import TraceInfo
from repro.workloads import figure1, generate_trace, WorkloadSpec
from tests.conftest import ALL_ANALYSES, random_trace


class OneShotEvents:
    """An event source that counts iterations and refuses to rewind."""

    def __init__(self, events):
        self.events = list(events)
        self.iterations = 0

    def __iter__(self):
        if self.iterations:
            raise RuntimeError("event source rewound")
        self.iterations += 1
        return iter(self.events)


class ExplodingAnalysis(Analysis):
    """Raises inside a handler at a chosen event index."""

    name = "exploding"
    relation = "none"
    tier = "test"

    def __init__(self, trace, explode_at=0):
        super().__init__(trace)
        self.explode_at = explode_at

    def _handle(self, t, x, i, site):
        if i >= self.explode_at:
            raise ZeroDivisionError("boom at {}".format(i))

    read = write = acquire = release = _handle
    fork = join = volatile_read = volatile_write = _handle
    static_init = static_access = _handle


def _race_key(report):
    return [(r.index, r.var, r.tid, r.access, r.kinds) for r in report.races]


class TestSinglePass:
    def test_exactly_one_iteration_for_table3_configs(self, rng):
        trace = random_trace(rng, n_events=120)
        analyses = [create(name, trace) for name in TABLE3_ANALYSES]
        source = OneShotEvents(trace.events)
        result = MultiRunner(analyses).run(source)
        assert source.iterations == 1
        assert result.events_processed == len(trace)
        for entry in result.entries:
            assert entry.ok
            assert entry.report.events_processed == len(trace)

    def test_exactly_one_iteration_for_main_matrix(self, rng):
        trace = random_trace(rng, n_events=80)
        analyses = [create(name, trace) for name in MAIN_MATRIX]
        source = OneShotEvents(trace.events)
        MultiRunner(analyses).run(source)
        assert source.iterations == 1

    def test_accepts_plain_generator(self):
        trace = figure1()
        gen = (e for e in trace.events)
        result = run_analyses(trace, ["st-wdc"], events=gen)
        assert result.report("st-wdc").dynamic_count == 1

    def test_matches_solo_runs_on_figure1(self):
        trace = figure1()
        result = repro.detect_races_multi(trace)
        for name in MAIN_MATRIX:
            solo = repro.detect_races(trace, name)
            assert _race_key(result.report(name)) == _race_key(solo), name

    def test_empty_analysis_list_rejected(self):
        with pytest.raises(ValueError):
            MultiRunner([])

    def test_traceinfo_requires_explicit_events(self):
        info = TraceInfo(num_threads=2)
        with pytest.raises(TypeError):
            run_analyses(info, ["st-wdc"])


class TestErrorIsolation:
    def test_failure_is_recorded_and_others_finish(self, rng):
        trace = random_trace(rng, n_events=60)
        exploding = ExplodingAnalysis(trace, explode_at=17)
        healthy = create("st-wdc", trace)
        result = MultiRunner([exploding, healthy]).run(trace)
        assert not result.ok
        (failure,) = result.failures
        assert failure.name == "exploding"
        assert failure.event_index == 17
        assert isinstance(failure.error, ZeroDivisionError)
        # the healthy analysis is untouched and matches a solo run
        solo = repro.detect_races(trace, "st-wdc")
        assert _race_key(result.report("st-wdc")) == _race_key(solo)
        assert result.report("st-wdc").events_processed == len(trace)

    def test_failed_analysis_has_no_report(self):
        trace = figure1()
        exploding = ExplodingAnalysis(trace, explode_at=0)
        result = MultiRunner([exploding]).run(trace)
        assert result.entries[0].report is None
        with pytest.raises(KeyError):
            result.report("exploding")
        # the stream is still drained fully (events_processed is total)
        assert result.events_processed == len(trace)

    def test_all_analyses_can_fail_mid_stream(self, rng):
        trace = random_trace(rng, n_events=40)
        a = ExplodingAnalysis(trace, explode_at=5)
        b = ExplodingAnalysis(trace, explode_at=9)
        result = MultiRunner([a, b]).run(trace)
        assert [f.event_index for f in result.failures] == [5, 9]


class TestInstanceIsolation:
    """Two instances of the same analysis, one stream, zero interference
    (the dispatch-table contract: all mutable state is per-instance)."""

    @pytest.mark.parametrize("name", ALL_ANALYSES)
    def test_same_analysis_side_by_side(self, name, rng):
        trace = random_trace(rng, n_events=70)
        first = create(name, trace)
        second = create(name, trace)
        result = MultiRunner([first, second],
                             sample_every=64).run(trace)
        assert result.ok
        r1, r2 = result.entries[0].report, result.entries[1].report
        assert _race_key(r1) == _race_key(r2)
        assert r1.peak_footprint_bytes == r2.peak_footprint_bytes
        solo = create(name, trace).run(sample_every=64)
        assert _race_key(r1) == _race_key(solo)
        assert r1.peak_footprint_bytes == solo.peak_footprint_bytes

    def test_footprint_sampling_cadence_matches_solo(self, rng):
        trace = random_trace(rng, n_events=90)
        for name in ("st-dc", "unopt-wcp", "ft2"):
            multi = MultiRunner([create(name, trace)],
                                sample_every=32).run(trace)
            solo = create(name, trace).run(sample_every=32)
            assert multi.report(name).peak_footprint_bytes == \
                solo.peak_footprint_bytes, name


class TestProgress:
    def test_progress_callback_shared(self):
        spec = WorkloadSpec(name="p", threads=3, events=2000, seed=5)
        trace = generate_trace(spec)
        seen = []
        runner = MultiRunner([create("st-wdc", trace),
                              create("fto-hb", trace)],
                             progress=seen.append, chunk_events=512)
        result = runner.run(trace)
        # called once per chunk with the running event count, regardless
        # of how many analyses are registered; the shared same-epoch
        # filter means one chunk covers >= chunk_events source events,
        # so boundaries are monotone and there are at most ceil(n/512)
        # of them, with the final call reporting the full count
        n = result.events_processed
        assert seen[-1] == n
        assert seen == sorted(set(seen))
        assert len(seen) <= (n + 511) // 512 + 1
        assert all(b - a >= 512 for a, b in zip(seen[:-1], seen[1:-1]))

    def test_progress_reaches_total_when_tail_is_filtered(self):
        # regression: a stream whose trailing events are all dropped by
        # the shared same-epoch filter yields no final chunk, but the
        # callback must still report the full event count
        from repro.trace.event import Event, READ
        from repro.trace.trace import Trace

        events = [Event(0, READ, x, 1) for x in (0, 1, 2, 3)]
        events += [Event(0, READ, 0, 1)] * 10
        trace = Trace(events)
        seen = []
        result = MultiRunner([create("fto-hb", trace)], chunk_events=4,
                             progress=seen.append).run(trace)
        assert result.events_processed == len(trace)
        assert seen[-1] == len(trace)


class TestStreaming:
    def test_run_stream_requires_header(self):
        from repro.trace.format import TraceFormatError
        with pytest.raises(TraceFormatError, match="header"):
            run_stream(io.StringIO("T0 rd x0\n"), ["st-wdc"])

    def test_one_million_events_bounded_memory(self, tmp_path):
        """The acceptance scenario: a 1M-event text trace is analyzed
        through a one-shot stream — the Trace is never materialized (the
        stream raises on any rewind attempt)."""
        n = 1_000_000
        path = tmp_path / "million.trace"
        with open(path, "w") as fp:
            fp.write("# repro trace v1: threads=2 locks=1 vars=4\n")
            chunk = (
                "T0 acq m0 @1\nT0 wr x0 @2\nT0 rel m0 @3\n"
                "T1 acq m0 @4\nT1 wr x0 @5\nT1 rel m0 @6\n"
                "T0 rd x1 @7\nT1 rd x2 @8\n"
            )
            for _ in range(n // 8):
                fp.write(chunk)
        from repro.trace.format import stream_trace
        stream = stream_trace(str(path))
        info = stream.require_info()
        assert info.num_threads == 2
        result = run_analyses(info, ["ft2"], events=stream)
        assert result.events_processed == n
        assert stream.events_read == n
        assert result.report("ft2").dynamic_count == 0
        # one-shot: the engine cannot have rewound, and nobody else can
        with pytest.raises(RuntimeError, match="one-shot"):
            iter(stream)

    def test_graph_variant_streams(self, tmp_path):
        # constraint-graph analyses size off a hint, so they work even
        # when the event count is unknown up front
        trace = figure1()
        path = tmp_path / "g.trace"
        with open(path, "w") as fp:
            repro.dump_trace(trace, fp)
        result = run_stream(str(path), ["unopt-wdc-g"])
        assert result.ok
        assert result.report("unopt-wdc-g").dynamic_count == \
            repro.detect_races(trace, "unopt-wdc").dynamic_count

    def test_stream_matches_materialized(self, tmp_path):
        spec = WorkloadSpec(name="s", threads=4, events=3000,
                            predictive_races=1, hb_races=1, seed=77)
        trace = generate_trace(spec)
        path = tmp_path / "s.trace"
        with open(path, "w") as fp:
            repro.dump_trace(trace, fp)
        streamed = run_stream(str(path), ["st-wdc", "fto-hb"])
        for name in ("st-wdc", "fto-hb"):
            solo = repro.detect_races(trace, name)
            assert _race_key(streamed.report(name)) == _race_key(solo)


class ExplodingWcp(Analysis):
    """A WCP analysis that raises partway through, to exercise error
    isolation next to the other WCP analyses."""

    name = "exploding-wcp"
    relation = "wcp"
    tier = "test"

    def __new__(cls, trace, explode_at=0):
        from repro.core.unopt import UnoptWCP

        class _Boom(UnoptWCP):
            name = "exploding-wcp"

            def read(self, t, x, i, site):
                if i >= self.explode_at:
                    raise ZeroDivisionError("boom at {}".format(i))
                return super().read(t, x, i, site)

        inst = _Boom(trace)
        inst.explode_at = explode_at
        return inst


class TestSharedHB:
    """WCP analyses co-scheduled in one runner each own their clocks (the
    ``share_hb`` keyword is accepted and ignored): reports, failure
    isolation and footprint peaks all match solo runs."""

    def _wcp_trace(self, rng, n=200):
        return random_trace(rng, n_events=n, threads=4, locks=3, nvars=4)

    def test_share_hb_false_disables_grouping(self, rng):
        # share_hb is a no-op: either value gives the solo reports
        trace = self._wcp_trace(rng)
        for share_hb in (True, False):
            analyses = [create(n, trace) for n in ("unopt-wcp", "st-wcp")]
            result = MultiRunner(analyses, share_hb=share_hb).run(trace)
            for name in ("unopt-wcp", "st-wcp"):
                solo = repro.detect_races(trace, name)
                assert _race_key(result.report(name)) == _race_key(solo), \
                    (share_hb, name)

    def test_shared_reports_match_solo_including_hard_edges(self, rng):
        # forks/joins/volatiles/class-inits all mutate HB state
        from tests.test_fuzz_differential import fuzzed_trace
        import random as _random

        for trial in (1, 3, 6, 9):
            trace = fuzzed_trace(_random.Random(99), trial)
            wcp_names = ("unopt-wcp", "fto-wcp", "st-wcp")
            result = MultiRunner(
                [create(n, trace) for n in wcp_names]).run(trace)
            assert result.ok
            for name in wcp_names:
                solo = repro.detect_races(trace, name)
                assert _race_key(result.report(name)) == _race_key(solo), \
                    (trial, name)

    def test_group_member_failure_is_isolated(self, rng):
        trace = self._wcp_trace(rng)
        boom = ExplodingWcp(trace, explode_at=40)
        survivors = [create("st-wcp", trace), create("fto-wcp", trace)]
        # scalar replay for every analysis, the path the failure takes
        result = MultiRunner([boom] + survivors,
                             use_kernels=False).run(trace)
        (failure,) = result.failures
        assert failure.name == "exploding-wcp"
        assert isinstance(failure.error, ZeroDivisionError)
        # the surviving analyses still match their solo runs exactly
        for name in ("st-wcp", "fto-wcp"):
            solo = repro.detect_races(trace, name)
            assert _race_key(result.report(name)) == _race_key(solo), name
            assert result.report(name).events_processed == len(trace)

    def test_all_group_members_can_fail(self, rng):
        trace = self._wcp_trace(rng)
        a = ExplodingWcp(trace, explode_at=10)
        b = ExplodingWcp(trace, explode_at=30)
        result = MultiRunner([a, b, create("fto-hb", trace)]).run(trace)
        assert len(result.failures) == 2
        solo = repro.detect_races(trace, "fto-hb")
        assert _race_key(result.report("fto-hb")) == _race_key(solo)
        assert result.events_processed == len(trace)

    def test_footprint_sampling_matches_solo_in_shared_mode(self, rng):
        trace = self._wcp_trace(rng, n=400)
        analyses = [create(n, trace) for n in ("unopt-wcp", "st-wcp")]
        result = MultiRunner(analyses, sample_every=32).run(trace)
        for name in ("unopt-wcp", "st-wcp"):
            solo = create(name, trace).run(sample_every=32)
            assert result.report(name).peak_footprint_bytes == \
                solo.peak_footprint_bytes, name


class TestSameEpochFilter:
    def test_filter_disabled_under_sampling_and_case_counts(self, rng):
        trace = random_trace(rng, n_events=150)
        # sampling on: filter must not skip records (peaks sampled at
        # the same indices as solo runs)
        r1 = MultiRunner([create("fto-hb", trace)], sample_every=16)
        r1.run(trace)
        # case counting on: same-epoch case counters must keep counting
        counting = create("fto-hb", trace, collect_cases=True)
        result = MultiRunner([counting]).run(trace)
        solo = create("fto-hb", trace, collect_cases=True).run()
        assert result.report("fto-hb").case_counts == solo.case_counts

    def test_repeated_accesses_report_identically(self):
        from repro.trace.builder import TraceBuilder

        b = TraceBuilder()
        for _ in range(10):
            b.read("T1", "x")
        b.write("T2", "x")  # race with T1's reads
        for _ in range(10):
            b.write("T2", "x")  # same-epoch repeats
        trace = b.build()
        result = repro.detect_races_multi(trace)
        for name in MAIN_MATRIX:
            solo = repro.detect_races(trace, name)
            assert _race_key(result.report(name)) == _race_key(solo), name

    def test_filter_gated_on_same_epoch_capability(self, rng):
        # a custom analysis without the [Same Epoch] fast-path semantics
        # must see every event, even co-scheduled with built-in tiers
        trace = random_trace(rng, n_events=120)

        class CountingAnalysis(Analysis):
            name = "counting"

            def __init__(self, tr):
                super().__init__(tr)
                self.calls = 0

            def _handle(self, t, x, i, site):
                self.calls += 1

            read = write = acquire = release = _handle
            fork = join = volatile_read = volatile_write = _handle
            static_init = static_access = _handle

        counting = CountingAnalysis(trace)
        result = MultiRunner([counting, create("st-wdc", trace)]).run(trace)
        assert result.ok
        assert counting.calls == len(trace)
        # built-in tiers declare the capability, so a matrix-only run
        # does filter (strictly fewer dispatches than events)
        probe = CountingAnalysis(trace)
        probe.SAME_EPOCH_SKIP = True
        MultiRunner([probe]).run(trace)
        assert probe.calls < len(trace)

    def test_never_run_runner_leaves_analyses_usable(self, rng):
        trace = random_trace(rng, n_events=200, threads=4, locks=3)
        a1, a2 = create("st-wcp", trace), create("fto-wcp", trace)
        MultiRunner([a1, a2])  # constructed, never run
        solo = create("st-wcp", trace).run()
        assert _race_key(a1.run()) == _race_key(solo)

    def test_sampling_failure_detaches_only_the_faulty_member(self, rng):
        # regression: a footprint_bytes failure must be blamed on the
        # analysis whose sampler raised, and must leave the others'
        # reports and peaks equal to their solo runs
        trace = random_trace(rng, n_events=300, threads=4, locks=3)
        faulty = create("st-wcp", trace)

        def bad_footprint(_orig=faulty.footprint_bytes):
            raise OSError("sampler down")

        faulty.footprint_bytes = bad_footprint
        survivors = [create("unopt-wcp", trace), create("fto-wcp", trace)]
        result = MultiRunner([survivors[0], faulty, survivors[1]],
                             sample_every=16).run(trace)
        (failure,) = result.failures
        assert failure.name == "st-wcp"
        assert isinstance(failure.error, OSError)
        for name in ("unopt-wcp", "fto-wcp"):
            solo = create(name, trace).run(sample_every=16)
            assert _race_key(result.report(name)) == _race_key(solo), name
            assert result.report(name).peak_footprint_bytes == \
                solo.peak_footprint_bytes, name


class TestEpochEnderTable:
    def test_epoch_enders_cover_every_tier_bump_site(self):
        """The same-epoch filter's soundness rests on _EPOCH_ENDERS
        marking every event kind at which any SAME_EPOCH_SKIP tier
        advances a thread's local clock.  Drive each kind through a
        fresh instance of every registry analysis and require: observed
        bump => marked as an epoch ender."""
        from repro.core.engine import _EPOCH_ENDERS
        from repro.core.registry import ANALYSIS_NAMES
        from repro.trace.event import (
            ACQUIRE, FORK, JOIN, READ, RELEASE, STATIC_ACCESS,
            STATIC_INIT, VOLATILE_READ, VOLATILE_WRITE, WRITE,
        )
        from repro.trace.trace import TraceInfo

        info = TraceInfo(num_threads=2, num_locks=1, num_vars=1,
                         num_volatiles=1, num_classes=1)
        # per kind: (well-formedness prefix events, probe event), each
        # as (kind, tid, target)
        probes = {
            READ: ([], (READ, 0, 0)),
            WRITE: ([], (WRITE, 0, 0)),
            ACQUIRE: ([], (ACQUIRE, 0, 0)),
            RELEASE: ([(ACQUIRE, 0, 0)], (RELEASE, 0, 0)),
            FORK: ([], (FORK, 0, 1)),
            JOIN: ([(FORK, 0, 1)], (JOIN, 0, 1)),
            VOLATILE_READ: ([], (VOLATILE_READ, 0, 0)),
            VOLATILE_WRITE: ([], (VOLATILE_WRITE, 0, 0)),
            STATIC_INIT: ([], (STATIC_INIT, 0, 0)),
            STATIC_ACCESS: ([(STATIC_INIT, 1, 0)], (STATIC_ACCESS, 0, 0)),
        }
        for name in ANALYSIS_NAMES:
            for kind, (prefix, probe) in probes.items():
                analysis = create(name, info)
                if not analysis.SAME_EPOCH_SKIP:
                    continue
                table = analysis.dispatch_table()
                i = 0
                for k, t, x in prefix:
                    table[k](t, x, i, 0)
                    i += 1
                k, t, x = probe
                before = analysis._time(t)
                table[k](t, x, i, 0)
                bumped = analysis._time(t) > before
                assert not bumped or _EPOCH_ENDERS[kind], (
                    "{} bumps the local clock at kind {} but the "
                    "engine's same-epoch filter does not treat it as an "
                    "epoch ender".format(name, kind))


class TestSession:
    """The incremental session API (MultiRunner.session): feeding the
    stream in installments is bit-identical to the one-shot pass, new
    races surface per installment, and the lifecycle is enforced."""

    def _drain(self, session, events, window, rng=None):
        feed = iter(events)
        streamed = []
        while True:
            seen = session.events_processed
            streamed += session.feed(feed, max_events=window)
            if session.events_processed == seen:
                break
        return streamed

    def test_windowed_feeds_equal_one_shot(self, rng):
        trace = random_trace(rng, n_events=150)
        one_shot = MultiRunner(
            [create(n, trace) for n in ALL_ANALYSES]).run(trace)
        for window in (1, 7, 64, 10_000):
            session = MultiRunner(
                [create(n, trace) for n in ALL_ANALYSES]).session()
            self._drain(session, trace.events, window)
            result = session.finish()
            assert result.events_processed == len(trace)
            for name in ALL_ANALYSES:
                assert _race_key(result.report(name)) == \
                    _race_key(one_shot.report(name)), (window, name)

    def test_feed_returns_each_race_exactly_once_in_order(self, rng):
        trace = random_trace(rng, n_events=120)
        session = MultiRunner([create("st-wdc", trace)]).session()
        streamed = self._drain(session, trace.events, 13)
        result = session.finish()
        assert [(name, race.index) for name, race in streamed] == \
            [("st-wdc", race.index)
             for race in result.report("st-wdc").races]

    def test_snapshot_is_cheap_progress_view(self):
        trace = repro.loads_trace(repro.dumps_trace(figure1()))
        session = MultiRunner([create("st-wdc", trace),
                               create("fto-hb", trace)]).session()
        snap = session.snapshot()
        assert snap.events_processed == 0
        assert snap.dynamic_counts == {"st-wdc": 0, "fto-hb": 0}
        session.feed(trace.events)
        snap = session.snapshot()
        assert snap.events_processed == len(trace)
        assert snap.dynamic_counts["st-wdc"] == 1
        assert snap.static_counts["st-wdc"] == 1
        assert snap.dynamic_counts["fto-hb"] == 0
        assert snap.failures == []
        result = session.finish()
        assert result.report("st-wdc").dynamic_count == 1

    def test_lifecycle_enforced(self):
        trace = figure1()
        runner = MultiRunner([create("st-wdc", trace)])
        session = runner.session()
        with pytest.raises(RuntimeError, match="still"):
            runner.session()  # only one open session per runner
        session.feed(trace.events)
        session.finish()
        with pytest.raises(RuntimeError, match="finished"):
            session.feed(trace.events)
        with pytest.raises(RuntimeError, match="finished"):
            session.finish()
        runner2 = MultiRunner([create("st-wdc", trace)])
        abandoned = runner2.session()
        abandoned.close()  # close() releases without reports
        runner2.session()

    def test_failure_detached_across_feeds(self, rng):
        trace = random_trace(rng, n_events=60)
        exploding = ExplodingAnalysis(trace, explode_at=10)
        healthy = create("st-wdc", trace)
        session = MultiRunner([exploding, healthy]).session()
        session.feed(trace.events[:30])
        snap = session.snapshot()
        assert [f.name for f in snap.failures] == ["exploding"]
        session.feed(trace.events[30:])
        result = session.finish()
        assert [f.event_index for f in result.failures] == [10]
        solo = repro.detect_races(trace, "st-wdc")
        assert _race_key(result.report("st-wdc")) == _race_key(solo)
        assert result.report("st-wdc").events_processed == len(trace)

    def test_progress_spans_feeds(self):
        spec = WorkloadSpec(name="p", threads=3, events=2000, seed=5)
        trace = generate_trace(spec)
        seen = []
        runner = MultiRunner([create("st-wdc", trace)],
                             progress=seen.append, chunk_events=512)
        session = runner.session()
        self._drain(session, trace.events, 300)
        result = session.finish()
        assert seen[-1] == result.events_processed == len(trace)
        assert seen == sorted(set(seen))

    def test_shared_hb_group_active_across_installments(self, rng):
        trace = random_trace(rng, n_events=90)
        wcp_names = ("unopt-wcp", "fto-wcp", "st-wcp")
        session = MultiRunner([create(n, trace) for n in wcp_names]).session()
        self._drain(session, trace.events, 11)
        result = session.finish()
        for name in wcp_names:
            solo = create(name, trace).run()
            assert _race_key(result.report(name)) == _race_key(solo), name

    def test_drain_is_windowed_feed_to_eof(self, rng):
        trace = random_trace(rng, n_events=140)
        session = MultiRunner([create("st-wdc", trace)]).session()
        streamed = list(session.drain(iter(trace.events), window=9))
        result = session.finish()
        assert session.events_processed == len(trace)
        assert [(name, race.index) for name, race in streamed] == \
            [("st-wdc", race.index)
             for race in result.report("st-wdc").races]

    def test_sampled_drain_keeps_one_shot_footprint_peaks(self, rng):
        # footprint samples fall at fixed event indices, so a drain in
        # windows that do not align with them peaks where one feed does
        trace = random_trace(rng, n_events=140)
        names = ["st-wdc", "fto-hb"]
        one_shot = MultiRunner([create(name, trace) for name in names],
                               sample_every=16).run(trace)
        session = MultiRunner([create(name, trace) for name in names],
                              sample_every=16).session()
        list(session.drain(iter(trace.events), window=9))
        drained = session.finish()
        for name in names:
            assert drained.report(name).peak_footprint_bytes == \
                one_shot.report(name).peak_footprint_bytes, name
            assert _race_key(drained.report(name)) == \
                _race_key(one_shot.report(name)), name

    def test_source_error_leaves_session_usable(self, rng):
        trace = random_trace(rng, n_events=50)

        def broken():
            for event in trace.events[:20]:
                yield event
            raise ValueError("wire fell out")

        session = MultiRunner([create("st-wdc", trace)]).session()
        with pytest.raises(ValueError, match="wire fell out"):
            session.feed(broken())
        assert session.events_processed == 20
        session.feed(trace.events[20:])  # resume after the feed error
        result = session.finish()
        solo = repro.detect_races(trace, "st-wdc")
        assert _race_key(result.report("st-wdc")) == _race_key(solo)


class TestServingState:
    """Serving-oriented session state: the resume ack offset and the
    bounded-state cap the multi-tenant server relies on."""

    def test_events_acked_mirrors_processed(self, rng):
        trace = random_trace(rng, n_events=90)
        session = MultiRunner([create("st-wdc", trace)]).session()
        assert session.events_acked == 0
        session.feed(iter(trace.events), max_events=40)
        assert session.events_acked == session.events_processed == 40
        session.feed(iter(trace.events[40:]))
        assert session.events_acked == len(trace)

    def test_acked_survives_source_error(self, rng):
        # the resume contract: every event decoded before the feed died
        # is acked, so a producer resending from the ack offset neither
        # skips nor double-applies anything
        trace = random_trace(rng, n_events=60)

        def dies_after(n):
            for event in trace.events[:n]:
                yield event
            raise OSError("producer died")

        session = MultiRunner([create("st-wdc", trace)]).session()
        with pytest.raises(OSError):
            session.feed(dies_after(25))
        assert session.events_acked == session.events_processed == 25
        session.feed(iter(trace.events[session.events_acked:]))
        result = session.finish()
        solo = repro.detect_races(trace, "st-wdc")
        assert _race_key(result.report("st-wdc")) == _race_key(solo)

    def test_snapshot_carries_the_ack_offset(self, rng):
        trace = random_trace(rng, n_events=70)
        session = MultiRunner([create("st-wdc", trace)]).session()
        session.feed(iter(trace.events), max_events=30)
        snap = session.snapshot()
        assert snap.events_acked == 30
        assert snap.events_acked == snap.events_processed

    def test_max_pending_races_bounds_records_not_counts(self, rng):
        trace = random_trace(rng, n_events=400)
        unbounded = MultiRunner([create("st-wdc", trace)]).run(trace)
        reference = unbounded.report("st-wdc")
        if reference.dynamic_count <= 5:
            pytest.skip("workload found too few races to exercise the cap")

        runner = MultiRunner([create("st-wdc", trace)],
                             max_pending_races=5)
        session = runner.session()
        streamed = list(session.drain(trace, window=32))
        result = session.finish()
        report = result.report("st-wdc")
        # every race was still streamed out exactly once...
        assert len(streamed) == reference.dynamic_count
        # ...and the aggregate counts stay exact...
        assert report.dynamic_count == reference.dynamic_count
        assert report.static_count == reference.static_count
        # ...but the retained records are capped
        assert len(report.races) <= 5


class TestDeclaredDimensions:
    """A header's declared ``num_vars`` sizes nothing up front: a remote
    producer controls it (``serve``), so per-variable columns start
    empty and grow with the variables the events actually touch."""

    def test_huge_num_vars_header_analyzes_like_a_normal_one(
            self, tmp_path, capsys):
        from repro.cli import main
        from repro.trace.binfmt import BinaryTraceWriter
        from repro.trace.event import WRITE, Event

        paths = {}
        for label, num_vars in (("normal", 1), ("huge", 2 ** 40)):
            paths[label] = str(tmp_path / (label + ".bin"))
            with BinaryTraceWriter(paths[label], TraceInfo(
                    num_threads=2, num_vars=num_vars)) as writer:
                writer.write(Event(0, WRITE, 0, 1))
                writer.write(Event(1, WRITE, 0, 2))
        for name in ANALYSIS_NAMES:
            runs = {}
            for label, path in paths.items():
                code = main(["analyze", "--stream", "-a", name, path])
                runs[label] = (code, capsys.readouterr())
            assert runs["huge"][0] == runs["normal"][0] == 1, \
                (name, runs["huge"][1].err)
            assert runs["huge"][1].out == runs["normal"][1].out, name

    @pytest.mark.skipif(sys.platform == "win32", reason="POSIX rlimits")
    def test_create_with_huge_num_vars_is_instant(self):
        # in a child with a capped address space, so an up-front column
        # allocation fails fast instead of exhausting the machine
        child = textwrap.dedent("""
            import resource, time
            resource.setrlimit(resource.RLIMIT_AS, (1 << 31, 1 << 31))
            from repro.core.registry import ANALYSIS_NAMES, create
            from repro.trace.trace import TraceInfo
            for name in ANALYSIS_NAMES:
                t0 = time.perf_counter()
                create(name, TraceInfo(num_threads=2, num_vars=10 ** 9))
                print(name, time.perf_counter() - t0)
        """)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(os.path.dirname(__file__), "..", "src")]
            + env.get("PYTHONPATH", "").split(os.pathsep))
        proc = subprocess.run([sys.executable, "-c", child], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        seconds = dict(line.split() for line in proc.stdout.splitlines())
        assert sorted(seconds) == sorted(ANALYSIS_NAMES)
        assert max(float(s) for s in seconds.values()) < 0.1, seconds

    #: One child per mode runs every far-id scenario under a 2 GiB
    #: address-space cap and prints what each printed (stdout, exit
    #: code).  Variables 2^40 under a ``vars=4`` header: growing columns
    #: to that id fails, and must fail the same way with and without
    #: numpy.  Variables near 2^20: both paths grow and must agree.
    _FAR_IDS_CHILD = textwrap.dedent("""
        import contextlib, io, json, os, resource, sys, threading, time
        resource.setrlimit(resource.RLIMIT_AS, (1 << 31, 1 << 31))
        from repro.cli import main
        from repro.core.registry import ANALYSIS_NAMES
        from repro.server import ServerApp, ServerConfig
        from repro.trace.binfmt import BinaryTraceWriter
        from repro.trace.event import WRITE, Event
        from repro.trace.live import send_events
        from repro.trace.trace import TraceInfo

        work = sys.argv[1]
        header = TraceInfo(num_threads=2, num_vars=4)

        def events(var):
            return [Event(0, WRITE, var, 1), Event(1, WRITE, var, 2)]

        runs = {}
        for label, var in (("far", 2 ** 40), ("near", (1 << 20) + 5)):
            path = os.path.join(work, label + ".bin")
            with BinaryTraceWriter(path, header) as writer:
                for event in events(var):
                    writer.write(event)
            for name in ANALYSIS_NAMES:
                for mode in ("stream", "in-memory"):
                    argv = ["analyze", "-a", name, path]
                    if mode == "stream":
                        argv.append("--stream")
                    out = io.StringIO()
                    with contextlib.redirect_stdout(out), \\
                            contextlib.redirect_stderr(io.StringIO()):
                        try:
                            code = main(argv)
                        except Exception as exc:
                            code = "raised {!r}".format(exc)
                    runs[" ".join((label, name, mode))] = [code,
                                                           out.getvalue()]

        # a named tenant declaring 2 events, fed variable 2^40
        out = io.StringIO()
        app = ServerApp(ServerConfig(
            os.path.join(work, "srv.sock"), analyses=["st-wdc", "unopt-hb"],
            multi=True, timeout=10.0, accept_poll=0.05),
            out=out, err=io.StringIO())
        codes = []
        server = threading.Thread(target=lambda: codes.append(app.run()))
        server.start()
        deadline = time.monotonic() + 30
        while app._listener is None and time.monotonic() < deadline:
            time.sleep(0.01)
        send_events(header, events(2 ** 40), app.config.endpoint,
                    tenant="t1", total=2)
        while "--- end tenant t1 ---" not in out.getvalue() \\
                and time.monotonic() < deadline:
            time.sleep(0.01)
        app.stop()
        server.join(30)
        runs["served"] = [codes, out.getvalue()]
        print(json.dumps(runs))
    """)

    @pytest.fixture(scope="class")
    def far_id_runs(self, tmp_path_factory):
        if sys.platform == "win32":
            pytest.skip("POSIX rlimits")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(os.path.dirname(__file__), "..", "src")]
            + env.get("PYTHONPATH", "").split(os.pathsep))
        runs = {}
        for mode in ("numpy", "no-numpy"):
            env.pop("REPRO_NO_NUMPY", None)
            if mode == "no-numpy":
                env["REPRO_NO_NUMPY"] = "1"
            work = str(tmp_path_factory.mktemp(mode))
            proc = subprocess.run(
                [sys.executable, "-c", self._FAR_IDS_CHILD, work], env=env,
                capture_output=True, text=True, timeout=120)
            assert proc.returncode == 0, proc.stderr
            runs[mode] = json.loads(proc.stdout)
        return runs

    def test_variable_far_past_header_reports_alike_with_and_without_numpy(
            self, far_id_runs):
        numpy_runs, scalar_runs = far_id_runs["numpy"], far_id_runs["no-numpy"]
        far = sorted(k for k in scalar_runs if k.startswith("far "))
        assert len(far) == 2 * len(ANALYSIS_NAMES)
        for key in far:
            assert numpy_runs[key] == scalar_runs[key], key
        # st-wdc's columns cannot reach 2^40; unopt-hb keeps dicts
        code, out = scalar_runs["far st-wdc stream"]
        assert code == 2 and "st-wdc       FAILED at event 0" in out
        assert scalar_runs["far unopt-hb stream"][0] == 1

    def test_variables_near_2_20_report_alike_with_and_without_numpy(
            self, far_id_runs):
        numpy_runs, scalar_runs = far_id_runs["numpy"], far_id_runs["no-numpy"]
        near = sorted(k for k in scalar_runs if k.startswith("near "))
        assert len(near) == 2 * len(ANALYSIS_NAMES)
        for key in near:
            assert numpy_runs[key] == scalar_runs[key], key
            assert numpy_runs[key][0] == 1, key  # both grow: the race

    def test_served_tenant_past_header_reports_alike_with_and_without_numpy(
            self, far_id_runs):
        numpy_codes, numpy_out = far_id_runs["numpy"]["served"]
        scalar_codes, scalar_out = far_id_runs["no-numpy"]["served"]
        assert numpy_out == scalar_out
        assert numpy_codes == scalar_codes == [2]
        assert "--- tenant t1: complete after 2 events ---" in scalar_out
        assert "st-wdc       FAILED at event 0" in scalar_out
