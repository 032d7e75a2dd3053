"""Tests for events, traces, well-formedness, the builder, and the format."""

import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.trace import (
    ACQUIRE,
    READ,
    RELEASE,
    Trace,
    TraceBuilder,
    WRITE,
    WellFormednessError,
    dumps_trace,
    loads_trace,
)
from repro.trace.event import Event, conflicts
from repro.trace.format import TraceFormatError


class TestEvents:
    def test_repr(self):
        e = Event(1, READ, 3, 7)
        assert "T1" in repr(e) and "rd" in repr(e)

    def test_equality_and_hash(self):
        assert Event(0, READ, 1, 2) == Event(0, READ, 1, 2)
        assert Event(0, READ, 1, 2) != Event(0, WRITE, 1, 2)
        assert hash(Event(0, READ, 1, 2)) == hash(Event(0, READ, 1, 2))

    def test_conflicts_requires_write_and_cross_thread(self):
        rd0 = Event(0, READ, 5)
        rd1 = Event(1, READ, 5)
        wr1 = Event(1, WRITE, 5)
        wr1_other_var = Event(1, WRITE, 6)
        assert conflicts(rd0, wr1)
        assert conflicts(wr1, rd0)
        assert not conflicts(rd0, rd1)  # two reads never conflict
        assert not conflicts(rd0, wr1_other_var)  # different variables
        assert not conflicts(Event(0, WRITE, 5), Event(0, WRITE, 5))  # same thread


class TestWellFormedness:
    def test_reentrant_acquire_rejected(self):
        events = [Event(0, ACQUIRE, 0), Event(0, ACQUIRE, 0)]
        with pytest.raises(WellFormednessError, match="re-entrant"):
            Trace(events)

    def test_acquire_of_held_lock_rejected(self):
        events = [Event(0, ACQUIRE, 0), Event(1, ACQUIRE, 0)]
        with pytest.raises(WellFormednessError, match="already held"):
            Trace(events)

    def test_release_without_hold_rejected(self):
        with pytest.raises(WellFormednessError, match="does not hold"):
            Trace([Event(0, RELEASE, 0)])

    def test_fork_of_existing_thread_rejected(self):
        from repro.trace.event import FORK
        events = [Event(1, READ, 0), Event(0, FORK, 1)]
        with pytest.raises(WellFormednessError, match="already exists"):
            Trace(events)

    def test_action_after_join_rejected(self):
        from repro.trace.event import JOIN
        events = [Event(0, JOIN, 1), Event(1, READ, 0)]
        with pytest.raises(WellFormednessError, match="after being joined"):
            Trace(events)

    def test_valid_nesting_accepted(self):
        events = [Event(0, ACQUIRE, 0), Event(0, ACQUIRE, 1),
                  Event(0, WRITE, 0), Event(0, RELEASE, 1),
                  Event(0, RELEASE, 0)]
        trace = Trace(events)
        assert len(trace) == 5

    def test_non_lifo_release_accepted(self):
        events = [Event(0, ACQUIRE, 0), Event(0, ACQUIRE, 1),
                  Event(0, RELEASE, 0), Event(0, RELEASE, 1)]
        assert len(Trace(events)) == 4

    def test_open_critical_section_at_end_accepted(self):
        assert len(Trace([Event(0, ACQUIRE, 0), Event(0, WRITE, 0)])) == 2


class TestTraceConveniences:
    def test_dimensions_derived(self):
        trace = Trace([Event(2, WRITE, 7), Event(0, ACQUIRE, 3),
                       Event(0, RELEASE, 3)])
        assert trace.num_threads == 3
        assert trace.num_vars == 8
        assert trace.num_locks == 4

    def test_thread_events(self):
        trace = Trace([Event(0, READ, 0), Event(1, READ, 0),
                       Event(0, WRITE, 0)])
        assert trace.thread_events(0) == [0, 2]

    def test_counts_by_kind(self):
        trace = Trace([Event(0, READ, 0), Event(0, READ, 1),
                       Event(0, WRITE, 0)])
        assert trace.counts_by_kind() == {"rd": 2, "wr": 1}

    def test_program_state_baseline_positive(self):
        trace = Trace([Event(0, READ, 0)])
        assert trace.program_state_bytes() > 0
        assert trace.storage_bytes() == 96


class TestBuilder:
    def test_interns_names(self):
        b = TraceBuilder()
        b.read("T1", "x").write("T2", "x")
        trace = b.build()
        assert trace.num_threads == 2
        assert trace.num_vars == 1
        assert trace.name_of("var", 0) == "x"

    def test_sync_shorthand(self):
        b = TraceBuilder()
        b.sync("T1", "o")
        trace = b.build()
        kinds = [e.kind for e in trace.events]
        assert kinds == [ACQUIRE, READ, WRITE, RELEASE]
        assert trace.name_of("var", 0) == "oVar"

    def test_wait_is_release_acquire(self):
        b = TraceBuilder()
        b.acquire("T1", "m").wait("T1", "m").release("T1", "m")
        kinds = [e.kind for e in b.build().events]
        assert kinds == [ACQUIRE, RELEASE, ACQUIRE, RELEASE]

    def test_distinct_sites_per_location(self):
        b = TraceBuilder()
        b.read("T1", "x")
        b.read("T1", "x")
        b.read("T2", "x")
        events = b.build().events
        assert events[0].site == events[1].site
        assert events[0].site != events[2].site

    def test_explicit_site_shared(self):
        b = TraceBuilder()
        b.read("T1", "x", site="loop")
        b.read("T2", "x", site="loop")
        events = b.build().events
        assert events[0].site == events[1].site

    def test_fork_join_volatiles_statics(self):
        b = TraceBuilder()
        b.fork("T0", "T1")
        b.volatile_write("T1", "v")
        b.volatile_read("T0", "v")
        b.static_init("T0", "K")
        b.static_access("T1", "K")
        b.join("T0", "T1")
        trace = b.build()
        assert len(trace) == 6
        assert trace.num_volatiles == 1
        assert trace.num_classes == 1


class TestFormat:
    def test_round_trip(self):
        b = TraceBuilder()
        b.read("T1", "x").acquire("T1", "m").write("T1", "y")
        b.release("T1", "m").fork("T1", "T2").write("T2", "x")
        trace = b.build()
        text = dumps_trace(trace)
        back = loads_trace(text)
        assert len(back) == len(trace)
        for a, b_ in zip(trace.events, back.events):
            assert (a.tid, a.kind, a.target, a.site) == \
                (b_.tid, b_.kind, b_.target, b_.site)

    def test_comments_and_blank_lines_ignored(self):
        trace = loads_trace("# header\n\nT0 rd x0 @5\n")
        assert len(trace) == 1
        assert trace.events[0].site == 5

    def test_bad_operation_rejected(self):
        with pytest.raises(TraceFormatError, match="unknown operation"):
            loads_trace("T0 frobnicate x0\n")

    def test_bad_id_rejected(self):
        with pytest.raises(TraceFormatError, match="bad id"):
            loads_trace("T0 rd xyz\n")

    def test_unconvertible_id_digits_are_bad_ids(self):
        # digits int() refuses (a superscript, more than it converts)
        # are a malformed line, not a ValueError escaping the reader
        for token in ("x\u00b2", "x" + "1" * 5000):
            with pytest.raises(TraceFormatError, match="line 1: bad id"):
                loads_trace("T0 rd {}\n".format(token))

    def test_bad_field_count_rejected(self):
        with pytest.raises(TraceFormatError, match="expected"):
            loads_trace("T0 rd\n")

    def test_file_round_trip(self, tmp_path):
        from repro.trace import dump_trace, load_trace
        b = TraceBuilder()
        b.write("T0", "x").read("T1", "x")
        trace = b.build()
        path = tmp_path / "trace.txt"
        with open(path, "w") as fp:
            dump_trace(trace, fp)
        back = load_trace(str(path))
        assert len(back) == 2


class TestStreaming:
    """The streaming reader: lazy parse, header protocol, one-shot."""

    def _round_trip(self, trace):
        from repro.trace.format import stream_trace
        text = dumps_trace(trace)
        stream = stream_trace(io.StringIO(text))
        events = list(stream)
        info = stream.info
        assert info is not None
        rebuilt = Trace(events, num_threads=info.num_threads,
                        num_locks=info.num_locks, num_vars=info.num_vars,
                        num_volatiles=info.num_volatiles,
                        num_classes=info.num_classes)
        assert dumps_trace(rebuilt) == text  # byte-identical
        return stream

    def test_round_trip_byte_identical_every_litmus(self):
        from repro.workloads.litmus import LITMUS
        for name, build in LITMUS.items():
            self._round_trip(build())

    def test_round_trip_byte_identical_figures(self):
        from repro.workloads import figure1, figure2, figure3
        for build in (figure1, figure2, figure3):
            self._round_trip(build())

    def test_round_trip_byte_identical_generator_workloads(self):
        from repro.workloads import generate_trace, WorkloadSpec
        for seed in (1, 2, 3):
            spec = WorkloadSpec(name="rt", threads=3 + seed, events=2000,
                                predictive_races=1, hb_races=1, seed=seed)
            stream = self._round_trip(generate_trace(spec))
            assert stream.events_read > 0

    def test_header_parsed_into_info(self):
        from repro.trace.format import stream_trace
        stream = stream_trace(io.StringIO(
            "# repro trace v1: threads=5 locks=2 vars=9\nT0 rd x0\n"))
        assert stream.info.num_threads == 5
        assert stream.info.num_locks == 2
        assert stream.info.num_vars == 9
        assert len(list(stream)) == 1

    def test_headerless_text_streams_without_info(self):
        from repro.trace.format import TraceFormatError, stream_trace
        stream = stream_trace(io.StringIO("T0 rd x0\nT1 wr x0\n"))
        assert stream.info is None
        with pytest.raises(TraceFormatError, match="header"):
            stream.require_info()
        assert len(list(stream)) == 2

    def test_stream_is_one_shot(self):
        from repro.trace.format import stream_trace
        stream = stream_trace(io.StringIO("T0 rd x0\n"))
        list(stream)
        with pytest.raises(RuntimeError, match="one-shot"):
            iter(stream)

    def test_malformed_line_raises_with_line_number(self):
        from repro.trace.format import TraceFormatError, stream_trace
        stream = stream_trace(io.StringIO(
            "# repro trace v1: threads=1 locks=1 vars=1\n"
            "T0 rd x0\n"
            "T0 frobnicate x0\n"))
        with pytest.raises(TraceFormatError, match="line 3") as exc:
            list(stream)
        assert exc.value.lineno == 3

    def test_malformed_first_line_without_header(self):
        from repro.trace.format import TraceFormatError, stream_trace
        stream = stream_trace(io.StringIO("T0 rd\n"))
        with pytest.raises(TraceFormatError, match="line 1") as exc:
            list(stream)
        assert exc.value.lineno == 1

    def test_bad_site_reports_line(self):
        with pytest.raises(TraceFormatError, match="line 2"):
            loads_trace("# comment\nT0 rd x0 @zap\n")

    def test_require_info_failure_closes_owned_file(self, tmp_path):
        from repro.trace.format import TraceFormatError, stream_trace
        path = tmp_path / "raw.trace"
        path.write_text("T0 rd x0\n")
        stream = stream_trace(str(path))
        with pytest.raises(TraceFormatError):
            stream.require_info()
        assert stream._fp.closed

    def test_stream_from_path_closes_file(self, tmp_path):
        from repro.trace.format import stream_trace
        path = tmp_path / "t.trace"
        path.write_text("# repro trace v1: threads=1 locks=0 vars=1\n"
                        "T0 rd x0 @1\n")
        stream = stream_trace(str(path))
        assert [e.target for e in stream] == [0]
        assert stream._fp.closed

    def test_load_trace_honors_declared_dimensions(self):
        trace = loads_trace(
            "# repro trace v1: threads=6 locks=3 vars=10\nT0 rd x0\n")
        assert trace.num_threads == 6
        assert trace.num_locks == 3
        assert trace.num_vars == 10

    def test_malformed_header_field_raises(self):
        # regression: a header-prefixed line with bad fields used to
        # parse to default dimensions, silently dropping the declared
        # ones and surfacing much later as a misleading failure
        from repro.trace.format import TraceFormatError, stream_trace
        with pytest.raises(TraceFormatError, match="line 1") as exc:
            stream_trace(io.StringIO(
                "# repro trace v1: threads=x4 locks=1 vars=1\nT0 rd x0\n"))
        assert exc.value.lineno == 1
        assert "threads=x4" in str(exc.value)

    def test_header_field_without_value_raises(self):
        from repro.trace.format import TraceFormatError, stream_trace
        with pytest.raises(TraceFormatError, match="header field"):
            stream_trace(io.StringIO("# repro trace v1: bogus\n"))

    def test_unknown_header_keys_ignored(self):
        # forward compatibility: well-formed key=count fields from a
        # future writer must not break this reader
        from repro.trace.format import stream_trace
        stream = stream_trace(io.StringIO(
            "# repro trace v1: threads=3 locks=1 vars=2 shiny=9\n"))
        assert stream.info.num_threads == 3

    def test_header_round_trips_all_dimensions(self):
        from repro.trace.format import stream_trace
        trace = Trace([Event(0, READ, 0)], num_threads=4, num_locks=2,
                      num_vars=3, num_volatiles=5, num_classes=6)
        stream = stream_trace(io.StringIO(dumps_trace(trace)))
        info = stream.info
        assert (info.num_threads, info.num_locks, info.num_vars,
                info.num_volatiles, info.num_classes, info.num_events) == \
            (4, 2, 3, 5, 6, 1)

    def test_load_trace_grows_past_understated_header(self):
        trace = loads_trace(
            "# repro trace v1: threads=1 locks=0 vars=1\nT4 rd x7\n")
        assert trace.num_threads == 5
        assert trace.num_vars == 8


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_format_round_trip_random(seed):
    import random as _random
    from tests.conftest import random_trace

    trace = random_trace(_random.Random(seed), n_events=30)
    back = loads_trace(dumps_trace(trace))
    assert [(e.tid, e.kind, e.target) for e in back.events] == \
        [(e.tid, e.kind, e.target) for e in trace.events]
