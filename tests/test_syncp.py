"""Sync-preserving race prediction: litmus gallery + bounded-window mode.

The SP litmus traces are hand-built so that each pins one piece of the
algorithm's semantics:

* SP is *weaker* than HB/WCP (more races): a release→acquire edge only
  materializes when the acquiring thread already knows the releasing
  critical section at acquire time — a lock handoff alone orders
  nothing, so SP reports races the whole HB⊆WCP⊆DC⊆WDC hierarchy
  misses.
* The conditional edge *does* fire exactly at the knowledge threshold,
  and released knowledge cascades: absorbing one critical section can
  unlock an earlier one, so the acquire-time fixpoint must iterate.

Bounded-window mode (``MultiRunner(window_events=N)`` /
``--window-events N``) ages out per-variable metadata older than the
last N events.  The regressions here prove the documented contract: a
race within the window is reported, a race straddling an expired window
is dropped deterministically, state stays bounded on a million-event
feed, and the windowed engine is bit-identical across serial, parallel,
and checkpoint-restored passes.
"""

import io
import random

import pytest

import repro
from repro.checkpoint import restore_session, save_session
from repro.cli import main
from repro.core.engine import MultiRunner
from repro.core.registry import create
from repro.oracle import compute_closure, racy_vars
from repro.trace.event import (
    ACQUIRE,
    READ,
    RELEASE,
    VOLATILE_READ,
    VOLATILE_WRITE,
    WRITE,
    Event,
)
from repro.trace.format import dump_trace
from repro.trace.trace import Trace
from tests.conftest import ALL_ANALYSES, random_trace


def _racy(trace, name):
    return repro.detect_races(trace, name).racy_vars


def _race_key(report):
    return [(r.index, r.var, r.tid, r.access, r.kinds) for r in report.races]


# -- the litmus traces ------------------------------------------------------

def lock_handoff_alone():
    """Two critical sections on one lock, plus unprotected writes around
    them.  HB (and WCP/DC/WDC, which compose with the release→acquire
    edge) order everything; SP orders *nothing* — T1 acquires without
    any knowledge of T0's critical section, so both the y and x
    accesses race."""
    return Trace([
        Event(0, WRITE, 0, 1),        # w(x)
        Event(0, ACQUIRE, 0, 2),
        Event(0, WRITE, 1, 3),        # w(y) in CS
        Event(0, RELEASE, 0, 4),
        Event(1, ACQUIRE, 0, 5),
        Event(1, WRITE, 1, 6),        # w(y) in CS
        Event(1, RELEASE, 0, 7),
        Event(1, WRITE, 0, 8),        # w(x)
    ], num_threads=2)


def conditional_edge_fires():
    """T1 reads a volatile published *inside* T0's critical section, so
    at its acquire it knows the section's start — the SP edge fires and
    adopts the release clock, covering the w(x) that the volatile edge
    alone does not."""
    return Trace([
        Event(0, ACQUIRE, 0, 1),
        Event(0, VOLATILE_WRITE, 0, 2),
        Event(0, WRITE, 0, 3),        # w(x) after the volatile publish
        Event(0, RELEASE, 0, 4),
        Event(1, VOLATILE_READ, 0, 5),
        Event(1, ACQUIRE, 0, 6),
        Event(1, READ, 0, 7),         # r(x): ordered only via the SP edge
    ], num_threads=2)


def below_threshold_races():
    """Same shape, but the volatile is published *before* T0's critical
    section: T1's knowledge stays below the acquire-time threshold, no
    SP edge materializes, and the read races (HB still orders it via
    the plain lock edge — SP is strictly weaker here)."""
    return Trace([
        Event(0, VOLATILE_WRITE, 0, 1),
        Event(0, ACQUIRE, 0, 2),
        Event(0, WRITE, 0, 3),
        Event(0, RELEASE, 0, 4),
        Event(1, VOLATILE_READ, 0, 5),
        Event(1, ACQUIRE, 0, 6),
        Event(1, READ, 0, 7),
    ], num_threads=2)


def cascading_fixpoint():
    """T2 directly knows only T1's critical section; T1's release clock
    carries knowledge of T0's — absorbing T1's section must re-trigger
    the scan so T0's is absorbed too, covering w(x).  A single
    non-iterated pass would leave r(x) racing."""
    return Trace([
        Event(0, ACQUIRE, 0, 1),
        Event(0, VOLATILE_WRITE, 0, 2),
        Event(0, WRITE, 0, 3),        # w(x)
        Event(0, RELEASE, 0, 4),
        Event(1, ACQUIRE, 0, 5),
        Event(1, VOLATILE_WRITE, 1, 6),
        Event(1, VOLATILE_READ, 0, 7),   # T1 learns T0's section
        Event(1, RELEASE, 0, 8),
        Event(2, VOLATILE_READ, 1, 9),   # T2 learns T1's section
        Event(2, ACQUIRE, 0, 10),
        Event(2, RELEASE, 0, 11),
        Event(2, READ, 0, 12),        # r(x): needs the cascaded edge
    ], num_threads=3)


LITMUS = {
    "lock_handoff_alone": (lock_handoff_alone, {0, 1}),
    "conditional_edge_fires": (conditional_edge_fires, set()),
    "below_threshold_races": (below_threshold_races, {0}),
    "cascading_fixpoint": (cascading_fixpoint, set()),
}


class TestSyncPLitmus:
    @pytest.mark.parametrize("litmus", sorted(LITMUS))
    def test_both_sp_tiers_match_expected(self, litmus):
        build, expected = LITMUS[litmus]
        trace = build()
        for name in ("unopt-sp", "sp"):
            assert _racy(trace, name) == expected, (litmus, name)

    @pytest.mark.parametrize("litmus", sorted(LITMUS))
    def test_oracle_sp_agrees(self, litmus):
        build, expected = LITMUS[litmus]
        trace = build()
        closure = compute_closure(trace, "sp")
        assert racy_vars(trace, closure) == expected, litmus

    @pytest.mark.parametrize("litmus", sorted(LITMUS))
    def test_sp_tiers_bit_identical(self, litmus):
        build, _ = LITMUS[litmus]
        trace = build()
        a = repro.detect_races(trace, "unopt-sp")
        b = repro.detect_races(trace, "sp")
        assert _race_key(a) == _race_key(b), litmus

    def test_sp_reports_races_the_whole_hierarchy_misses(self):
        trace = lock_handoff_alone()
        assert _racy(trace, "sp") == {0, 1}
        for name in ("unopt-hb", "ft2", "fto-hb", "unopt-wcp", "st-wcp",
                     "unopt-dc", "st-dc", "unopt-wdc", "st-wdc"):
            assert _racy(trace, name) == set(), name

    def test_sp_strictly_weaker_than_hb_here(self):
        # HB orders via the bare lock edge; SP deliberately does not
        trace = below_threshold_races()
        assert _racy(trace, "unopt-hb") == set()
        assert _racy(trace, "sp") == {0}


# -- bounded-window mode ----------------------------------------------------

def straddle_trace(gap, nthreads=2):
    """T0 writes x, T1 runs ``gap`` private reads, then T1 writes x —
    a racing pair separated by ``gap`` events."""
    events = [Event(0, WRITE, 0, 1)]
    events += [Event(1, READ, 1, 2)] * gap
    events.append(Event(1, WRITE, 0, 3))
    return Trace(events, num_threads=nthreads)


class TestWindowMode:
    def test_race_inside_window_survives(self):
        trace = straddle_trace(8)
        for name in ALL_ANALYSES:
            result = MultiRunner([create(name, trace)],
                                 window_events=16).run(trace)
            assert result.report(name).racy_vars == {0}, name

    def test_straddling_race_dropped_deterministically(self):
        # gap > 2 windows: x's write ages out before the racing access;
        # twice, because "deterministically" is the contract
        trace = straddle_trace(64)
        for name in ALL_ANALYSES:
            for _ in range(2):
                result = MultiRunner([create(name, trace)],
                                     window_events=16).run(trace)
                assert result.report(name).racy_vars == set(), name
            # and without a window the race is of course there
            full = MultiRunner([create(name, trace)]).run(trace)
            assert full.report(name).racy_vars == {0}, name

    def test_window_events_validated(self):
        trace = straddle_trace(4)
        for bad in (0, -3):
            with pytest.raises(ValueError, match="window_events"):
                MultiRunner([create("sp", trace)], window_events=bad)
            with pytest.raises(ValueError, match="window_events"):
                MultiRunner([create("sp", trace), create("st-wdc", trace)],
                            window_events=bad, workers=2)

    def test_cli_rejects_nonpositive_window(self, tmp_path, capsys):
        path = str(tmp_path / "t.trace")
        with open(path, "w") as fp:
            dump_trace(straddle_trace(4), fp)
        assert main(["analyze", path, "--window-events", "0"]) == 2
        assert "window-events" in capsys.readouterr().err

    def test_cli_rejects_window_with_cache(self, tmp_path, capsys):
        path = str(tmp_path / "t.trace")
        with open(path, "w") as fp:
            dump_trace(straddle_trace(4), fp)
        code = main(["analyze", path, "--cache", str(tmp_path / "c"),
                     "--window-events", "8"])
        assert code == 2
        assert "--window-events" in capsys.readouterr().err

    def test_cli_window_drops_straddling_race(self, tmp_path, capsys):
        path = str(tmp_path / "t.trace")
        with open(path, "w") as fp:
            dump_trace(straddle_trace(64), fp)
        assert main(["analyze", path, "-a", "sp"]) == 1
        assert main(["analyze", path, "-a", "sp",
                     "--window-events", "16"]) == 0
        assert main(["analyze", path, "-a", "sp", "--stream",
                     "--window-events", "16"]) == 0
        assert main(["analyze", path, "-a", "sp", "--workers", "2",
                     "--window-events", "16"]) == 0
        capsys.readouterr()

    def test_serial_equals_parallel_under_window(self):
        rng = random.Random(0x51DE)
        for trial in range(6):
            trace = random_trace(rng, n_events=rng.randrange(50, 160))
            window = rng.choice([7, 16, 33])
            serial = MultiRunner([create(n, trace) for n in ALL_ANALYSES],
                                 window_events=window).run(trace)
            par = MultiRunner([create(n, trace) for n in ALL_ANALYSES],
                              workers=rng.randrange(2, 5),
                              window_events=window).run(trace)
            assert par.ok, par.failures
            for name in ALL_ANALYSES:
                assert _race_key(par.report(name)) == \
                    _race_key(serial.report(name)), (trial, window, name)

    def test_checkpoint_roundtrip_under_window(self):
        rng = random.Random(0xC0FE)
        for trial in range(5):
            trace = random_trace(rng, n_events=rng.randrange(60, 200))
            window = rng.choice([7, 16, 33])
            base = MultiRunner([create(n, trace) for n in ALL_ANALYSES],
                               window_events=window).run(trace)
            cut = rng.randrange(1, len(trace))
            session = MultiRunner([create(n, trace) for n in ALL_ANALYSES],
                                  window_events=window).session()
            session.feed(iter(trace.events[:cut]))
            buf = io.BytesIO()
            save_session(session, buf)
            buf.seek(0)
            restored = restore_session(buf)
            assert restored.runner.window_events == window
            restored.feed(iter(trace.events[cut:]))
            result = restored.finish()
            for name in ALL_ANALYSES:
                assert _race_key(result.report(name)) == \
                    _race_key(base.report(name)), (trial, window, cut, name)

    def test_bounded_state_on_million_event_feed(self):
        """Per-variable metadata stays O(vars active in ~2 windows), not
        O(all vars ever seen), across a 1M-event round-robin feed over
        20k variables."""
        nvars, window = 20_000, 2_000
        events = [Event(i % 2, WRITE if i % 3 else READ, i % nvars, 1)
                  for i in range(1_000_000)]
        trace = Trace(events, num_threads=2)
        runner = MultiRunner([create("sp", trace),
                              create("unopt-hb", trace)],
                             window_events=window)
        session = runner.session()
        sp = runner.entries[0].analysis
        hb = runner.entries[1].analysis
        source = iter(trace.events)
        peak = 0
        while True:
            seen = session.events_processed
            session.feed(source, max_events=50_000)
            peak = max(peak,
                       len(sp._read) + len(sp._write),
                       len(hb._read) + len(hb._write))
            if session.events_processed == seen:
                break
        session.finish()
        # each variable recurs every nvars=20k events, so at most ~2
        # windows' worth of distinct variables hold metadata at once —
        # far below the 20k (per map) an unwindowed pass accumulates
        assert 0 < peak <= 3 * window, peak

    def test_serve_window_events_bounds_reported_races(self, tmp_path):
        from repro.trace.live import send_trace
        from tests.test_server import _Server

        trace = straddle_trace(64)
        with _Server(tmp_path, analyses=["sp"], window_events=16) as srv:
            send_trace(trace, srv.addr, tenant="w")
            state, events, body = srv.wait_block("w")
        assert events == len(trace)
        assert "0 static / 0 dynamic" in body, body
        # control: the same feed without a window reports the race
        with _Server(tmp_path, name="srv2.sock", analyses=["sp"]) as srv:
            send_trace(trace, srv.addr, tenant="w")
            state, events, body = srv.wait_block("w")
        assert events == len(trace)
        assert "1 static / 1 dynamic" in body, body
