"""Property-based differential fuzz: single-pass engine vs solo runs.

A seeded sweep of random well-formed traces across thread/lock/variable
counts (and event-kind mixes including fork/join and class-init edges)
asserts, for every analysis configuration in the matrix:

(a) the old single-analysis path (``Analysis.run`` over a materialized
    trace) and the new single-pass :class:`MultiRunner` report *identical*
    races,
(b) the paper's race-subset hierarchy holds: every HB-race is a WCP-race
    is a DC-race is a WDC-race (racy-variable sets nest accordingly),
    every HB-race is a sync-preserving (SP) race, and the two SP tiers
    report bit-identical races, and
(c) *online == offline*: replaying the same trace through a live socket
    session (``repro.trace.live`` + ``MultiRunner.session()``) in
    randomized feed-window sizes — alternating the binary and text wire
    formats — produces reports identical to the offline paths, and the
    incrementally streamed race records reassemble exactly into the
    final reports.

Volume is dialed with ``--fuzz-count`` / ``FUZZ_COUNT`` (see conftest).
"""

import json
import os
import random
import subprocess
import sys
import textwrap
import threading

import pytest

import repro
from repro.checkpoint import restore_session, save_session
from repro.core.engine import MultiRunner
from repro.core.registry import create
from repro.trace.event import Event, FORK, JOIN, STATIC_ACCESS, STATIC_INIT
from repro.trace.live import TraceListener, send_trace
from repro.trace.trace import Trace
from tests.conftest import ALL_ANALYSES, random_trace

#: per-tier HB ⊆ WCP ⊆ DC ⊆ WDC chains (fto-hb stands in as the HB
#: member of the SmartTrack tier, which has no HB configuration).
HIERARCHY_CHAINS = [
    ("unopt-hb", "unopt-wcp", "unopt-dc", "unopt-wdc"),
    ("fto-hb", "fto-wcp", "fto-dc", "fto-wdc"),
    ("fto-hb", "st-wcp", "st-dc", "st-wdc"),
]

#: HB ⊆ SP pairs (sync-preserving races are a superset of HB races;
#: SP vs WCP/DC/WDC is deliberately *not* an inclusion in either
#: direction, so those only get the no-crash + solo-identity checks).
SP_CONTAINS_HB = [
    ("unopt-hb", "unopt-sp"),
    ("ft2", "sp"),
    ("fto-hb", "sp"),
]


def fuzzed_trace(rng: random.Random, trial: int) -> Trace:
    """A random well-formed trace with trial-varied shape parameters,
    wrapped in a fork/join tree and sprinkled with class-init edges."""
    threads = 2 + trial % 5
    locks = 1 + trial % 4
    nvars = 2 + (trial // 2) % 5
    nvol = trial % 3  # sometimes no volatiles at all
    n_events = 30 + (trial * 7) % 60
    body = random_trace(
        rng, n_events=n_events, threads=threads, locks=locks, nvars=nvars,
        nvol=max(nvol, 1), volatiles=nvol > 0, tame=(trial % 5 == 0)).events
    events = []
    if trial % 2:
        # main thread (0) forks the workers up front and joins them after
        for u in range(1, threads):
            events.append(Event(0, FORK, u, 500 + u))
    events.extend(body)
    if trial % 3 == 0:
        # class-initialization edges among the body (any thread, 2 classes)
        for j in range(0, len(events), 17):
            t = events[j].tid
            kind = STATIC_INIT if j % 34 == 0 else STATIC_ACCESS
            events.append(Event(t, kind, (j // 17) % 2, 600))
    if trial % 2:
        for u in range(1, threads):
            events.append(Event(0, JOIN, u, 550 + u))
    return Trace(events)


def _race_key(report):
    return [(r.index, r.var, r.tid, r.access, r.kinds) for r in report.races]


def test_fuzz_multirunner_vs_solo_and_hierarchy(fuzz_count):
    rng = random.Random(0xFA57)
    for trial in range(fuzz_count):
        trace = fuzzed_trace(rng, trial)
        analyses = [create(name, trace) for name in ALL_ANALYSES]
        result = MultiRunner(analyses).run(trace)
        assert result.ok, (trial, result.failures)
        # (a) every analysis agrees with its solo run, race for race
        for name in ALL_ANALYSES:
            solo = create(name, trace).run()
            multi = result.report(name)
            assert _race_key(multi) == _race_key(solo), (trial, name)
            assert multi.events_processed == solo.events_processed == \
                len(trace), (trial, name)
        # (b) the race-subset hierarchy, in every optimization tier
        for chain in HIERARCHY_CHAINS:
            racy = [result.report(name).racy_vars for name in chain]
            for weaker, stronger in zip(racy, racy[1:]):
                assert weaker <= stronger, (trial, chain)
        # (b') every HB race is a sync-preserving race, and the two SP
        # tiers are bit-identical (same records, same order)
        for hb_name, sp_name in SP_CONTAINS_HB:
            assert result.report(hb_name).racy_vars <= \
                result.report(sp_name).racy_vars, (trial, hb_name, sp_name)
        assert _race_key(result.report("sp")) == \
            _race_key(result.report("unopt-sp")), trial


def test_every_registered_analysis_is_fuzzed():
    """Meta-test for the registry audit: any newly registered analysis
    must land in the fuzz matrix (``conftest.ALL_ANALYSES`` is derived
    from the registry; the graph-building ``-g`` variants are covered
    through their base configuration by the dedicated graph tests)."""
    from repro.core.registry import ANALYSIS_NAMES, BY_RELATION

    covered = set(ALL_ANALYSES)
    for name in ANALYSIS_NAMES:
        base = name[:-2] if name.endswith("-g") else name
        assert base in covered, name
    # every relation family is fuzzed too
    for relation, members in BY_RELATION.items():
        assert set(members) <= covered, relation


def test_fuzz_online_socket_session_equals_offline(fuzz_count, tmp_path):
    """Every fuzzed trace, replayed through a live socket session in
    randomized feed-window sizes, is report-identical to the offline
    paths: the one-shot engine pass, and (one rotating configuration per
    trial) the plain ``detect_races`` solo run.  The races streamed out
    of ``feed()`` installment by installment must also reassemble into
    exactly the final reports — each dynamic race reported once, in
    order."""
    rng = random.Random(0x0511E)
    for trial in range(fuzz_count):
        trace = fuzzed_trace(rng, trial)
        offline = MultiRunner(
            [create(name, trace) for name in ALL_ANALYSES]).run(trace)
        addr = str(tmp_path / "t{}.sock".format(trial))
        listener = TraceListener(addr)
        sender = threading.Thread(
            target=send_trace, args=(trace, addr),
            kwargs={"binary": trial % 2 == 0}, daemon=True)
        sender.start()
        source = listener.accept(timeout=30)
        with source:
            info = source.require_info()
            session = MultiRunner(
                [create(name, info) for name in ALL_ANALYSES]).session()
            feed = iter(source)
            streamed = []
            while True:
                seen = session.events_processed
                streamed += session.feed(feed,
                                         max_events=rng.randrange(1, 33))
                if session.events_processed == seen:
                    break
            online = session.finish()
        sender.join()
        assert online.ok, (trial, online.failures)
        assert online.events_processed == len(trace)
        for name in ALL_ANALYSES:
            assert _race_key(online.report(name)) == \
                _race_key(offline.report(name)), (trial, name)
            incremental = [(r.index, r.var, r.tid, r.access, r.kinds)
                           for n, r in streamed if n == name]
            assert incremental == _race_key(online.report(name)), \
                (trial, name)
        anchor = ALL_ANALYSES[trial % len(ALL_ANALYSES)]
        solo = repro.detect_races(trace, anchor)
        assert _race_key(online.report(anchor)) == _race_key(solo), \
            (trial, anchor)


def test_fuzz_parallel_equals_serial(fuzz_count):
    """Every fuzzed trace, sharded across a randomized worker count
    (1–4, so shard assignments sweep from everything-in-one-process to
    maximal spread) and a randomized analysis subset, produces reports
    identical to the serial single-pass engine: identical race records
    and identical per-analysis summary counts.  Chunk sizes are
    randomized down to a few events so multi-chunk broadcast and ring
    wraparound are exercised."""
    from repro.core.parallel import ParallelRunner

    rng = random.Random(0x9A7A11E1)
    for trial in range(fuzz_count):
        trace = fuzzed_trace(rng, trial)
        names = list(ALL_ANALYSES)
        if trial % 3:
            names = rng.sample(names, rng.randrange(1, len(names) + 1))
        serial = MultiRunner(
            [create(name, trace) for name in names]).run(trace)
        assert serial.ok, (trial, serial.failures)
        workers = rng.randrange(1, 5)
        parallel = ParallelRunner(
            names, trace, workers=workers,
            chunk_events=rng.choice((5, 64, 8192))).run(trace)
        assert parallel.ok, (trial, parallel.failures)
        assert parallel.events_processed == serial.events_processed == \
            len(trace), trial
        for name in set(names):
            ser = serial.report(name)
            par = parallel.report(name)
            assert _race_key(par) == _race_key(ser), (trial, workers, name)
            assert (par.dynamic_count, par.static_count,
                    par.events_processed) == \
                (ser.dynamic_count, ser.static_count,
                 ser.events_processed), (trial, workers, name)


_REPLAY_SUFFIX = textwrap.dedent("""
    import json, sys
    from itertools import islice
    from repro.checkpoint import restore_session
    from repro.trace.format import stream_trace

    session = restore_session(sys.argv[1])
    source = iter(stream_trace(sys.argv[2]))
    for _ in islice(source, session.events_processed):
        pass
    session.feed(source)
    result = session.finish()
    json.dump({e.name: [(r.index, r.var, r.tid, r.access, r.kinds)
                        for r in e.report.races]
               for e in result.entries}, sys.stdout)
""")


def test_fuzz_checkpoint_restore_equals_uninterrupted(fuzz_count, tmp_path):
    """Every fuzzed trace, cut at a random offset, checkpointed to disk
    and restored — in this process every trial, and in a *fresh* process
    on a rotating subset — replays its suffix to reports bit-identical
    to one uninterrupted run.  Wire formats alternate per trial, batch
    kernels toggle on/off, and the full analysis matrix rides along."""
    from repro.trace.format import dump_trace, stream_trace

    rng = random.Random(0xC4EC4)
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    for trial in range(fuzz_count):
        trace = fuzzed_trace(rng, trial)
        binary = trial % 2 == 0
        use_kernels = None if trial % 3 else False
        baseline = MultiRunner(
            [create(name, trace) for name in ALL_ANALYSES],
            use_kernels=use_kernels).run(trace)
        expected = {name: _race_key(baseline.report(name))
                    for name in ALL_ANALYSES}

        path = str(tmp_path / "t{}{}".format(
            trial, ".bin" if binary else ".trace"))
        with open(path, "wb" if binary else "w") as fp:
            dump_trace(trace, fp, binary=binary)
        cut = rng.randrange(0, len(trace) + 1)

        stream = stream_trace(path)
        info = stream.require_info()
        session = MultiRunner(
            [create(name, info) for name in ALL_ANALYSES],
            use_kernels=use_kernels).session()
        source = iter(stream)
        session.feed(source, max_events=cut)
        assert session.events_processed == cut, trial
        ckpt = str(tmp_path / "t{}.ckpt".format(trial))
        save_session(session, ckpt)

        restored = restore_session(ckpt)
        assert restored.events_processed == cut, trial
        restored.feed(source)
        result = restored.finish()
        assert result.ok, (trial, result.failures)
        assert result.events_processed == len(trace), (trial, cut)
        for name in ALL_ANALYSES:
            assert _race_key(result.report(name)) == expected[name], \
                (trial, cut, name)

        if trial % 5 == 0:
            proc = subprocess.run(
                [sys.executable, "-c", _REPLAY_SUFFIX, ckpt, path],
                capture_output=True, text=True, env=env, timeout=120)
            assert proc.returncode == 0, (trial, proc.stderr)
            doc = json.loads(proc.stdout)
            assert doc == {name: [list(k) for k in keys]
                           for name, keys in expected.items()}, (trial, cut)


def test_fuzz_single_iteration_property(fuzz_count):
    """The engine iterates the event source exactly once, whatever the
    trace shape (a one-shot source would raise otherwise)."""
    from tests.test_engine import OneShotEvents

    rng = random.Random(0xBEEF)
    trials = max(fuzz_count // 10, 5)
    for trial in range(trials):
        trace = fuzzed_trace(rng, trial)
        source = OneShotEvents(trace.events)
        analyses = [create(name, trace) for name in ALL_ANALYSES]
        result = MultiRunner(analyses).run(source)
        assert source.iterations == 1
        assert result.events_processed == len(trace)
