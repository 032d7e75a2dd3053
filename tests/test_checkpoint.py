"""Tests for :mod:`repro.checkpoint` and :mod:`repro.trace.segments`:
session serialization round trips (in-process and across processes),
segment hashing and staleness rules, the on-disk result cache behind
``analyze --cache``, and ``repro watch``.
"""

import io
import json
import os
import subprocess
import sys
import textwrap

import pytest

from repro.checkpoint import (
    MAGIC,
    STATE_VERSION,
    CheckpointError,
    analyze_cached,
    peek_checkpoint,
    restore_session,
    save_session,
    watch_directory,
)
from repro.cli import main as cli_main
from repro.core.engine import MultiRunner
from repro.core.registry import create
from repro.reporting import print_entries
from repro.trace.format import dump_trace, format_event
from repro.trace.segments import (
    TraceSegments,
    match_events,
    segment_trace,
)
from repro.trace.stream import TraceFormatError
from repro.trace.trace import Trace
from repro.workloads.dacapo import dacapo_trace

NAMES = ["st-wdc", "fto-hb", "ft2", "st-wcp", "fto-dc", "unopt-hb"]


@pytest.fixture(scope="module")
def avrora():
    """A small racy trace (~1.3k events)."""
    return dacapo_trace("avrora", scale=0.05, cache=False)


def _race_key(report):
    return [(r.index, r.var, r.tid, r.access, r.kinds) for r in report.races]


def _keys(result):
    return {e.name: _race_key(e.report) for e in result.entries}


# -- session serialization ------------------------------------------------

@pytest.mark.parametrize("use_kernels", [None, False])
def test_round_trip_mid_stream(avrora, use_kernels):
    """Checkpoint at mid-stream, restore, replay the suffix: reports
    bit-identical to one uninterrupted pass — with kernels (when
    available) and without."""
    baseline = MultiRunner([create(n, avrora) for n in NAMES],
                           use_kernels=use_kernels).run(avrora)
    cut = len(avrora) // 3
    session = MultiRunner([create(n, avrora) for n in NAMES],
                          use_kernels=use_kernels).session()
    it = iter(avrora.events)
    session.feed(it, max_events=cut)
    buf = io.BytesIO()
    session.save_checkpoint(buf)
    buf.seek(0)
    restored = MultiRunner.restore_checkpoint(buf)
    assert restored.events_processed == cut
    restored.feed(it)
    result = restored.finish()
    assert result.ok
    assert result.events_processed == len(avrora)
    assert _keys(result) == _keys(baseline)
    for b, r in zip(baseline.entries, result.entries):
        assert b.report.dynamic_count == r.report.dynamic_count
        assert b.report.static_count == r.report.static_count


def test_save_non_destructive(avrora):
    """Saving does not perturb the live session: it continues to the
    same reports as an uncheckpointed run."""
    baseline = MultiRunner([create(n, avrora) for n in NAMES]).run(avrora)
    session = MultiRunner([create(n, avrora) for n in NAMES]).session()
    it = iter(avrora.events)
    session.feed(it, max_events=500)
    session.save_checkpoint(io.BytesIO())
    session.feed(it)
    assert _keys(session.finish()) == _keys(baseline)


def test_checkpoint_preserves_failures(avrora):
    """A detached analysis stays detached across the round trip, its
    failure record intact."""
    runner = MultiRunner([create(n, avrora) for n in NAMES[:3]],
                         use_kernels=False)
    session = runner.session()
    boom = RuntimeError("injected")

    def explode(*args):
        raise boom

    table = runner.entries[1].analysis.dispatch_table()
    runner.entries[1].analysis._dispatch = tuple(
        explode for _ in table)
    it = iter(avrora.events)
    session.feed(it, max_events=100)
    assert not session.entries[1].ok
    buf = io.BytesIO()
    session.save_checkpoint(buf)
    buf.seek(0)
    restored = MultiRunner.restore_checkpoint(buf)
    entry = restored.entries[1]
    assert entry.failure is not None
    assert entry.failure.name == runner.entries[1].name
    assert "injected" in repr(entry.failure.error)
    restored.feed(it)
    result = restored.finish()
    assert len(result.failures) == 1


def test_restore_in_fresh_process(tmp_path, avrora):
    """The acceptance-criterion path: checkpoint here, restore in a new
    interpreter, replay the suffix there, compare reports bit-for-bit."""
    cut = 600
    trace_path = str(tmp_path / "t.bin")
    with open(trace_path, "wb") as fp:
        dump_trace(avrora, fp, binary=True)
    baseline = MultiRunner([create(n, avrora) for n in NAMES]).run(avrora)
    session = MultiRunner([create(n, avrora) for n in NAMES]).session()
    it = iter(avrora.events)
    session.feed(it, max_events=cut)
    ckpt_path = str(tmp_path / "t.ckpt")
    save_session(session, ckpt_path)
    script = textwrap.dedent("""
        import json, sys
        from itertools import islice
        from repro.checkpoint import restore_session
        from repro.trace.format import stream_trace

        session = restore_session(sys.argv[1])
        offset = session.events_processed
        stream = stream_trace(sys.argv[2])
        source = iter(stream)
        for _ in islice(source, offset):
            pass
        session.feed(source)
        result = session.finish()
        out = {e.name: [(r.index, r.var, r.tid, r.access, r.kinds)
                        for r in e.report.races]
               for e in result.entries}
        json.dump({"events": result.events_processed, "races": out},
                  sys.stdout)
    """)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [p for p in (env.get("PYTHONPATH"),) if p]
        + [os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "src")])
    proc = subprocess.run(
        [sys.executable, "-c", script, ckpt_path, trace_path],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["events"] == len(avrora)
    expected = {name: [list(k) for k in _race_key(baseline.report(name))]
                for name in NAMES}
    assert doc["races"] == expected


def test_checkpoint_file_format_and_errors(tmp_path, avrora):
    session = MultiRunner([create(n, avrora) for n in NAMES[:2]]).session()
    session.feed(iter(avrora.events), max_events=50)
    path = str(tmp_path / "ok.ckpt")
    meta = save_session(session, path)
    assert meta["events"] == 50
    with open(path, "rb") as fp:
        assert fp.readline() == MAGIC
    peeked = peek_checkpoint(path)
    assert peeked["version"] == STATE_VERSION
    assert peeked["events"] == 50
    assert peeked["analyses"] == [NAMES[0], NAMES[1]]

    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(b"not a checkpoint\n")
    with pytest.raises(CheckpointError, match="not a repro checkpoint"):
        peek_checkpoint(str(bad))

    garbled = tmp_path / "garbled.ckpt"
    garbled.write_bytes(MAGIC + b"{nope\n")
    with pytest.raises(CheckpointError, match="corrupt checkpoint metadata"):
        restore_session(str(garbled))

    # version 1 checkpoints predate per-analysis clocks: their grouped
    # analyses alias a clock bank that no longer exists, so they must
    # never be restored
    for version in (1, 999):
        versioned = tmp_path / "v{}.ckpt".format(version)
        versioned.write_bytes(
            MAGIC + json.dumps({"version": version}).encode() + b"\n")
        with pytest.raises(CheckpointError, match="unsupported checkpoint"):
            restore_session(str(versioned))

    truncated = tmp_path / "trunc.ckpt"
    with open(path, "rb") as fp:
        truncated.write_bytes(fp.read()[:len(MAGIC) + 60])
    with pytest.raises(CheckpointError):
        restore_session(str(truncated))

    result = session.finish()
    with pytest.raises(CheckpointError, match="finished"):
        save_session(session, str(tmp_path / "late.ckpt"))
    assert result.events_processed == 50


# -- segment hashing and staleness ----------------------------------------

def _dump(trace, path, binary):
    with open(path, "wb" if binary else "w") as fp:
        dump_trace(trace, fp, binary=binary)


@pytest.mark.parametrize("binary", [False, True])
def test_segments_staleness_rules(tmp_path, avrora, binary):
    """Append, mid-file rewrite, and truncation each invalidate exactly
    the right segments."""
    seg = 100
    path = str(tmp_path / ("t.bin" if binary else "t.trace"))
    _dump(avrora, path, binary)
    base = segment_trace(path, seg)
    assert base.total_events == len(avrora)
    full = len(base.digests)
    assert full == len(avrora) // seg

    # identical file: everything matches, including the partial tail
    assert match_events(base, segment_trace(path, seg)) == len(avrora)

    # append: every old full segment still matches
    extended = Trace(list(avrora.events) + list(avrora.events[:250]),
                     num_threads=avrora.num_threads,
                     num_locks=avrora.num_locks, num_vars=avrora.num_vars,
                     num_volatiles=avrora.num_volatiles,
                     num_classes=avrora.num_classes, validate=False)
    path2 = str(tmp_path / "t2")
    _dump(extended, path2, binary)
    grown = segment_trace(path2, seg)
    assert grown.total_events == len(avrora) + 250
    assert match_events(base, grown) == full * seg
    # and symmetric from the old side
    assert match_events(grown, base) == full * seg

    # truncation: only the surviving full prefix matches
    shorter = Trace(list(avrora.events[:5 * seg + 17]),
                    num_threads=avrora.num_threads,
                    num_locks=avrora.num_locks, num_vars=avrora.num_vars,
                    num_volatiles=avrora.num_volatiles,
                    num_classes=avrora.num_classes, validate=False)
    path3 = str(tmp_path / "t3")
    _dump(shorter, path3, binary)
    assert match_events(base, segment_trace(path3, seg)) == 5 * seg

    # mid-file rewrite: flip bytes inside segment 4 — segments 1..3
    # still match, 4 and everything after do not
    with open(path, "rb") as fp:
        data = bytearray(fp.read())
    off = base.header_end + base.boundaries[3] - 2
    data[off] ^= 0x01
    edited = segment_trace(bytes(data), seg)
    assert match_events(base, edited) == 3 * seg

    # dimension change: nothing is resumable
    wider = Trace(list(avrora.events), num_threads=avrora.num_threads + 1,
                  num_locks=avrora.num_locks, num_vars=avrora.num_vars,
                  num_volatiles=avrora.num_volatiles,
                  num_classes=avrora.num_classes, validate=False)
    path4 = str(tmp_path / "t4")
    _dump(wider, path4, binary)
    assert match_events(base, segment_trace(path4, seg)) == 0


def test_segments_formats_never_cross_match(tmp_path, avrora):
    text = str(tmp_path / "t.trace")
    binary = str(tmp_path / "t.bin")
    _dump(avrora, text, False)
    _dump(avrora, binary, True)
    a = segment_trace(text, 100)
    b = segment_trace(binary, 100)
    assert a.fmt == "text-v1" and b.fmt == "binary-v2"
    assert match_events(a, b) == 0


def test_segments_doc_round_trip(tmp_path, avrora):
    path = str(tmp_path / "t.trace")
    _dump(avrora, path, False)
    segs = segment_trace(path, 128)
    clone = TraceSegments.from_doc(
        json.loads(json.dumps(segs.to_doc())))
    assert match_events(segs, clone) == len(avrora)
    assert clone.boundaries == segs.boundaries
    assert clone.header_end == segs.header_end


def test_segments_headerless_text_refused(tmp_path):
    path = tmp_path / "bare.trace"
    path.write_text("T0 wr x0 @1\nT1 wr x0 @2\n")
    with pytest.raises(TraceFormatError, match="header"):
        segment_trace(str(path))


def test_segments_pure_python_matches_numpy(tmp_path, avrora, monkeypatch):
    path = str(tmp_path / "t.bin")
    _dump(avrora, path, True)
    fast = segment_trace(path, 100)
    monkeypatch.setenv("REPRO_NO_NUMPY", "1")
    slow = segment_trace(path, 100)
    assert slow.digests == fast.digests
    assert slow.boundaries == fast.boundaries
    assert slow.total_events == fast.total_events


# -- the result cache -----------------------------------------------------

def _reference_summary(trace, names, max_races=10):
    result = MultiRunner([create(n, trace) for n in names]).run(trace)
    buf = io.StringIO()
    code = print_entries(result, max_races=max_races, out=buf)
    return buf.getvalue(), code


@pytest.mark.parametrize("binary", [False, True])
def test_cache_cold_then_warm_byte_identical(tmp_path, avrora, binary):
    path = str(tmp_path / ("t.bin" if binary else "t.trace"))
    _dump(avrora, path, binary)
    cache = str(tmp_path / "cache")
    names = ["st-wdc", "fto-hb"]
    reference, ref_code = _reference_summary(avrora, names)

    out1, err1 = io.StringIO(), io.StringIO()
    code1 = analyze_cached(cache, path, names, out=out1, err=err1,
                           segment_events=200)
    assert code1 == ref_code == 1
    assert out1.getvalue() == reference
    assert "cold" in err1.getvalue()

    out2, err2 = io.StringIO(), io.StringIO()
    code2 = analyze_cached(cache, path, names, out=out2, err=err2,
                           segment_events=200)
    assert code2 == code1
    assert out2.getvalue() == out1.getvalue()
    assert "warm hit - replayed 0 of {} events".format(len(avrora)) \
        in err2.getvalue()


def test_cache_extend_replays_only_suffix(tmp_path, avrora):
    """Append to a cached trace: the re-run resumes from the newest
    checkpoint inside the unchanged prefix and its stdout is
    byte-identical to a cold run over the extended trace."""
    seg = 200
    path = str(tmp_path / "t.trace")
    _dump(avrora, path, False)
    cache = str(tmp_path / "cache")
    names = ["st-wdc", "fto-hb"]
    analyze_cached(cache, path, names, out=io.StringIO(),
                   err=io.StringIO(), segment_events=seg)

    with open(path, "a") as fp:
        for event in avrora.events[:300]:
            fp.write(format_event(event) + "\n")
    total = len(avrora) + 300
    boundary = (len(avrora) // seg) * seg

    out, err = io.StringIO(), io.StringIO()
    analyze_cached(cache, path, names, out=out, err=err,
                   segment_events=seg)
    accounting = err.getvalue()
    assert "resumed from checkpoint at {}".format(boundary) in accounting
    assert "replayed {} of {} events".format(total - boundary, total) \
        in accounting

    extended = Trace(list(avrora.events) + list(avrora.events[:300]),
                     num_threads=avrora.num_threads,
                     num_locks=avrora.num_locks, num_vars=avrora.num_vars,
                     num_volatiles=avrora.num_volatiles,
                     num_classes=avrora.num_classes, validate=False)
    reference, _ = _reference_summary(extended, names)
    assert out.getvalue() == reference

    # and the extended result is itself now warm
    out3, err3 = io.StringIO(), io.StringIO()
    analyze_cached(cache, path, names, out=out3, err=err3,
                   segment_events=seg)
    assert "warm hit" in err3.getvalue()
    assert out3.getvalue() == reference


def test_cache_resumed_suffix_reads_like_a_cold_pass(tmp_path, avrora):
    """A resumed run reads its suffix with the ordinary text reader: a
    line of undecodable bytes appended to a cached trace is a malformed
    trace, as in a cold pass (the CLI's exit 2), not a raw
    UnicodeDecodeError; a comment and a blank line at the boundary stay
    comments."""
    seg = 200
    path = str(tmp_path / "t.trace")
    _dump(avrora, path, False)
    cache = str(tmp_path / "cache")
    names = ["st-wdc"]
    analyze_cached(cache, path, names, out=io.StringIO(),
                   err=io.StringIO(), segment_events=seg)
    boundary = (len(avrora) // seg) * seg
    with open(path, "rb") as fp:
        lines = fp.readlines()  # the header, then one line per event
    good = b"".join(lines[:boundary + 1] + [b"# note\n", b"\n"]
                    + lines[boundary + 1:] + [b"T0 wr x1 @1\n"])
    with open(path, "wb") as fp:
        fp.write(good + b"\xff\xfe\n")
    for root in (cache, str(tmp_path / "cold")):
        with pytest.raises(TraceFormatError, match="not valid text"):
            analyze_cached(root, path, names, out=io.StringIO(),
                           err=io.StringIO(), segment_events=seg)
    with open(path, "wb") as fp:
        fp.write(good)
    runs = []
    for root in (cache, str(tmp_path / "cold-again")):
        out, err = io.StringIO(), io.StringIO()
        code = analyze_cached(root, path, names, out=out, err=err,
                              segment_events=seg)
        runs.append((code, out.getvalue(), err.getvalue()))
    assert "resumed from checkpoint at {}".format(boundary) in runs[0][2]
    assert "(cold)" in runs[1][2]
    assert runs[0][:2] == runs[1][:2]


def test_cache_rewrite_falls_back_before_edit(tmp_path, avrora):
    """A mid-file edit invalidates checkpoints at or past the edited
    segment; the re-run resumes from one before it (or cold)."""
    seg = 200
    path = str(tmp_path / "t.trace")
    _dump(avrora, path, False)
    cache = str(tmp_path / "cache")
    names = ["st-wdc"]
    analyze_cached(cache, path, names, out=io.StringIO(),
                   err=io.StringIO(), segment_events=seg)
    # rewrite one event inside the *last* full segment
    with open(path) as fp:
        lines = fp.readlines()
    boundary = (len(avrora) // seg) * seg
    lines[boundary - 5] = lines[boundary - 5].replace("@", "@9")
    with open(path, "w") as fp:
        fp.writelines(lines)
    out, err = io.StringIO(), io.StringIO()
    code = analyze_cached(cache, path, names, out=out, err=err,
                          segment_events=seg)
    accounting = err.getvalue()
    # whatever checkpoint it used must predate the edited segment
    assert "warm hit" not in accounting
    if "resumed" in accounting:
        resumed_at = int(accounting.rsplit("at ", 1)[1].split(")")[0])
        assert resumed_at <= boundary - seg
    assert code in (0, 1)


def test_cache_distinguishes_analysis_sets_and_max_races(tmp_path, avrora):
    path = str(tmp_path / "t.trace")
    _dump(avrora, path, False)
    cache = str(tmp_path / "cache")
    analyze_cached(cache, path, ["st-wdc"], out=io.StringIO(),
                   err=io.StringIO())
    err = io.StringIO()
    analyze_cached(cache, path, ["fto-hb"], out=io.StringIO(), err=err)
    assert "warm hit" not in err.getvalue()
    err = io.StringIO()
    analyze_cached(cache, path, ["st-wdc"], max_races=3,
                   out=io.StringIO(), err=err)
    assert "warm hit" not in err.getvalue()
    err = io.StringIO()
    analyze_cached(cache, path, ["st-wdc"], out=io.StringIO(), err=err)
    assert "warm hit" in err.getvalue()


def test_cli_cache_flag(tmp_path, avrora, capsys):
    path = str(tmp_path / "t.trace")
    _dump(avrora, path, False)
    cache = str(tmp_path / "cache")
    assert cli_main(["analyze", path, "--cache", cache, "-a", "st-wdc"]) == 1
    cold = capsys.readouterr()
    assert "cold" in cold.err
    assert cli_main(["analyze", path, "--cache", cache, "-a", "st-wdc"]) == 1
    warm = capsys.readouterr()
    assert warm.out == cold.out
    assert "warm hit" in warm.err


def test_cli_cache_rejects_incompatible_flags(tmp_path, avrora, capsys):
    path = str(tmp_path / "t.trace")
    _dump(avrora, path, False)
    cache = str(tmp_path / "cache")
    for extra in (["--vindicate"], ["--memory"], ["--workers", "2"]):
        assert cli_main(["analyze", path, "--cache", cache] + extra) == 2
        assert "--cache" in capsys.readouterr().err


# -- watch mode -----------------------------------------------------------

def test_watch_once_analyzes_and_caches(tmp_path, avrora):
    watched = tmp_path / "traces"
    watched.mkdir()
    _dump(avrora, str(watched / "t.trace"), False)
    cache = str(tmp_path / "cache")
    out, err = io.StringIO(), io.StringIO()
    code = watch_directory(str(watched), cache, ["st-wdc"], once=True,
                           out=out, err=err)
    assert code == 1  # races found
    assert "watch: analyzing" in err.getvalue()
    assert "cold" in err.getvalue()

    out2, err2 = io.StringIO(), io.StringIO()
    code = watch_directory(str(watched), cache, ["st-wdc"], once=True,
                           out=out2, err=err2)
    assert code == 1
    assert "warm hit" in err2.getvalue()
    assert out2.getvalue() == out.getvalue()


def test_watch_skips_unchanged_between_scans(tmp_path, avrora):
    watched = tmp_path / "traces"
    watched.mkdir()
    _dump(avrora, str(watched / "t.trace"), False)
    cache = str(tmp_path / "cache")
    err = io.StringIO()
    watch_directory(str(watched), cache, ["st-wdc"], max_scans=3,
                    interval=0.01, out=io.StringIO(), err=err)
    # three scans, one analysis: the signature check suppressed re-runs
    assert err.getvalue().count("watch: analyzing") == 1


def test_watch_reports_junk_and_keeps_going(tmp_path, avrora):
    watched = tmp_path / "traces"
    watched.mkdir()
    (watched / "junk.txt").write_text("not a trace\n")
    _dump(avrora, str(watched / "t.trace"), False)
    err = io.StringIO()
    code = watch_directory(str(watched), str(tmp_path / "cache"),
                           ["st-wdc"], once=True, out=io.StringIO(),
                           err=err)
    assert code == 2  # junk beats races in the 0/1/2 precedence
    assert "not an analyzable trace" in err.getvalue()
    assert "watch: analyzing" in err.getvalue()


def test_watch_non_directory(tmp_path):
    err = io.StringIO()
    assert watch_directory(str(tmp_path / "absent"),
                           str(tmp_path / "cache"), ["st-wdc"],
                           once=True, out=io.StringIO(), err=err) == 2
    assert "not one" in err.getvalue()
