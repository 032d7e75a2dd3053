"""Tests for the command-line interface (python -m repro)."""

import json
import os
import re
import threading

import pytest

from repro.cli import main
from repro.trace import dump_trace, load_trace
from repro.trace.live import send_trace
from repro.workloads import figure1


@pytest.fixture
def fig1_path(tmp_path):
    path = tmp_path / "fig1.trace"
    with open(path, "w") as fp:
        dump_trace(figure1(), fp)
    return str(path)


class TestAnalyze:
    def test_default_analysis_finds_predictive_race(self, fig1_path, capsys):
        code = main(["analyze", fig1_path])
        out = capsys.readouterr().out
        assert code == 1  # races found -> nonzero exit
        assert "st-wdc" in out
        assert "1 static / 1 dynamic" in out

    def test_hb_misses_it(self, fig1_path, capsys):
        code = main(["analyze", fig1_path, "-a", "fto-hb"])
        assert code == 0
        assert "0 static / 0 dynamic" in capsys.readouterr().out

    def test_multiple_analyses(self, fig1_path, capsys):
        main(["analyze", fig1_path, "-a", "fto-hb", "-a", "st-dc"])
        out = capsys.readouterr().out
        assert "fto-hb" in out and "st-dc" in out

    def test_vindicate_flag(self, fig1_path, capsys):
        main(["analyze", fig1_path, "--vindicate"])
        assert "vindicated" in capsys.readouterr().out

    def test_memory_flag(self, fig1_path, capsys):
        main(["analyze", fig1_path, "--memory"])
        assert "peak metadata" in capsys.readouterr().out

    def test_unknown_analysis_rejected(self, fig1_path):
        with pytest.raises(SystemExit):
            main(["analyze", fig1_path, "-a", "nope"])


class TestGenerateAndCharacterize:
    def test_generate_then_characterize(self, tmp_path, capsys):
        out_path = str(tmp_path / "pmd.trace")
        code = main(["generate", "--program", "pmd", "--scale", "0.1",
                     "-o", out_path])
        assert code == 0
        assert os.path.exists(out_path)
        code = main(["characterize", out_path])
        assert code == 0
        out = capsys.readouterr().out
        assert "NSEAs" in out

    def test_generated_trace_analyzable(self, tmp_path, capsys):
        out_path = str(tmp_path / "xalan.trace")
        main(["generate", "--program", "xalan", "--scale", "0.1",
              "-o", out_path])
        code = main(["analyze", out_path, "-a", "st-dc"])
        assert code == 1  # xalan has planted races


class TestStreamFlag:
    def test_stream_output_matches_in_memory(self, fig1_path, capsys):
        code = main(["analyze", fig1_path, "-a", "st-wdc", "-a", "fto-hb"])
        in_memory = capsys.readouterr().out
        stream_code = main(["analyze", fig1_path, "--stream",
                            "-a", "st-wdc", "-a", "fto-hb"])
        streamed = capsys.readouterr().out
        assert streamed == in_memory
        assert stream_code == code == 1

    def test_stream_memory_flag(self, fig1_path, capsys):
        code = main(["analyze", fig1_path, "--stream", "--memory"])
        out = capsys.readouterr().out
        assert code == 1
        assert "peak metadata" in out

    def test_stream_rejects_vindicate(self, fig1_path, capsys):
        code = main(["analyze", fig1_path, "--stream", "--vindicate"])
        assert code == 2
        assert "--stream" in capsys.readouterr().err

    def test_stream_requires_header(self, tmp_path, capsys):
        path = tmp_path / "raw.trace"
        path.write_text("T0 rd x0\nT1 wr x0\n")
        code = main(["analyze", str(path), "--stream"])
        assert code == 2
        assert "header" in capsys.readouterr().err

    def test_unreadable_file_exit_code(self, tmp_path, capsys):
        code = main(["analyze", str(tmp_path / "missing.trace")])
        assert code == 2
        assert "missing.trace" in capsys.readouterr().err

    def test_unwritable_output_exit_code(self, tmp_path, capsys):
        target = str(tmp_path / "no" / "such" / "dir" / "x.trace")
        code = main(["generate", "--program", "pmd", "--scale", "0.05",
                     "-o", target])
        assert code == 2
        assert "no/such/dir" in capsys.readouterr().err

    def test_stream_reports_failed_analysis(self, tmp_path, capsys):
        # a header that understates the thread count makes every clock
        # analysis blow up; the engine detaches them and the CLI must
        # report the failure instead of crashing
        path = tmp_path / "lying.trace"
        path.write_text("# repro trace v1: threads=1 locks=1 vars=1\n"
                        "T4 rd x0\n")
        code = main(["analyze", str(path), "--stream"])
        out = capsys.readouterr().out
        assert code == 2
        assert "FAILED at event 0" in out

    def test_corrupt_file_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.trace"
        path.write_text("# repro trace v1: threads=1 locks=1 vars=1\n"
                        "T0 rd x0\nT0 frobnicate x0\n")
        for argv in (["analyze", str(path)],
                     ["analyze", str(path), "--stream"],
                     ["compare", str(path)]):
            code = main(argv)
            err = capsys.readouterr().err
            assert code == 2, argv
            assert "line 3" in err, argv


@pytest.mark.parametrize("numpy_off", [False, True],
                         ids=["numpy", "no-numpy"])
@pytest.mark.parametrize("stream", [False, True],
                         ids=["in-memory", "stream"])
@pytest.mark.parametrize("binary", [False, True], ids=["text", "binary"])
def test_id_over_64_bits_exits_2(tmp_path, capsys, monkeypatch, numpy_off,
                                 stream, binary):
    """An id of 2**80 is a malformed trace (exit 2), never a crash that
    exits 1 (the "races found" code) — on every decode path."""
    if numpy_off:
        monkeypatch.setenv("REPRO_NO_NUMPY", "1")
    else:
        monkeypatch.delenv("REPRO_NO_NUMPY", raising=False)
    path = tmp_path / "wide.trace"
    if binary:
        from repro.trace import BinaryTraceWriter, TraceInfo
        from repro.trace.event import Event, WRITE

        trace = figure1()
        dims = TraceInfo(trace.num_threads, trace.num_locks, trace.num_vars,
                         0, 0, len(trace) + 1)
        with BinaryTraceWriter(str(path), dims) as writer:
            for event in trace.events + [Event(0, WRITE, 1 << 80, 1)]:
                writer.write(event)
    else:
        path.write_text("# repro trace v1: threads=2 locks=1 vars=2\n"
                        "T0 rd x0\nT1 wr x{}\n".format(1 << 80))
    argv = ["analyze", str(path)] + (["--stream"] if stream else [])
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 2, err
    assert ("line 3" in err) if not binary else \
        ("oversized varint at event {}".format(len(figure1())) in err)


class TestExitCodeContract:
    def test_failure_beats_races(self, monkeypatch, capsys):
        # regression: `exit_code |= _print_report(...)` used to combine
        # races (1) with a failed analysis (2) into an undocumented 3;
        # 2 must take precedence
        from types import SimpleNamespace
        import repro.cli as cli
        from repro.core.engine import AnalysisFailure, EngineEntry, MultiResult

        racy = EngineEntry(SimpleNamespace(name="st-wdc"))
        racy.report = SimpleNamespace(static_count=1, dynamic_count=1,
                                      races=[])
        failed = EngineEntry(SimpleNamespace(name="fto-hb"))
        failed.failure = AnalysisFailure("fto-hb", 3, ValueError("boom"))
        result = MultiResult([racy, failed], events_processed=10)
        monkeypatch.setattr(cli, "run_stream", lambda *a, **k: result)
        code = cli.main(["analyze", "dummy.trace", "--stream",
                         "-a", "st-wdc", "-a", "fto-hb"])
        assert code == 2  # not 3
        out = capsys.readouterr().out
        assert "FAILED" in out and "st-wdc" in out

    def test_failure_order_does_not_matter(self, monkeypatch, capsys):
        # failure first, races second: the old code overwrote the 2 with
        # `|= 1` arithmetic; the result must still be 2
        from types import SimpleNamespace
        import repro.cli as cli
        from repro.core.engine import AnalysisFailure, EngineEntry, MultiResult

        failed = EngineEntry(SimpleNamespace(name="fto-hb"))
        failed.failure = AnalysisFailure("fto-hb", 0, ValueError("boom"))
        racy = EngineEntry(SimpleNamespace(name="st-wdc"))
        racy.report = SimpleNamespace(static_count=2, dynamic_count=2,
                                      races=[])
        result = MultiResult([failed, racy], events_processed=10)
        monkeypatch.setattr(cli, "run_stream", lambda *a, **k: result)
        code = cli.main(["analyze", "dummy.trace", "--stream"])
        assert code == 2
        capsys.readouterr()

    def test_stream_races_only_still_one(self, fig1_path):
        assert main(["analyze", fig1_path, "--stream", "-a", "st-wdc"]) == 1


class TestConvert:
    def _text_path(self, tmp_path, trace, name="in.trace"):
        path = tmp_path / name
        with open(path, "w") as fp:
            dump_trace(trace, fp)
        return str(path)

    def test_round_trip_byte_identical(self, tmp_path, capsys):
        from repro.workloads.litmus import LITMUS
        for i, (name, build) in enumerate(sorted(LITMUS.items())):
            src = self._text_path(tmp_path, build(), "in{}.trace".format(i))
            binary = str(tmp_path / "mid{}.bin".format(i))
            back = str(tmp_path / "out{}.trace".format(i))
            assert main(["convert", src, binary]) == 0
            assert main(["convert", binary, back]) == 0
            with open(src, "rb") as a, open(back, "rb") as b:
                assert a.read() == b.read(), name
        capsys.readouterr()

    def test_round_trip_generator_workload(self, tmp_path, capsys):
        from repro.workloads.generator import generate_trace
        from repro.workloads.spec import WorkloadSpec
        trace = generate_trace(WorkloadSpec(
            name="cv", threads=5, events=4000, predictive_races=1, seed=7))
        src = self._text_path(tmp_path, trace)
        binary = str(tmp_path / "mid.bin")
        back = str(tmp_path / "out.trace")
        main(["convert", src, binary])
        main(["convert", binary, back])
        out = capsys.readouterr().out
        assert "text -> binary" in out and "binary -> text" in out
        with open(src, "rb") as a, open(back, "rb") as b:
            assert a.read() == b.read()

    def test_default_direction_autodetects(self, fig1_path, tmp_path,
                                           capsys):
        binary = str(tmp_path / "f.bin")
        assert main(["convert", fig1_path, binary]) == 0
        assert "text -> binary" in capsys.readouterr().out
        text = str(tmp_path / "f.trace")
        assert main(["convert", binary, text]) == 0
        assert "binary -> text" in capsys.readouterr().out

    def test_explicit_to_same_format_rejected(self, fig1_path, tmp_path,
                                              capsys):
        # a same-format "conversion" is almost always a mixed-up --to;
        # refuse with a clear message instead of silently rewriting
        copy = str(tmp_path / "copy.trace")
        assert main(["convert", fig1_path, copy, "--to", "text"]) == 2
        err = capsys.readouterr().err
        assert "already in the text format" in err
        assert not os.path.exists(copy)

    def test_headerless_text_converts(self, tmp_path, capsys):
        src = tmp_path / "raw.trace"
        src.write_text("T0 wr x0 @1\nT1 rd x0 @2\n")
        binary = str(tmp_path / "raw.bin")
        assert main(["convert", str(src), binary]) == 0
        capsys.readouterr()
        code = main(["analyze", binary, "-a", "st-wdc"])
        assert code == 1  # the unprotected write/read pair races
        capsys.readouterr()

    def test_refuses_to_overwrite_input(self, fig1_path, tmp_path, capsys):
        # writing over the input would truncate it mid-stream and
        # destroy the recording
        original = open(fig1_path, "rb").read()
        code = main(["convert", fig1_path, fig1_path, "--to", "binary"])
        assert code == 2
        assert "over its input" in capsys.readouterr().err
        assert open(fig1_path, "rb").read() == original
        link = tmp_path / "alias.trace"
        os.symlink(fig1_path, link)
        code = main(["convert", fig1_path, str(link)])
        assert code == 2
        capsys.readouterr()
        assert open(fig1_path, "rb").read() == original

    def test_missing_input_exit_code(self, tmp_path, capsys):
        code = main(["convert", str(tmp_path / "nope.trace"),
                     str(tmp_path / "out.bin")])
        assert code == 2
        assert "nope.trace" in capsys.readouterr().err

    def test_corrupt_input_exit_code(self, tmp_path, capsys):
        from repro.trace.binfmt import MAGIC
        bad = tmp_path / "cut.bin"
        bad.write_bytes(MAGIC + b"\x80")
        code = main(["convert", str(bad), str(tmp_path / "out.trace")])
        assert code == 2
        assert "truncated" in capsys.readouterr().err


class TestBinaryTransparency:
    @pytest.fixture
    def fig1_binary_path(self, fig1_path, tmp_path, capsys):
        binary = str(tmp_path / "fig1.bin")
        main(["convert", fig1_path, binary])
        capsys.readouterr()
        return binary

    def test_analyze_binary_matches_text(self, fig1_path, fig1_binary_path,
                                         capsys):
        code_text = main(["analyze", fig1_path, "-a", "st-wdc"])
        out_text = capsys.readouterr().out
        code_bin = main(["analyze", fig1_binary_path, "-a", "st-wdc"])
        out_bin = capsys.readouterr().out
        assert code_bin == code_text == 1
        assert out_bin == out_text

    def test_stream_analyze_binary(self, fig1_binary_path, capsys):
        code = main(["analyze", fig1_binary_path, "--stream",
                     "-a", "st-wdc", "-a", "fto-hb"])
        assert code == 1
        out = capsys.readouterr().out
        assert "st-wdc" in out and "fto-hb" in out

    def test_compare_binary(self, fig1_binary_path, capsys):
        code = main(["compare", fig1_binary_path, "--stream",
                     "-a", "fto-hb", "-a", "st-dc"])
        assert code == 1
        assert "hierarchy" in capsys.readouterr().out

    def test_generate_binary_then_analyze(self, tmp_path, capsys):
        out_path = str(tmp_path / "pmd.bin")
        code = main(["generate", "--program", "pmd", "--scale", "0.1",
                     "-o", out_path, "--binary"])
        assert code == 0
        assert "[binary]" in capsys.readouterr().out
        code = main(["characterize", out_path])
        assert code == 0
        assert "NSEAs" in capsys.readouterr().out


class TestCompare:
    def test_compare_trace_file(self, fig1_path, capsys):
        code = main(["compare", fig1_path])
        out = capsys.readouterr().out
        assert code == 1  # figure 1 has a predictive race
        for name in ("unopt-hb", "st-wdc"):
            assert name in out
        assert "hierarchy hb <= wcp <= dc <= wdc: OK" in out

    def test_compare_stream(self, fig1_path, capsys):
        code = main(["compare", fig1_path, "--stream",
                     "-a", "fto-hb", "-a", "st-dc"])
        out = capsys.readouterr().out
        assert code == 1
        assert "fto-hb" in out and "st-dc" in out

    def test_compare_stable_across_runs_with_fixed_seed(self, capsys):
        argv = ["compare", "--program", "pmd", "--scale", "0.05",
                "--seed", "1234", "-a", "fto-hb", "-a", "st-wdc"]
        code_a = main(argv)
        out_a = capsys.readouterr().out
        code_b = main(argv)
        out_b = capsys.readouterr().out
        assert out_a == out_b
        assert code_a == code_b
        assert "seed 1234" in out_a

    def test_compare_different_seeds_differ(self, capsys):
        outs = []
        for seed in ("11", "22"):
            main(["compare", "--program", "pmd", "--scale", "0.05",
                  "--seed", seed, "-a", "st-wdc"])
            outs.append(capsys.readouterr().out)
        assert outs[0] != outs[1]

    def test_compare_requires_source(self, capsys):
        code = main(["compare"])
        assert code == 2
        assert "--program" in capsys.readouterr().err

    def test_compare_rejects_program_plus_trace(self, fig1_path, capsys):
        code = main(["compare", fig1_path, "--program", "pmd"])
        assert code == 2
        assert "cannot be combined" in capsys.readouterr().err
        code = main(["compare", "--program", "pmd", "--stream"])
        assert code == 2

    def test_compare_race_free_exit_zero(self, tmp_path, capsys):
        from repro.workloads.litmus import rule_a_chain
        path = tmp_path / "quiet.trace"
        with open(path, "w") as fp:
            dump_trace(rule_a_chain(), fp)
        code = main(["compare", str(path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "hierarchy" in out


class TestTables:
    def test_tables_subcommand(self, tmp_path, capsys):
        code = main(["tables", "--table", "2", "--scale", "0.05",
                     "--out", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "table2.txt").exists()


class TestServe:
    """The online subcommand: repro serve + repro generate --to-socket."""

    def _serve_in_thread(self, argv):
        codes = []

        def run():
            codes.append(main(argv))

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        return thread, codes

    def test_round_trip_summary_byte_identical_to_analyze(self, tmp_path,
                                                          capsys):
        # record a workload once, then compare the offline CLI verdict
        # with the online one on the very same events
        trace_path = str(tmp_path / "w.trace")
        assert main(["generate", "--program", "xalan", "--scale", "0.05",
                     "--binary", "-o", trace_path]) == 0
        capsys.readouterr()
        expected_code = main(["analyze", trace_path,
                              "-a", "st-wdc", "-a", "fto-hb"])
        expected = capsys.readouterr().out
        assert expected_code == 1  # xalan has planted races

        trace = load_trace(trace_path)
        addr = str(tmp_path / "s.sock")
        sender = threading.Thread(target=send_trace, args=(trace, addr),
                                  daemon=True)
        sender.start()
        code = main(["serve", addr, "-a", "st-wdc", "-a", "fto-hb",
                     "--timeout", "30"])
        sender.join()
        out = capsys.readouterr().out
        assert code == expected_code
        # the live race stream comes first; the closing summary block is
        # byte-identical to the offline analyze output
        assert out.endswith(expected)
        assert out.startswith("race st-wdc")

    def test_round_trip_jsonl_matches_detect_races(self, tmp_path, capsys):
        import repro

        trace_path = str(tmp_path / "w.trace")
        main(["generate", "--program", "xalan", "--scale", "0.05",
              "--binary", "-o", trace_path])
        capsys.readouterr()
        trace = load_trace(trace_path)
        addr = str(tmp_path / "j.sock")
        sender = threading.Thread(target=send_trace, args=(trace, addr),
                                  daemon=True)
        sender.start()
        code = main(["serve", addr, "-a", "st-wdc", "--emit", "jsonl",
                     "--timeout", "30"])
        sender.join()
        lines = [json.loads(line) for line in
                 capsys.readouterr().out.splitlines()]
        solo = repro.detect_races(trace, "st-wdc")
        races = [l for l in lines if l["type"] == "race"]
        assert [(l["event"], l["var"], l["tid"], l["access"], l["kinds"])
                for l in races] == \
            [(r.index, r.var, r.tid, r.access, r.kinds)
             for r in solo.races]
        (summary,) = [l for l in lines if l["type"] == "summary"]
        assert summary["dynamic"] == solo.dynamic_count
        assert summary["static"] == solo.static_count
        assert summary["events"] == len(trace)
        assert code == 1

    def test_generate_to_socket_cli_round_trip(self, tmp_path, capsys):
        addr = str(tmp_path / "g.sock")
        server, codes = self._serve_in_thread(
            ["serve", addr, "-a", "st-wdc", "--emit", "jsonl",
             "--timeout", "30"])
        code = main(["generate", "--program", "xalan", "--scale", "0.05",
                     "--binary", "--to-socket", addr])
        server.join(60)
        assert code == 0
        assert codes == [1]  # the served analysis found the planted races
        out = capsys.readouterr().out
        assert "streamed" in out
        summaries = [json.loads(line) for line in out.splitlines()
                     if line.startswith("{")
                     and '"type": "summary"' in line]
        assert summaries and summaries[0]["dynamic"] > 0

    def test_serve_tcp_endpoint(self, tmp_path, capsys):
        # port 0 cannot be scripted from the CLI (the producer needs the
        # real port), so pick a free one first
        import socket as socket_module

        probe = socket_module.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        addr = "127.0.0.1:{}".format(port)
        trace = figure1()
        sender = threading.Thread(target=send_trace, args=(trace, addr),
                                  daemon=True)
        sender.start()
        code = main(["serve", addr, "-a", "st-wdc", "--timeout", "30"])
        sender.join()
        assert code == 1
        assert "1 static / 1 dynamic" in capsys.readouterr().out

    def test_serve_accept_timeout_exits_2(self, tmp_path, capsys):
        code = main(["serve", str(tmp_path / "never.sock"),
                     "--timeout", "0.1"])
        assert code == 2
        capsys.readouterr()

    def test_serve_truncated_feed_exits_2(self, tmp_path, capsys):
        from repro.trace import dumps_trace_binary
        from repro.trace.live import connect_endpoint

        addr = str(tmp_path / "tr.sock")
        blob = dumps_trace_binary(figure1())

        def run():
            sock = connect_endpoint(addr, connect_timeout=10)
            try:
                sock.sendall(blob[:-1])  # dies mid-event
            finally:
                sock.close()

        sender = threading.Thread(target=run, daemon=True)
        sender.start()
        code = main(["serve", addr, "--timeout", "30"])
        sender.join()
        captured = capsys.readouterr()
        assert code == 2
        assert "live feed failed" in captured.err
        # the partial summary still comes out (the session survived)
        assert "st-wdc" in captured.out

    def test_serve_failed_installment_still_emits_its_races(self, tmp_path,
                                                            capsys):
        # regression: races discovered by the partial chunk of the
        # installment that failed were lost in jsonl mode (the feed
        # raised before returning them; the summary only has counts)
        import io

        from repro.trace.binfmt import BinaryTraceWriter
        from repro.trace.live import connect_endpoint
        from repro.trace.trace import TraceInfo

        addr = str(tmp_path / "lost.sock")
        # all of figure1 (including its race), then a truncated final
        # event, in one installment — the header declares one event
        # more than is sent, so the reader (which stops at the declared
        # count) genuinely hits the truncation after every real event
        trace = figure1()
        lying = TraceInfo(trace.num_threads, trace.num_locks,
                          trace.num_vars, trace.num_volatiles,
                          trace.num_classes, len(trace.events) + 1)
        buf = io.BytesIO()
        with BinaryTraceWriter(buf, lying) as writer:
            for event in trace.events:
                writer.write(event)
        blob = buf.getvalue() + b"\x01"

        def run():
            sock = connect_endpoint(addr, connect_timeout=10)
            try:
                sock.sendall(blob)
            finally:
                sock.close()

        sender = threading.Thread(target=run, daemon=True)
        sender.start()
        code = main(["serve", addr, "-a", "st-wdc", "--emit", "jsonl",
                     "--timeout", "30"])
        sender.join()
        captured = capsys.readouterr()
        assert code == 2
        assert "live feed failed" in captured.err
        lines = [json.loads(line) for line in captured.out.splitlines()]
        races = [l for l in lines if l["type"] == "race"]
        (summary,) = [l for l in lines if l["type"] == "summary"]
        assert summary["dynamic"] == len(races) == 1  # nothing lost

    def test_serve_connection_reset_prints_partial_summary(self, capsys):
        # an RST mid-stream is an OSError, not a TraceFormatError; it
        # must still take the partial-summary path instead of escaping
        # to main()'s generic handler with an empty stdout
        import socket as socket_module
        import struct
        import time

        from repro.trace import dumps_trace_binary
        from repro.trace.live import connect_endpoint

        probe = socket_module.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        addr = "127.0.0.1:{}".format(port)
        blob = dumps_trace_binary(figure1())

        def run():
            sock = connect_endpoint(addr, connect_timeout=10)
            sock.sendall(blob[:-6])
            time.sleep(0.5)  # let the server drain the header + events
            sock.setsockopt(socket_module.SOL_SOCKET,
                            socket_module.SO_LINGER,
                            struct.pack("ii", 1, 0))
            sock.close()  # RST instead of FIN

        sender = threading.Thread(target=run, daemon=True)
        sender.start()
        code = main(["serve", addr, "-a", "st-wdc", "--timeout", "30"])
        sender.join()
        captured = capsys.readouterr()
        assert code == 2
        assert "live feed failed" in captured.err
        assert "st-wdc" in captured.out  # the partial summary came out

    def test_serve_hostile_header_dimensions_exit_2(self, tmp_path, capsys):
        # a remote producer declaring more threads than packed epochs
        # support must be a clean exit 2, not an uncaught ValueError
        # (exit 1 would read as "races found" to a supervisor)
        from repro.trace.binfmt import MAGIC
        from repro.trace.live import connect_endpoint

        addr = str(tmp_path / "hostile.sock")
        header = bytearray(MAGIC)
        for dim in (70_000, 1, 1, 0, 0, 0):  # threads way past 65536
            while dim > 0x7F:
                header.append((dim & 0x7F) | 0x80)
                dim >>= 7
            header.append(dim)

        def run():
            sock = connect_endpoint(addr, connect_timeout=10)
            try:
                sock.sendall(bytes(header))
            finally:
                sock.close()

        sender = threading.Thread(target=run, daemon=True)
        sender.start()
        code = main(["serve", addr, "--timeout", "30"])
        sender.join()
        captured = capsys.readouterr()
        assert code == 2
        assert "cannot analyze this feed" in captured.err

    def test_generate_to_socket_dropped_server_exits_2(self, tmp_path,
                                                       capsys):
        # regression: a BrokenPipeError from the server dying mid-send
        # was swallowed by main()'s stdout-pipe handler and turned into
        # a silent exit 0 — the producer must report the failure
        import socket as socket_module

        addr = str(tmp_path / "drop.sock")
        server = socket_module.socket(socket_module.AF_UNIX)
        server.bind(addr)
        server.listen(1)

        def accept_and_drop():
            conn, _ = server.accept()
            conn.close()  # hang up without reading anything
            server.close()

        dropper = threading.Thread(target=accept_and_drop, daemon=True)
        dropper.start()
        code = main(["generate", "--program", "xalan", "--scale", "1",
                     "--binary", "--to-socket", addr])
        dropper.join()
        captured = capsys.readouterr()
        assert code == 2
        assert "streaming to" in captured.err
        assert "streamed" not in captured.out  # no false success line

    def test_generate_needs_exactly_one_destination(self, tmp_path, capsys):
        assert main(["generate", "--program", "xalan"]) == 2
        assert "exactly one" in capsys.readouterr().err
        assert main(["generate", "--program", "xalan",
                     "-o", str(tmp_path / "x.trace"),
                     "--to-socket", "x.sock"]) == 2
        assert "exactly one" in capsys.readouterr().err


class TestWorkers:
    """The --workers flag: multiprocess sharding behind the same CLI."""

    @pytest.fixture(scope="class")
    def trace_path(self, tmp_path_factory):
        path = str(tmp_path_factory.mktemp("workers") / "w.trace")
        assert main(["generate", "--program", "xalan", "--scale", "0.05",
                     "-o", path]) == 0
        return path

    def test_analyze_output_identical_to_serial(self, trace_path, capsys):
        serial_code = main(["analyze", trace_path,
                            "-a", "st-wdc", "-a", "fto-hb"])
        serial_out = capsys.readouterr().out
        workers_code = main(["analyze", trace_path, "--workers", "2",
                             "-a", "st-wdc", "-a", "fto-hb"])
        workers_out = capsys.readouterr().out
        assert workers_code == serial_code == 1
        assert workers_out == serial_out

    def test_analyze_stream_workers(self, trace_path, capsys):
        code = main(["analyze", trace_path, "--stream", "--workers", "3",
                     "-a", "st-wdc", "-a", "fto-hb", "-a", "unopt-dc"])
        out = capsys.readouterr().out
        assert code == 1
        assert out.count("dynamic race(s)") == 3

    def test_compare_workers_hierarchy_intact(self, trace_path, capsys):
        serial_code = main(["compare", trace_path])
        serial_out = capsys.readouterr().out
        code = main(["compare", trace_path, "--workers", "4"])
        out = capsys.readouterr().out
        assert code == serial_code
        assert out == serial_out
        assert "hierarchy hb <= wcp <= dc <= wdc: OK" in out

    def test_serve_workers_round_trip(self, trace_path, tmp_path, capsys):
        expected_code = main(["analyze", trace_path,
                              "-a", "st-wdc", "-a", "fto-hb"])
        expected = capsys.readouterr().out
        trace = load_trace(trace_path)
        addr = str(tmp_path / "pw.sock")
        sender = threading.Thread(target=send_trace, args=(trace, addr),
                                  daemon=True)
        sender.start()
        code = main(["serve", addr, "--workers", "2",
                     "-a", "st-wdc", "-a", "fto-hb", "--timeout", "30"])
        sender.join()
        out = capsys.readouterr().out
        assert code == expected_code == 1
        # the final summary block stays byte-identical to offline analyze
        assert out.endswith(expected)

    def test_workers_one_is_in_process(self, trace_path, capsys):
        # --workers 1 must not regress the plain path (exact same output)
        serial_code = main(["analyze", trace_path, "-a", "st-wdc"])
        serial_out = capsys.readouterr().out
        code = main(["analyze", trace_path, "--workers", "1",
                     "-a", "st-wdc"])
        out = capsys.readouterr().out
        assert code == serial_code
        assert out == serial_out


class TestHelpEpilog:
    """--help documents the exit-code contract and format autodetection."""

    @pytest.mark.parametrize("argv", [
        ["--help"],
        ["analyze", "--help"],
        ["serve", "--help"],
        ["convert", "--help"],
    ])
    def test_contract_in_help(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert "exit status: 0 = no races found" in out
        assert "autodetected" in out

    def test_workers_flag_documented(self, capsys):
        with pytest.raises(SystemExit):
            main(["analyze", "--help"])
        assert "--workers" in capsys.readouterr().out


class TestVersion:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        # installed: "repro 1.0.0"; checkout: "repro 1.0.0+uninstalled"
        assert re.match(r"^repro \d+\.\d+\.\d+(\+uninstalled)?\n$", out)


class TestStatusCommand:
    def test_unreachable_server_exits_2(self, tmp_path, capsys):
        code = main(["status", str(tmp_path / "nobody.sock"),
                     "--timeout", "0.5"])
        err = capsys.readouterr().err
        assert code == 2
        assert "cannot query server" in err

    def test_status_against_live_server(self, tmp_path, capsys):
        from tests.test_server import _Server
        trace = figure1()
        with _Server(tmp_path) as srv:
            send_trace(trace, srv.addr, tenant="cli")
            srv.wait_block("cli")

            code = main(["status", srv.addr])
            out = capsys.readouterr().out
            assert code == 0
            assert out.startswith("server {}".format(srv.addr))
            assert "tenant" in out and "state" in out
            assert re.search(r"cli\s+complete\s+{0}\s+{0}".format(
                len(trace)), out)

            code = main(["status", srv.addr, "--json"])
            doc = json.loads(capsys.readouterr().out)
            assert code == 0
            assert doc["class"] == "results"
            assert doc["server"]["endpoint"] == srv.addr

            code = main(["status", srv.addr, "--command", "metadata"])
            doc = json.loads(capsys.readouterr().out)
            assert code == 0
            assert doc["class"] == "metadata"
            assert doc["producer-name"] == "repro serve"

            code = main(["status", srv.addr, "--command", "shutdown"])
            assert code == 0
            srv._thread.join(timeout=20)
            assert not srv._thread.is_alive()
        assert srv.code == 1  # figure1 has a race


class TestServeDelegation:
    """serve is a thin shell: flags must map onto ServerConfig."""

    def test_serve_flags_reach_server_config(self, monkeypatch, tmp_path):
        import repro.server
        seen = {}

        def fake_serve_main(config):
            seen["config"] = config
            return 0

        monkeypatch.setattr(repro.server, "serve_main", fake_serve_main)
        addr = str(tmp_path / "cfg.sock")
        code = main(["serve", addr, "--multi", "-a", "st-wdc", "-a",
                     "fto-hb", "--workers", "3", "--window", "128",
                     "--timeout", "7", "--emit", "jsonl",
                     "--max-races", "5", "--max-pending-races", "1000",
                     "--resume-grace", "12", "--idle-ttl", "34"])
        assert code == 0
        config = seen["config"]
        assert config.endpoint == addr
        assert config.multi is True
        assert config.analyses == ["st-wdc", "fto-hb"]
        assert config.workers == 3
        assert config.window == 128
        assert config.timeout == 7.0
        assert config.emit == "jsonl"
        assert config.max_races == 5
        assert config.max_pending_races == 1000
        assert config.resume_grace == 12.0
        assert config.idle_ttl == 34.0

    def test_single_mode_is_the_default(self, monkeypatch, tmp_path):
        import repro.server
        seen = {}

        def fake_serve_main(config):
            seen["config"] = config
            return 0

        monkeypatch.setattr(repro.server, "serve_main", fake_serve_main)
        main(["serve", str(tmp_path / "one.sock")])
        assert seen["config"].multi is False
