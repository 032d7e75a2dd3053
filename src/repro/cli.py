"""Command-line interface: analyze recorded traces from the shell.

Supports the paper's intended workflow — record once, analyze offline,
vindicate on demand (§4.3)::

    python -m repro analyze recorded.trace --analysis st-wdc
    python -m repro analyze recorded.trace -a st-dc -a fto-hb --vindicate
    python -m repro analyze huge.trace --stream -a st-wdc -a fto-hb
    python -m repro compare recorded.trace
    python -m repro compare --program xalan --scale 0.2 --seed 7
    python -m repro convert recorded.trace recorded.bin
    python -m repro tables --table 4 --scale 0.5
    python -m repro generate --program xalan --scale 0.2 -o xalan.trace
    python -m repro serve /tmp/repro.sock -a st-wdc --emit jsonl
    python -m repro generate --program xalan --to-socket /tmp/repro.sock
    python -m repro characterize recorded.trace

``analyze --stream`` and ``compare`` run every requested analysis in a
*single pass* over the events (:class:`repro.core.engine.MultiRunner`);
with ``--stream`` the trace is parsed lazily, so arbitrarily large
captures are analyzed in bounded memory.  Every subcommand accepts both
trace formats — the v1 text format and the v2 binary format (>2x faster
to ingest; see :mod:`repro.trace.binfmt`) — autodetecting from the
file's leading bytes; ``convert`` translates between them (by default to
the opposite of the input's format) and ``generate --binary`` records
binary directly.

``serve`` is the *online* counterpart of ``analyze --stream``: it binds
a Unix socket path (or ``HOST:PORT`` for TCP), waits for exactly one
producer, and analyzes the feed incrementally
(:meth:`repro.core.engine.MultiRunner.session`), printing each race the
moment it is found — as human-readable lines or, with ``--emit jsonl``,
one JSON object per line — followed by the same per-analysis summary
block ``analyze`` prints.  ``generate --to-socket`` is the matching
producer; any recorder that writes either trace format to the socket
works.  A second connection attempt is refused (one execution per
session), and ``--timeout`` bounds both the wait for the producer and
every read, so a stalled feed exits 2 instead of hanging.

``serve --multi`` lifts the one-producer limit: the :mod:`repro.server`
package keeps one detection session per *tenant* (producers name
themselves via the hello handshake — ``generate --tenant``), sessions
survive producer disconnects and resume from the last acked event, and
``repro status SOCKET`` queries the server's control socket for
per-session metrics.  The serve command itself is a thin shell over
:func:`repro.server.serve_main`.

Every analysis pass is one engine pass, and ``analyze``, ``compare``,
and ``serve`` take ``--workers N`` to shard it: the engine
(``MultiRunner(workers=N)``) still reads the trace exactly once, in
this process, broadcasts the kept chunks to N worker processes over
shared memory, and the reports are identical to the in-process pass.
A worker that dies mid-run degrades to the partial-summary exit-2 path,
like any detached analysis.

Exit status contract: 0 = no races, 1 = races found, 2 = unreadable,
malformed, or partially failed analysis.  2 takes precedence: a run that
both finds races and fails an analysis exits 2, never a combined code.

(Also installed behaviourally as ``python -m repro.cli``.)
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from typing import List, Optional

from repro.core.registry import ANALYSIS_NAMES, MAIN_MATRIX, create
from repro.core.engine import MultiRunner, run_stream
from repro.reporting import print_entries
from repro.trace.format import TraceFormatError, dump_trace, load_trace
from repro.trace.trace import WellFormednessError
from repro.workloads.dacapo import DACAPO_SPECS, dacapo_trace
from repro.workloads.generator import generate_trace
from repro.workloads.stats import characterize


def _print_entries(result, args, vindicate_trace=None) -> int:
    """The per-analysis summary block (args-shaped shim over
    :func:`repro.reporting.print_entries`)."""
    return print_entries(result, max_races=args.max_races,
                         memory=args.memory,
                         vindicate_trace=vindicate_trace)


def _bad_window(args) -> bool:
    """True (with the error printed) for a non-positive
    ``--window-events``; the caller returns exit 2."""
    window = getattr(args, "window_events", None)
    if window is not None and window < 1:
        print("error: --window-events must be >= 1 (got {})".format(window),
              file=sys.stderr)
        return True
    return False


def _cmd_analyze(args) -> int:
    analyses = args.analysis or ["st-wdc"]
    sample = 4096 if args.memory else 0
    workers = max(getattr(args, "workers", 1), 1)
    if _bad_window(args):
        return 2
    window = args.window_events
    if getattr(args, "cache", None):
        if args.vindicate or args.memory or workers > 1 or window:
            print("error: --cache is a checkpointed streaming replay; it "
                  "cannot be combined with --vindicate, --memory, "
                  "--workers, or --window-events", file=sys.stderr)
            return 2
        from repro.checkpoint import analyze_cached
        return analyze_cached(args.cache, args.trace, analyses,
                              max_races=args.max_races)
    if args.stream:
        if args.vindicate:
            print("error: --vindicate needs the full trace in memory; "
                  "rerun without --stream", file=sys.stderr)
            return 2
        result = run_stream(args.trace, analyses, sample_every=sample,
                            workers=workers, evict_window=window or 0)
        races_found = _print_entries(result, args)
        # 2 beats 1: a partially failed run is unreliable even when the
        # surviving analyses report races (documented 0/1/2 contract)
        return 2 if not result.ok else races_found
    trace = load_trace(args.trace)
    result = MultiRunner([create(name, trace) for name in analyses],
                         sample_every=sample, window_events=window,
                         workers=workers).run(trace)
    races_found = _print_entries(
        result, args, vindicate_trace=trace if args.vindicate else None)
    return 2 if not result.ok else races_found


#: The relation hierarchy the compare table checks (paper §2: every
#: HB-race is a WCP-race is a DC-race is a WDC-race).
_HIERARCHY = ("hb", "wcp", "dc", "wdc")


def _cmd_compare(args) -> int:
    analyses = args.analysis or list(MAIN_MATRIX)
    workers = max(getattr(args, "workers", 1), 1)
    if args.program and (args.trace or args.stream):
        print("error: --program generates its own trace; it cannot be "
              "combined with a trace file or --stream", file=sys.stderr)
        return 2

    def _run_in_memory(trace):
        return MultiRunner([create(name, trace) for name in analyses],
                           workers=workers).run(trace)

    if args.program:
        spec = DACAPO_SPECS[args.program]
        if args.scale is not None and args.scale != 1.0:
            spec = spec.scaled(args.scale)
        if args.seed is not None:
            spec = dataclasses.replace(spec, seed=args.seed)
        trace = generate_trace(spec)
        result = _run_in_memory(trace)
        source = "{} (seed {})".format(spec.name, spec.seed)
    elif args.trace:
        if args.stream:
            result = run_stream(args.trace, analyses, workers=workers)
        else:
            result = _run_in_memory(load_trace(args.trace))
        source = args.trace
    else:
        print("error: compare needs a trace file or --program",
              file=sys.stderr)
        return 2
    print("single-pass comparison over {} ({} events)".format(
        source, result.events_processed))
    print("{:<12} {:<4} {:<6} {:>7} {:>8}  racy vars".format(
        "analysis", "rel", "tier", "static", "dynamic"))
    any_races = False
    racy_by_relation = {}
    for entry in result.entries:
        if entry.failure is not None:
            print("{:<12} FAILED at event {}: {!r}".format(
                entry.name, entry.failure.event_index, entry.failure.error))
            continue
        report = entry.report
        racy = sorted(report.racy_vars)
        shown = ",".join("x{}".format(v) for v in racy[:8])
        if len(racy) > 8:
            shown += ",+{}".format(len(racy) - 8)
        print("{:<12} {:<4} {:<6} {:>7} {:>8}  {}".format(
            entry.name, report.relation, report.tier,
            report.static_count, report.dynamic_count, shown or "-"))
        any_races = any_races or bool(report.races)
        racy_by_relation.setdefault(report.relation, set()).update(racy)
    present = [r for r in _HIERARCHY if r in racy_by_relation]
    if len(present) > 1:
        ok = all(racy_by_relation[a] <= racy_by_relation[b]
                 for a, b in zip(present, present[1:]))
        print("hierarchy {}: {}".format(
            " <= ".join(present), "OK" if ok else "VIOLATED"))
    if not result.ok:
        return 2
    return 1 if any_races else 0


def _cmd_tables(args) -> int:
    from repro.harness.runner import main as runner_main
    forwarded: List[str] = []
    for number in args.table or []:
        forwarded += ["--table", str(number)]
    if args.all:
        forwarded.append("--all")
    if args.scale is not None:
        forwarded += ["--scale", str(args.scale)]
    if args.out:
        forwarded += ["--out", args.out]
    return runner_main(forwarded)


def _cmd_generate(args) -> int:
    if bool(args.output) == bool(args.to_socket):
        print("error: generate needs exactly one of -o/--output or "
              "--to-socket", file=sys.stderr)
        return 2
    trace = dacapo_trace(args.program, scale=args.scale, cache=False)
    if args.to_socket:
        from repro.trace.live import send_trace
        try:
            count = send_trace(trace, args.to_socket, binary=args.binary,
                               connect_timeout=args.connect_timeout,
                               tenant=args.tenant)
        except OSError as exc:
            # handled here, not by main(): a BrokenPipeError from the
            # server dropping mid-send must be a loud exit 2, not the
            # silent exit 0 of the `analyze | head` stdout case
            print("error: streaming to {} failed: {}".format(
                args.to_socket, exc), file=sys.stderr)
            return 2
        print("streamed {} events ({} threads) to {}{}".format(
            count, trace.num_threads, args.to_socket,
            " [binary]" if args.binary else ""))
        return 0
    with open(args.output, "wb" if args.binary else "w") as fp:
        dump_trace(trace, fp, binary=args.binary)
    print("wrote {} events ({} threads) to {}{}".format(
        len(trace), trace.num_threads, args.output,
        " [binary]" if args.binary else ""))
    return 0


def _cmd_serve(args) -> int:
    # a thin shell: every serving behavior lives in repro.server
    from repro.server import ServerConfig, serve_main
    if _bad_window(args):
        return 2
    config = ServerConfig(
        endpoint=args.socket,
        analyses=args.analysis or ["st-wdc"],
        workers=max(getattr(args, "workers", 1), 1),
        window=args.window,
        timeout=args.timeout,
        emit=args.emit,
        max_races=args.max_races,
        multi=args.multi,
        max_pending_races=args.max_pending_races,
        resume_grace=args.resume_grace,
        idle_ttl=args.idle_ttl,
        window_events=args.window_events,
    )
    return serve_main(config)


def _cmd_watch(args) -> int:
    from repro.checkpoint import watch_directory
    cache = args.cache or os.path.join(args.directory, ".repro-cache")
    return watch_directory(args.directory, cache,
                           args.analysis or ["st-wdc"],
                           max_races=args.max_races,
                           interval=args.interval, once=args.once,
                           max_scans=args.max_scans)


def _cmd_status(args) -> int:
    import json
    from repro.server.mi import query
    try:
        doc = query(args.socket, {"command": args.mi_command},
                    timeout=args.timeout, control=args.control)
    except (OSError, ValueError) as exc:
        print("error: cannot query server at {}: {}".format(
            args.socket, exc), file=sys.stderr)
        return 2
    if args.json or args.mi_command != "status":
        print(json.dumps(doc, indent=2, sort_keys=True))
        return 0
    server = doc.get("server", {})
    print("server {} (pid {}, up {:.0f}s, rss {}K; analyses: {})".format(
        server.get("endpoint", args.socket), server.get("pid", "?"),
        server.get("uptime_seconds", 0.0), server.get("rss_kb", 0),
        ", ".join(server.get("analyses", []))))
    rows = doc.get("results", {}).get("data", [])
    print("{:<20} {:<10} {:>10} {:>10} {:>8} {:>10} {:>8} {:>6}".format(
        "tenant", "state", "events", "total", "races", "events/s",
        "lag(s)", "reconn"))
    for row in rows:
        tenant, state, events, total, races, eps, lag, reconnects = row
        print("{:<20} {:<10} {:>10} {:>10} {:>8} {:>10} {:>8} {:>6}".format(
            tenant, state, events, "-" if total < 0 else total, races,
            eps, lag, reconnects))
    return 0


def _cmd_convert(args) -> int:
    from repro.trace.binfmt import BinaryTraceStream, BinaryTraceWriter
    from repro.trace.format import format_event, header_line, stream_trace

    # Opening the output truncates it while the input is still being
    # lazily streamed — writing over the input would destroy the
    # recording mid-read.
    try:
        same = os.path.samefile(args.input, args.output)
    except OSError:  # output (or input) doesn't exist yet
        same = os.path.abspath(args.input) == os.path.abspath(args.output)
    if same:
        print("error: convert cannot write over its input ({}); choose a "
              "different output path".format(args.input), file=sys.stderr)
        return 2
    stream = stream_trace(args.input)
    source_format = ("binary" if isinstance(stream, BinaryTraceStream)
                     else "text")
    if args.to == source_format:
        # rewriting a trace into its own format is almost always a
        # mixed-up --to; refuse instead of silently rewriting the bytes
        stream.close()
        print("error: {} is already in the {} format; converting to the "
              "same format is a no-op (drop --to, or pick the other "
              "format)".format(args.input, source_format), file=sys.stderr)
        return 2
    target = args.to or ("text" if source_format == "binary" else "binary")
    if stream.info is None:
        # Header-less text: the dimensions a binary (or normalized text)
        # header needs are only known after a full read, so materialize.
        stream.close()
        trace = load_trace(args.input)
        with open(args.output,
                  "wb" if target == "binary" else "w") as out:
            dump_trace(trace, out, binary=(target == "binary"))
        count = len(trace)
    elif target == "binary":
        with stream, BinaryTraceWriter(args.output, stream.info) as writer:
            for event in stream:
                writer.write(event)
            count = writer.events_written
    else:
        with stream, open(args.output, "w") as out:
            out.write(header_line(stream.info) + "\n")
            for event in stream:
                out.write(format_event(event) + "\n")
            count = stream.events_read
    print("converted {} events ({} -> {}) to {}".format(
        count, source_format, target, args.output))
    return 0


def _cmd_characterize(args) -> int:
    trace = load_trace(args.trace)
    ch = characterize(trace)
    print("events:          {}".format(ch.events))
    print("threads:         {} (peak {})".format(
        ch.threads_total, ch.threads_peak))
    print("NSEAs:           {} ({:.1f}% of events)".format(
        ch.nseas, 100.0 * ch.nseas / max(ch.events, 1)))
    for depth in (1, 2, 3):
        print(">= {} lock(s):    {:.2f}% of NSEAs".format(
            depth, ch.pct_ge(depth)))
    return 0


#: Shared help epilog: the documented exit-status contract and the
#: format-autodetection rule, surfaced on ``repro --help`` and on every
#: trace-consuming subcommand's ``--help``.
_CONTRACT_EPILOG = (
    "exit status: 0 = no races found, 1 = races found, 2 = unreadable/"
    "malformed input or a partially failed analysis (2 beats 1).\n"
    "trace formats: v1 text and v2 binary are both accepted everywhere; "
    "the format is autodetected from the file's leading bytes "
    "(`repro convert` translates between them).")


def _version_string() -> str:
    """The installed distribution's version, or the in-tree fallback
    (suffixed so an uninstalled checkout is distinguishable)."""
    try:
        from importlib.metadata import version
        return version("repro-smarttrack")
    except Exception:
        import repro
        return getattr(repro, "__version__", "0.0.0") + "+uninstalled"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SmartTrack predictive race detection (PLDI 2020 "
                    "reproduction)",
        epilog=_CONTRACT_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version",
                        version="repro {}".format(_version_string()))
    sub = parser.add_subparsers(dest="command", required=True)

    def trace_parser(name, **kwargs):
        """A subparser whose epilog restates the exit-code/format
        contract (every subcommand that consumes or emits traces)."""
        kwargs.setdefault("epilog", _CONTRACT_EPILOG)
        kwargs.setdefault("formatter_class",
                          argparse.RawDescriptionHelpFormatter)
        return sub.add_parser(name, **kwargs)

    def add_workers(cmd, what):
        cmd.add_argument(
            "--workers", type=int, default=1, metavar="N",
            help="shard the {} across N worker processes "
                 "(analysis-parallel sharding; reports are identical to "
                 "the in-process pass, a dead worker degrades to exit 2 "
                 "with a partial summary; default 1 = in-process)"
                 .format(what))

    analyze = trace_parser("analyze", help="analyze a recorded trace")
    analyze.add_argument("trace", help="trace file (see repro.trace.format)")
    analyze.add_argument("-a", "--analysis", action="append",
                         choices=ANALYSIS_NAMES,
                         help="analysis name (repeatable; default st-wdc)")
    analyze.add_argument("--vindicate", action="store_true",
                         help="vindicate the first reported race")
    analyze.add_argument("--memory", action="store_true",
                         help="also report peak metadata footprint")
    analyze.add_argument("--max-races", type=int, default=10,
                         help="dynamic races to list per analysis")
    analyze.add_argument("--stream", action="store_true",
                         help="single-pass streaming analysis: parse the "
                              "trace lazily and feed all analyses from one "
                              "iteration (bounded memory; file must carry "
                              "the dump_trace header)")
    analyze.add_argument("--window-events", type=int, default=None,
                         metavar="N",
                         help="bounded-window mode: age out per-variable "
                              "metadata older than the last N events; "
                              "races whose earlier access left the window "
                              "are deliberately not reported (bounds "
                              "analysis state on very long traces)")
    analyze.add_argument("--cache", metavar="DIR", default=None,
                         help="checkpointed result cache: an unchanged "
                              "trace returns its byte-identical summary "
                              "with zero events replayed, an extended one "
                              "replays only the suffix from the nearest "
                              "checkpoint (implies streaming; see "
                              "repro.checkpoint)")
    add_workers(analyze, "requested analyses")
    analyze.set_defaults(func=_cmd_analyze)

    compare = trace_parser(
        "compare",
        help="run several analyses in one pass and compare their verdicts")
    compare.add_argument("trace", nargs="?", default=None,
                         help="trace file (or use --program)")
    compare.add_argument("-a", "--analysis", action="append",
                         choices=ANALYSIS_NAMES,
                         help="analysis name (repeatable; default: the "
                              "paper's main 11-configuration matrix)")
    compare.add_argument("--program", choices=sorted(DACAPO_SPECS),
                         help="compare on a generated DaCapo-analog trace")
    compare.add_argument("--scale", type=float, default=None,
                         help="event-budget scale for --program")
    compare.add_argument("--seed", type=int, default=None,
                         help="generator seed override for --program "
                              "(output is deterministic for a fixed seed)")
    compare.add_argument("--stream", action="store_true",
                         help="stream the trace file instead of loading it")
    add_workers(compare, "compared analyses")
    compare.set_defaults(func=_cmd_compare)

    tables = sub.add_parser("tables", help="regenerate the paper's tables")
    tables.add_argument("--table", type=int, action="append")
    tables.add_argument("--all", action="store_true")
    tables.add_argument("--scale", type=float, default=None)
    tables.add_argument("--out", type=str, default=None)
    tables.set_defaults(func=_cmd_tables)

    generate = trace_parser(
        "generate", help="generate a DaCapo-analog trace file")
    generate.add_argument("--program", choices=sorted(DACAPO_SPECS),
                          required=True)
    generate.add_argument("--scale", type=float, default=1.0)
    generate.add_argument("-o", "--output",
                          help="destination trace file (or use --to-socket)")
    generate.add_argument("--binary", action="store_true",
                          help="record in the v2 binary format (smaller, "
                               ">2x faster to re-ingest)")
    generate.add_argument("--to-socket", metavar="ENDPOINT",
                          help="stream the trace to a listening "
                               "'repro serve' endpoint (unix path or "
                               "HOST:PORT) instead of writing a file")
    generate.add_argument("--connect-timeout", type=float, default=10.0,
                          help="seconds to keep retrying the --to-socket "
                               "connection while the server starts "
                               "(default 10)")
    generate.add_argument("--tenant", default=None, metavar="NAME",
                          help="open a named, resumable session against a "
                               "multi-tenant server (serve --multi) via "
                               "the hello/welcome handshake; default: the "
                               "legacy anonymous protocol")
    generate.set_defaults(func=_cmd_generate)

    serve = trace_parser(
        "serve",
        help="bind a socket and analyze live trace feeds as they arrive "
             "(one producer by default; --multi serves many tenants)")
    serve.add_argument("socket",
                       help="endpoint to bind: a unix socket path, or "
                            "HOST:PORT for TCP (port 0 picks a free port, "
                            "printed on stderr)")
    serve.add_argument("-a", "--analysis", action="append",
                       choices=ANALYSIS_NAMES,
                       help="analysis name (repeatable; default st-wdc)")
    serve.add_argument("--emit", choices=("text", "jsonl"), default="text",
                       help="race-stream format: human-readable lines or "
                            "one JSON object per line (races while the "
                            "feed runs, then per-analysis summaries)")
    serve.add_argument("--window", type=int, default=256,
                       help="events per incremental engine feed; smaller "
                            "windows report races sooner, larger ones "
                            "replay cheaper (default 256)")
    serve.add_argument("--timeout", type=float, default=None,
                       help="seconds to wait for the producer to connect "
                            "and for each read; a stalled feed exits 2 "
                            "(default: wait forever)")
    serve.add_argument("--max-races", type=int, default=10,
                       help="dynamic races to list per analysis in the "
                            "final summary")
    serve.add_argument("--multi", action="store_true",
                       help="multi-tenant mode: accept any number of "
                            "concurrent producers (one detection session "
                            "per tenant, reconnect-with-resume via the "
                            "hello handshake, status/MI control socket); "
                            "default: the classic one-producer session")
    serve.add_argument("--resume-grace", type=float, default=30.0,
                       metavar="SECONDS",
                       help="[--multi] how long a disconnected named "
                            "tenant's session awaits a resume before it "
                            "is sealed (default 30)")
    serve.add_argument("--idle-ttl", type=float, default=300.0,
                       metavar="SECONDS",
                       help="[--multi] how long a finished session stays "
                            "visible to `repro status` before eviction "
                            "(default 300)")
    serve.add_argument("--max-pending-races", type=int, default=None,
                       metavar="N",
                       help="bounded-state cap: keep at most N delivered "
                            "race records per analysis (summary counts "
                            "stay exact; default: keep all)")
    serve.add_argument("--window-events", type=int, default=None,
                       metavar="N",
                       help="bounded-window mode: age out per-variable "
                            "analysis metadata older than the last N "
                            "events, so state stays bounded on an "
                            "infinite feed (races straddling more than "
                            "N..2N events are deliberately dropped; "
                            "distinct from --window, the feed "
                            "granularity)")
    add_workers(serve, "served analyses")
    serve.set_defaults(func=_cmd_serve, memory=False)

    status = sub.add_parser(
        "status",
        help="query a running multi-tenant server's control socket")
    status.add_argument("socket",
                        help="the server's trace endpoint (its control "
                             "endpoint is derived: <path>.ctl for unix, "
                             "port+1 for TCP)")
    status.add_argument("--json", action="store_true",
                        help="print the raw machine-interface document")
    status.add_argument("--command", dest="mi_command", default="status",
                        choices=("status", "metadata", "shutdown"),
                        help="control command to send (default status; "
                             "non-status replies always print as JSON)")
    status.add_argument("--timeout", type=float, default=5.0,
                        help="seconds to wait for the server (default 5)")
    status.add_argument("--control", metavar="ENDPOINT", default=None,
                        help="explicit control endpoint, overriding the "
                             "derivation (needed when the server bound an "
                             "ephemeral control port — it prints the real "
                             "one at startup)")
    status.set_defaults(func=_cmd_status)

    watch = trace_parser(
        "watch",
        help="re-analyze traces in a directory as they change "
             "(checkpointed: only stale suffixes are replayed)")
    watch.add_argument("directory",
                       help="directory of trace files to poll")
    watch.add_argument("-a", "--analysis", action="append",
                       choices=ANALYSIS_NAMES,
                       help="analysis name (repeatable; default st-wdc)")
    watch.add_argument("--cache", metavar="DIR", default=None,
                       help="cache directory (default: "
                            "<directory>/.repro-cache)")
    watch.add_argument("--interval", type=float, default=2.0,
                       help="seconds between directory scans (default 2)")
    watch.add_argument("--once", action="store_true",
                       help="scan and analyze exactly once, then exit "
                            "with the combined 0/1/2 status")
    watch.add_argument("--max-scans", type=int, default=None, metavar="N",
                       help="exit after N scans (default: run until "
                            "interrupted)")
    watch.add_argument("--max-races", type=int, default=10,
                       help="dynamic races to list per analysis")
    watch.set_defaults(func=_cmd_watch)

    convert = trace_parser(
        "convert",
        help="convert a trace between the v1 text and v2 binary formats")
    convert.add_argument("input", help="trace file in either format "
                                       "(autodetected)")
    convert.add_argument("output", help="destination file")
    convert.add_argument("--to", choices=("text", "binary"), default=None,
                         help="target format (default: the opposite of "
                              "the input's autodetected format)")
    convert.set_defaults(func=_cmd_convert)

    char = trace_parser(
        "characterize", help="Table 2-style characteristics of a trace")
    char.add_argument("trace")
    char.set_defaults(func=_cmd_characterize)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except KeyboardInterrupt:
        # commands that can summarize partial work (serve) catch this
        # themselves; everywhere else Ctrl-C exits cleanly — no
        # traceback — with the conventional 128+SIGINT code
        print("interrupted", file=sys.stderr)
        return 130
    except BrokenPipeError:  # e.g. `repro analyze ... | head`
        try:
            sys.stdout.close()
        except OSError:
            pass
        return 0
    except TraceFormatError as exc:
        print("error: malformed trace: {}".format(exc), file=sys.stderr)
        return 2
    except WellFormednessError as exc:
        print("error: ill-formed trace: {}".format(exc), file=sys.stderr)
        return 2
    except OSError as exc:
        # reads and writes both land here; the exception text names the
        # file and operation, so don't second-guess it
        print("error: {}".format(exc), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
