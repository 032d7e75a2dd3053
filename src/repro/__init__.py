"""repro — SmartTrack: efficient predictive data-race detection (PLDI 2020).

A complete reproduction of Roemer, Genç, and Bond's SmartTrack system: the
HB/WCP/DC/WDC relation family, the Unopt/FTO/SmartTrack optimization tiers
(paper Algorithms 1–3), vindication of predictive races, an oracle
(executable specification), synthetic DaCapo-analog workloads, and a
harness regenerating every table of the paper's evaluation.

Quick start::

    import repro
    from repro.workloads import figure1

    trace = figure1()
    print(repro.detect_races(trace, "fto-hb").dynamic_count)   # 0: no HB-race
    print(repro.detect_races(trace, "st-dc").dynamic_count)    # 1: predictive race
    print(repro.vindicate_first_race(trace, "st-wdc").witness) # a reordering

Online analysis: the engine also runs *during* execution — bind a live
source (:mod:`repro.trace.live`: Unix/TCP socket or FIFO, either wire
format) and drain it through an incremental
:class:`~repro.core.engine.EngineSession`
(``MultiRunner.session()`` → ``feed``/``snapshot``/``finish``), or just
run ``python -m repro serve /tmp/repro.sock`` and point a producer
(``repro generate --to-socket``) at it.  Reports are identical to the
offline pass on the same events.

See ``examples/`` for runnable scenarios and ``DESIGN.md`` for the system
inventory.
"""

from __future__ import annotations

from repro.core.base import Analysis, RaceRecord, RaceReport
from repro.core.engine import (
    EngineSession,
    MultiResult,
    MultiRunner,
    SessionSnapshot,
    run_analyses,
    run_stream,
)
from repro.core.registry import ANALYSIS_NAMES, MAIN_MATRIX, create, relation_of, tier_of
from repro.trace.builder import TraceBuilder
from repro.trace.event import Event
from repro.trace.format import (
    TraceFormatError,
    dump_trace,
    dumps_trace,
    load_trace,
    loads_trace,
    stream_trace,
)
from repro.server import ServerApp, ServerConfig
from repro.trace.live import PipeTraceSource, TraceListener, send_trace
from repro.trace.trace import Trace, TraceInfo, WellFormednessError

__version__ = "1.0.0"

__all__ = [
    "ANALYSIS_NAMES",
    "Analysis",
    "EngineSession",
    "Event",
    "MAIN_MATRIX",
    "MultiResult",
    "MultiRunner",
    "PipeTraceSource",
    "RaceRecord",
    "RaceReport",
    "ServerApp",
    "ServerConfig",
    "SessionSnapshot",
    "Trace",
    "TraceBuilder",
    "TraceListener",
    "TraceFormatError",
    "TraceInfo",
    "WellFormednessError",
    "create",
    "detect_races",
    "detect_races_multi",
    "detect_races_stream",
    "dump_trace",
    "dumps_trace",
    "load_trace",
    "loads_trace",
    "relation_of",
    "run_analyses",
    "run_stream",
    "send_trace",
    "stream_trace",
    "tier_of",
    "vindicate_first_race",
]


def detect_races(trace: Trace, analysis: str = "st-wdc",
                 sample_footprint_every: int = 0,
                 collect_cases: bool = False) -> RaceReport:
    """Run one analysis over a trace and return its race report.

    ``analysis`` is a registry name (see :data:`ANALYSIS_NAMES`); the
    default is SmartTrack-WDC, the paper's cheapest predictive analysis.
    ``collect_cases=True`` fills the report's ``case_counts`` (Table 12);
    it is off by default because the counting costs a dict update on
    nearly every access.

    >>> import repro
    >>> from repro.workloads import figure1
    >>> report = repro.detect_races(figure1(), "st-wdc")
    >>> report.dynamic_count, report.static_count
    (1, 1)
    >>> report.first_race.access
    'write'
    """
    return create(analysis, trace, collect_cases=collect_cases).run(
        sample_every=sample_footprint_every)


def detect_races_multi(trace: Trace, analyses=None,
                       sample_footprint_every: int = 0) -> MultiResult:
    """Run several analyses over one iteration of the trace.

    ``analyses`` is a sequence of registry names (default: the paper's
    eleven-configuration :data:`MAIN_MATRIX`).  All analyses share a
    single pass over the events (see :class:`repro.core.engine.MultiRunner`).

    >>> import repro
    >>> from repro.workloads import figure1
    >>> result = repro.detect_races_multi(figure1(), ["fto-hb", "st-dc"])
    >>> result.report("fto-hb").dynamic_count  # HB misses the race
    0
    >>> result.report("st-dc").dynamic_count   # DC predicts it
    1
    """
    return run_analyses(trace, list(analyses or MAIN_MATRIX),
                        sample_every=sample_footprint_every)


def detect_races_stream(source, analyses=None,
                        sample_footprint_every: int = 0,
                        workers: int = 1) -> MultiResult:
    """Analyze a recorded trace file in one bounded-memory streaming pass.

    ``source`` is a path or open handle of a trace written by
    :func:`dump_trace` — v1 text or v2 binary, autodetected from the
    leading bytes; events are parsed lazily and the full trace is never
    materialized.  ``analyses`` defaults to ``["st-wdc"]`` (the paper's
    cheapest predictive configuration).  ``workers`` > 1 shards the
    analyses across that many worker processes (see
    :class:`~repro.core.engine.MultiRunner`): the file is still parsed
    once, and reports are bit-identical to the in-process pass; an
    analysis of a worker that died carries an
    :class:`~repro.core.engine.AnalysisFailure` instead of a report.

    Example (record, then analyze the file in bounded memory)::

        import repro
        from repro.workloads import figure1

        with open("fig1.trace", "w") as fp:
            repro.dump_trace(figure1(), fp)
        result = repro.detect_races_stream("fig1.trace", ["st-wdc"])
        assert result.report("st-wdc").dynamic_count == 1
    """
    return run_stream(source, list(analyses or ["st-wdc"]),
                      sample_every=sample_footprint_every, workers=workers)


def vindicate_first_race(trace: Trace, analysis: str = "st-wdc"):
    """Detect races with ``analysis`` and vindicate the first one.

    Returns a :class:`repro.vindication.vindicate.VindicationResult` (whose
    ``verdict`` is ``"no-race"`` when the analysis reports nothing).
    """
    from repro.vindication.vindicate import VindicationResult, vindicate

    report = detect_races(trace, analysis)
    first = report.first_race
    if first is None:
        return VindicationResult("no-race", None, None)
    return vindicate(trace, first)
