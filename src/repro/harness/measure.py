"""Measurement machinery: wall-clock slowdowns and memory-usage factors.

The paper reports run time and memory *relative to uninstrumented
execution* (§5.2).  Our uninstrumented baseline is a bare walk over the
trace (the event stream with no analysis attached); memory is the peak
analysis-metadata footprint relative to the raw trace's storage (see
DESIGN.md §2 for why Python RSS is not meaningful here).

:class:`Measurements` memoizes (program, analysis) results so the table
builders (Tables 3–7 share the same underlying runs) measure each cell
once per process.

Beyond the per-cell path, :func:`measure_multi` times the single-pass
engine (:class:`repro.core.engine.MultiRunner`) — N analyses fed from one
iteration — and :func:`measure_stream` times the bounded-memory streaming
path over a recorded trace file; both are what ``benchmarks/bench_engine``
compares against sequential per-analysis runs.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.base import RaceReport
from repro.core.engine import run_analyses, run_stream
from repro.core.registry import create
from repro.trace.trace import Trace
from repro.workloads.dacapo import dacapo_trace


class MeasureResult:
    """One (program, analysis) measurement."""

    def __init__(self, program: str, analysis: str, events: int,
                 seconds: float, baseline_seconds: float,
                 peak_bytes: int, trace_bytes: int, report: RaceReport):
        self.program = program
        self.analysis = analysis
        self.events = events
        self.seconds = seconds
        self.baseline_seconds = baseline_seconds
        self.peak_bytes = peak_bytes
        self.trace_bytes = trace_bytes
        self.report = report

    @property
    def slowdown(self) -> float:
        """Run time relative to uninstrumented execution."""
        if self.baseline_seconds <= 0:
            return 0.0
        return self.seconds / self.baseline_seconds

    @property
    def memory_factor(self) -> float:
        """Memory relative to uninstrumented execution (the modeled live
        heap of the program itself; see Trace.program_state_bytes)."""
        if self.trace_bytes <= 0:
            return 0.0
        return (self.trace_bytes + self.peak_bytes) / self.trace_bytes

    def __repr__(self) -> str:
        return "MeasureResult({} on {}: {:.1f}x time, {:.1f}x mem)".format(
            self.analysis, self.program, self.slowdown, self.memory_factor)


def uninstrumented_time(trace: Trace, repeats: int = 3) -> float:
    """Baseline: the best of ``repeats`` bare walks over the event stream."""
    events = trace.events
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        n = 0
        for e in events:
            if e.kind >= 0:  # touch the event like an uninstrumented run
                n += 1
        dt = time.perf_counter() - t0
        if dt < best:
            best = dt
    return max(best, 1e-9)


def measure_once(trace: Trace, analysis_name: str, program: str = "",
                 baseline: Optional[float] = None,
                 sample_every: int = 4096,
                 collect_cases: bool = False) -> MeasureResult:
    """Run one analysis over one trace, timing it against the baseline.

    ``collect_cases`` turns on per-case counting (Table 12 needs it);
    timed cells keep it off so the timing tables do not pay for it.
    """
    if baseline is None:
        baseline = uninstrumented_time(trace)
    analysis = create(analysis_name, trace, collect_cases=collect_cases)
    t0 = time.perf_counter()
    report = analysis.run(sample_every=sample_every)
    seconds = time.perf_counter() - t0
    return MeasureResult(
        program=program, analysis=analysis_name, events=len(trace),
        seconds=seconds, baseline_seconds=baseline,
        peak_bytes=report.peak_footprint_bytes,
        trace_bytes=trace.program_state_bytes(), report=report)


class MultiMeasureResult:
    """One timed single-pass run of N analyses over one event stream."""

    def __init__(self, program: str, analyses: List[str], events: int,
                 seconds: float, baseline_seconds: float,
                 reports: Dict[str, RaceReport], trace_bytes: int):
        self.program = program
        self.analyses = analyses
        self.events = events
        self.seconds = seconds
        self.baseline_seconds = baseline_seconds
        self.reports = reports
        self.trace_bytes = trace_bytes

    @property
    def slowdown(self) -> float:
        """Combined run time of the whole pass relative to uninstrumented
        execution (all N analyses together — the always-on scenario)."""
        if self.baseline_seconds <= 0:
            return 0.0
        return self.seconds / self.baseline_seconds

    def __repr__(self) -> str:
        return "MultiMeasureResult({} analyses on {}: {:.2f}s, {:.1f}x)".format(
            len(self.analyses), self.program, self.seconds, self.slowdown)


def measure_multi(trace: Trace, analysis_names: Sequence[str],
                  program: str = "", baseline: Optional[float] = None,
                  sample_every: int = 4096) -> MultiMeasureResult:
    """Time one single-pass engine run of N analyses over one trace."""
    if baseline is None:
        baseline = uninstrumented_time(trace)
    names = list(analysis_names)
    t0 = time.perf_counter()
    result = run_analyses(trace, names, sample_every=sample_every)
    seconds = time.perf_counter() - t0
    return MultiMeasureResult(
        program=program, analyses=names, events=result.events_processed,
        seconds=seconds, baseline_seconds=baseline,
        reports=result.reports, trace_bytes=trace.program_state_bytes())


def measure_stream(source, analysis_names: Sequence[str],
                   program: str = "",
                   sample_every: int = 4096,
                   workers: int = 1) -> MultiMeasureResult:
    """Time one bounded-memory streaming pass over a recorded trace file.

    ``source`` is a path or open handle in either trace format (v1 text
    or v2 binary, autodetected — binary ingests >2x faster, so the same
    capture measures meaningfully cheaper).  The baseline here is 0
    (there is no materialized trace to walk); ``seconds`` includes lazy
    parsing, which is the honest cost of the offline workflow.

    ``workers`` > 1 shards the analyses across worker processes
    (``MultiRunner(workers=...)``); ``seconds`` then covers the whole
    sharded pass — parent parse + decode, broadcast, worker replay, and
    report collection — which is what ``benchmarks/bench_parallel.py``
    compares against the in-process pass.
    """
    names = list(analysis_names)
    t0 = time.perf_counter()
    result = run_stream(source, names, sample_every=sample_every,
                        workers=workers)
    seconds = time.perf_counter() - t0
    return MultiMeasureResult(
        program=program, analyses=names, events=result.events_processed,
        seconds=seconds, baseline_seconds=0.0,
        reports=result.reports, trace_bytes=0)


class Measurements:
    """Memoized measurement matrix over the DaCapo-analog programs."""

    def __init__(self, scale: Optional[float] = None, trials: int = 1):
        self.scale = scale
        self.trials = trials
        self._results: Dict[Tuple[str, str], List[MeasureResult]] = {}
        self._baselines: Dict[str, float] = {}
        self._multi: Dict[Tuple[str, Tuple[str, ...]], MultiMeasureResult] = {}

    def trace_for(self, program: str) -> Trace:
        return dacapo_trace(program, scale=self.scale)

    def baseline(self, program: str) -> float:
        if program not in self._baselines:
            self._baselines[program] = uninstrumented_time(self.trace_for(program))
        return self._baselines[program]

    def runs(self, program: str, analysis: str,
             collect_cases: bool = False) -> List[MeasureResult]:
        """All trials for a cell, measuring on first use.

        ``collect_cases=True`` memoizes separately: case-counted runs
        (Table 12) pay extra per-access cost, so they must not pollute
        the timing cells.
        """
        key = (program, analysis, collect_cases)
        if key not in self._results:
            trace = self.trace_for(program)
            base = self.baseline(program)
            self._results[key] = [
                measure_once(trace, analysis, program, baseline=base,
                             collect_cases=collect_cases)
                for _ in range(self.trials)
            ]
        return self._results[key]

    def cell(self, program: str, analysis: str,
             collect_cases: bool = False) -> MeasureResult:
        """First-trial result for a cell (the common single-trial case)."""
        return self.runs(program, analysis, collect_cases)[0]

    def multi(self, program: str,
              analyses: Sequence[str]) -> MultiMeasureResult:
        """Memoized single-pass engine run of N analyses on a program."""
        key = (program, tuple(analyses))
        if key not in self._multi:
            self._multi[key] = measure_multi(
                self.trace_for(program), analyses, program=program,
                baseline=self.baseline(program))
        return self._multi[key]

    def slowdowns(self, program: str, analysis: str) -> List[float]:
        return [r.slowdown for r in self.runs(program, analysis)]

    def memory_factors(self, program: str, analysis: str) -> List[float]:
        return [r.memory_factor for r in self.runs(program, analysis)]
