"""The pipeline benchmark's four workloads and their untimed set-up.

Set-up generates each workload's traces from the benchmark seed (added
to each spec's own seed), writes them in the format the workload feeds
the system, and computes the reference report every timed pass must
reproduce.  References come from paths independent of the one timed:
solo ``create(name, trace).run()`` for the file workloads, and an
in-memory ``MultiRunner(window_events=...).run(trace)`` for the live
one.  Everything is cached by spec hash, so a rerun with the same seed
skips straight to measuring.
"""

from __future__ import annotations

import dataclasses
import hashlib
import io
import json
import os
import random
import shutil
from typing import Callable, List, Tuple

from repro.core.engine import MultiRunner
from repro.core.registry import MAIN_MATRIX, create
from repro.trace.binfmt import BinaryTraceWriter
from repro.trace.event import FORK, JOIN, WRITE, Event
from repro.trace.format import dump_trace, format_event, header_line
from repro.trace.trace import Trace, TraceInfo
from repro.workloads.dacapo import DACAPO_SPECS
from repro.workloads.generator import generate_trace
from repro.workloads.spec import WorkloadSpec

from benchmarks.pipeline.child import summarize, summarize_result

#: Bounded-window size of the live workload (``serve --window-events``).
WINDOW_EVENTS = 65536
#: Events per producer batch on the wire.
WIRE_BATCH = 256
#: Open-loop rates of the race-latency sessions, events/s, per workload:
#: 20-40% of what ``repro serve`` sustains on the feed on a 2-CPU host,
#: leaving room for phases where the host runs 2x slow (at 150,000
#: events/s, runs of the live feed in such phases read median latencies
#: of up to 9 ms against ~2 ms).
LIVE_RATE = 100_000
RR_RATE = 100_000
LOCK_RATE = 80_000
MATRIX_RATE = 40_000
#: ``race_dense`` plants one race every this many events of a served
#: feed.
RACE_EVERY = 100
#: Events of the largest trace a file workload serves to ``repro serve``
#: (before ``race_dense`` adds its races).
SERVE_EVENTS = 131072
#: Bump when set-up output changes, so stale cache entries are ignored.
SETUP_VERSION = 2
#: Cache entries kept (one per workload and seed, for ten seeds of four
#: workloads); older ones are deleted.
CACHE_KEEP = 48

LOCK_HEAVY = ("xalan", "h2", "luindex", "tomcat")


def _roadrunner_spec(events: int, seed: int) -> WorkloadSpec:
    """RoadRunner-shaped: long bursty access runs, almost no locking, so
    the same-epoch filter drops most accesses (the shape of the engine
    bench's kernel workload)."""
    return WorkloadSpec(name="roadrunner", threads=8, events=events,
                        locks=16, shared_vars=512, local_vars=128,
                        p_cs=0.002, read_fraction=0.75, burst=8.0,
                        p_volatile=0.002, predictive_races=2, hb_races=2,
                        seed=seed)


def _dacapo(names, factor: float, seed: int) -> List[WorkloadSpec]:
    return [dataclasses.replace(DACAPO_SPECS[name].scaled(factor),
                                seed=DACAPO_SPECS[name].seed + seed)
            for name in names]


class Workload:
    """One workload: what it runs and on which inputs (why each was
    chosen is recorded in ``BENCHMARK.json`` and the README)."""

    def __init__(self, name: str, analyses: List[str],
                 specs: Callable[[int, float], List[WorkloadSpec]],
                 rate: float, live: bool = False):
        self.name = name
        self.analyses = analyses
        self.specs = specs
        #: events/s of the open-loop ``repro serve`` sessions that measure
        #: race latency
        self.rate = rate
        #: fed over a socket to ``repro serve`` as a v1 text wire
        self.live = live
        self.window_events = WINDOW_EVENTS if live else None

    def serve_args(self) -> List[str]:
        """The ``repro serve`` options of this workload's server leg."""
        args = []
        for name in self.analyses:
            args += ["-a", name]
        if self.window_events is not None:
            args += ["--window-events", str(self.window_events)]
        return args


WORKLOADS = {w.name: w for w in (
    Workload(
        "rr-stream-bin",
        ["st-wdc"],
        lambda seed, scale: [_roadrunner_spec(
            max(int(500_000 * scale), 20_000), 11 + seed)],
        rate=RR_RATE),
    Workload(
        "lock-stream-bin",
        ["st-wdc"],
        lambda seed, scale: _dacapo(LOCK_HEAVY, 4 * scale, seed),
        rate=LOCK_RATE),
    Workload(
        "paper-matrix",
        list(MAIN_MATRIX),
        lambda seed, scale: _dacapo(DACAPO_SPECS, 0.5 * scale, seed),
        rate=MATRIX_RATE),
    Workload(
        "live-text-window",
        ["st-wdc"],
        lambda seed, scale: [_roadrunner_spec(
            max(int(150_000 * scale), 20_000), 12 + seed)],
        rate=LIVE_RATE, live=True),
)}


def race_dense(trace: Trace, every: int = RACE_EVERY,
               seed: int = 0) -> Trace:
    """A copy of ``trace`` with a race planted every ``every`` events.

    The generator plants its races in the trace tail, which leaves a
    live run almost nothing to time.  Each planted race is two adjacent
    writes to a fresh variable by two worker threads that are forked and
    not yet joined: with no event between them, no synchronization can
    order the pair, so it races under every relation and inside any
    window, and the second write's index is the race's event.
    """
    rng = random.Random(seed)
    site_a = max(e.site for e in trace.events) + 1
    var = trace.num_vars
    running: List[int] = []
    out: List[Event] = []
    due = every
    for i, e in enumerate(trace.events, 1):
        out.append(e)
        if e.kind == FORK:
            running.append(e.target)
        elif e.kind == JOIN and e.target in running:
            running.remove(e.target)
        if i >= due and len(running) >= 2:
            a, b = rng.sample(running, 2)
            out.append(Event(a, WRITE, var, site_a))
            out.append(Event(b, WRITE, var, site_a + 1))
            var += 1
            due = i + every
    return Trace(out, num_threads=trace.num_threads,
                 num_locks=trace.num_locks, num_vars=var,
                 num_volatiles=trace.num_volatiles,
                 num_classes=trace.num_classes, validate=True)


def encode_wire(dims, events, binary: bool) -> Tuple[bytes, List[int]]:
    """Encode a feed as the producer sends it: the bytes, and the offset
    where each ``WIRE_BATCH``-event batch ends (the first entry is the
    end of the header)."""
    offsets = []
    if binary:
        buf = io.BytesIO()
        writer = BinaryTraceWriter(buf, dims)
        writer.flush()
        offsets.append(buf.tell())
        for i, event in enumerate(events, 1):
            writer.write(event)
            if i % WIRE_BATCH == 0 or i == len(events):
                writer.flush()
                offsets.append(buf.tell())
        return buf.getvalue(), offsets
    parts = [(header_line(dims) + "\n").encode("ascii")]
    offsets.append(len(parts[0]))
    size = offsets[0]
    for start in range(0, len(events), WIRE_BATCH):
        part = "".join(format_event(e) + "\n"
                       for e in events[start:start + WIRE_BATCH])
        parts.append(part.encode("ascii"))
        size += len(parts[-1])
        offsets.append(size)
    return b"".join(parts), offsets


def solo_reference(trace: Trace, analyses: List[str]) -> dict:
    """Each analysis run alone over the materialized trace."""
    return {"events": len(trace), "analyses": {
        name: summarize(create(name, trace).run()) for name in analyses}}


class Prepared:
    """A workload's inputs and references, as read from its cache
    directory."""

    def __init__(self, workload: Workload, directory: str, meta: dict):
        self.workload = workload
        self.dir = directory
        self.files = [os.path.join(directory, f["file"])
                      for f in meta["files"]]
        self.events = [f["events"] for f in meta["files"]]
        self.references = [f["reference"] for f in meta["files"]]
        self.zero = os.path.join(directory, meta["zero"])
        wire = meta["wire"]
        with open(os.path.join(directory, wire["file"]), "rb") as fp:
            self.wire_data = fp.read()
        self.wire_offsets = wire["offsets"]
        self.wire_events = wire["events"]
        self.wire_reference = wire["reference"]

    @property
    def total_events(self) -> int:
        return sum(self.events)


def _atomic_write(path: str, data: bytes) -> None:
    tmp = path + ".tmp"
    with open(tmp, "wb") as fp:
        fp.write(data)
    os.replace(tmp, path)


def _build(workload: Workload, specs: List[WorkloadSpec],
           directory: str) -> dict:
    traces = [(spec.name, generate_trace(spec)) for spec in specs]
    files = []
    if workload.live:
        trace = race_dense(traces[0][1], seed=specs[0].seed)
        data, offsets = encode_wire(trace, trace.events, binary=False)
        _atomic_write(os.path.join(directory, "live.txt"), data)
        runner = MultiRunner([create(name, trace)
                              for name in workload.analyses],
                             window_events=workload.window_events)
        reference = summarize_result(runner.run(trace))
        files.append({"file": "live.txt", "events": len(trace),
                      "reference": reference})
        wire = {"file": "live.txt", "offsets": offsets,
                "events": len(trace), "reference": reference}
    else:
        for name, trace in traces:
            buf = io.BytesIO()
            dump_trace(trace, buf, binary=True)
            _atomic_write(os.path.join(directory, name + ".bin"),
                          buf.getvalue())
            files.append({"file": name + ".bin", "events": len(trace),
                          "reference": solo_reference(
                              trace, workload.analyses)})
        # the served feed is a race-dense prefix of the largest trace
        (_, big), spec = max(zip(traces, specs),
                             key=lambda pair: len(pair[0][1]))
        prefix = race_dense(Trace(big.events[:SERVE_EVENTS],
                                  num_threads=big.num_threads,
                                  num_locks=big.num_locks,
                                  num_vars=big.num_vars,
                                  num_volatiles=big.num_volatiles,
                                  num_classes=big.num_classes,
                                  validate=False), seed=spec.seed)
        data, offsets = encode_wire(prefix, prefix.events, binary=True)
        _atomic_write(os.path.join(directory, "serve.bin"), data)
        wire = {"file": "serve.bin", "offsets": offsets,
                "events": len(prefix),
                "reference": solo_reference(prefix, workload.analyses)}
    dims = [t for _, t in traces]
    zero = TraceInfo(max(t.num_threads for t in dims),
                     max(t.num_locks for t in dims),
                     max(t.num_vars for t in dims),
                     max(t.num_volatiles for t in dims),
                     max(t.num_classes for t in dims), 0)
    buf = io.BytesIO()
    BinaryTraceWriter(buf, zero).close()
    _atomic_write(os.path.join(directory, "zero.bin"), buf.getvalue())
    return {"files": files, "zero": "zero.bin", "wire": wire}


def prepare(workload: Workload, seed: int, scale: float,
            cache_root: str) -> Prepared:
    """Generate (or load from the cache) a workload's inputs."""
    specs = workload.specs(seed, scale)
    key = hashlib.sha256(json.dumps(
        [SETUP_VERSION, workload.name, workload.analyses,
         workload.window_events, RACE_EVERY, WIRE_BATCH, SERVE_EVENTS,
         [repr(s) for s in specs]]).encode()).hexdigest()[:16]
    directory = os.path.join(cache_root, "{}-{}".format(workload.name, key))
    meta_path = os.path.join(directory, "meta.json")
    if not os.path.exists(meta_path):
        os.makedirs(directory, exist_ok=True)
        meta = _build(workload, specs, directory)
        # written last: its presence marks a complete entry
        _atomic_write(meta_path, json.dumps(meta).encode())
        _prune(cache_root)
    os.utime(meta_path)
    with open(meta_path) as fp:
        return Prepared(workload, directory, json.load(fp))


def _prune(cache_root: str) -> None:
    """Delete all but the ``CACHE_KEEP`` most recently used entries."""
    def used(name):
        meta = os.path.join(cache_root, name, "meta.json")
        return os.path.getmtime(meta) if os.path.exists(meta) else 0.0

    entries = sorted(os.listdir(cache_root), key=used, reverse=True)
    for name in entries[CACHE_KEEP:]:
        shutil.rmtree(os.path.join(cache_root, name), ignore_errors=True)
