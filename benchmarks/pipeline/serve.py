"""Drive one ``python -m repro serve`` session from the outside.

The benchmark process is the single producer: it connects to the
server's Unix socket and sends pre-encoded wire bytes, either unpaced
(one ``sendall``, the sustainable ingest rate) or open loop at a fixed
event rate (each batch sent when its last event is due, whether or not
the server kept up).  A reader thread stamps each ``--emit jsonl`` line
the moment it arrives, so a race's latency is its read time minus the
due time of its event in the schedule.  That latency is kept as two
parts: the wait the schedule imposes (its batch is sent when the batch's
last event is due) and the system's response after that.  The server
runs through ``benchmarks.pipeline.child serve``, which is ``repro
serve`` reporting its own peak RSS and speed probe when it exits; the
benchmark takes another speed probe, on the server's CPU, just before
it sends, and the session's host speed is the mean of the two.  This
module also pins the producer and the system to separate CPUs.
"""

from __future__ import annotations

import json
import os
import select
import socket
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from typing import Iterator, List, Optional

from benchmarks.pipeline.child import speed_probe
from benchmarks.pipeline.spans import SpanRecorder

#: Seconds the benchmark waits for the banner and (as ``serve
#: --timeout``) the server waits for a stalled feed; a server still
#: running after three times this is killed.
TIMEOUT = 60.0


class ServeRun:
    """What one session measured and what the server printed."""

    def __init__(self):
        self.exit_code: Optional[int] = None
        self.ready_s = 0.0       # spawn -> "serving on" banner
        self.wall_s = 0.0        # first byte sent -> final summary read
        self.send_s = 0.0        # producer time inside sendall
        self.tail_s = 0.0        # last byte sent -> server exit
        self.backlog_s = 0.0     # open loop: lateness of the last batch
        self.rss_mb = 0.0
        #: mean of the speed probes just before the first byte is sent
        #: and as the server exits, both on the server's CPU
        self.probe_s = 0.0
        self.races: dict = {}    # analysis -> [[index, site, ...], ...]
        self.summaries: dict = {}
        self.failures: List[dict] = []
        #: open loop: per race, (batch wait, response) in ms; their sum
        #: is read time minus the due time of the race's event
        self.latencies_ms: List[tuple] = []
        self.stderr = ""


def _ns(seconds: float) -> int:
    return int(seconds * 1e9)


#: The CPU the system under test runs on, once :func:`pin_cpus` chose it.
_system_cpu: Optional[int] = None


def pin_cpus() -> None:
    """With two or more CPUs, keep the benchmark's own thread (the
    producer) on the first and run every process it starts on the
    second (see :func:`on_system_cpu`).

    Left to the scheduler, the producer and ``repro serve`` share a CPU
    in some sessions and not in others, which splits the live response
    time into two modes ~0.5 ms apart on a 2-CPU VM.
    """
    global _system_cpu
    cpus = sorted(os.sched_getaffinity(0)) if hasattr(
        os, "sched_getaffinity") else []
    if len(cpus) >= 2:
        os.sched_setaffinity(0, {cpus[0]})
        _system_cpu = cpus[1]


@contextmanager
def on_system_cpu() -> Iterator[None]:
    """Run the body on the system's CPU: a process started here inherits
    it from its first instruction on, and a speed probe taken here
    measures the CPU the system runs on (scaled by a probe on the
    producer's CPU, the live rate spread wider than unscaled)."""
    if _system_cpu is None:
        yield
        return
    mine = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {_system_cpu})
    try:
        yield
    finally:
        os.sched_setaffinity(0, mine)


def _read_lines(stream, out: list) -> None:
    for raw in stream:
        out.append((time.perf_counter(), raw))


def run_session(env: dict, workdir: str, serve_args: List[str],
                data: bytes, offsets: List[int], batch: int,
                events: int, rate: Optional[float] = None,
                spans: Optional[SpanRecorder] = None) -> ServeRun:
    """Spawn ``repro serve`` in ``workdir``, feed it ``data`` and reap it.

    ``offsets`` ends the header and then each ``batch``-event batch of
    ``data``.  ``rate`` (events/s) selects the open loop; None sends
    everything at once.  ``spans`` records the unpaced session as the
    traced pass ``pipeline.serve`` with ``live.send`` and
    ``server.tail`` children.
    """
    def last_event(b: int) -> int:
        """Index of batch ``b``'s last event: the batch is due with it."""
        return min((b + 1) * batch, events) - 1

    run = ServeRun()
    path = os.path.join(workdir, "serve.sock")
    for stale in (path, path + ".lock"):
        if os.path.exists(stale):
            os.unlink(stale)
    cmd = [sys.executable, "-m", "benchmarks.pipeline.child", "serve",
           "serve.sock", "--emit", "jsonl", "--timeout", str(TIMEOUT)
           ] + serve_args
    spawned = time.perf_counter()
    with on_system_cpu():
        proc = subprocess.Popen(cmd, cwd=workdir, env=env,
                                stdin=subprocess.DEVNULL,
                                stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE)
    watchdog = threading.Timer(3 * TIMEOUT, proc.kill)
    watchdog.start()
    lines: list = []
    errors: list = []
    readers = []
    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    try:
        if not select.select([proc.stderr], [], [], TIMEOUT)[0]:
            raise RuntimeError("repro serve printed no banner")
        banner = proc.stderr.readline()
        run.ready_s = time.perf_counter() - spawned
        if b"serving on" not in banner:
            raise RuntimeError("repro serve failed to start: {!r}".format(
                banner + proc.stderr.read()))
        readers = [threading.Thread(target=_read_lines, args=(s, out))
                   for s, out in ((proc.stdout, lines),
                                  (proc.stderr, errors))]
        for reader in readers:
            reader.start()
        with on_system_cpu():
            before = speed_probe()
        sock.connect(os.path.relpath(path))
        view = memoryview(data)
        first = time.perf_counter()
        if rate is None:
            sock.sendall(view)
            last = time.perf_counter()
            run.send_s = last - first
        else:
            sock.sendall(view[:offsets[0]])
            for b in range(len(offsets) - 1):
                due = first + last_event(b) / rate
                delay = due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                t = time.perf_counter()
                sock.sendall(view[offsets[b]:offsets[b + 1]])
                last = time.perf_counter()
                run.send_s += last - t
            run.backlog_s = last - due
        sock.close()
        proc.wait()
        done = time.perf_counter()
    finally:
        watchdog.cancel()
        sock.close()
        if proc.returncode is None:
            proc.kill()
            proc.wait()
        for reader in readers:
            reader.join(TIMEOUT)
        proc.stdout.close()
        proc.stderr.close()
    run.exit_code = proc.returncode
    run.tail_s = done - last
    run.stderr = b"".join(raw for _, raw in errors).decode(errors="replace")
    tail = run.stderr.strip().splitlines()[-1:]
    if not tail or not tail[0].startswith("peak_rss_mb "):
        raise RuntimeError("repro serve reported no peak RSS: {}".format(
            run.stderr[-400:]))
    fields = tail[0].split()
    run.rss_mb = float(fields[1])
    run.probe_s = (before + float(fields[3])) / 2
    if spans is not None:
        # perf_counter and perf_counter_ns read the same clock
        root = spans.add("pipeline.serve", _ns(first), _ns(done))
        spans.add("live.send", _ns(first), _ns(first + run.send_s),
                  parent=root)
        spans.add("server.tail", _ns(last), _ns(done), parent=root)
    for stamp, raw in lines:
        doc = json.loads(raw)
        kind = doc["type"]
        if kind == "race":
            run.races.setdefault(doc["analysis"], []).append(
                [doc["event"], doc["site"], doc["var"], doc["tid"],
                 doc["access"], doc["kinds"]])
            if rate is not None:
                event = doc["event"]
                sent = last_event(event // batch)
                wait = (sent - event) / rate
                response = stamp - (first + sent / rate)
                run.latencies_ms.append((wait * 1e3, response * 1e3))
        elif kind == "summary":
            if not run.summaries:
                run.wall_s = stamp - first
            run.summaries[doc["analysis"]] = {
                "dynamic": doc["dynamic"], "static": doc["static"],
                "events": doc["events"]}
        else:
            run.failures.append(doc)
    return run
