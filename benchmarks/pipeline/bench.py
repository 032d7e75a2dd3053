"""Pipeline benchmark: what a ``repro`` user waits for, end to end.

Four workloads drive the system only through its public entry points:
``repro.core.engine.run_stream`` (the ``analyze --stream`` /
``compare --stream`` path) and ``python -m repro serve``.  Set-up
(untimed) generates each workload's inputs from ``--seed`` and computes
reference reports.  Each timed repetition runs in a fresh interpreter,
and repetitions go round-robin across the selected workloads until each
has been measured for ``--seconds``.  Every pass is checked against its
reference; any mismatch is a failed operation and makes the command
exit 1.  ``--trace 1`` then runs each workload once more with spans and
reports the per-layer metrics.

The metric definitions are in README.md, with the reasons why times the
system spends working are scaled by ``child.speed_probe`` (``t *
REFERENCE_PROBE_S / probe``) and cold starts by :func:`start_probe`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional

from benchmarks.pipeline import serve
from benchmarks.pipeline.child import race_digest
from benchmarks.pipeline.spans import SpanRecorder, self_times
from benchmarks.pipeline.workloads import (WIRE_BATCH, WORKLOADS, Prepared,
                                           prepare)

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
RESULTS = os.path.join(ROOT, "bench_results", "pipeline")
CACHE = os.path.join(RESULTS, "cache")
#: Minimum repetitions per workload (and per set under --repeat-check).
MIN_REPS = 3
#: Seconds one child pass or probe may take before it is killed.
CHILD_TIMEOUT = 170.0
#: The speed probe's time on the host the baseline was recorded on.
REFERENCE_PROBE_S = 0.010
#: :func:`start_probe`'s time on that host.
REFERENCE_START_S = 0.009


class Tally:
    """Attempted and failed operations (one analysis pass or one ``repro
    serve`` session each; set-up probes count too)."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def check(self, problem: str, what: str) -> bool:
        """Count one operation; ``problem`` is empty when it succeeded."""
        self.attempted += 1
        if problem:
            self.failed += 1
            print("FAILED {}: {}".format(what, problem), file=sys.stderr)
        return not problem


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        (os.path.join(ROOT, "src"), ROOT)))


def mismatch(got: dict, want: dict) -> str:
    """Why a summary differs from its reference ('' when it matches)."""
    if got.get("events") != want["events"]:
        return "events_processed {} != {}".format(got.get("events"),
                                                  want["events"])
    for name, ref in want["analyses"].items():
        mine = got["analyses"].get(name)
        if mine != ref:
            return "{}: {} != reference {}".format(name, mine, ref)
    return ""


def serve_mismatch(run: serve.ServeRun, want: dict) -> str:
    """Check a served session: exit code, races and summaries."""
    expect = 1 if any(a["dynamic"] for a in want["analyses"].values()) \
        else 0
    if run.exit_code != expect:
        return "exit code {} != {}: {}".format(run.exit_code, expect,
                                               run.stderr[-400:])
    if run.failures:
        return "analysis failures {}".format(run.failures)
    got = {"events": None, "analyses": {}}
    for name, summary in run.summaries.items():
        got["events"] = summary["events"]
        got["analyses"][name] = {
            "dynamic": summary["dynamic"], "static": summary["static"],
            "races": race_digest(run.races.get(name, []))}
    return mismatch(got, want)


def timed_run(cmd: List[str], **popen_args) -> tuple:
    """Run ``cmd`` on the system's CPU to its exit; returns (exit code,
    stdout, stderr, wall seconds).  A watchdog kills it after
    ``CHILD_TIMEOUT`` (exit code -9).  The waits block, so the wall time
    ends when the child exits: ``subprocess.run(timeout=...)`` polls
    with doubling sleeps and reads a 9 ms interpreter start as 16 ms."""
    start = time.perf_counter()
    with serve.on_system_cpu():
        proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL,
                                **popen_args)
    watchdog = threading.Timer(CHILD_TIMEOUT, proc.kill)
    watchdog.start()
    try:
        out, err = proc.communicate()
    finally:
        watchdog.cancel()
    return proc.returncode, out, err, time.perf_counter() - start


def spawn_child(mode: str, spec: dict):
    """Run ``benchmarks.pipeline.child`` in a fresh interpreter; returns
    (the JSON document it printed or None, its output)."""
    code, out, _, _ = timed_run(
        [sys.executable, "-m", "benchmarks.pipeline.child", mode,
         json.dumps(spec)], cwd=ROOT, env=child_env(),
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
    out = out.decode(errors="replace")
    lines = out.strip().splitlines()
    if code != 0 or not lines:
        return None, "exit code {}: {}".format(code, out[-800:])
    try:
        return json.loads(lines[-1]), out
    except ValueError:
        return None, out[-800:]


def start_probe(rep: dict) -> None:
    """Add to ``rep`` the seconds a bare interpreter (``python -S -c
    pass``) takes to start and exit right now, best of three.

    It tracks the host's speed at exec, page faults and interpreter
    start-up, which dominate a cold start and which ``child.speed_probe``
    follows poorly; it runs no ``repro`` code.
    """
    rep["start"].append(min(
        timed_run([sys.executable, "-S", "-c", "pass"])[3]
        for _ in range(3)))


def setup_probe(prep: Prepared, rep: dict, tally: Tally) -> None:
    """A start probe, then a cold ``repro analyze --stream`` over the
    0-event trace; adds its wall time to ``rep`` when it succeeded."""
    cmd = [sys.executable, "-m", "repro", "analyze", "--stream"]
    for name in prep.workload.analyses:
        cmd += ["-a", name]
    start_probe(rep)
    code, _, err, wall = timed_run(
        cmd + [prep.zero], cwd=ROOT, env=child_env(),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    if tally.check("" if code == 0 else "exit code {}: {}".format(
            code, err[-400:]), prep.workload.name + " set-up probe"):
        rep["setup"].append(wall)


def new_rep() -> dict:
    """One repetition's samples: ``rates`` (scaled events/s), ``rss``
    (MiB), ``setup`` (raw cold starts, s), ``start`` (start probes, s),
    and ``p50``/``p99``, one open-loop session's race latency
    percentiles (ms)."""
    return {"rates": [], "rss": [], "setup": [], "start": [], "p50": [],
            "p99": [], "samples": 0}


def session(prep: Prepared, rate: Optional[float], tally: Tally,
            spans: Optional[SpanRecorder] = None
            ) -> Optional[serve.ServeRun]:
    """One checked ``repro serve`` session over the workload's served
    feed; None when it failed."""
    what = "{} {} session".format(prep.workload.name,
                                  "open-loop" if rate else "unpaced")
    try:
        run = serve.run_session(child_env(), prep.dir,
                                prep.workload.serve_args(), prep.wire_data,
                                prep.wire_offsets, WIRE_BATCH,
                                prep.wire_events, rate=rate, spans=spans)
    except (OSError, RuntimeError) as exc:
        tally.check(repr(exc), what)
        return None
    if not tally.check(serve_mismatch(run, prep.wire_reference), what):
        return None
    return run


def open_loop(prep: Prepared, rep: dict, tally: Tally
              ) -> Optional[serve.ServeRun]:
    """One open-loop session at the workload's rate; adds its race
    latency percentiles to ``rep``."""
    run = session(prep, prep.workload.rate, tally)
    if run is not None:
        scale = REFERENCE_PROBE_S / run.probe_s
        cuts = statistics.quantiles(
            [wait + response * scale for wait, response in run.latencies_ms],
            n=100, method="inclusive")
        rep["p50"].append(cuts[49])
        rep["p99"].append(cuts[98])
        rep["samples"] += len(run.latencies_ms)
    return run


def file_rep(prep: Prepared, tally: Tally) -> dict:
    """One timed ``run_stream`` pass over every file, one open-loop
    session over the served feed, and a set-up probe before each."""
    rep = new_rep()
    name = prep.workload.name
    setup_probe(prep, rep, tally)
    doc, out = spawn_child("pass", {"files": prep.files,
                                    "analyses": prep.workload.analyses})
    if doc is None:
        for path in prep.files:
            tally.check(out, "{} {}".format(name, os.path.basename(path)))
    else:
        ok = True
        for path, got, ref in zip(prep.files, doc["files"],
                                  prep.references):
            ok &= tally.check(mismatch(got, ref),
                              "{} {}".format(name, os.path.basename(path)))
        if ok:
            wall = sum(f["wall_s"] * REFERENCE_PROBE_S / f["probe_s"]
                       for f in doc["files"])
            rep["rates"].append(prep.total_events / wall)
            rep["rss"].append(doc["peak_rss_mb"])
    setup_probe(prep, rep, tally)
    open_loop(prep, rep, tally)
    return rep


def live_rep(prep: Prepared, tally: Tally) -> dict:
    """One unpaced session (throughput) and one open-loop session
    (latency).  Each one's start-up is a set-up sample, after a start
    probe."""
    rep = new_rep()
    for paced in (False, True):
        start_probe(rep)
        run = (open_loop(prep, rep, tally) if paced
               else session(prep, None, tally))
        if run is None:
            continue
        if not paced:
            rep["rates"].append(prep.wire_events * run.probe_s
                                / (run.wall_s * REFERENCE_PROBE_S))
        rep["rss"].append(run.rss_mb)
        rep["setup"].append(run.ready_s)
    return rep


def measure(preps: Dict[str, Prepared], budget: float, sets: int,
            tally: Tally) -> Dict[str, List[List[dict]]]:
    """Round-robin repetitions across workloads.  A workload stops once
    another repetition would exceed ``budget`` seconds per set and each
    of its ``sets`` interleaved sets has ``MIN_REPS`` repetitions."""
    reps = {name: [[] for _ in range(sets)] for name in preps}
    spent = dict.fromkeys(preps, 0.0)
    active = list(preps)
    while active:
        for name in list(active):
            prep = preps[name]
            done = sum(len(s) for s in reps[name])
            start = time.perf_counter()
            this = reps[name][done % sets]
            rep = (live_rep if prep.workload.live else file_rep)(prep,
                                                                 tally)
            spent[name] += time.perf_counter() - start
            this.append(rep)
            done += 1
            if (min(len(s) for s in reps[name]) >= MIN_REPS
                    and spent[name] * (done + 1) / done > budget * sets):
                active.remove(name)
    return reps


def stat(values: List[float]) -> dict:
    """Median and quartiles (``statistics.quantiles``, inclusive)."""
    if not values:
        raise ValueError("no samples")
    if len(values) == 1:
        return {"value": values[0], "q1": values[0], "q3": values[0],
                "n": 1}
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"value": med, "q1": q1, "q3": q3, "n": len(values)}


def e2e_metrics(reps: List[dict]) -> Dict[str, dict]:
    """The run's metrics.  ``setup_s`` is scaled once, by the median
    start probe: single probes within one run differ by up to 1.5x, and
    the median ignores the outliers."""
    def pool(key):
        return [v for rep in reps for v in rep[key]]

    samples = sum(rep["samples"] for rep in reps)
    setup = stat(pool("setup"))
    scale = REFERENCE_START_S / statistics.median(pool("start"))
    return {"events_per_s": stat(pool("rates")),
            "peak_rss_mb": stat(pool("rss")),
            "setup_s": dict(setup, **{k: setup[k] * scale
                                      for k in ("value", "q1", "q3")}),
            "race_latency_p50_ms": dict(stat(pool("p50")), samples=samples),
            "race_latency_p99_ms": dict(stat(pool("p99")), samples=samples)}


def traced(prep: Prepared, tally: Tally) -> tuple:
    """The traced run of one workload: the decomposed pass and the layer
    pass in a child, then the server leg.  Returns (per-layer metrics,
    spans, {root name: (root id, wall)})."""
    w = prep.workload
    name = w.name
    doc, out = spawn_child("traced", {
        "workload": name, "files": prep.files, "analyses": w.analyses,
        "window_events": w.window_events, "live": w.live})
    if doc is None:
        tally.check(out, name + " traced run")
        return None, [], {}
    for path, got, ref, chk in zip(prep.files, doc["results"],
                                   prep.references, doc["checks"]):
        base = os.path.basename(path)
        tally.check(mismatch(got, ref), "{} {} traced pass".format(name,
                                                                  base))
        problem = mismatch(chk["kernel"], chk["scalar"])
        if not problem and not w.live:
            # the live reference is windowed; the layer pass is not
            problem = mismatch(chk["kernel"], {
                "events": ref["events"],
                "analyses": {a: ref["analyses"][a]
                             for a in chk["kernel"]["analyses"]}})
        tally.check(problem, "{} {} kernel layer".format(name, base))
    metrics = doc["metrics"]
    spans = doc["spans"]
    rec = SpanRecorder(name, offset=max(s["id"] for s in spans))
    unpaced = session(prep, None, tally, spans=rec)
    paced = session(prep, w.rate, tally)
    spans = spans + rec.spans
    if unpaced is None or paced is None:
        return None, spans, {}
    metrics["live.send_blocked_s"] = unpaced.send_s
    metrics["server.tail_ms"] = unpaced.tail_s * 1e3
    metrics["live.backlog_ms"] = paced.backlog_s * 1e3
    leg = next(s for s in rec.spans if s["name"] == "pipeline.serve")
    roots = {"pipeline.pass": (doc["pass_root"], doc["pass_wall_s"]),
             "pipeline.serve": (leg["id"],
                                (leg["end_ns"] - leg["start_ns"]) / 1e9)}
    print("  server leg: {} race lines streamed, {} events".format(
        sum(len(v) for v in unpaced.races.values()), prep.wire_events))
    return metrics, spans, roots


def print_self_times(spans: List[dict], roots: dict) -> None:
    for root_name, (root, wall) in roots.items():
        rows = self_times(spans, root)
        print("  self time under {} (wall {:.3f} s):".format(root_name,
                                                              wall))
        for span_name, secs in sorted(rows.items(), key=lambda r: -r[1]):
            print("    {:<28} {:>10.1f} ms {:>6.1%}".format(
                span_name, secs * 1e3, secs / wall))
        total = sum(rows.values())
        print("    {:<28} {:>10.1f} ms {:>6.1%}".format(
            "(sum of rows)", total * 1e3, total / wall))


def fmt(value: float) -> str:
    return "{:.6g}".format(value)


def print_e2e(name: str, prep: Prepared, metrics: Dict[str, dict],
              units: Dict[str, str], reps: int) -> None:
    print("== {}: {} events in {} trace(s); {}; {} reps".format(
        name, prep.total_events, len(prep.files),
        ", ".join(prep.workload.analyses), reps))
    for metric in metrics:
        s = metrics[metric]
        if "samples" in s:
            extra = ("median over n={} sessions ({} races), quartiles "
                     "{} .. {}").format(s["n"], s["samples"], fmt(s["q1"]),
                                       fmt(s["q3"]))
        else:
            extra = "median, quartiles {} .. {}, n={}".format(
                fmt(s["q1"]), fmt(s["q3"]), s["n"])
        print("  {:<22} {:>12} {:<9} {}".format(metric, fmt(s["value"]),
                                                units[metric], extra))


def repeat_report(sets: Dict[str, List[Dict[str, dict]]],
                  bounds: Dict[str, float]) -> None:
    print("== A/A repeat check (two interleaved sets)")
    print("  {:<18} {:<21} {:>12} {:>21} {:>12} {:>21} {:>7} {:>6}".format(
        "workload", "metric", "median A", "IQR A", "median B", "IQR B",
        "diff", "ok"))
    def iqr(s):
        return "{} .. {}".format(fmt(s["q1"]), fmt(s["q3"]))

    for name, (a, b) in sets.items():
        for metric in bounds:
            ma, mb = a[metric], b[metric]
            diff = abs(mb["value"] - ma["value"]) / ma["value"]
            print("  {:<18} {:<21} {:>12} {:>21} {:>12} {:>21} {:>6.1%} "
                  "{:>6}".format(name, metric, fmt(ma["value"]), iqr(ma),
                                 fmt(mb["value"]), iqr(mb), diff,
                                 "yes" if diff <= bounds[metric] else "NO"))


def versions() -> dict:
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy_version, "machine": platform.machine()}


def parse_args(argv, declared: dict) -> argparse.Namespace:
    names = [w["name"] for w in declared["workloads"]]
    p = argparse.ArgumentParser(
        prog="benchmarks/pipeline/run.py",
        description="End-to-end pipeline benchmark; the last stdout line "
                    "is a JSON result.")
    p.add_argument("--workload", action="append", choices=names,
                   help="workload to run (repeatable; default: all)")
    p.add_argument("--seed", type=int, default=0,
                   help="added to every workload spec's seed")
    p.add_argument("--seconds", type=float, default=25.0,
                   help="measuring time per workload (default 25)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: traced run, report the per-layer metrics")
    p.add_argument("--repeat-check", action="store_true",
                   help="run two interleaved sets and compare them")
    p.add_argument("--scale", type=float, default=1.0,
                   help="input size factor; below 1 it also scales the "
                        "measuring time (0.05 is the smoke mode)")
    p.add_argument("--out", metavar="PATH",
                   help="also write the full results (medians, "
                        "quartiles, versions) as JSON")
    args = p.parse_args(argv)
    args.workload = args.workload or names
    return args


def main(argv) -> int:
    import repro

    src = os.path.join(ROOT, "src")
    if not os.path.abspath(repro.__file__).startswith(src + os.sep):
        print("error: imported repro from {}, not {}".format(
            repro.__file__, src), file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fp:
        declared = json.load(fp)
    args = parse_args(argv, declared)
    e2e = [m["name"] for m in declared["end_to_end"]]
    units = {m["name"]: m["unit"]
             for m in declared["end_to_end"] + declared["per_layer"]}
    bounds = {m["name"]: m["bound"] for m in declared["end_to_end"]}
    tally = Tally()
    serve.pin_cpus()

    os.makedirs(CACHE, exist_ok=True)
    start = time.perf_counter()
    preps = {name: prepare(WORKLOADS[name], args.seed, args.scale, CACHE)
             for name in args.workload}
    print("set-up (untimed): {:.1f} s, seed {}, scale {}".format(
        time.perf_counter() - start, args.seed, args.scale))

    sets = 2 if args.repeat_check else 1
    reps = measure(preps, args.seconds * min(args.scale, 1.0), sets, tally)

    results = {"seed": args.seed, "scale": args.scale,
               "seconds": args.seconds, **versions(), "workloads": {}}
    metrics_out = {}
    try:
        set_metrics = {name: [e2e_metrics(s) for s in reps[name]]
                       for name in preps}
        pooled = {name: e2e_metrics([r for s in reps[name] for r in s])
                  for name in preps}
    except ValueError as exc:
        print("error: {}".format(exc), file=sys.stderr)
        return 1
    for name, prep in preps.items():
        count = sum(len(s) for s in reps[name])
        print_e2e(name, prep, pooled[name], units, count)
        results["workloads"][name] = {"events": prep.total_events,
                                      "reps": count, "e2e": pooled[name]}
        if sets > 1:
            results["workloads"][name]["sets"] = set_metrics[name]
    if sets > 1:
        repeat_report(set_metrics, bounds)

    if args.trace:
        all_spans = []
        for name, prep in preps.items():
            print("== traced run: {}".format(name))
            metrics, spans, roots = traced(prep, tally)
            all_spans += spans
            if metrics is None:
                continue
            # the tail is too host-bound for a bound (README); it is
            # recorded from the untraced sessions, like the p50
            metrics["race_latency_p99_ms"] = (
                pooled[name]["race_latency_p99_ms"]["value"])
            print_self_times(spans, roots)
            layer = {}
            for m in declared["per_layer"]:
                value = metrics[m["name"]]
                layer[m["name"]] = value
                print("  {:<34} {:>14} {}".format(m["name"], fmt(value),
                                                  m["unit"]))
            results["workloads"][name]["per_layer"] = layer
            metrics_out[name] = layer
        with open(os.path.join(RESULTS, "spans.json"), "w") as fp:
            json.dump(all_spans, fp)
    else:
        metrics_out = {name: {m: pooled[name][m]["value"] for m in e2e}
                       for name in preps}

    if args.out:
        with open(args.out, "w") as fp:
            json.dump(results, fp, indent=1, sort_keys=True)
            fp.write("\n")
    if len(preps) == 1:
        values = next(iter(metrics_out.values()), {})
        flat = {m: {"value": v, "unit": units[m]} for m, v in values.items()}
    else:
        flat = {"{}:{}".format(name, m): {"value": v, "unit": units[m]}
                for name, values in metrics_out.items()
                for m, v in values.items()}
    print(json.dumps({"correct": tally.failed == 0,
                      "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": flat}))
    return 0 if tally.failed == 0 else 1
