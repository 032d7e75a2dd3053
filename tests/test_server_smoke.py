"""Concurrency smoke test: several producers share one server process.

Four producers stream binary traces into a single ``--multi`` server
concurrently (``workers=2`` so each tenant also exercises the
shared-memory analysis pool), and every tenant's summary block must be
byte-identical to a solo ``repro analyze`` of the same trace.  After
shutdown the process must hold no leaked file descriptors, threads, or
``/dev/shm`` segments.

The event volume scales with the ``SMOKE_EVENTS`` environment variable:
small by default so the tier-1 run stays quick, cranked up in CI's
dedicated ``server-smoke`` job.
"""

import gc
import os
import threading
import time

import pytest

from repro.core.engine import MultiRunner
from repro.core.registry import create
from repro.trace.live import send_trace
from repro.workloads import figure1
from repro.workloads.dacapo import dacapo_trace

from tests.test_server import _Server, solo_summary

#: Events per producer (approximate — the workload generator scales by
#: a real factor).  CI's server-smoke job sets 100000.
SMOKE_EVENTS = int(os.environ.get("SMOKE_EVENTS", "4000"))
TENANTS = 4
#: avrora at scale=1.0 generates ~25k events; derive the scale that
#: lands near SMOKE_EVENTS.
_AVRORA_EVENTS_AT_1 = 25140


def _open_fds():
    if not os.path.isdir("/proc/self/fd"):
        pytest.skip("needs /proc to count descriptors")
    gc.collect()
    fds = {}
    for name in os.listdir("/proc/self/fd"):
        try:
            fds[int(name)] = os.readlink("/proc/self/fd/" + name)
        except OSError:  # the listdir fd itself, or already closed
            pass
    return fds


def _shm_entries():
    if not os.path.isdir("/dev/shm"):
        return None
    return set(os.listdir("/dev/shm"))


def test_concurrent_producers_match_solo_and_leak_nothing(tmp_path):
    scale = max(SMOKE_EVENTS / _AVRORA_EVENTS_AT_1, 0.01)
    trace = dacapo_trace("avrora", scale=scale, cache=False)
    analyses = ("st-wdc", "fto-hb")  # two families → two worker shards
    expected = solo_summary(trace, analyses=analyses)
    names = ["smoke{}".format(i) for i in range(TENANTS)]

    # Warm up multiprocessing's one-time global state (resource tracker
    # and its pipe) so the fd baseline below measures *our* leaks only.
    tiny = figure1()
    MultiRunner([create(name, tiny) for name in analyses],
                workers=2).run(tiny)

    fd_before = _open_fds()
    threads_before = threading.active_count()
    shm_before = _shm_entries()

    with _Server(tmp_path, workers=2, analyses=list(analyses),
                 timeout=120.0) as srv:
        errors = []

        def produce(name):
            try:
                send_trace(trace, srv.addr, binary=True, tenant=name)
            except BaseException as exc:  # surfaced below, not swallowed
                errors.append((name, exc))

        producers = [threading.Thread(target=produce, args=(name,))
                     for name in names]
        for thread in producers:
            thread.start()
        for thread in producers:
            thread.join(timeout=600)
            assert not thread.is_alive(), "producer wedged"
        assert not errors, errors

        deadline = time.monotonic() + 600
        for name in names:
            while srv.block(name) is None:
                assert time.monotonic() < deadline, \
                    "timed out waiting for {}'s summary".format(name)
                time.sleep(0.05)
        srv.stop()

    assert srv.code == 1, srv.err.getvalue()  # races found, no failures
    for name in names:
        state, events, body = srv.block(name)
        assert state == "complete", srv.err.getvalue()
        assert events == len(trace)
        assert body == expected

    # -- leak checks: everything the server held must be gone ------------
    deadline = time.monotonic() + 30
    while len(_open_fds()) > len(fd_before) and time.monotonic() < deadline:
        time.sleep(0.1)
    fd_after = _open_fds()
    leaked_fds = {fd: target for fd, target in fd_after.items()
                  if fd not in fd_before}
    assert len(fd_after) <= len(fd_before), \
        "leaked descriptors: {}".format(leaked_fds)

    while threading.active_count() > threads_before \
            and time.monotonic() < deadline:
        time.sleep(0.1)
    assert threading.active_count() <= threads_before

    shm_after = _shm_entries()
    if shm_before is not None:
        leaked = shm_after - shm_before
        assert not leaked, "leaked /dev/shm entries: {}".format(leaked)

    assert not os.path.exists(srv.addr)
    assert not os.path.exists(srv.addr + ".lock")
    assert not os.path.exists(srv.addr + ".ctl")
