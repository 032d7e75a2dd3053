"""Focused unit tests: rule (b) queue machinery and the cost model."""

import pytest

from repro.clocks.vector_clock import VectorClock
from repro.core.rule_b import RuleBQueues
from repro.harness.model import (COEFF, TraceProfile, modeled_nanos,
                                 modeled_slowdown, profile)
from repro.trace import TraceBuilder


def vc(*values):
    return VectorClock.of(values)


class TestRuleBQueues:
    def _simulate(self, style):
        """T0 acquires/releases m twice; T1 then releases once with
        ordering established to the first acquire only."""
        q = RuleBQueues(width=2, epoch_acquires=True, style=style)
        cc0 = vc(1, 0)
        q.on_acquire(0, 0, time=1, vc=cc0)
        q.on_release(0, 0, cc0, publish=vc(5, 0))
        q.on_acquire(0, 0, time=8, vc=vc(8, 0))
        q.on_release(0, 0, vc(8, 0), publish=vc(9, 0))
        # T1's release: knows T0 up to 1 -> only the first acquire matched
        cc1 = vc(1, 3)
        q.on_release(1, 0, cc1, publish=vc(1, 4))
        return cc1

    @pytest.mark.parametrize("style", ["log", "pairwise"])
    def test_pops_only_ordered_acquires(self, style):
        cc1 = self._simulate(style)
        assert cc1[0] == 5  # first release's time joined, not the second

    @pytest.mark.parametrize("style", ["log", "pairwise"])
    def test_footprint_tracks_entries(self, style):
        q = RuleBQueues(width=3, epoch_acquires=False, style=style)
        assert q.footprint_bytes() == 0
        q.on_acquire(0, 0, time=1, vc=vc(1, 0, 0))
        assert q.footprint_bytes() > 0

    def test_log_compaction_frees_consumed_entries(self):
        q = RuleBQueues(width=2, epoch_acquires=True, style="log")
        big = vc(10**9, 0)
        for k in range(300):
            q.on_acquire(0, 0, time=k + 1, vc=big)
            q.on_release(0, 0, big, publish=vc(k + 2, 0))
            # consumer 1 keeps up (well-formed: acquires before releasing)
            q.on_acquire(1, 0, time=k + 1, vc=vc(0, k + 1))
            q.on_release(1, 0, vc(10**9, 10**9), publish=vc(0, k + 2))
        assert q._acq_entries < 650  # both logs compacted below 2x300

    def test_vector_clock_entries_compare_pointwise(self):
        q = RuleBQueues(width=2, epoch_acquires=False, style="log")
        q.on_acquire(0, 0, time=1, vc=vc(1, 7))
        q.on_release(0, 0, vc(1, 7), publish=vc(3, 7))
        # consumer knows T0@1 but not the acquire's T1 component 7
        cc1 = vc(1, 0)
        q.on_release(1, 0, cc1, publish=vc(1, 1))
        assert cc1[0] == 1  # VC compare failed -> no join
        cc1b = vc(1, 9)
        q2 = RuleBQueues(width=2, epoch_acquires=False, style="log")
        q2.on_acquire(0, 0, time=1, vc=vc(1, 7))
        q2.on_release(0, 0, vc(1, 7), publish=vc(3, 7))
        q2.on_release(1, 0, cc1b, publish=vc(1, 10))
        assert cc1b[0] == 3  # ordered -> joined


class TestCostModel:
    def make_trace(self, cs=False):
        b = TraceBuilder()
        for k in range(20):
            if cs:
                b.acquire("T1", "m")
            b.write("T1", "v{}".format(k))
            if cs:
                b.release("T1", "m")
        b.read("T2", "v0")
        return b.build()

    def test_profile_counts(self):
        trace = self.make_trace(cs=True)
        p = TraceProfile(trace)
        assert p.events == len(trace)
        assert p.acquires == 20 and p.releases == 20
        assert p.nseas == 21
        assert p.s1 == 20  # only T1's writes run under a lock

    def test_lock_heavy_traces_cost_more_for_fto_than_st(self):
        trace = self.make_trace(cs=True)
        assert modeled_nanos(trace, "fto-dc") > modeled_nanos(trace, "st-dc")

    def test_lock_free_traces_narrow_the_gap(self):
        lock_free = self.make_trace(cs=False)
        locked = self.make_trace(cs=True)

        def gap(t):
            return modeled_nanos(t, "fto-dc") / modeled_nanos(t, "st-dc")

        assert gap(locked) > gap(lock_free)

    def test_profile_follows_the_trace_not_its_address(self):
        """Traces that come and go each get their own profile, also when
        one lands at a freed trace's address (CPython reuses addresses
        at once, so the gap test above depends on this too)."""
        for _ in range(1000):
            assert profile(self.make_trace(cs=True)).acquires == 20
            assert profile(self.make_trace(cs=False)).acquires == 0

    def test_unknown_program_uses_default_app(self):
        trace = self.make_trace()
        assert modeled_slowdown(trace, "fto-hb") == \
            modeled_slowdown(trace, "fto-hb", program="unknown")

    def test_coefficients_positive(self):
        assert all(v > 0 for v in COEFF.values())

    def test_relation_ordering(self):
        trace = self.make_trace(cs=True)
        for tier in ("unopt", "fto"):
            hb = modeled_nanos(trace, tier + "-hb")
            wdc = modeled_nanos(trace, tier + "-wdc")
            dc = modeled_nanos(trace, tier + "-dc")
            wcp = modeled_nanos(trace, tier + "-wcp")
            assert hb < wdc < dc, tier
            assert wdc < wcp, tier
