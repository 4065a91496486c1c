"""ProductionSite operational modes: buffer growth, deferred tracing."""

import pytest

from repro import telemetry
from repro.core.production import ProductionSite
from repro.core.reconstructor import ExecutionReconstructor
from repro.errors import ReconstructionError
from repro.interp.env import Environment


def failing_factory(occ):
    return Environment({"stdin": b"\xc8"})


class TestAutoGrowBuffer:
    def test_tiny_buffer_grows_until_trace_fits(self, abort_module):
        site = ProductionSite(failing_factory, ring_capacity=4)
        occurrence = site.run_once(abort_module)
        assert occurrence.failure is not None
        assert site.ring_capacity >= occurrence.trace_bytes
        assert site.occurrences_so_far > 1  # retraced after growing

    def test_growth_disabled_raises(self, abort_module):
        site = ProductionSite(failing_factory, ring_capacity=4,
                              auto_grow_buffer=False)
        with pytest.raises(ReconstructionError, match="ring buffer"):
            site.run_once(abort_module)

    def test_wrap_and_grow_counters(self, abort_module):
        tel = telemetry.Telemetry()
        with telemetry.scoped(tel):
            site = ProductionSite(failing_factory, ring_capacity=4)
            site.run_once(abort_module)
        assert site.ring_wraps >= 1
        assert site.auto_grows >= 1
        # capacity doubled auto_grows times from the initial 4
        assert site.ring_capacity == 4 * 2 ** site.auto_grows
        counters = tel.snapshot()["counters"]
        assert counters["production.ring_wraps"] == site.ring_wraps
        assert counters["production.auto_grows"] == site.auto_grows
        assert tel.gauge("production.ring_capacity").value \
            == site.ring_capacity

    def test_wrap_event_emitted(self, abort_module):
        sink = telemetry.MemorySink()
        with telemetry.scoped(telemetry.Telemetry(sink)):
            ProductionSite(failing_factory,
                           ring_capacity=4).run_once(abort_module)
        wraps = sink.named("production.ring_wrap")
        assert wraps and wraps[0]["attrs"]["capacity"] == 4

    def test_no_wraps_counted_with_ample_buffer(self, abort_module):
        tel = telemetry.Telemetry()
        with telemetry.scoped(tel):
            site = ProductionSite(failing_factory)
            site.run_once(abort_module)
        assert site.ring_wraps == 0 and site.auto_grows == 0
        assert "production.ring_wraps" not in tel.snapshot()["counters"]

    def test_reconstruction_survives_small_initial_buffer(self,
                                                          abort_module):
        er = ExecutionReconstructor(abort_module)
        report = er.reconstruct(
            ProductionSite(failing_factory, ring_capacity=16))
        assert report.success and report.verified


class TestDeferredTracing:
    def test_first_failures_not_traced(self, abort_module):
        site = ProductionSite(failing_factory, trace_after=3)
        occurrence = site.run_once(abort_module)
        assert occurrence.failure is not None
        # 3 untraced failures + 1 traced one
        assert site.occurrences_so_far == 4

    def test_zero_means_always_on(self, abort_module):
        site = ProductionSite(failing_factory, trace_after=0)
        site.run_once(abort_module)
        assert site.occurrences_so_far == 1

    def test_reconstruction_with_deferred_tracing(self, abort_module):
        er = ExecutionReconstructor(abort_module)
        report = er.reconstruct(
            ProductionSite(failing_factory, trace_after=2))
        assert report.success


class TestUnrelatedWaitAccounting:
    def test_unrelated_occurrence_records_wait_seconds(self):
        # reuse the two-bug module: the unrelated failure's production
        # wait must land in the dropped-phase histogram
        from tests.core.test_determinism import _two_bug_module
        from repro.interp.env import Environment

        def factory(occ):
            data = b"\xff\x00" if occ == 2 else bytes([9, 9])
            return Environment({"stdin": data})

        registry = telemetry.Telemetry()
        with telemetry.scoped(registry):
            er = ExecutionReconstructor(_two_bug_module(),
                                        work_limit=100,
                                        max_occurrences=3)
            report = er.reconstruct(ProductionSite(factory))
        assert report.success
        assert report.unrelated_occurrences == 1
        snap = registry.snapshot()
        hist = snap["histograms"].get("reconstruct.unrelated_wait_seconds")
        assert hist is not None and hist["count"] == 1
        assert hist["sum"] >= 0.0
