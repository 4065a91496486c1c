"""Fleet-mode reconstruction service (``repro serve``).

Pins the dedup/bucketing contract (satellite: identical failures from
distinct instances land in one bucket, distinct failures never merge,
convergence consumes the earliest-arriving occurrence
deterministically) and the headline property: the fleet's
reconstruction is byte-identical to the single-site path, because
every instance runs every deployed version exactly once.
"""

import threading
import time
from types import SimpleNamespace

import pytest

from repro import telemetry
from repro.core import ExecutionReconstructor, ProductionSite
from repro.errors import ReconstructionError
from repro.serve import (FailureReport, FleetService, SignatureBucket,
                         jitter_factor)
from repro.core.signature import FaultSignature
from repro.interp.env import Environment
from repro.workloads.registry import get_workload

WORKLOAD = "sqlite-7be932d"


def _single_site(name):
    w = get_workload(name)
    reconstructor = ExecutionReconstructor(
        w.fresh_module(), work_limit=w.work_limit,
        max_occurrences=w.max_occurrences)
    return reconstructor.reconstruct(ProductionSite(w.failing_env))


def _streams(report):
    return {name: data.hex()
            for name, data in sorted(report.test_case.streams.items())}


def _sig(site="main:entry:0"):
    return FaultSignature("abort", site, ("main",))


def _report(instance, version, seq, payload):
    return FailureReport(instance=instance, workload="w", version=version,
                        signature=_sig(), occurrence=payload,
                        enqueued=time.time(), seq=seq)


class TestSignatureBucket:
    def _bucket(self, instances=3, errors=None, timeout=0.5):
        return SignatureBucket(_sig(), "w", instance_count=instances,
                               deploy_times={}, version_errors=errors or {},
                               take_timeout=timeout)

    def test_earliest_arrival_consumed_deterministically(self):
        bucket = self._bucket()
        # thread-scheduling luck delivered instance 2 first to the
        # dispatcher; arrival order (seq) decides, nothing else
        bucket.offer(_report(2, 0, seq=3, payload="first-arrival"))
        bucket.offer(_report(0, 0, seq=7, payload="second-arrival"))
        taken = bucket.take(0, block=True)
        assert taken.seq == 3
        assert taken.occurrence == "first-arrival"
        assert bucket.consumed == 1
        assert bucket.deduplicated == 1  # the loser of the race

    def test_later_same_version_reports_deduplicated(self):
        bucket = self._bucket()
        bucket.offer(_report(0, 0, seq=1, payload="winner"))
        bucket.take(0, block=True)
        disposition = bucket.offer(_report(1, 0, seq=2, payload="late"))
        assert disposition == "deduplicated"
        assert bucket.deduplicated == 1
        assert bucket.reports == 2

    def test_closed_bucket_counts_stale(self):
        bucket = self._bucket()
        bucket.close()
        assert bucket.offer(_report(0, 0, seq=1, payload="x")) == "stale"
        assert bucket.stale == 1

    def test_versions_isolated(self):
        bucket = self._bucket()
        bucket.offer(_report(0, 1, seq=1, payload="v1"))
        assert bucket.take(0, block=False) is None
        assert bucket.take(1, block=False).occurrence == "v1"

    def test_all_instances_errored_raises(self):
        bucket = self._bucket(
            instances=2, errors={0: ["boom-a", "boom-b"]})
        with pytest.raises(ReconstructionError, match="boom-a"):
            bucket.take(0, block=True)

    def test_take_times_out(self):
        bucket = self._bucket(timeout=0.2)
        started = time.monotonic()
        with pytest.raises(ReconstructionError, match="within"):
            bucket.take(0, block=True)
        assert time.monotonic() - started < 5.0

    def test_instances_reporting_tracked(self):
        bucket = self._bucket()
        bucket.offer(_report(0, 0, seq=1, payload="a"))
        bucket.offer(_report(2, 0, seq=2, payload="b"))
        assert bucket.instances_reporting == {0, 2}


class TestJitter:
    def test_deterministic(self):
        assert jitter_factor(1, 3) == jitter_factor(1, 3)

    def test_bounded(self):
        for i in range(8):
            for v in range(8):
                assert 0.5 <= jitter_factor(i, v) < 1.5

    def test_min_wait_shrinks_with_fleet_size(self):
        # the scalability effect BENCH_serve.json records: the best
        # instance's wait over a 4-version reconstruction shrinks
        # strictly as the fleet grows 1 -> 2 -> 4
        def total(n):
            return sum(min(jitter_factor(i, v) for i in range(n))
                       for v in range(4))
        assert total(1) > total(2) > total(4)


class TestFleetService:
    def test_identical_failures_from_distinct_instances_one_bucket(self):
        summary = FleetService([WORKLOAD], instances=3).run()
        assert len(summary.buckets) == 1
        bucket = summary.buckets[0]
        assert bucket.success and bucket.status == "done"
        # every instance reported the same fault; all landed together
        assert bucket.instances_reporting == 3
        assert bucket.reports >= 3
        assert bucket.deduplicated >= 2
        assert summary.succeeded

    def test_distinct_failures_never_merge(self):
        summary = FleetService([WORKLOAD, "php-74194"],
                               instances=2).run()
        assert len(summary.buckets) == 2
        digests = {b.signature["digest"] for b in summary.buckets}
        workloads = {b.workload for b in summary.buckets}
        assert len(digests) == 2
        assert workloads == {WORKLOAD, "php-74194"}
        for bucket in summary.buckets:
            assert bucket.success

    def test_byte_identical_to_single_site(self):
        single = _single_site(WORKLOAD)
        expected = _streams(single)
        for instances in (1, 3):
            summary = FleetService([WORKLOAD], instances=instances).run()
            bucket = summary.buckets[0]
            assert bucket.streams == expected
            assert bucket.iterations == len(single.iterations)
            assert bucket.verified == single.verified

    def test_deterministic_across_runs(self):
        first = FleetService([WORKLOAD], instances=3).run()
        second = FleetService([WORKLOAD], instances=3).run()
        assert first.buckets[0].streams == second.buckets[0].streams
        assert first.buckets[0].occurrences_consumed \
            == second.buckets[0].occurrences_consumed

    def test_parallel_buckets(self):
        summary = FleetService([WORKLOAD, "php-74194"], instances=2,
                               parallel=2).run()
        assert summary.succeeded
        assert len(summary.buckets) == 2

    def test_summary_shape(self):
        summary = FleetService([WORKLOAD], instances=2).run()
        data = summary.to_dict()
        assert data["instances"] == 2
        assert data["succeeded"] is True
        assert data["reports"] == summary.reports
        bucket = data["buckets"][0]
        for key in ("signature", "occurrences_consumed", "reports",
                    "deduplicated", "wait_seconds", "wall_seconds",
                    "streams"):
            assert key in bucket
        assert bucket["signature"]["digest"]

    def test_telemetry_folded_through_trace_context(self):
        sink = telemetry.MemorySink()
        registry = telemetry.Telemetry(sink)
        with telemetry.scoped(registry):
            FleetService([WORKLOAD], instances=2).run()
            counters = registry.snapshot()["counters"]
        assert counters["serve.reports"] >= 2
        assert counters["serve.buckets"] == 1
        assert counters["serve.instance_runs"] >= 2  # absorbed
        assert counters["serve.runs"] == 1
        # instance spans forwarded onto the shared trace timeline
        spans = [e for e in sink.events
                 if e.get("name") == "serve.instance_run"]
        assert spans
        assert all(e.get("trace_id", registry.trace_id)
                   == registry.trace_id for e in sink.events
                   if "trace_id" in e)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            FleetService([WORKLOAD], instances=0)
        with pytest.raises(ValueError):
            FleetService([WORKLOAD], parallel=0)


class TestInstanceThreads:
    def test_production_runs_on_the_instance_thread(self, monkeypatch,
                                                    abort_module):
        # each instance waits for its reoccurrence on its own thread;
        # no helper thread is started per run
        threads = []

        def factory(occ):
            threads.append(threading.current_thread().name)
            return Environment({"stdin": b"\xc8"})

        fake = SimpleNamespace(name="fake", failing_env=factory,
                               fresh_module=abort_module.clone,
                               work_limit=100_000, max_occurrences=5)
        monkeypatch.setattr("repro.serve.get_workload", lambda name: fake)
        summary = FleetService(["fake"], instances=2,
                               wait_timeout=30.0).run()
        assert summary.succeeded
        assert threads
        assert set(threads) <= {"repro-serve-fake-0", "repro-serve-fake-1"}


class TestFleetErrors:
    def test_unserviced_when_every_instance_errors(self, monkeypatch,
                                                   abort_module):
        def explode(occ):
            raise RuntimeError("instance down")

        fake = SimpleNamespace(name="fake", failing_env=explode,
                               fresh_module=abort_module.clone,
                               work_limit=100_000, max_occurrences=5)
        monkeypatch.setattr("repro.serve.get_workload", lambda name: fake)
        summary = FleetService(["fake"], instances=2,
                               wait_timeout=10.0).run()
        assert summary.buckets == []
        assert "fake" in summary.unserviced
        assert "instance down" in summary.unserviced["fake"]
        assert not summary.succeeded

    def test_healthy_instances_cover_a_failed_one(self, monkeypatch,
                                                  abort_module):
        # instance whose every run errors: the fleet still converges
        # off the healthy instances' reports
        calls = {"n": 0}

        def flaky(occ):
            calls["n"] += 1
            if calls["n"] % 2 == 0:  # every other run across the fleet
                raise RuntimeError("flaky instance")
            return Environment({"stdin": b"\xc8"})

        fake = SimpleNamespace(name="fake", failing_env=flaky,
                               fresh_module=abort_module.clone,
                               work_limit=100_000, max_occurrences=5)
        monkeypatch.setattr("repro.serve.get_workload", lambda name: fake)
        summary = FleetService(["fake"], instances=2,
                               wait_timeout=30.0).run()
        assert len(summary.buckets) == 1
        assert summary.buckets[0].success
