"""The shared process-pool executor behind batches (repro.parallel)."""

import os
import signal
import threading

import pytest

from repro import parallel, telemetry
from repro.evaluation import table1
from repro.parallel import (WorkerPool, close_pool, get_pool,
                            in_pool_worker, run_batch)

#: fast workloads for the batch-level checks
BATCH = ["objdump-2018-6323", "matrixssl-2014-1569"]

#: the real worker bodies, captured before any test patches them
_RECONSTRUCT_ONE = parallel._reconstruct_one
_RUN_WORKLOAD_ROW = table1._run_workload_row


def _double(x):
    return x * 2


def _pid(_):
    return os.getpid()


def _noop():
    return None


def _boom(_):
    raise ValueError("intentional task failure")


def _report_in_pool(_):
    return in_pool_worker()


def _registry_enabled(_):
    return telemetry.get().enabled


def _nest(_):
    get_pool(1)


def _suicide(_):
    os.kill(os.getpid(), signal.SIGKILL)


def _reconstruct_or_die(name, *args):
    if name == BATCH[1]:
        os.kill(os.getpid(), signal.SIGKILL)
    return _RECONSTRUCT_ONE(name, *args)


def _row_or_die(name, *args):
    if name == BATCH[1]:
        os.kill(os.getpid(), signal.SIGKILL)
    return _RUN_WORKLOAD_ROW(name, *args)


def _within(seconds, func):
    """Run ``func`` on a helper thread; fail instead of hanging."""
    box = {}

    def target():
        try:
            box["result"] = func()
        except BaseException as exc:  # noqa: BLE001 — re-raised below
            box["error"] = exc

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(seconds)
    assert not thread.is_alive(), f"still running after {seconds} s"
    if "error" in box:
        raise box["error"]
    return box["result"]


def _outcome(item):
    """A batch item minus its timing and placement fields."""
    return (item.workload, item.success, item.verified, item.occurrences,
            item.unrelated_occurrences, item.recorded_bytes,
            item.symex_modelled_seconds, item.error)


class TestWorkerPool:
    def test_lazy_spawn(self):
        pool = WorkerPool(2)
        try:
            assert pool.pids() == []
            assert pool.spinups == 0
        finally:
            pool.close()

    def test_rejects_nonpositive_width(self):
        with pytest.raises(ValueError):
            WorkerPool(0)

    def test_empty_job_spawns_nothing(self):
        pool = WorkerPool(1)
        try:
            assert pool.run([]) == []
            assert pool.spinups == 0 and pool.pids() == []
        finally:
            pool.close()

    def test_round_trip_and_reuse(self):
        pool = WorkerPool(2)
        try:
            assert pool.run([(_double, (i,)) for i in range(4)]) == \
                [0, 2, 4, 6]
            pids_before = sorted(pool.pids())
            assert len(pids_before) == 2
            assert pool.spinups == 1

            # second job: same processes, no respawn
            assert pool.run([(_double, (21,))]) == [42]
            assert sorted(pool.pids()) == pids_before
            assert pool.spinups == 1
            assert pool.jobs == 2
        finally:
            pool.close()

    def test_tasks_fan_out_across_workers(self):
        pool = WorkerPool(2)
        try:
            seen_pids = set(pool.run([(_pid, (i,)) for i in range(8)]))
            assert seen_pids <= set(pool.pids())
        finally:
            pool.close()

    def test_error_surfaces_without_killing_the_pool(self):
        pool = WorkerPool(1)
        try:
            with pytest.raises(RuntimeError,
                               match="ValueError: intentional task "
                                     "failure"):
                pool.run([(_double, (1,)), (_boom, (None,))])
            pids = pool.pids()
            # the worker caught it and kept running
            assert pool.run([(_double, (3,))]) == [6]
            assert pool.pids() == pids
            assert pool.spinups == 1
        finally:
            pool.close()

    def test_close_is_idempotent_and_final(self):
        pool = WorkerPool(1)
        pool.run([(_double, (1,))])
        pool.close()
        assert pool.pids() == []
        pool.close()  # no-op
        with pytest.raises(RuntimeError, match="closed"):
            pool.run([(_double, (1,))])

    def test_spinup_telemetry(self):
        registry = telemetry.Telemetry()
        with telemetry.scoped(registry):
            pool = WorkerPool(1)
            try:
                pool.run([(_noop, ())])
                pool.run([(_noop, ()), (_noop, ())])
            finally:
                pool.close()
        snap = registry.snapshot()
        assert snap["counters"]["parallel.pool.spinups"] == 1
        assert snap["counters"]["parallel.pool.jobs"] == 2
        assert snap["counters"]["parallel.pool.tasks"] == 3
        assert snap["histograms"]["span.parallel.pool_spinup"]["count"] == 1
        assert snap["histograms"]["span.parallel.pool_teardown"][
            "count"] == 1

    def test_queue_wait_and_idle_metered_per_task(self):
        registry = telemetry.Telemetry()
        with telemetry.scoped(registry):
            pool = WorkerPool(1)
            try:
                pool.run([(_noop, ())] * 4)
            finally:
                pool.close()
        histograms = registry.snapshot()["histograms"]
        assert histograms["parallel.queue_wait_seconds"]["count"] == 4
        assert histograms["parallel.queue_wait_seconds"]["min"] >= 0.0
        # one worker ran all four tasks: three gaps between them
        assert histograms["parallel.worker_idle_seconds"]["count"] == 3
        assert histograms["parallel.worker_idle_seconds"]["min"] >= 0.0

    def test_killed_worker_raises_then_respawns(self):
        pool = WorkerPool(1)
        try:
            pool.run([(_double, (1,))])
            with pytest.raises(RuntimeError, match="died mid-job"):
                _within(60, lambda: pool.run([(_suicide, (None,))]))
            assert pool.pids() == []  # the broken executor is gone
            assert pool.run([(_double, (5,))]) == [10]
            assert pool.spinups == 2
        finally:
            pool.close()


class TestWorkerIdleGaps:
    def test_gaps_between_consecutive_tasks_per_pid(self):
        stamps = [(1, 0.0, 1.0), (1, 1.5, 2.0), (1, 2.25, 3.0),
                  (2, 0.0, 2.5), (2, 3.0, 4.0)]
        assert sorted(parallel._worker_idle_gaps(stamps)) == \
            [0.25, 0.5, 0.5]

    def test_order_of_stamps_does_not_matter(self):
        stamps = [(7, 5.0, 6.0), (7, 0.0, 1.0), (7, 2.0, 3.0)]
        assert sorted(parallel._worker_idle_gaps(stamps)) == [1.0, 2.0]

    def test_one_task_per_worker_has_no_gap(self):
        assert parallel._worker_idle_gaps(
            [(1, 0.0, 1.0), (2, 0.0, 1.0)]) == []
        assert parallel._worker_idle_gaps([]) == []

    def test_clock_skew_clamps_at_zero(self):
        # a start stamped before the previous end (clock adjustment)
        assert parallel._worker_idle_gaps(
            [(1, 0.0, 1.0), (1, 0.9, 2.0)]) == [0.0]


class TestPoolHelpers:
    def test_in_pool_worker_false_in_parent(self):
        assert not in_pool_worker()

    def test_in_pool_worker_true_inside_worker(self):
        pool = WorkerPool(1)
        try:
            assert pool.run([(_report_in_pool, (None,))]) == [True]
        finally:
            pool.close()

    def test_worker_gets_a_registry_of_its_own(self):
        # a forked worker must not emit through the parent's sink
        with telemetry.scoped(telemetry.Telemetry(telemetry.MemorySink())):
            assert telemetry.get().enabled
            pool = WorkerPool(1)
            try:
                assert pool.run([(_registry_enabled, (None,))]) == [False]
            finally:
                pool.close()

    def test_task_wrapper_stamps_and_captures_errors(self):
        pid, started, finished, result, error = parallel._pool_task(
            _double, (4,))
        assert (pid, result, error) == (os.getpid(), 8, None)
        assert started <= finished
        _, _, _, result, error = parallel._pool_task(_boom, (None,))
        assert result is None
        assert error == "ValueError: intentional task failure"

    def test_get_pool_refuses_to_nest_inside_a_worker(self):
        pool = WorkerPool(1)
        try:
            with pytest.raises(RuntimeError,
                               match="nested worker pools"):
                pool.run([(_nest, (None,))])
        finally:
            pool.close()

    def test_get_pool_shares_and_replaces_when_wider(self):
        close_pool()
        try:
            first = get_pool(2)
            assert get_pool(2) is first
            assert get_pool(1) is first  # a wider pool serves narrower
            wider = get_pool(3)
            assert wider is not first and wider.workers == 3
            assert first.closed
        finally:
            close_pool()

    def test_repeated_batches_spin_the_shared_pool_up_once(self):
        # the second batch reuses the executor; a private pool per batch
        # pays a spin-up every time
        close_pool()
        try:
            for _ in range(2):
                result = run_batch(BATCH, parallel=2)
            shared = get_pool(2)
            assert shared.jobs == 2
            assert shared.spinups <= 1
            assert result.overhead["span.parallel.pool_spinup"][
                "count"] == 0
            assert result.overhead["parallel.queue_wait_seconds"][
                "count"] == len(BATCH)
        finally:
            close_pool()
        private_spinups = 0
        for _ in range(2):
            pool = WorkerPool(2)
            try:
                run_batch(BATCH, parallel=2, pool=pool)
                private_spinups += pool.spinups
            finally:
                pool.close()
        assert private_spinups == 2

    def test_batch_spinup_span_joins_the_live_trace(self):
        sink = telemetry.MemorySink()
        close_pool()
        try:
            with telemetry.scoped(telemetry.Telemetry(sink)):
                run_batch(BATCH, parallel=2)
        finally:
            close_pool()
        [batch] = sink.named("parallel.batch")
        [spinup] = sink.named("parallel.pool_spinup")
        assert spinup["parent_id"] == batch["span_id"]
        assert spinup["trace_id"] == batch["trace_id"]

    def test_batch_workers_are_live_and_reused(self):
        close_pool()
        try:
            first = run_batch(BATCH, parallel=2)
            pids = sorted(get_pool(2).pids())
            assert len(pids) == 2
            assert {item.worker for item in first.items} <= set(pids)
            second = run_batch(BATCH, parallel=2)
            assert sorted(get_pool(2).pids()) == pids
            assert {item.worker for item in second.items} <= set(pids)
        finally:
            close_pool()


class TestKilledWorker:
    """A SIGKILLed worker ends the job in a clean error, never a hang,
    and the shared pool respawns with identical results."""

    def test_run_batch(self, monkeypatch):
        undisturbed = run_batch(BATCH, parallel=1)
        close_pool()
        try:
            monkeypatch.setattr(parallel, "_reconstruct_one",
                                _reconstruct_or_die)
            with pytest.raises(RuntimeError, match="died mid-job"):
                _within(120, lambda: run_batch(BATCH, parallel=2))
            monkeypatch.undo()
            pool = get_pool(2)
            spinups = pool.spinups
            result = _within(120, lambda: run_batch(BATCH, parallel=2))
            assert get_pool(2) is pool
            assert pool.spinups == spinups + 1
            assert [_outcome(i) for i in result.items] == \
                [_outcome(i) for i in undisturbed.items]
        finally:
            close_pool()

    def test_run_table1(self, monkeypatch):
        def key(row):
            return (row.name, row.verified, row.occurrences,
                    row.recorded_bytes, row.max_graph_nodes,
                    row.symbex_modelled_seconds)

        undisturbed = table1.run_table1(names=BATCH)
        close_pool()
        try:
            monkeypatch.setattr(table1, "_run_workload_row", _row_or_die)
            with pytest.raises(RuntimeError, match="died mid-job"):
                _within(120, lambda: table1.run_table1(names=BATCH,
                                                       parallel=2))
            monkeypatch.undo()
            pool = get_pool(2)
            spinups = pool.spinups
            result = _within(120, lambda: table1.run_table1(
                names=BATCH, parallel=2))
            assert pool.spinups == spinups + 1
            assert [key(r) for r in result.rows] == \
                [key(r) for r in undisturbed.rows]
        finally:
            close_pool()
