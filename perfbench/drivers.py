"""Workload drivers: one pass over the 13 Table-1 failures each.

Every driver reaches the reconstructor only through a public entry
point and reduces each reconstruction to an :class:`Outcome`:

* ``table1-exact`` and ``mapping-loss`` call
  ``ExecutionReconstructor.reconstruct`` with a ``ProductionSite``,
  serially in this process, with the in-memory solver cache only;
* ``batch-pool`` calls ``repro.parallel.run_batch`` on two pool
  workers that share one solver-cache directory;
* ``fleet-serve`` runs ``repro.serve.FleetService`` with two
  instances, one service per failure in turn, and a fresh cache
  directory for each pass.

All of them use the reconstructor's default configuration (no
portfolio, pipeline or shards).  A pass runs under a fresh telemetry
registry, so its counters cover that pass alone.
"""

from __future__ import annotations

import ctypes
import os
import pathlib
import shutil
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro import telemetry
from repro.core import ExecutionReconstructor, ProductionSite
from repro.parallel import WorkerPool, close_pool, get_pool, run_batch
from repro.serve import FleetService
from repro.solver.budget import WORK_PER_SECOND
from repro.workloads import all_workloads

#: the control-flow mapping loss the paper measures (§4)
MAPPING_LOSS = 0.085
BATCH_WORKERS = 2
FLEET_INSTANCES = 2


@dataclass
class Outcome:
    """What one reconstruction returned, as the entry point reports it.

    Fields an entry point does not report per failure stay ``None``:
    ``run_batch`` returns no test-case streams, and ``FleetService``
    returns neither recorded bytes nor solver work per bucket.
    """

    failure: str
    latency_s: float
    success: bool = False
    verified: bool = False
    occurrences: int = 0
    unrelated_occurrences: Optional[int] = None
    recorded_bytes: Optional[int] = None
    solver_work: Optional[int] = None
    streams: Optional[Dict[str, bytes]] = None
    quantum: Optional[int] = None
    error: Optional[str] = None


@dataclass
class PassResult:
    """One pass: its wall time, its outcomes and what the layers
    reported about it."""

    wall_s: float
    outcomes: List[Outcome]
    #: the pass's telemetry counters (all pool workers folded in)
    counters: Dict[str, int]
    #: pass totals over the successful reconstructions
    recorded_bytes: int = 0
    solver_work: int = 0
    #: per-layer figures the entry point itself reports
    layers: Dict[str, float] = field(default_factory=dict)
    #: telemetry events shipped back by pool workers (traced passes)
    events: List[Dict] = field(default_factory=list)


def _error_text(exc: BaseException) -> str:
    return "".join(traceback.format_exception_only(type(exc), exc)).strip()


def _work_units(modelled_seconds: float) -> int:
    return round(modelled_seconds * WORK_PER_SECOND)


def _histogram_sum(snapshot: Dict, name: str) -> float:
    return snapshot.get("histograms", {}).get(name, {}).get("sum", 0.0)


class Driver:
    """Shared set-up: build the 13 modules once, before any pass."""

    def __init__(self, workdir: pathlib.Path):
        self.workdir = workdir
        self.workloads = {w.name: w for w in all_workloads()}

    @property
    def failures(self) -> List[str]:
        return list(self.workloads)

    def setup(self) -> None:
        for workload in self.workloads.values():
            workload.module()

    def run_pass(self, order: Sequence[str],
                 traced: bool = False) -> PassResult:
        raise NotImplementedError

    def pids(self) -> List[int]:
        """The processes whose memory the benchmark counts."""
        return [os.getpid()]

    def close(self) -> None:
        pass


class InProcessDriver(Driver):
    """Serial in-process reconstructions (``repro reproduce``'s path)."""

    def __init__(self, workdir: pathlib.Path, mapping_loss: float):
        super().__init__(workdir)
        self.mapping_loss = mapping_loss

    def _reconstruct(self, name: str) -> Outcome:
        workload = self.workloads[name]
        lossy = self.mapping_loss > 0
        started = time.perf_counter()
        try:
            reconstructor = ExecutionReconstructor(
                workload.fresh_module(),
                work_limit=workload.work_limit,
                max_occurrences=workload.max_occurrences,
                trace_recovery=lossy)
            report = reconstructor.reconstruct(ProductionSite(
                workload.failing_env, mapping_loss=self.mapping_loss,
                per_cpu_buffers=lossy))
        except Exception as exc:  # noqa: BLE001 — counted as failed
            return Outcome(name, time.perf_counter() - started,
                           error=_error_text(exc))
        latency = time.perf_counter() - started
        test_case = report.test_case
        return Outcome(
            name, latency, success=report.success,
            verified=report.verified, occurrences=report.occurrences,
            unrelated_occurrences=report.unrelated_occurrences,
            recorded_bytes=report.total_recorded_bytes,
            solver_work=sum(_work_units(it.symex_modelled_seconds)
                            for it in report.iterations),
            streams=dict(test_case.streams) if test_case else None,
            quantum=test_case.quantum if test_case else None)

    def run_pass(self, order, traced=False):
        registry = telemetry.Telemetry()
        with telemetry.scoped(registry):
            started = time.perf_counter()
            outcomes = [self._reconstruct(name) for name in order]
            wall = time.perf_counter() - started
        done = [o for o in outcomes if o.success]
        return PassResult(
            wall, outcomes, registry.snapshot()["counters"],
            recorded_bytes=sum(o.recorded_bytes for o in done),
            solver_work=sum(o.solver_work for o in done))


class BatchPoolDriver(Driver):
    """``run_batch`` on the shared two-worker pool, one cache directory.

    Set-up fills the cache with one untimed pass, which also spins the
    shared pool up, so timed passes read a warm store.  In a trace run
    every pass forks a private pool instead, so that traced and
    untraced passes both run on fresh workers: a traced pass forks its
    pool while the tracer's wrappers are installed, and its workers
    inherit them.
    """

    def __init__(self, workdir: pathlib.Path, private_pools: bool):
        super().__init__(workdir)
        self.private_pools = private_pools

    def setup(self):
        super().setup()
        self.cache_dir = str(self.workdir / "solver-cache")
        run_batch(self.failures, parallel=BATCH_WORKERS,
                  cache_dir=self.cache_dir)

    def run_pass(self, order, traced=False):
        pool = WorkerPool(BATCH_WORKERS) if self.private_pools else None
        try:
            started = time.perf_counter()
            result = run_batch(order, parallel=BATCH_WORKERS,
                               cache_dir=self.cache_dir,
                               capture_events=traced, pool=pool)
            wall = time.perf_counter() - started
        finally:
            if pool is not None:
                pool.close()
        outcomes = [Outcome(
            item.workload, item.wall_seconds, success=item.success,
            verified=item.verified, occurrences=item.occurrences,
            unrelated_occurrences=item.unrelated_occurrences,
            recorded_bytes=item.recorded_bytes,
            solver_work=_work_units(item.symex_modelled_seconds),
            error=item.error) for item in result.items]
        busy: Dict[int, float] = {}
        for item in result.items:
            busy[item.worker] = busy.get(item.worker, 0.0) + item.wall_seconds
        done = [o for o in outcomes if o.success]
        return PassResult(
            wall, outcomes, result.telemetry.get("counters", {}),
            recorded_bytes=sum(o.recorded_bytes for o in done),
            solver_work=sum(o.solver_work for o in done),
            layers={
                "parallel.spinup_s": _histogram_sum(
                    result.telemetry, "span.parallel.pool_spinup"),
                "parallel.tasks": len(result.items),
                "parallel.busy_share": sum(busy.values())
                / (BATCH_WORKERS * result.wall_seconds),
                "parallel.coord_s": result.wall_seconds - max(busy.values()),
            },
            events=[event for item in result.items for event in item.events])

    def pids(self):
        return [os.getpid()] + get_pool(BATCH_WORKERS).pids()

    def close(self):
        close_pool()


class FleetServeDriver(Driver):
    """``FleetService`` over each of the 13 failures in turn.

    One service per failure keeps four threads alive at a time (two
    instances, the dispatcher and the bucket job) instead of two
    instances per failure for all 13 at once.  The process is pinned
    to one CPU for the run: the threads take turns under the GIL
    anyway, and a hand-off between threads on one CPU needs no
    cross-CPU wake-up, whose latency follows the load of a shared
    host rather than the program.
    """

    def setup(self):
        super().setup()
        self.affinity = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {max(self.affinity)})

    def close(self):
        affinity = getattr(self, "affinity", None)
        if affinity is not None:
            os.sched_setaffinity(0, affinity)

    def run_pass(self, order, traced=False):
        cache_dir = tempfile.mkdtemp(prefix="fleet-", dir=self.workdir)
        registry = telemetry.Telemetry()
        try:
            with telemetry.scoped(registry):
                started = time.perf_counter()
                summaries = [FleetService([name], instances=FLEET_INSTANCES,
                                          parallel=1,
                                          cache_dir=cache_dir).run()
                             for name in order]
                wall = time.perf_counter() - started
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)
        buckets = [bucket for summary in summaries
                   for bucket in summary.buckets]
        outcomes = []
        for bucket in buckets:
            workload = self.workloads[bucket.workload]
            outcomes.append(Outcome(
                bucket.workload, bucket.wall_seconds,
                success=bucket.success,
                verified=bucket.verified,
                occurrences=bucket.occurrences_consumed,
                streams={name: bytes.fromhex(data)
                         for name, data in bucket.streams.items()}
                if bucket.success else None,
                # a bucket summary carries no quantum: a test case runs
                # with the scheduler quantum of the production runs
                quantum=workload.failing_env(1).quantum,
                error=bucket.error))
        for summary in summaries:
            for name, error in summary.unserviced.items():
                outcomes.append(Outcome(name, float("inf"), error=error))
        snapshot = registry.snapshot()
        reports = sum(summary.reports for summary in summaries)
        deduplicated = sum(b.deduplicated for b in buckets)
        return PassResult(
            wall, outcomes, snapshot["counters"],
            recorded_bytes=round(_histogram_sum(
                snapshot, "selection.recording_cost")),
            solver_work=snapshot["counters"].get("symex.solver_work", 0),
            layers={
                "serve.wait_s": sum(b.wait_seconds for b in buckets),
                "serve.reports": reports,
                "serve.instance_runs": sum(summary.instance_runs
                                           for summary in summaries),
                "serve.dedup_ratio": deduplicated / reports if reports
                else 0.0,
            })


WORKLOADS = ("table1-exact", "mapping-loss", "batch-pool", "fleet-serve")


def make_driver(workload: str, workdir: pathlib.Path,
                trace: bool = False) -> Driver:
    if workload == "table1-exact":
        return InProcessDriver(workdir, 0.0)
    if workload == "mapping-loss":
        return InProcessDriver(workdir, MAPPING_LOSS)
    if workload == "batch-pool":
        return BatchPoolDriver(workdir, private_pools=trace)
    if workload == "fleet-serve":
        return FleetServeDriver(workdir)
    raise ValueError(f"unknown workload {workload!r}; "
                     f"choose from {', '.join(WORKLOADS)}")


def release_free_memory() -> None:
    """Hand the C heap's free pages back to the kernel (glibc's
    ``malloc_trim``), so that each pass's peak resident memory starts
    from what is in use rather than from what earlier passes left
    fragmented in the heap.  A no-op on other C libraries."""
    trim = getattr(ctypes.CDLL(None), "malloc_trim", None)
    if trim is not None:
        trim(0)


def reset_peak_rss(pids: Sequence[int]) -> None:
    """Restart the kernel's peak-resident-memory mark of each process.

    Where the kernel refuses the reset (a sandbox that allows no writes
    outside the repository), the mark keeps counting from the start of
    the process instead.
    """
    for pid in pids:
        try:
            pathlib.Path(f"/proc/{pid}/clear_refs").write_text("5")
        except OSError:
            pass


def peak_rss_mb(pids: Sequence[int]) -> float:
    """Peak resident memory summed over processes, since their last
    :func:`reset_peak_rss` (Linux ``VmHWM``)."""
    total_kb = 0
    for pid in pids:
        status = pathlib.Path(f"/proc/{pid}/status").read_text()
        total_kb += int(status.split("VmHWM:")[1].split()[0])
    return total_kb / 1024.0


def new_workdir(base: pathlib.Path) -> pathlib.Path:
    base.mkdir(parents=True, exist_ok=True)
    return pathlib.Path(tempfile.mkdtemp(prefix=f"run-{os.getpid()}-",
                                         dir=base))
