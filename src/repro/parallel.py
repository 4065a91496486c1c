"""Parallel batch reconstruction: many workloads, one merged report.

Reconstructions of distinct failures are embarrassingly parallel — each
one owns its module clone, production site, term space, and solver
cache — so the batch runner fans workloads out over a
:class:`WorkerPool`.  Process (not thread) workers sidestep the GIL:
shepherded symbolic execution is pure Python and CPU-bound.

The pool is one process-wide ``concurrent.futures.ProcessPoolExecutor``,
created lazily on the first job and *reused* across batch runs (and the
Table-1 harness) instead of paying a fresh spin-up per call.
:meth:`WorkerPool.run` submits a list of calls and returns their
results in input order.  :func:`close_pool` (also registered atexit)
tears the shared pool down explicitly.

Every worker runs under its own telemetry registry and ships back a
picklable :class:`BatchItem` — outcome summary, metric snapshot, and
(optionally) the structured event stream.  The parent merges the
snapshots with :func:`repro.telemetry.merge_snapshots` and can write a
single combined JSONL log (each event tagged with its workload) that
``repro stats`` renders like any single-run log.

``parallel=1`` degrades to a plain in-process loop — same code path,
same reports, no executor — which is also the serial baseline that
``repro bench`` compares against to measure the speedup.

Everything that crosses a process boundary here carries *trace
context*: the parent captures :meth:`Telemetry.trace_context` inside
its ``parallel.batch`` span and hands it to every worker, whose
registry joins the parent's trace (same ``trace_id``, root spans
parented on the handoff span) and rebases its clock onto the parent
timeline — so a merged event stream renders as one causally-linked
tree in the Perfetto exporter.  The pool also meters its own
coordination overhead from per-task wall-clock stamps:
``parallel.queue_wait_seconds`` (submit → start in the worker),
``parallel.worker_idle_seconds`` (gaps between consecutive tasks on one
worker), and ``parallel.pool_spinup`` / ``pool_teardown`` spans —
surfaced by ``repro stats`` as the overhead-attribution table.
"""

from __future__ import annotations

import atexit
import json
import logging
import os
import pathlib
import time
import traceback
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Dict, Iterable, List, \
    Optional, Sequence, Tuple, Union

from . import telemetry
from .core import ExecutionReconstructor, ProductionSite
from .trace.degrade import gap_count
from .workloads import get_workload, workload_names

if TYPE_CHECKING:
    from concurrent.futures import ProcessPoolExecutor

__all__ = ["BatchItem", "BatchResult", "WorkerPool", "close_pool",
           "get_pool", "in_pool_worker", "measure_incremental_ab",
           "run_batch", "write_merged_jsonl"]

logger = logging.getLogger(__name__)


@dataclass
class BatchItem:
    """One workload's reconstruction outcome, picklable across processes."""

    workload: str
    success: bool = False
    verified: bool = False
    occurrences: int = 0
    unrelated_occurrences: int = 0
    wall_seconds: float = 0.0
    symex_modelled_seconds: float = 0.0
    recorded_bytes: int = 0
    solver_cache: Dict[str, float] = field(default_factory=dict)
    error: Optional[str] = None
    #: pid of the pool process that ran this workload (load balance)
    worker: int = 0
    #: this worker's full metric snapshot
    telemetry: Dict = field(default_factory=dict)
    #: structured event stream (only when events were requested)
    events: List[Dict] = field(default_factory=list)

    def to_dict(self) -> Dict:
        return {
            "workload": self.workload,
            "success": self.success,
            "verified": self.verified,
            "occurrences": self.occurrences,
            "unrelated_occurrences": self.unrelated_occurrences,
            "wall_seconds": round(self.wall_seconds, 4),
            "symex_modelled_seconds":
                round(self.symex_modelled_seconds, 4),
            "recorded_bytes": self.recorded_bytes,
            "solver_cache": self.solver_cache,
            "error": self.error,
            "worker": self.worker,
        }


@dataclass
class BatchResult:
    """The merged outcome of one batch run."""

    items: List[BatchItem]
    parallelism: int
    wall_seconds: float
    #: all workers' metric snapshots folded into one
    telemetry: Dict = field(default_factory=dict)

    @property
    def succeeded(self) -> int:
        return sum(1 for i in self.items if i.success)

    @property
    def solver_cache_stats(self) -> Dict[str, float]:
        return _solver_cache_stats(self.telemetry.get("counters", {}))

    @property
    def worker_load(self) -> Dict[str, Dict[str, float]]:
        """Per-worker load balance: tasks run and wall-time, keyed by pid."""
        load: Dict[str, Dict[str, float]] = {}
        for item in self.items:
            entry = load.setdefault(str(item.worker),
                                    {"tasks": 0, "wall_seconds": 0.0})
            entry["tasks"] += 1
            entry["wall_seconds"] = round(
                entry["wall_seconds"] + item.wall_seconds, 4)
        return load

    @property
    def overhead(self) -> Dict[str, Dict]:
        """Coordination-overhead attribution over the merged snapshot."""
        return telemetry.overhead_attribution(self.telemetry)

    def to_dict(self) -> Dict:
        return {
            "parallelism": self.parallelism,
            "wall_seconds": round(self.wall_seconds, 4),
            "succeeded": self.succeeded,
            "total": len(self.items),
            "solver_cache": self.solver_cache_stats,
            "worker_load": self.worker_load,
            "overhead": self.overhead,
            "items": [item.to_dict() for item in self.items],
        }


def _solver_cache_stats(counters: Dict) -> Dict[str, float]:
    """Fold every cache-hit tier into one effectiveness summary.

    ``hits`` already includes exact, subsumption, and disk answers (the
    top-level solver paths bump it alongside the tier counter), but a
    successful *model probe* is recorded as a miss plus
    ``model_probe_hits`` — so queries answered without a solver search
    are ``hits + model_probe_hits`` out of ``hits + misses``.  Each
    tier is reported alongside the folded rate.
    """
    hits = counters.get("solver.cache.hits", 0)
    misses = counters.get("solver.cache.misses", 0)
    probes = counters.get("solver.cache.model_probe_hits", 0)
    total = hits + misses
    return {
        "hits": hits,
        "misses": misses,
        "model_probe_hits": probes,
        "subsumption_hits":
            counters.get("solver.cache.subsumption_hits", 0),
        "disk_hits": counters.get("solver.cache.disk_hits", 0),
        "disk_hits_exact":
            counters.get("solver.cache.disk_hits_exact", 0),
        "disk_hits_subsume":
            counters.get("solver.cache.disk_hits_subsume", 0),
        "disk_hits_values":
            counters.get("solver.cache.disk_hits_values", 0),
        "hit_rate": round((hits + probes) / total, 4) if total else 0.0,
    }


def _reconstruct_one(name: str, capture_events: bool,
                     cache_dir: Optional[str] = None,
                     context: Optional[telemetry.TraceContext] = None
                     ) -> BatchItem:
    """Worker body: one workload under a private telemetry registry.

    Runs in a pool process (or inline for ``parallel=1``); must only
    return picklable data, so the report's module/test-case objects are
    reduced to scalars here rather than shipped back.  ``context`` links
    the registry into the parent's trace.
    """
    sink = telemetry.MemorySink() if capture_events else None
    registry = telemetry.Telemetry(sink, context=context)
    item = BatchItem(workload=name, worker=os.getpid())
    started = time.perf_counter()
    with telemetry.scoped(registry):
        try:
            workload = get_workload(name)
            reconstructor = ExecutionReconstructor(
                workload.fresh_module(),
                work_limit=workload.work_limit,
                max_occurrences=workload.max_occurrences,
                cache_dir=cache_dir)
            report = reconstructor.reconstruct(
                ProductionSite(workload.failing_env))
            item.success = report.success
            item.verified = report.verified
            item.occurrences = report.occurrences
            item.unrelated_occurrences = report.unrelated_occurrences
            item.symex_modelled_seconds = \
                report.total_symex_modelled_seconds
            item.recorded_bytes = report.total_recorded_bytes
        except Exception as exc:  # noqa: BLE001 — report, don't kill batch
            item.error = _error_text(exc)
        if capture_events:
            registry.emit_snapshot()
    item.wall_seconds = time.perf_counter() - started
    item.telemetry = registry.snapshot()
    item.solver_cache = _solver_cache_stats(
        item.telemetry.get("counters", {}))
    if sink is not None:
        item.events = sink.events
    return item


def run_batch(names: Optional[Sequence[str]] = None, *,
              parallel: int = 1,
              capture_events: bool = False,
              cache_dir: Optional[str] = None,
              pool: Optional[WorkerPool] = None) -> BatchResult:
    """Reconstruct ``names`` (default: every workload), ``parallel``-wide.

    Results come back in input order regardless of completion order.  A
    workload that raises contributes a :class:`BatchItem` with ``error``
    set instead of aborting the batch.  ``cache_dir`` points every
    worker at one shared persistent solver cache.  ``pool`` overrides
    the process-wide shared :class:`WorkerPool`; by default the batch
    reuses (and, first time, lazily spawns) the shared one, so repeated
    batches pay at most one spin-up.
    """
    names = list(names) if names is not None else workload_names()
    if parallel < 1:
        raise ValueError(f"parallel must be >= 1, got {parallel}")
    tel = telemetry.get()
    started = time.perf_counter()
    with tel.span("parallel.batch", workloads=len(names),
                  parallel=parallel):
        context = tel.trace_context()
        # pool overhead (spin-up, queue wait, worker idle) is metered on
        # a registry of its own so it joins the *merged* snapshot (the
        # parent's registry is not part of the per-item merge); it
        # shares the parent's sink and trace, so the spin-up span still
        # shows in a live trace.  A reused pool records no spin-up —
        # the amortization the benchmark checks.
        overhead = telemetry.Telemetry(tel.sink, context=context)
        if parallel == 1 or len(names) <= 1:
            items = [_reconstruct_one(name, capture_events, cache_dir,
                                      context)
                     for name in names]
        else:
            target = pool if pool is not None else get_pool(
                min(parallel, len(names)))
            with telemetry.scoped(overhead):
                items = target.run([
                    (_reconstruct_one,
                     (name, capture_events, cache_dir, context))
                    for name in names])
    wall = time.perf_counter() - started
    merged = telemetry.merge_snapshots(
        [item.telemetry for item in items] + [overhead.snapshot()])
    telemetry.count("parallel.batches")
    telemetry.count("parallel.workloads", len(items))
    return BatchResult(items=items, parallelism=parallel,
                       wall_seconds=wall, telemetry=merged)


def write_merged_jsonl(result: BatchResult,
                       path: Union[str, pathlib.Path]) -> int:
    """Write all workers' event streams as one combined JSONL log.

    Events keep their per-worker ``seq``/``ts`` and gain a ``workload``
    field; a final ``snapshot`` event carries the *merged* metrics so
    ``repro stats`` renders whole-batch counters.  The snapshot's
    ``seq`` is strictly past every merged event's (the per-worker
    sequences overlap, so a line count would collide with them) and its
    ``ts`` is the latest merged timestamp (a registry-relative instant,
    like every other event — not the batch duration).  Returns the
    number of lines written.
    """
    lines = 0
    max_seq = 0
    max_ts = 0.0
    with open(path, "w", encoding="utf-8") as fh:
        for item in result.items:
            for event in item.events:
                if event.get("type") == "snapshot":
                    continue      # superseded by the merged snapshot
                seq = event.get("seq")
                if isinstance(seq, int):
                    max_seq = max(max_seq, seq)
                ts = event.get("ts")
                if isinstance(ts, (int, float)):
                    max_ts = max(max_ts, float(ts))
                fh.write(json.dumps({**event, "workload": item.workload},
                                    default=str) + "\n")
                lines += 1
        fh.write(json.dumps({
            "type": "snapshot", "name": "telemetry.snapshot",
            "seq": max_seq + 1, "ts": round(max_ts, 6),
            "metrics": result.telemetry,
        }) + "\n")
    return lines + 1


def _init_pool_worker() -> None:
    """Executor initializer: mark the process as a pool worker.

    It also gives the worker a registry of its own: a forked worker
    inherits the parent's, whose sink may be an open ``--telemetry``
    file.
    """
    global _IN_POOL_WORKER
    _IN_POOL_WORKER = True
    telemetry.set_current(telemetry.Telemetry())


def _pool_task(func: Callable, args: tuple
               ) -> Tuple[int, float, float, Any, Optional[str]]:
    """Worker-side wrapper: run one call and stamp it.

    Returns ``(pid, started, finished, result, error)`` with wall-clock
    stamps; an exception comes back as ``error`` text, so the worker
    (and the executor) survive it.
    """
    started = time.time()
    try:
        result, error = func(*args), None
    except Exception as exc:  # noqa: BLE001 — shipped back as text
        result, error = None, _error_text(exc)
    return os.getpid(), started, time.time(), result, error


def _error_text(exc: BaseException) -> str:
    return "".join(traceback.format_exception_only(type(exc), exc)).strip()


def _worker_idle_gaps(stamps: Iterable[Tuple[int, float, float]]
                      ) -> List[float]:
    """Idle time between consecutive tasks on each worker.

    ``stamps`` holds one ``(pid, started, finished)`` triple per task;
    each worker's tasks are ordered by start and every gap from one
    task's end to the next one's start is returned (clamped at zero).
    """
    by_pid: Dict[int, List[Tuple[float, float]]] = {}
    for pid, started, finished in stamps:
        by_pid.setdefault(pid, []).append((started, finished))
    gaps: List[float] = []
    for runs in by_pid.values():
        runs.sort()
        for (_, previous_end), (started, _) in zip(runs, runs[1:]):
            gaps.append(max(started - previous_end, 0.0))
    return gaps


#: set in pool worker processes: they must not spawn nested pools
_IN_POOL_WORKER = False


def in_pool_worker() -> bool:
    """True inside a pool worker — callers use this to fall back to
    serial/inline paths instead of nesting pools."""
    return _IN_POOL_WORKER


class WorkerPool:
    """A ``workers``-wide process pool that runs one job at a time.

    The executor is created on the first :meth:`run` and reused by
    every later one, so repeated batches pay one spin-up.  A worker
    that dies breaks the executor; the pool discards it and the next
    :meth:`run` makes a fresh one.
    """

    def __init__(self, workers: int):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self.closed = False
        #: lifetime counters (also mirrored into telemetry)
        self.spinups = 0
        self.jobs = 0
        self._executor: Optional[ProcessPoolExecutor] = None

    def pids(self) -> List[int]:
        """The live worker pids (empty before the first job)."""
        # the executor has no public view of its workers; its
        # ``_processes`` dict (pid -> Process) is it.  Peak-RSS probes
        # sum these workers' memory, so an empty list would under-report.
        processes = (self._executor._processes
                     if self._executor is not None else None)
        return list(processes or ())

    def run(self, calls: Sequence[Tuple[Callable, tuple]]) -> List[Any]:
        """Run ``(func, args)`` calls on the workers; results in input
        order.

        A call that raises fails the job with a ``RuntimeError`` carrying
        its exception text, once every call has finished; the workers
        live on.  A worker that dies mid-job also raises
        ``RuntimeError``, and the broken executor is discarded.  Meters
        spin-up, queue wait and worker idle time into the current
        registry.
        """
        # imported here: most importers of this module never start a
        # pool, and the executor's imports cost them start-up time
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool

        if self.closed:
            raise RuntimeError("worker pool is closed")
        if not calls:
            return []
        tel = telemetry.get()
        self.jobs += 1
        tel.count("parallel.pool.jobs")
        tel.count("parallel.pool.tasks", len(calls))
        futures = []
        submitted = []
        try:
            if self._executor is None:
                self._executor = ProcessPoolExecutor(
                    self.workers, initializer=_init_pool_worker)
                # under fork, the first submit starts every worker
                # before it returns: that submit is the spin-up
                with tel.span("parallel.pool_spinup",
                              workers=self.workers):
                    submitted.append(time.time())
                    futures.append(self._executor.submit(
                        _pool_task, *calls[0]))
                self.spinups += 1
                tel.count("parallel.pool.spinups")
            for func, args in calls[len(futures):]:
                submitted.append(time.time())
                futures.append(self._executor.submit(_pool_task, func,
                                                     args))
            outcomes = [future.result() for future in futures]
        except BrokenProcessPool as exc:
            self._discard()
            raise RuntimeError(
                f"a pool worker died mid-job ({exc}); the pool "
                f"respawns on the next job") from exc
        wait = tel.histogram("parallel.queue_wait_seconds")
        for enqueued, (_, started, _, _, _) in zip(submitted, outcomes):
            wait.record(max(started - enqueued, 0.0))
        idle = tel.histogram("parallel.worker_idle_seconds")
        for gap in _worker_idle_gaps(
                (pid, started, finished)
                for pid, started, finished, _, _ in outcomes):
            idle.record(gap)
        for index, (func, _) in enumerate(calls):
            error = outcomes[index][4]
            if error is not None:
                raise RuntimeError(f"pool task {index} "
                                   f"({func.__name__}) failed: {error}")
        return [outcome[3] for outcome in outcomes]

    def close(self) -> None:
        """Tear the pool down for good (idempotent)."""
        if self.closed:
            return
        self.closed = True
        if self._executor is not None:
            with telemetry.get().span("parallel.pool_teardown",
                                      workers=self.workers):
                self._discard()

    def _discard(self) -> None:
        executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=True)


#: the process-wide shared pool (lazily created)
_POOL: Optional[WorkerPool] = None


def get_pool(workers: int) -> WorkerPool:
    """The process-wide shared :class:`WorkerPool`, at least ``workers``
    wide.  All pool consumers (batches and the Table-1 harness) share
    it, which is what amortizes the spin-up; a wider request replaces
    it with a new pool."""
    global _POOL
    if in_pool_worker():
        raise RuntimeError("nested worker pools are not supported")
    if _POOL is not None and (_POOL.closed or _POOL.workers < workers):
        _POOL.close()
        _POOL = None
    if _POOL is None:
        _POOL = WorkerPool(workers)
    return _POOL


def close_pool() -> None:
    """Tear down the shared pool (atexit hook; also callable directly)."""
    global _POOL
    if _POOL is not None:
        _POOL.close()
        _POOL = None


atexit.register(close_pool)


def measure_incremental_ab(workload_name: str = "sqlite-7be932d", *,
                           mapping_loss: float = 0.085,
                           work_scale: int = 20) -> Dict:
    """A/B the assumption-stack reuse on the serial gap-recovery search.

    Runs the same degraded trace through
    :func:`~repro.symex.gaps.replay_with_gap_recovery` twice —
    ``incremental=False`` (every sibling attempt re-solved from
    scratch) then ``incremental=True`` (an
    :class:`~repro.solver.incremental.AssumptionStack`) — each under a
    fresh telemetry registry, and totals the solver work actually
    charged (the ``solver.work_per_query`` histogram).  Returns a
    JSON-ready dict with both legs and the relative
    ``solver_work_reduction``; correctness is part of the record
    (``verdicts_equal``/``models_equal`` — the two legs must agree bit
    for bit, incrementality is an optimization only).  Both legs are
    deterministic, so the measured reduction is reproducible.
    """
    from .symex.gaps import replay_with_gap_recovery

    workload = get_workload(workload_name)
    module = workload.fresh_module()
    occurrence = ProductionSite(workload.failing_env,
                                mapping_loss=mapping_loss,
                                per_cpu_buffers=True).run_once(module)
    work_limit = workload.work_limit * work_scale
    legs: Dict[str, Dict] = {}
    models: Dict[str, Optional[Dict]] = {}
    statuses: Dict[str, str] = {}
    for label, incremental in (("scratch", False), ("incremental", True)):
        registry = telemetry.Telemetry()
        started = time.perf_counter()
        with telemetry.scoped(registry):
            result = replay_with_gap_recovery(
                module, occurrence.trace, occurrence.failure,
                work_limit=work_limit, incremental=incremental)
        wall = time.perf_counter() - started
        snapshot = registry.snapshot()
        work = snapshot.get("histograms", {}).get(
            "solver.work_per_query", {})
        counters = snapshot.get("counters", {})
        legs[label] = {
            "status": result.status,
            "gap_attempts": result.gap_attempts,
            "wall_seconds": round(wall, 4),
            "solver_work": int(work.get("sum", 0)),
            "solver_queries": int(work.get("count", 0)),
            "reused_terms": int(counters.get(
                "solver.incremental.reused_terms", 0)),
        }
        models[label] = (result.model.assignment
                         if result.model is not None else None)
        statuses[label] = result.status
    scratch_work = legs["scratch"]["solver_work"]
    incremental_work = legs["incremental"]["solver_work"]
    reduction = (1.0 - incremental_work / scratch_work
                 if scratch_work else 0.0)
    return {
        "workload": workload_name,
        "mapping_loss": mapping_loss,
        "gap_count": gap_count(occurrence.trace),
        "scratch": legs["scratch"],
        "incremental": legs["incremental"],
        "solver_work_reduction": round(reduction, 4),
        "verdicts_equal": statuses["scratch"] == statuses["incremental"],
        "models_equal": models["scratch"] == models["incremental"],
    }
