"""The traced run: spans around the calls into each layer.

:func:`installed` wraps the public functions of each layer for the
duration of a pass; the original functions are restored afterwards,
so untraced passes run the program untouched.  A span is named after
the layer it enters (``solver.is_feasible``, ``interp.run``, ...).

* Span stacks are thread-local (``fleet-serve`` runs production and
  analysis on separate threads).  Each thread keeps its finished spans
  in memory; :meth:`Tracer.collect` merges them at the end of a pass.
* A span's self time is its wall time minus the wall time of its
  child spans on the same thread.
* The spans of one reconstruction share an id, opened by
  ``ExecutionReconstructor.reconstruct``.  Spans outside any
  reconstruction (fleet production threads) have none.
* The evaluator (``tv_eval``, ~212 K calls per ``table1-exact`` pass)
  is traced as an aggregate: each call adds to a per-thread call count
  and total, and to its parent's child time, but keeps no span record.
* Pool workers are forked processes, so the parent cannot see their
  spans.  A worker forked while the wrappers are installed records its
  own, and at the end of each reconstruction ships them back as one
  ``perfbench.trace`` telemetry event, which ``run_batch`` returns
  with the batch item when ``capture_events`` is on.
"""

from __future__ import annotations

import functools
import itertools
import os
import statistics
import threading
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from importlib import import_module
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro import telemetry
from repro.core.reconstructor import ExecutionReconstructor
from repro.interp.interpreter import Interpreter
from repro.solver.diskcache import DiskSolverCache
from repro.solver.solver import Solver
from repro.symex.engine import ShepherdedSymex

ROOT_SPAN = "core.reconstruct"
WORKER_EVENT = "perfbench.trace"

#: (name, parent name, reconstruction id, thread id, start, wall, self)
Span = Tuple[str, Optional[str], Optional[str], int, float, float, float]


@dataclass
class TraceData:
    """Spans, aggregated leaf calls and counts from one traced pass."""

    spans: List[Span] = field(default_factory=list)
    #: leaf span name -> [calls, total seconds]
    leaves: Dict[str, List] = field(default_factory=dict)
    counts: Counter = field(default_factory=Counter)

    def absorb(self, spans: Iterable, leaves: Dict, counts: Dict) -> None:
        self.spans.extend(tuple(span) for span in spans)
        for name, (calls, seconds) in leaves.items():
            total = self.leaves.setdefault(name, [0, 0.0])
            total[0] += calls
            total[1] += seconds
        self.counts.update(counts)

    def absorb_events(self, events: Iterable[Dict]) -> None:
        """Fold in the spans pool workers shipped back as events."""
        for event in events:
            if event.get("name") == WORKER_EVENT:
                attrs = event["attrs"]
                self.absorb(attrs["spans"], attrs["leaves"], attrs["counts"])


class _Frame:
    __slots__ = ("name", "start", "child", "recon")

    def __init__(self, name: str, start: float, recon: Optional[str]):
        self.name = name
        self.start = start
        self.child = 0.0
        self.recon = recon


class _ThreadLog:
    def __init__(self):
        self.stack: List[_Frame] = []
        self.data = TraceData()


class Tracer:
    """Records the spans of one traced pass."""

    def __init__(self):
        self.pid = os.getpid()
        self._local = threading.local()
        self._logs: List[_ThreadLog] = []
        self._lock = threading.Lock()
        self._recon_ids = itertools.count(1)

    def _log(self) -> _ThreadLog:
        try:
            return self._local.log
        except AttributeError:
            log = self._local.log = _ThreadLog()
            with self._lock:
                self._logs.append(log)
            return log

    def span(self, name: str, func: Callable,
             observe: Optional[Callable] = None) -> Callable:
        """``func`` wrapped in a span; ``observe(counts, result, args)``
        records counts from a call that returned."""

        @functools.wraps(func)
        def traced(*args, **kwargs):
            log = self._log()
            stack = log.stack
            if stack:
                parent, recon = stack[-1].name, stack[-1].recon
            else:
                parent = None
                recon = (f"{os.getpid()}.{next(self._recon_ids)}"
                         if name == ROOT_SPAN else None)
            frame = _Frame(name, time.perf_counter(), recon)
            stack.append(frame)
            try:
                result = func(*args, **kwargs)
            finally:
                wall = time.perf_counter() - frame.start
                stack.pop()
                if stack:
                    stack[-1].child += wall
                log.data.spans.append(
                    (name, parent, recon, threading.get_ident(),
                     frame.start, wall, wall - frame.child))
                if not stack and os.getpid() != self.pid:
                    self._ship(log)
            if observe is not None:
                observe(log.data.counts, result, args)
            return result

        return traced

    def leaf(self, name: str, func: Callable) -> Callable:
        """``func`` traced as an aggregate: counted, not recorded."""

        @functools.wraps(func)
        def traced(*args, **kwargs):
            start = time.perf_counter()
            try:
                return func(*args, **kwargs)
            finally:
                wall = time.perf_counter() - start
                log = self._log()
                if log.stack:
                    log.stack[-1].child += wall
                total = log.data.leaves.get(name)
                if total is None:
                    log.data.leaves[name] = [1, wall]
                else:
                    total[0] += 1
                    total[1] += wall

        return traced

    @staticmethod
    def _ship(log: _ThreadLog) -> None:
        """In a pool worker: hand the finished reconstruction's spans to
        the worker's telemetry, which returns them with the item."""
        data = log.data
        telemetry.event(WORKER_EVENT, spans=data.spans, leaves=data.leaves,
                        counts=dict(data.counts))
        log.data = TraceData()

    def collect(self) -> TraceData:
        merged = TraceData()
        with self._lock:
            logs = list(self._logs)
        for log in logs:
            merged.absorb(log.data.spans, log.data.leaves, log.data.counts)
        return merged


# -- what is traced -------------------------------------------------------

def _add(key: str, value: Callable) -> Callable:
    def observe(counts, result, args):
        counts[key] += value(result, args)
    return observe


def _targets(tracer: Tracer) -> List[Tuple[object, str, Callable]]:
    """(owner, attribute, wrapper factory) for every traced function.

    Module-level functions are patched in the namespace of the module
    that calls them, since callers bound them at import time.
    """
    lookup_hit = _add("diskcache.lookup.hits",
                      lambda result, args: result is not None)
    span = tracer.span
    return [
        (ExecutionReconstructor, "reconstruct",
         lambda f: span(ROOT_SPAN, f)),
        # the reconstructor binds its selection function as a default
        (ExecutionReconstructor.__init__.__kwdefaults__, "selection",
         lambda f: span("core.selection", f, _add(
             "core.graph_nodes", lambda plan, args: plan.graph_nodes))),
        (import_module("repro.core.reconstructor"), "instrument",
         lambda f: span("core.instrument", f)),
        (import_module("repro.core.reconstructor"), "normalize_failure",
         lambda f: span("core.signature", f)),
        (import_module("repro.serve"), "canonical_signature",
         lambda f: span("core.signature", f)),
        (import_module("repro.solver.solver"), "tv_eval",
         lambda f: tracer.leaf("solver.eval", f)),
        (import_module("repro.solver.model"), "tv_eval",
         lambda f: tracer.leaf("solver.eval", f)),
        (Solver, "is_feasible", lambda f: span("solver.is_feasible", f)),
        (Solver, "solve", lambda f: span("solver.solve", f)),
        (Solver, "feasible_values",
         lambda f: span("solver.feasible_values", f)),
        (ShepherdedSymex, "run", lambda f: span("symex.run", f)),
        (import_module("repro.symex.gaps"), "replay_with_gap_recovery",
         lambda f: span("symex.gap_search", f)),
        (DiskSolverCache, "lookup",
         lambda f: span("diskcache.lookup", f, lookup_hit)),
        (DiskSolverCache, "lookup_values",
         lambda f: span("diskcache.lookup", f, lookup_hit)),
        (DiskSolverCache, "store", lambda f: span("diskcache.store", f)),
        (DiskSolverCache, "store_values",
         lambda f: span("diskcache.store", f)),
        (DiskSolverCache, "refresh", lambda f: span("diskcache.refresh", f)),
        (import_module("repro.solver.segments"), "compact_locked",
         lambda f: span("diskcache.compact", f)),
        (Interpreter, "run", lambda f: span("interp.run", f, _add(
            "interp.instrs", lambda result, args: result.instr_count))),
        (import_module("repro.core.production"), "decode",
         lambda f: span("trace.decode", f, _add(
             "trace.bytes", lambda result, args: args[0].total_written))),
        (import_module("repro.trace.degrade"), "degrade_trace",
         lambda f: span("trace.degrade", f)),
        (import_module("repro.trace.merge"), "merge_trace_by_timestamp",
         lambda f: span("trace.degrade", f)),
    ]


def _get(owner, attr):
    if isinstance(owner, dict):
        return owner[attr]
    if isinstance(owner, type):
        return owner.__dict__[attr]
    return getattr(owner, attr)


def _set(owner, attr, value) -> None:
    if isinstance(owner, dict):
        owner[attr] = value
    else:
        setattr(owner, attr, value)


@contextmanager
def installed(tracer: Tracer):
    """Trace every layer's public functions into ``tracer``."""
    saved = []
    try:
        for owner, attr, wrap in _targets(tracer):
            original = _get(owner, attr)
            saved.append((owner, attr, original))
            _set(owner, attr, wrap(original))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            _set(owner, attr, original)


# -- per-layer metrics ------------------------------------------------------

#: per-layer metrics and their units, in report order
PER_LAYER = (
    ("solver.eval.calls", "count"),
    ("solver.eval.self_s", "s"),
    ("solver.is_feasible.calls", "count"),
    ("solver.is_feasible.self_s", "s"),
    ("solver.solve.calls", "count"),
    ("solver.solve.self_s", "s"),
    ("solver.feasible_values.self_s", "s"),
    ("solver.cache.hit_ratio", "ratio"),
    ("symex.run.calls", "count"),
    ("symex.run.self_s", "s"),
    ("symex.gap_search.calls", "count"),
    ("symex.gap_search.self_s", "s"),
    ("symex.gap_attempts", "count"),
    ("diskcache.lookup.calls", "count"),
    ("diskcache.lookup.self_s", "s"),
    ("diskcache.hit_ratio", "ratio"),
    ("diskcache.store.calls", "count"),
    ("diskcache.store.self_s", "s"),
    ("diskcache.refresh.self_s", "s"),
    ("diskcache.compact.calls", "count"),
    ("parallel.spinup_s", "s"),
    ("parallel.tasks", "count"),
    ("parallel.busy_share", "ratio"),
    ("parallel.coord_s", "s"),
    ("interp.run.calls", "count"),
    ("interp.run.self_s", "s"),
    ("interp.instrs", "count"),
    ("trace.decode.calls", "count"),
    ("trace.decode.self_s", "s"),
    ("trace.bytes", "bytes"),
    ("trace.degrade.self_s", "s"),
    ("core.selection.calls", "count"),
    ("core.selection.self_s", "s"),
    ("core.graph_nodes", "count"),
    ("core.instrument.self_s", "s"),
    ("core.signature.self_s", "s"),
    ("serve.wait_s", "s"),
    ("serve.reports", "count"),
    ("serve.instance_runs", "count"),
    ("serve.dedup_ratio", "ratio"),
    ("bench.trace_overhead", "ratio"),
)


def span_totals(data: TraceData) -> Tuple[Counter, Dict[str, float]]:
    """Calls and self seconds per span name."""
    calls: Counter = Counter()
    self_s: Dict[str, float] = {}
    for name, _parent, _recon, _thread, _start, _wall, own in data.spans:
        calls[name] += 1
        self_s[name] = self_s.get(name, 0.0) + own
    for name, (count, seconds) in data.leaves.items():
        calls[name] += count
        self_s[name] = self_s.get(name, 0.0) + seconds
    return calls, self_s


def layer_self_times(data: TraceData, wall: float) -> Dict[str, float]:
    """Self time per layer (the span name's first part), plus the
    ``other`` remainder of ``wall`` that no span covers."""
    layers: Dict[str, float] = {}
    for name, seconds in span_totals(data)[1].items():
        layer = name.split(".")[0]
        layers[layer] = layers.get(layer, 0.0) + seconds
    layers["other"] = wall - sum(layers.values())
    return layers


def pass_metrics(data: TraceData, counters: Dict[str, int],
                 layers: Dict[str, float]) -> Dict[str, float]:
    """Every per-layer metric of one traced pass (0 where the layer did
    not run).  ``counters`` are the pass's telemetry counters and
    ``layers`` the figures the entry point reported itself."""
    calls, self_s = span_totals(data)
    metrics = {name: 0.0 for name, _unit in PER_LAYER}
    for name in calls:
        if f"{name}.calls" in metrics:
            metrics[f"{name}.calls"] = calls[name]
        if f"{name}.self_s" in metrics:
            metrics[f"{name}.self_s"] = self_s[name]
    metrics["symex.gap_attempts"] = sum(
        1 for span in data.spans
        if span[0] == "symex.run" and span[1] == "symex.gap_search")
    lookups = calls["diskcache.lookup"]
    if lookups:
        metrics["diskcache.hit_ratio"] = (
            data.counts["diskcache.lookup.hits"] / lookups)
    # queries answered without a search: cache hits of every tier plus
    # successful model probes (which the solver counts as misses)
    hits = counters.get("solver.cache.hits", 0)
    asked = hits + counters.get("solver.cache.misses", 0)
    if asked:
        metrics["solver.cache.hit_ratio"] = (
            hits + counters.get("solver.cache.model_probe_hits", 0)) / asked
    for name in ("interp.instrs", "trace.bytes", "core.graph_nodes"):
        metrics[name] = data.counts[name]
    metrics.update((name, value) for name, value in layers.items()
                   if name in metrics)
    return metrics


def median_metrics(passes: List[Dict[str, float]]) -> Dict[str, float]:
    return {name: statistics.median(p[name] for p in passes)
            for name in passes[0]}
