"""The stats folder: JSONL events -> per-iteration breakdown."""

import pytest

from repro.telemetry.stats import (OVERHEAD_SOURCES, final_snapshot,
                                   iteration_rows, overhead_attribution,
                                   render_stats)


def hist(count, total, **extra):
    h = {"count": count, "sum": total, "mean": total / max(count, 1),
         "min": 0.0, "max": total, "p50": 0.0, "p90": 0.0, "p99": 0.0}
    h.update(extra)
    return h


def span(name, dur, **attrs):
    e = {"type": "span", "name": name, "dur_s": dur}
    if attrs:
        e["attrs"] = attrs
    return e


def iteration_end(n, **extra):
    attrs = {"iteration": n, "status": "stalled", "instrs": 100,
             "trace_bytes": 64, "solver_calls": 3, "modelled_s": 1.5,
             "recorded_bytes": 12}
    attrs.update(extra)
    return {"type": "event", "name": "reconstruct.iteration",
            "attrs": attrs}


class TestIterationRows:
    def test_phase_spans_grouped_by_iteration_attr(self):
        events = [
            span("reconstruct.production", 0.5, iteration=1),
            span("reconstruct.symex", 2.0, iteration=1),
            iteration_end(1),
            span("reconstruct.production", 0.25, iteration=2),
            span("reconstruct.symex", 1.0, iteration=2),
            iteration_end(2, status="completed", recorded_bytes=0),
        ]
        rows = iteration_rows(events)
        assert len(rows) == 2
        assert rows[0]["production_s"] == 0.5
        assert rows[0]["symex_s"] == 2.0
        assert rows[0]["status"] == "stalled"
        assert rows[1]["status"] == "completed"
        assert rows[1]["recorded_bytes"] == 0

    def test_nested_decode_attributed_to_enclosing_iteration(self):
        events = [
            span("trace.decode", 0.1),
            span("trace.decode", 0.2),
            iteration_end(1),
            span("trace.decode", 0.4),
            iteration_end(2),
        ]
        rows = iteration_rows(events)
        assert rows[0]["decode_s"] == pytest.approx(0.3)
        assert rows[1]["decode_s"] == pytest.approx(0.4)

    def test_unrelated_events_ignored(self):
        events = [
            {"type": "event", "name": "production.ring_wrap",
             "attrs": {"bytes": 9}},
            span("solver.query", 0.01),
            iteration_end(1),
        ]
        rows = iteration_rows(events)
        assert len(rows) == 1

    def test_empty_stream(self):
        assert iteration_rows([]) == []
        assert "no per-iteration events" in render_stats([])


class TestFinalSnapshot:
    def test_last_snapshot_wins(self):
        events = [
            {"type": "snapshot", "metrics": {"counters": {"a": 1}}},
            {"type": "snapshot", "metrics": {"counters": {"a": 2}}},
        ]
        assert final_snapshot(events)["counters"]["a"] == 2

    def test_none_without_snapshot(self):
        assert final_snapshot([iteration_end(1)]) is None


class TestRenderStats:
    def test_renders_iterations_and_counters(self):
        events = [
            span("reconstruct.symex", 1.25, iteration=1),
            iteration_end(1),
            {"type": "snapshot",
             "metrics": {"counters": {"production.runs": 4},
                         "histograms": {
                             "span.symex.run": {
                                 "count": 1, "sum": 1.25, "mean": 1.25,
                                 "min": 1.25, "max": 1.25, "p50": 1.25,
                                 "p90": 1.25, "p99": 1.25}}}},
        ]
        text = render_stats(events)
        assert "Per-iteration cost breakdown" in text
        assert "production.runs" in text
        assert "symex.run" in text

    def test_solver_cache_hit_rate_line(self):
        events = [
            iteration_end(1),
            {"type": "snapshot",
             "metrics": {"counters": {"solver.cache.hits": 3,
                                      "solver.cache.misses": 1},
                         "histograms": {}}},
        ]
        text = render_stats(events)
        assert "solver cache: 3 hits / 1 misses (75.0% hit rate" in text

    def test_hit_rate_folds_model_probe_tier(self):
        # a successful probe is a miss + model_probe_hits: the rendered
        # rate counts it as answered-by-cache (3+1 of 3+2)
        events = [
            iteration_end(1),
            {"type": "snapshot",
             "metrics": {"counters": {
                 "solver.cache.hits": 3,
                 "solver.cache.misses": 2,
                 "solver.cache.model_probe_hits": 1,
                 "solver.cache.subsumption_hits": 2,
                 "solver.cache.disk_hits": 1},
                 "histograms": {}}},
        ]
        text = render_stats(events)
        assert "(80.0% hit rate incl. 1 model-probe hits)" in text
        assert "2 subsumption hits, 1 disk hits" in text

    def test_metric_histograms_rendered(self):
        # non-span histograms (e.g. the gap-search attempt counts) get
        # their own table; span histograms keep theirs
        events = [
            iteration_end(1),
            {"type": "snapshot",
             "metrics": {"counters": {},
                         "histograms": {
                             "symex.gap_attempts": {
                                 "count": 4, "sum": 20.0, "mean": 5.0,
                                 "min": 1.0, "max": 14.0, "p50": 2.0,
                                 "p90": 14.0, "p99": 14.0}}}},
        ]
        text = render_stats(events)
        assert "Metric histograms" in text
        assert "symex.gap_attempts" in text

    def test_worker_pool_line(self):
        events = [
            iteration_end(1),
            {"type": "snapshot",
             "metrics": {"counters": {"parallel.pool.spinups": 1,
                                      "parallel.pool.jobs": 3},
                         "histograms": {}}},
        ]
        text = render_stats(events)
        assert "worker pool: 1 spin-ups over 3 jobs" in text
        assert "worker pool" not in render_stats([iteration_end(1)])

    def test_no_cache_line_without_cache_counters(self):
        events = [
            iteration_end(1),
            {"type": "snapshot",
             "metrics": {"counters": {"production.runs": 4},
                         "histograms": {}}},
        ]
        assert "solver cache" not in render_stats(events)


class TestOverheadAttribution:
    def test_stable_schema_with_zero_fills(self):
        out = overhead_attribution(None)
        assert set(out) == {name for _, name in OVERHEAD_SOURCES}
        for entry in out.values():
            assert entry["count"] == 0
            assert entry["total_s"] == 0.0 and entry["mean_s"] == 0.0

    def test_totals_and_means_from_histograms(self):
        metrics = {"histograms": {
            "parallel.queue_wait_seconds": hist(4, 0.2),
            "parallel.worker_idle_seconds": hist(2, 1.0),
        }}
        out = overhead_attribution(metrics)
        wait = out["parallel.queue_wait_seconds"]
        assert wait["label"] == "queue wait"
        assert wait["count"] == 4
        assert wait["total_s"] == pytest.approx(0.2)
        assert wait["mean_s"] == pytest.approx(0.05)
        assert out["parallel.worker_idle_seconds"]["total_s"] == \
            pytest.approx(1.0)

    def test_rendered_table_when_any_source_recorded(self):
        events = [
            iteration_end(1),
            {"type": "snapshot",
             "metrics": {"counters": {},
                         "histograms": {
                             "parallel.queue_wait_seconds":
                                 hist(3, 0.03),
                             "span.parallel.pool_spinup": hist(1, 0.01),
                         }}},
        ]
        text = render_stats(events)
        assert "Overhead attribution" in text
        assert "queue wait" in text and "pool spin-up" in text

    def test_overhead_histograms_kept_out_of_metric_table(self):
        events = [
            iteration_end(1),
            {"type": "snapshot",
             "metrics": {"counters": {},
                         "histograms": {
                             "parallel.queue_wait_seconds": hist(2, 0.1),
                         }}},
        ]
        text = render_stats(events)
        assert "Metric histograms" not in text
        assert "Overhead attribution" in text

    def test_no_table_without_recorded_overhead(self):
        events = [
            iteration_end(1),
            {"type": "snapshot",
             "metrics": {"counters": {"production.runs": 1},
                         "histograms": {}}},
        ]
        assert "Overhead attribution" not in render_stats(events)
