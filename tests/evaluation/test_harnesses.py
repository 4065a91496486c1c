"""Evaluation harnesses: each regenerates its table/figure with the
paper's qualitative shape (on fast subsets where full runs are slow)."""

import pytest

from repro import telemetry
from repro.evaluation.accuracy import run_accuracy
from repro.evaluation.casestudy import run_casestudy
from repro.evaluation.figure1 import BOUNDARY, run_figure1
from repro.evaluation.figure5 import run_figure5
from repro.evaluation.figure6 import measure_workload, run_figure6
from repro.evaluation.formatting import percent, render_series, render_table
from repro.evaluation.random_cmp import run_random_comparison
from repro.evaluation.table1 import run_table1, run_workload
from repro.workloads import get_workload

FAST = ["bash-108885", "libpng-2004-0597", "python-2018-1000030"]


class TestFormatting:
    def test_render_table_aligned(self):
        text = render_table(["a", "bb"], [[1, 2], [333, 4]], "T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "333" in text

    def test_render_series(self):
        text = render_series("s", [(1, 2.0)], "x", "y")
        assert "x -> y" in text

    def test_percent(self):
        assert percent(0.0031) == "0.31%"


class TestFigure1:
    def test_only_er_clears_all(self):
        result = run_figure1()
        assert result.clears_all() == ["ER"]

    def test_rr_usable_on_effectiveness_and_accuracy(self):
        result = run_figure1()
        assert "Full RR" in result.usable("effectiveness")
        assert "Full RR" in result.usable("accuracy")
        assert "Full RR" not in result.usable("efficiency")

    def test_rept_not_accurate(self):
        result = run_figure1()
        assert "REPT" not in result.usable("accuracy")
        assert "REPT" in result.usable("efficiency")

    def test_render_contains_boundary_marker(self):
        assert "|" in run_figure1().render()


class TestTable1:
    def test_subset_rows(self):
        result = run_table1(names=FAST)
        assert len(result.rows) == 3
        assert result.all_reproduced

    def test_row_fields(self):
        row = run_workload(get_workload("bash-108885"))
        assert row.verified
        assert row.occurrences == 1
        assert row.failing_instrs > 0
        assert row.symbex_wall_seconds >= 0

    def test_render(self):
        result = run_table1(names=["bash-108885"])
        text = result.render()
        assert "bash-108885" in text and "Table 1" in text

    def test_parallel_rows_match_serial(self):
        names = ["objdump-2018-6323", "matrixssl-2014-1569"]
        serial = run_table1(names=names)
        pooled = run_table1(names=names, parallel=2)
        key = lambda r: (r.name, r.verified, r.occurrences,
                         r.recorded_bytes, r.max_graph_nodes)
        assert [key(r) for r in pooled.rows] == \
            [key(r) for r in serial.rows]
        # pooled rows shed the unpicklable report payload
        assert all(r.report is None for r in pooled.rows)

    def test_pooled_worker_telemetry_folds_into_caller(self):
        names = ["objdump-2018-6323", "matrixssl-2014-1569"]

        def counters(parallel):
            registry = telemetry.Telemetry()
            with telemetry.scoped(registry):
                run_table1(names=names, parallel=parallel)
            return {name: value for name, value
                    in registry.snapshot()["counters"].items()
                    if not name.startswith("parallel.")}

        serial = counters(1)
        assert serial["reconstruct.runs"] == len(names)
        assert counters(2) == serial


class TestFigure5:
    @pytest.fixture(scope="class")
    def result(self):
        return run_figure5()

    def test_three_series(self, result):
        assert len(result.series) == 3

    def test_times_strictly_improve(self, result):
        assert result.strictly_improving

    def test_substantial_speedup(self, result):
        assert result.speedup() > 2.0  # paper: 6.4x

    def test_all_replay_to_completion(self, result):
        assert all(s.status == "completed" for s in result.series)

    def test_progress_samples_monotonic(self, result):
        for series in result.series:
            xs = [x for x, _ in series.progress]
            ys = [y for _, y in series.progress]
            assert xs == sorted(xs) and ys == sorted(ys)


class TestFigure6:
    def test_er_far_below_rr(self):
        row = measure_workload(get_workload("bash-108885"), runs=4,
                               measure_last_iteration=False)
        assert row.er_mean < 0.02 < row.rr_mean

    def test_subset_summary_shape(self):
        result = run_figure6(names=FAST, runs=4,
                             measure_last_iteration=False)
        assert result.er_average < 0.01
        assert result.rr_average > 0.10

    def test_last_iteration_column(self):
        row = measure_workload(get_workload("python-2018-1000030"),
                               runs=3, measure_last_iteration=True)
        assert row.er_last_mean >= 0.0

    def test_render(self):
        result = run_figure6(names=["bash-108885"], runs=3,
                             measure_last_iteration=False)
        assert "Figure 6" in result.render()


class TestAccuracy:
    @pytest.fixture(scope="class")
    def result(self):
        return run_accuracy(names=["bash-108885", "libpng-2004-0597",
                                   "nasm-2004-1287"])

    def test_er_always_exact(self, result):
        assert result.er_always_exact

    def test_rept_loses_values_on_nontrivial_traces(self, result):
        nontrivial = [r for r in result.rows if r.trace_length > 100]
        assert all(r.rept_error_rate > 0.05 for r in nontrivial)

    def test_render(self, result):
        assert "REPT" in result.render()


class TestRandomComparison:
    def test_er_beats_random_overall(self):
        result = run_random_comparison(
            names=["python-2018-1000030", "bash-108885"], seeds=2)
        for row in result.rows:
            assert row.er_success
        python_row = next(r for r in result.rows
                          if r.name == "python-2018-1000030")
        assert python_row.needs_data


class TestCaseStudy:
    @pytest.fixture(scope="class")
    def result(self):
        return run_casestudy()

    def test_same_root_causes(self, result):
        assert result.all_match  # the paper's headline claim

    def test_both_programs_covered(self, result):
        assert {r.program for r in result.rows} == {"od", "pr"}

    def test_invariants_learned(self, result):
        assert all(r.invariants_learned > 5 for r in result.rows)

    def test_render(self, result):
        assert "MIMIC" in result.render() or "Case study" in result.render()
