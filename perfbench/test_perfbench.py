"""Self-tests of the benchmark: metric names, the outcome check and the
per-layer decomposition."""

import copy
import json
import math
import subprocess
import sys

import pytest

import run as bench
import tracing
from drivers import WORKLOADS, make_driver
from outcomes import OutcomeCheck, load_pins, streams_digest
from repro.solver.solver import Solver

SPEC = json.loads((bench.ROOT / "BENCHMARK.json").read_text())

#: one cheap failure per workload; batch-pool needs two to reach its
#: pool (``run_batch`` runs a single item in-process)
SMOKE_FAILURES = {
    "table1-exact": ["bash-108885"],
    "mapping-loss": ["bash-108885"],
    "batch-pool": ["bash-108885", "python-2018-1000030"],
    "fleet-serve": ["bash-108885"],
}


def _units(entries):
    return {entry["name"]: entry["unit"] for entry in entries}


def _printed_units(result):
    return {name: metric["unit"]
            for name, metric in result["metrics"].items()}


def test_spec_lists_the_metrics_the_benchmark_prints():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert _units(SPEC["end_to_end"]) == dict(bench.END_TO_END)
    assert _units(SPEC["per_layer"]) == dict(tracing.PER_LAYER)


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_smoke_prints_every_metric(workload, trace):
    result = bench.run(workload, seed=1, seconds=0, trace=trace,
                       failures=SMOKE_FAILURES[workload], setup_samples=1,
                       min_reconstructions=1)
    assert result["correct"]
    assert result["attempted"] >= len(SMOKE_FAILURES[workload])
    assert result["failed"] == 0
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert _printed_units(result) == _units(spec)
    values = {name: m["value"] for name, m in result["metrics"].items()}
    assert all(isinstance(v, (int, float)) for v in values.values())
    if trace and workload == "batch-pool":
        # worker-side spans came back through the batch items' events
        assert values["interp.run.calls"] > 0
        assert values["parallel.tasks"] == 2


def test_cli_last_line_is_the_result_object():
    proc = subprocess.run(
        [sys.executable, str(bench.HERE / "run.py"), "--workload",
         "table1-exact", "--seed", "3", "--seconds", "0", "--trace", "0"],
        cwd=bench.ROOT, capture_output=True, text=True, timeout=170,
        check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= bench.MIN_RECONSTRUCTIONS
    assert _printed_units(result) == _units(SPEC["end_to_end"])


@pytest.fixture(scope="module")
def exact_pass(tmp_path_factory):
    driver = make_driver("table1-exact", tmp_path_factory.mktemp("exact"))
    driver.setup()
    return driver, driver.run_pass(["bash-108885", "python-2018-1000030"])


def _check(driver, result, pins):
    check = OutcomeCheck("table1-exact", pins, driver.workloads,
                         [o.failure for o in result.outcomes])
    return check, check.check_pass(result)


def test_outcome_check_accepts_the_pinned_outcomes(exact_pass):
    driver, result = exact_pass
    check, ok = _check(driver, result, load_pins())
    assert ok == [True, True] and check.correct and check.failed == 0


@pytest.mark.parametrize("field, value", [
    ("streams_sha256", "0" * 64),
    ("occurrences", 99),
    ("recorded_bytes", 1),
    ("solver_work", 1),
    ("verified", False),
])
def test_outcome_check_rejects_an_altered_pin(exact_pass, field, value):
    driver, result = exact_pass
    pins = copy.deepcopy(load_pins())
    pins["table1-exact"]["bash-108885"][field] = value
    check, ok = _check(driver, result, pins)
    assert ok == [False, True]
    assert not check.correct and check.failed == 1


def test_outcome_check_rejects_an_altered_test_case(exact_pass):
    driver, result = exact_pass
    altered = copy.deepcopy(result)
    outcome = altered.outcomes[0]
    outcome.streams = {name: b"\0" * len(data)
                       for name, data in outcome.streams.items()}
    assert streams_digest(outcome.streams) != streams_digest(
        result.outcomes[0].streams)
    check, ok = _check(driver, altered, load_pins())
    assert ok == [False, True] and not check.correct
    # the digest differs from the pin and the replay misses the failure
    assert len(check.problems) == 2


def test_pinned_divergence_counts_as_failed_not_wrong(tmp_path):
    driver = make_driver("mapping-loss", tmp_path)
    driver.setup()
    result = driver.run_pass(["pbzip2-uaf"])
    check = OutcomeCheck("mapping-loss", load_pins(), driver.workloads,
                         ["pbzip2-uaf"])
    assert check.check_pass(result) == [False]
    assert check.correct and check.failed == 1
    assert "main:wait:2" in result.outcomes[0].error


def test_layer_self_times_sum_to_the_traced_pass_wall(tmp_path):
    driver = make_driver("table1-exact", tmp_path)
    driver.setup()
    original = Solver.__dict__["is_feasible"]
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        assert Solver.__dict__["is_feasible"] is not original
        result = driver.run_pass(["sqlite-787fa71", "bash-108885"],
                                 traced=True)
    assert Solver.__dict__["is_feasible"] is original
    data = tracer.collect()
    layers = tracing.layer_self_times(data, result.wall_s)
    assert math.isclose(sum(layers.values()), result.wall_s)
    assert all(seconds >= 0 for seconds in layers.values())
    # self times partition the root spans, which lie inside the pass
    roots = [span for span in data.spans if span[1] is None]
    assert [span[0] for span in roots] == [tracing.ROOT_SPAN] * 2
    assert len({span[2] for span in roots}) == 2
    root_wall = sum(span[5] for span in roots)
    assert root_wall <= result.wall_s
    traced = sum(span[6] for span in data.spans) + sum(
        seconds for _calls, seconds in data.leaves.values())
    assert math.isclose(traced, root_wall, rel_tol=1e-9)
    del layers["other"]
    assert max(layers, key=layers.get) == "solver"
