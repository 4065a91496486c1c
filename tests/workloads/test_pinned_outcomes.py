"""Every Table-1 failure returns its pinned outcome on each entry point.

``perfbench/pins.json`` records what one reconstruction of each failure
must return — success, verification, #Occur, recorded bytes, modelled
solver work in work units and the sha256 of the test-case streams — for
three configurations:

* ``table1-exact``: serial ``ExecutionReconstructor`` on exact traces;
* ``mapping-loss``: the same at the paper's 8.5 % mapping loss with
  per-CPU merge, so every reconstruction runs the serial gap search
  (``pbzip2-uaf`` diverges and is pinned with its error);
* ``batch-pool``: ``run_batch`` on two pool workers over a warm solver
  cache directory (per-item records carry no streams).

The search has one strategy and one order, so these answers are fixed;
a change that moves one must regenerate the pins with
``perfbench/make_pins.py`` and say why.
"""

import hashlib
import json
import pathlib

import pytest

from repro.core import ExecutionReconstructor, ProductionSite
from repro.errors import ReconstructionError
from repro.parallel import close_pool, run_batch
from repro.solver.budget import WORK_PER_SECOND
from repro.workloads import all_workloads

PINS = json.loads((pathlib.Path(__file__).resolve().parents[2]
                   / "perfbench" / "pins.json").read_text())

WORKLOADS = all_workloads()
IDS = [w.name for w in WORKLOADS]

MAPPING_LOSS = 0.085


def work_units(modelled_seconds):
    return round(modelled_seconds * WORK_PER_SECOND)


def streams_digest(streams):
    """sha256 over the streams in name order (the pins' digest)."""
    digest = hashlib.sha256()
    for name in sorted(streams):
        data = streams[name]
        digest.update(name.encode("utf-8") + b"\0")
        digest.update(len(data).to_bytes(8, "big") + data)
    return digest.hexdigest()


def reconstruct(workload, mapping_loss):
    lossy = mapping_loss > 0
    try:
        report = ExecutionReconstructor(
            workload.fresh_module(), work_limit=workload.work_limit,
            max_occurrences=workload.max_occurrences,
            trace_recovery=lossy).reconstruct(ProductionSite(
                workload.failing_env, mapping_loss=mapping_loss,
                per_cpu_buffers=lossy))
    except ReconstructionError as exc:
        return {"success": False, "verified": False, "occurrences": 0,
                "error": f"repro.errors.ReconstructionError: {exc}"}
    return {
        "success": report.success, "verified": report.verified,
        "occurrences": report.occurrences, "error": None,
        "unrelated_occurrences": report.unrelated_occurrences,
        "recorded_bytes": report.total_recorded_bytes,
        "solver_work": sum(work_units(it.symex_modelled_seconds)
                           for it in report.iterations),
        "streams_sha256": streams_digest(report.test_case.streams),
    }


@pytest.fixture(scope="module")
def exact():
    return {w.name: reconstruct(w, 0.0) for w in WORKLOADS}


@pytest.fixture(scope="module")
def lossy():
    return {w.name: reconstruct(w, MAPPING_LOSS) for w in WORKLOADS}


@pytest.fixture(scope="module")
def batch(tmp_path_factory):
    cache_dir = str(tmp_path_factory.mktemp("solver-cache"))
    try:
        # the first pass fills the cache directory the pinned pass reads
        run_batch(IDS, parallel=2, cache_dir=cache_dir)
        result = run_batch(IDS, parallel=2, cache_dir=cache_dir)
    finally:
        close_pool()
    return {item.workload: {
        "success": item.success, "verified": item.verified,
        "occurrences": item.occurrences, "error": item.error,
        "unrelated_occurrences": item.unrelated_occurrences,
        "recorded_bytes": item.recorded_bytes,
        "solver_work": work_units(item.symex_modelled_seconds),
    } for item in result.items}


@pytest.mark.parametrize("name", IDS)
class TestPinnedOutcomes:
    def test_exact_trace(self, name, exact):
        assert exact[name] == PINS["table1-exact"][name]

    def test_mapping_loss_gap_search(self, name, lossy):
        assert lossy[name] == PINS["mapping-loss"][name]

    def test_batch_pool_warm_cache(self, name, batch):
        assert batch[name] == PINS["batch-pool"][name]
