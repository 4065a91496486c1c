"""The ER benchmark: four Table-1 workloads, pinned outcomes, traced layers.

Run from the root of the repository::

    python3 perfbench/run.py --workload table1-exact --seed 1 \\
        --seconds 25 --trace 0

Each workload is a closed loop with one client in one process: a pass
reconstructs all 13 Table-1 failures, the next pass starts when it
ends, and passes repeat until ``--seconds`` have gone by and at least
100 reconstructions were made.  The seed permutes the order of the
failures in every pass.  Garbage is collected and the free C heap is
handed back to the kernel between passes, outside the timed region, so
that no pass pays for the garbage of the one before it and each pass's
peak memory starts from what is in use.  Every outcome is checked
against ``pins.json`` and every returned test case is replayed.

With ``--trace 0`` the last line of standard output is a JSON object
with the end-to-end metrics; with ``--trace 1`` untraced and traced
passes alternate, the per-layer metrics come from the traced ones, and
the spans are written to ``.perfbench/`` in the repository root.
"""

import time

#: set-up is timed from the start of the program
STARTED = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import pathlib  # noqa: E402
import random  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.solver.budget import WORK_PER_SECOND  # noqa: E402

import tracing  # noqa: E402
from drivers import (WORKLOADS, make_driver, new_workdir,  # noqa: E402
                     peak_rss_mb, release_free_memory, reset_peak_rss)
from outcomes import OutcomeCheck, load_pins  # noqa: E402

#: scratch space (cache directories, span files), inside the checkout
WORK_BASE = ROOT / ".perfbench"
#: enough reconstructions that 10 or more lie beyond the 90th percentile
MIN_RECONSTRUCTIONS = 100
SETUP_SAMPLES = 5
MIN_TRACED_PASSES = 3

END_TO_END = (
    ("setup_s", "s"),
    ("recon_per_s", "1/s"),
    ("latency_p50_s", "s"),
    ("latency_p90_s", "s"),
    ("occur_mean", "count"),
    ("recorded_bytes_mean", "bytes"),
    ("solver_work_s", "modelled_s"),
    ("peak_rss_mb", "MB"),
)


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(math.ceil(q / 100.0 * len(ordered)) - 1, 0)]


def probe_setup(workload: str) -> float:
    """Set-up time of a fresh benchmark process for ``workload``."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "1", "--trace", "0", "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return json.loads(proc.stdout.splitlines()[-1])["setup_s"]


class Bench:
    """One benchmark run of one workload."""

    def __init__(self, workload: str, seed: int, trace: bool = False,
                 failures=None):
        self.workload = workload
        self.rng = random.Random(seed)
        self.workdir = new_workdir(WORK_BASE)
        self.driver = make_driver(workload, self.workdir, trace)
        self.failures = list(failures or self.driver.failures)
        self.check = OutcomeCheck(workload, load_pins(),
                                  self.driver.workloads, self.failures)

    def close(self) -> None:
        try:
            self.driver.close()
        finally:
            shutil.rmtree(self.workdir, ignore_errors=True)

    def _order(self):
        order = list(self.failures)
        self.rng.shuffle(order)
        return order

    def measure(self, seconds: float, setup_s: list,
                min_reconstructions: int = MIN_RECONSTRUCTIONS) -> dict:
        """Untraced passes; the end-to-end metrics."""
        min_passes = math.ceil(min_reconstructions / len(self.failures))
        deadline = time.perf_counter() + seconds
        rates, work, latencies, occurrences, peaks = [], [], [], [], []
        recorded = succeeded = 0
        while len(rates) < min_passes or time.perf_counter() < deadline:
            gc.collect()
            release_free_memory()
            pids = self.driver.pids()
            reset_peak_rss(pids)
            result = self.driver.run_pass(self._order())
            peaks.append(peak_rss_mb(pids))
            ok = self.check.check_pass(result)
            rates.append(ok.count(True) / result.wall_s)
            work.append(result.solver_work / WORK_PER_SECOND)
            # a failed reconstruction misses every latency limit
            latencies.extend(o.latency_s if good else math.inf
                             for o, good in zip(result.outcomes, ok))
            done = [o for o in result.outcomes if o.success]
            occurrences.extend(o.occurrences for o in done)
            recorded += result.recorded_bytes
            succeeded += len(done)
        return {
            "setup_s": statistics.median(setup_s),
            "recon_per_s": statistics.median(rates),
            "latency_p50_s": percentile(latencies, 50),
            "latency_p90_s": percentile(latencies, 90),
            "occur_mean": statistics.fmean(occurrences),
            "recorded_bytes_mean": recorded / succeeded,
            "solver_work_s": statistics.median(work),
            "peak_rss_mb": statistics.median(peaks),
        }

    def measure_traced(self, seconds: float,
                       spans_out: pathlib.Path = None) -> dict:
        """Untraced and traced passes in pairs; the per-layer metrics."""
        deadline = time.perf_counter() + seconds
        plain_walls, traced_walls, per_pass, records = [], [], [], []
        while (len(per_pass) < MIN_TRACED_PASSES
               or time.perf_counter() < deadline):
            order = self._order()
            gc.collect()
            plain = self.driver.run_pass(order)
            self.check.check_pass(plain)
            gc.collect()
            tracer = tracing.Tracer()
            with tracing.installed(tracer):
                result = self.driver.run_pass(order, traced=True)
            self.check.check_pass(result)
            data = tracer.collect()
            data.absorb_events(result.events)
            plain_walls.append(plain.wall_s)
            traced_walls.append(result.wall_s)
            per_pass.append(tracing.pass_metrics(data, result.counters,
                                                 result.layers))
            records.append({"pass": len(records), "wall_s": result.wall_s,
                            "spans": data.spans, "leaves": data.leaves})
        metrics = tracing.median_metrics(per_pass)
        metrics["bench.trace_overhead"] = (statistics.median(traced_walls)
                                           / statistics.median(plain_walls))
        if spans_out is not None:
            spans_out.parent.mkdir(parents=True, exist_ok=True)
            with spans_out.open("w") as fh:
                for record in records:
                    fh.write(json.dumps(record) + "\n")
        return metrics


def run(workload: str, seed: int, seconds: float, trace: bool, *,
        failures=None, setup_samples: int = SETUP_SAMPLES,
        min_reconstructions: int = MIN_RECONSTRUCTIONS,
        spans_out: pathlib.Path = None) -> dict:
    """One benchmark run; returns the result object the CLI prints."""
    bench = Bench(workload, seed, trace, failures)
    try:
        bench.driver.setup()
        setup_s = [time.perf_counter() - STARTED]
        if trace:
            metrics = bench.measure_traced(seconds, spans_out)
            units = dict(tracing.PER_LAYER)
        else:
            setup_s += [probe_setup(workload)
                        for _ in range(setup_samples - 1)]
            metrics = bench.measure(seconds, setup_s, min_reconstructions)
            units = dict(END_TO_END)
    finally:
        bench.close()
    for problem in bench.check.problems:
        print(f"outcome check: {problem}", file=sys.stderr)
    return {
        "correct": bench.check.correct,
        "attempted": bench.check.attempted,
        "failed": bench.check.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: a fresh process that only sets up, for the setup_s samples
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_only:
        bench = Bench(args.workload, args.seed)
        try:
            bench.driver.setup()
            print(json.dumps({"setup_s": time.perf_counter() - STARTED}))
        finally:
            bench.close()
        return 0
    spans_out = (WORK_BASE / f"spans-{args.workload}-seed{args.seed}.jsonl"
                 if args.trace else None)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace),
                 spans_out=spans_out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
