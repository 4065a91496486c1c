"""Pinned outcomes and the independent replay check.

``pins.json`` holds, for each pinned workload and failure, what one
reconstruction must return: success, verified, #Occur, recorded
bytes, modelled solver work (in work units), the sha256 of the
test-case streams and, for a failure that does not reconstruct, its
error.  The pins were generated once by ``make_pins.py``; they do not
depend on the workload seed, so checking them on every pass also
checks that outcomes do not depend on the order of the failures.

``fleet-serve`` answers to the ``table1-exact`` pins: a fleet bucket
must be byte-identical to a single site.

Every returned test case is also replayed through the interpreter on
the pristine module, independently of the reconstructor's own
verification, and must hit the workload's expected failure kind.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
from typing import Dict, List, Optional, Sequence

from repro.interp.env import Environment
from repro.interp.interpreter import Interpreter

from drivers import Outcome, PassResult

PINS_FILE = pathlib.Path(__file__).with_name("pins.json")

#: whose pins each workload answers to
PIN_SOURCE = {
    "table1-exact": "table1-exact",
    "mapping-loss": "mapping-loss",
    "batch-pool": "batch-pool",
    "fleet-serve": "table1-exact",
}


def streams_digest(streams: Dict[str, bytes]) -> str:
    """sha256 over the test case's streams, in name order."""
    digest = hashlib.sha256()
    for name in sorted(streams):
        data = streams[name]
        digest.update(name.encode("utf-8") + b"\0")
        digest.update(len(data).to_bytes(8, "big") + data)
    return digest.hexdigest()


def outcome_record(outcome: Outcome) -> Dict:
    """The pinned form of one outcome: only the fields its entry point
    reports."""
    record = {"success": outcome.success, "verified": outcome.verified,
              "occurrences": outcome.occurrences, "error": outcome.error}
    for name in ("unrelated_occurrences", "recorded_bytes", "solver_work"):
        value = getattr(outcome, name)
        if value is not None:
            record[name] = value
    if outcome.streams is not None:
        record["streams_sha256"] = streams_digest(outcome.streams)
    return record


def load_pins(path: pathlib.Path = PINS_FILE) -> Dict[str, Dict[str, Dict]]:
    return json.loads(path.read_text())


class OutcomeCheck:
    """Checks every pass of one workload against its pins.

    A reconstruction counts as failed when it raises, fails, is not
    verified, does not match its pin or does not replay.  ``problems``
    lists the wrong answers: pin mismatches and failed replays.  A
    failure pinned as such (its pin has an ``error``) is counted as
    failed while it keeps failing; if a change makes it reconstruct
    and replay, it counts as a success instead.
    """

    def __init__(self, workload: str, pins: Dict[str, Dict[str, Dict]],
                 workloads: Dict, failures: Sequence[str]):
        self.workload = workload
        self.pins = pins[PIN_SOURCE[workload]]
        self.expected = sorted(failures)
        self.workloads = workloads
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self._replays: Dict = {}

    @property
    def correct(self) -> bool:
        return not self.problems

    def check_pass(self, result: PassResult) -> List[bool]:
        """Check one pass; returns, per outcome, whether it counts as
        succeeded."""
        returned = sorted(o.failure for o in result.outcomes)
        if returned != self.expected:
            self.problems.append(f"pass returned outcomes for {returned}, "
                                 f"expected {self.expected}")
        succeeded = [self._check(outcome) for outcome in result.outcomes]
        self.attempted += len(succeeded)
        self.failed += succeeded.count(False)
        if any(o.success and o.recorded_bytes is None
               for o in result.outcomes):
            self._check_totals(result)
        return succeeded

    def _check(self, outcome: Outcome) -> bool:
        """True when the reconstruction counts as succeeded."""
        pin = self.pins.get(outcome.failure)
        if pin is None:
            self.problems.append(f"{outcome.failure}: no pin")
            return False
        replayed = self._replay(outcome)
        if pin.get("error") is not None:
            return outcome.success and outcome.verified and replayed is True
        diffs = {name: (pin.get(name), value)
                 for name, value in outcome_record(outcome).items()
                 if pin.get(name) != value}
        if diffs:
            self.problems.append(
                f"{outcome.failure}: differs from its pin "
                + ", ".join(f"{name} {want!r} -> {got!r}"
                            for name, (want, got) in sorted(diffs.items())))
        return not diffs and replayed is not False

    def _check_totals(self, result: PassResult) -> None:
        """Entry points that report recorded bytes and solver work only
        per pass are checked on the pass totals."""
        pinned = [self.pins[o.failure] for o in result.outcomes
                  if o.success and o.failure in self.pins
                  and self.pins[o.failure].get("error") is None]
        for name, got in (("recorded_bytes", result.recorded_bytes),
                          ("solver_work", result.solver_work)):
            want = sum(pin[name] for pin in pinned)
            if got != want:
                self.problems.append(
                    f"pass total {name} {got}, pinned {want}")

    def _replay(self, outcome: Outcome) -> Optional[bool]:
        """Replay the test case on the pristine module: must it hit the
        expected failure kind?  ``None`` when no streams came back."""
        if outcome.streams is None:
            return None
        key = (outcome.failure, streams_digest(outcome.streams),
               outcome.quantum)
        if key not in self._replays:
            workload = self.workloads[outcome.failure]
            env = Environment(dict(outcome.streams),
                              quantum=outcome.quantum)
            failure = Interpreter(workload.fresh_module(), env).run().failure
            ok = failure is not None and failure.kind == workload.expected_kind
            if not ok:
                self.problems.append(
                    f"{outcome.failure}: test case replays to {failure}, "
                    f"expected {workload.expected_kind.value}")
            self._replays[key] = ok
        return self._replays[key]
