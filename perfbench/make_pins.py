"""Regenerate ``pins.json`` from the code as it is now.

Run once, from the root of the repository, on the commit the pins
describe::

    python3 perfbench/make_pins.py

Each pinned workload runs one pass in Table-1 order (``batch-pool``
after its untimed cache-filling set-up pass).  ``fleet-serve`` has no
pins of its own: it answers to the ``table1-exact`` pins.
"""

from __future__ import annotations

import json
import pathlib
import shutil
import sys

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from drivers import make_driver, new_workdir  # noqa: E402
from outcomes import PIN_SOURCE, PINS_FILE, outcome_record  # noqa: E402


def main() -> int:
    pins = {}
    for workload in sorted(set(PIN_SOURCE.values())):
        workdir = new_workdir(HERE.parent / ".perfbench")
        driver = make_driver(workload, workdir)
        try:
            driver.setup()
            result = driver.run_pass(driver.failures)
        finally:
            driver.close()
            shutil.rmtree(workdir, ignore_errors=True)
        pins[workload] = {o.failure: outcome_record(o)
                          for o in result.outcomes}
    PINS_FILE.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    print(f"wrote {PINS_FILE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
