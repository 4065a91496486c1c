"""Import paths for the benchmark's self-tests.

Run them from the root of the repository::

    python3 -m pytest perfbench -q
"""

import pathlib
import sys

HERE = pathlib.Path(__file__).resolve().parent
for path in (HERE.parent / "src", HERE):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
