"""Set-up probe: import cansol and generate one workload's configs.

Run as ``python3 bench/setup_probe.py <workload> <seed>`` from the
repository root.  Prints ``time.monotonic()`` at the moment the first
config is parsed; the parent reads the same system-wide clock, so the
difference to its own spawn time is the set-up time from process start.
Then prints the reference kernel's time, measured here on the same CPU.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from cansol.cli import RunConfig  # noqa: E402

import workloads  # noqa: E402

suites = workloads.suites(sys.argv[1], int(sys.argv[2]))
RunConfig.from_dict(suites[0].config)
ready = time.monotonic()

import reference  # noqa: E402

print(repr(ready), repr(sorted(reference.probe() for _ in range(3))[1]))
