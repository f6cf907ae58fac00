"""One setup_s sample: import tecc, set one workload up, print the clock.

    python3 bench/setup_probe.py WORKLOAD SEED MAX_N

run.py starts this in a fresh interpreter and subtracts its own
`perf_counter()` reading, taken just before the start, from the one printed
here, so a sample spans process start to the first timed operation.
"""

import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import workloads  # noqa: E402  (imports tecc from the path above)

name, seed, max_n = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
workloads.WORKLOADS[name](seed, max_n).setup()
print(perf_counter())
