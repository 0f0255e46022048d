"""Set-up probe: time a fresh interpreter's `import lpm`, then the base
signatures one workload checks against.

    PYTHONPATH=src python3 perfbench/probe.py WORKLOAD SEED

Prints one JSON line with `import_s`, `build_s` and `reference_s`, the
mean machine-speed calibration of bursts taken just before and after
(see calibrate.py).
"""

import sys
from time import perf_counter

import calibrate

before = calibrate.burst(10)
t0 = perf_counter()
import lpm  # noqa: E402,F401

t1 = perf_counter()
import workloads  # noqa: E402

t2 = perf_counter()
workloads.build_signatures(sys.argv[1], int(sys.argv[2]))
t3 = perf_counter()
reference_s = (before + calibrate.burst(10)) / 2
print(f'{{"import_s": {t1 - t0!r}, "build_s": {t3 - t2!r}, "reference_s": {reference_s!r}}}')
