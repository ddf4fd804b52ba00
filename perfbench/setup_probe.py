"""Time the ready-to-work cost of a fresh interpreter.

Usage: python3 setup_probe.py CONFIG_TAG

Imports ``eit3.cli``, loads the bundled config CONFIG_TAG and makes the
first ``prefactor`` call with the default (calibrated) angular convention.
Prints ``import_s calibrate_s reference_s``: the first two sum to the set-up
time, the last is the machine-speed burst timed right afterwards.
"""

import sys
from time import perf_counter

t0 = perf_counter()
import eit3.cli  # noqa: E402
import eit3.optics  # noqa: E402

t1 = perf_counter()
run = eit3.cli.load_config(eit3.cli.bundled_config_path(sys.argv[1]))
eit3.optics.prefactor(run.optics)
t2 = perf_counter()

import reference  # noqa: E402

reference.burst()  # first LAPACK calls of a process pay one-off costs
print(repr(t1 - t0), repr(t2 - t1), repr(reference.burst()))
