"""Child process of the setup_s measurement.

Usage: python3 perfbench/setup_probe.py <workload> <seed>

Imports sprinkle, builds the workload's first SweepConfig and prints
time.monotonic() at that moment.  CLOCK_MONOTONIC is system-wide on
Linux, so the parent subtracts the moment it started this process.
"""

import sys
import time

import checkout

checkout.use_checkout_sources()

import workloads  # noqa: E402

workloads.WORKLOADS[sys.argv[1]].config(int(sys.argv[2]), 0)
print(repr(time.monotonic()))
