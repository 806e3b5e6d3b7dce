"""Host-speed calibration of the single-process workloads.

The benchmark host is shared: co-tenants change how fast the same
Python code runs by tens of percent over minutes (measured on a 2-vCPU
VM: one clean-table3 pass took 6.4 s at one time and 11-12 s at another,
with negligible steal time, so CPU time drifts as much as wall time).
A fixed calibration kernel that does not touch the program under test
runs before the first and after every run of a closed-loop study pass.
The study's host times are reported scaled by ``REFERENCE_S`` over the
kernel's time-weighted mean time: seconds on a host that runs the
kernel in ``REFERENCE_S``.  A change to the program moves the runs but
not the kernel, so the scaling cancels host drift and keeps the change.

On five seeds of clean-table3 during such a drift the interquartile
spread of wall_s fell from 0.41 to 0.05 of the median.  The farm is
scaled by full calibrations taken just before it starts its workers and
just after it has joined them; samples taken while workers start or
wind down had widened its spread (0.07 raw, 0.23 scaled), these
quiescent ones narrowed it (0.11 raw, 0.08 scaled, over 18 farm passes).
"""

from __future__ import annotations

import functools
import pickle
import statistics
import time

import numpy as np

#: Kernel seconds on the reference host (a typical reading on the
#: 2-vCPU VM above); scaled times are seconds on such a host.
REFERENCE_S = 0.06

#: Kernel samples per calibration (the median is used).
SAMPLES = 5


def kernel() -> float:
    """One calibration sample: seconds for a fixed mixed workload.

    Dict and attribute-free list traffic over a table too large for the
    caches, pickling of many small tuples (a checkpoint's shape) and
    streaming numpy passes over arrays of several megabytes -- host
    effects on caches and memory bandwidth show here as they do in the
    simulator.
    """
    slots, values = _data()
    start = time.perf_counter()
    acc = 0.0
    key = 1
    for _ in range(30_000):
        key = (key * 1103515245 + 12345) & 0xFFFF
        slot = slots[key]
        slot[0] += 1
        acc += slot[1]
    pickle.dumps([(k, acc, "s") for k in range(10_000)], protocol=5)
    for _ in range(3):
        values = np.cumsum(values[::-1]) % 4096.0
    return time.perf_counter() - start


@functools.lru_cache(maxsize=1)
def _data() -> tuple[dict, np.ndarray]:
    """The kernel's table and array (built once, outside every timing)."""
    return ({k: [0, 0.5] for k in range(1 << 16)},
            np.arange(1 << 19, dtype=np.float64))


def calibration() -> float:
    """Median kernel time now (seconds)."""
    return statistics.median(kernel() for _ in range(SAMPLES))


def scale(before: float, after: float) -> float:
    """Factor from this host's seconds to reference-host seconds."""
    return REFERENCE_S / ((before + after) / 2)
