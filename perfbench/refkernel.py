"""The frozen reference kernel that wall-clock metrics are normalised by.

The speed of a shared virtual machine drifts by a fifth or more over a
minute, and CPU time drifts with it (the drift is not preemption), so a
raw wall rate measured at one moment does not compare with one measured
at another.  Each timed pass is therefore bracketed by runs of this
kernel, and the pass's wall time is rescaled by how slow the kernel ran
around it::

    normalised_s = raw_s * (NOMINAL_S / mean(kernel_before_s, kernel_after_s)) ** ELASTICITY

The kernel mixes the kinds of work the program does: pure-Python dict
and string handling, plus a small numpy loop.  Measured against real
passes, it tracks the machine's slow, normal and fast spells (passes of
2.5, 1.7 and 1.1 s came with kernels of 33, 22 and 13 ms); kernels built
to miss the caches tracked them worse.  Being a tight loop, it speeds up
and slows down somewhat more than the program does, hence the exponent.
It must never change: editing it, ``NOMINAL_S`` or ``ELASTICITY``
rescales every wall metric.
"""

from __future__ import annotations

import gc
import statistics
import time

import numpy as np

#: The kernel's median wall time on the machine the benchmark was
#: calibrated on (2 vCPUs, Python 3.11, numpy 2.4, one BLAS thread).
#: Frozen.
NOMINAL_S = 0.024

#: How program wall time scales with kernel time: the slope of log pass
#: time on log kernel time, fitted on 150 interleaved ``chat_hot`` passes
#: averaged in groups of 4 and 8 (0.83 and 0.88), rounded down.  Frozen.
ELASTICITY = 0.8

_WORDS = tuple(f"w{i:03d}" for i in range(257))


def reference_kernel() -> int:
    """Fixed work; returns a checksum so the interpreter cannot skip it."""
    counts: dict[str, int] = {}
    for i in range(36_000):
        key = _WORDS[i % 257] + _WORDS[(i * 7) % 257]
        counts[key] = counts.get(key, 0) + len(key)
    text = " ".join(sorted(counts))
    checksum = sum(counts.values()) + text.count("w1")
    vector = np.arange(256, dtype=np.float64)
    for _ in range(1_500):
        vector = np.sqrt(vector * vector + 1.0) - 0.5
    return checksum + int(vector[-1])


def time_kernel(repeats: int = 3) -> float:
    """Median wall seconds of ``repeats`` back-to-back kernel runs.

    The collector is run first and held off while the kernel runs: a
    full collection over the heap a workload leaves behind would
    otherwise land inside the kernel and time the heap, not the machine.
    """
    gc.collect()
    gc.disable()
    try:
        times = []
        for _ in range(repeats):
            start = time.perf_counter()
            reference_kernel()
            times.append(time.perf_counter() - start)
    finally:
        gc.enable()
    return statistics.median(times)
