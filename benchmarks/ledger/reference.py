"""The reference kernel: how fast is this box right now?

The build box is a few cores of a shared host whose speed wanders by up to 2x
within seconds (a bare Python loop reads 55-112 iterations/s in consecutive
one-second windows, with no steal time: CPU time tracks wall time).  Longer
runs do not average that out, so the timed loops of ``workloads.py`` time this
fixed piece of work before and after every batch and divide the batch's times
(wall per query, CPU for the rate) by the slowdown the two readings show.  A
time "at reference speed" is the time the batch would have taken had the box
run the kernel in ``NOMINAL_S``.

The kernel calls nothing of the program under test, so no change to ``src/``
can move it.  Its mix was chosen by measurement: over 150-s runs of the
workloads with seven candidate kernels timed between batches, many small numpy
calls tracked the workloads' slowdown best (r = 0.8-0.9 over 5-s windows), a
JSON round trip next, a bare bytecode loop worst (r = 0.6-0.8); heap and dict
traffic made the mix worse on the live driver, and working sets of 64 MB
(random gather, pointer chase) tracked no better than small ones.  It takes
out about half of the wander, not all: the live workloads slow down 1.1-1.5
times as much as the kernel does.
"""

from __future__ import annotations

import gc
import json
import time

import numpy as np

__all__ = ["NOMINAL_S", "kernel", "slowdown"]

#: a usual time of the kernel between two batches on the build box (2 vCPU,
#: Xeon 2.1 GHz, CPython 3.11, numpy 2.4; a minute of readings on an otherwise
#: idle process has deciles 2.4-4.2 ms around a median of 3.1); it only fixes
#: the scale of the results
NOMINAL_S = 3.4e-3

_SORTED = np.sort(np.random.default_rng(0).random(2000))
_PROBES = np.random.default_rng(1).random(16)
_FRAME = {"kind": "range_solve", "rid": 12345, "lows": _PROBES.tolist(),
          "highs": _PROBES.tolist(), "ids": list(range(150))}


def kernel() -> float:
    """About 3 ms: two thirds small numpy calls, one third a JSON frame out and back."""
    acc = 0.0
    for _ in range(450):
        hits = np.searchsorted(_SORTED, _PROBES)
        acc += float((_SORTED[hits % 2000] * 2.0).sum())
    for _ in range(14):
        json.loads(json.dumps(_FRAME))
    return acc


def slowdown() -> float:
    """Time the kernel once; > 1 means the box is slower than nominal right now."""
    # the program's garbage must not be collected on the kernel's clock
    collecting = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        kernel()
        return (time.perf_counter() - t0) / NOMINAL_S
    finally:
        if collecting:
            gc.enable()
