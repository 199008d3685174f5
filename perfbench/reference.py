"""A fixed reference kernel that samples the machine's speed during a run.

On a shared machine the CPU's speed drifts by tens of percent for minutes
at a time, and a whole run can land in a fast or a slow phase.  The timed
loop therefore runs this kernel between calls, about one tenth of the
call time, and each call is rescaled by the kernel's speed around it:

    t_at_ref = t_call * REF_NOMINAL_S / (mean kernel time within +-0.5 s)

The kernel mixes what cohres calls spend their time on: interpreted
Python, many small numpy calls, and one pass over a 2 MB array.  It never
touches cohres, so no change to the library moves it, and a library
speed-up shows in full in the rescaled times.
"""

from __future__ import annotations

import numpy as np

# Typical kernel time on the machine the benchmark was tuned on (2 vCPU
# Intel Xeon VM, Python 3.11.7, numpy 2.4.6).  It only sets the scale:
# rescaled times read in milliseconds of that machine.
REF_NOMINAL_S = 8e-3
WINDOW_S = 0.5

_SMALL = np.arange(64, dtype=complex)
_LARGE = np.linspace(0.0, 1.0, 1 << 18)


def reference() -> None:
    s = 0
    for i in range(20000):
        s += i * i % 7
    a = _SMALL
    for _ in range(200):
        a = np.sqrt(a * a + 1.0)
        float(np.sum(np.abs(a) ** 2))
    float(np.cos(_LARGE + 0.5).sum())


def at_reference_speed(latencies, call_at, ref, ref_at) -> list[float]:
    """Each call's time rescaled to the kernel's nominal speed.

    ``call_at`` and ``ref_at`` are the midpoints of the calls and of the
    kernel runs, in increasing order.  The speed around a call is the mean
    kernel time within ``WINDOW_S`` of it, or the nearest kernel time when
    none falls inside.
    """
    ref = np.asarray(ref, dtype=float)
    ref_at = np.asarray(ref_at, dtype=float)
    at = np.asarray(call_at, dtype=float)
    lo = np.searchsorted(ref_at, at - WINDOW_S)
    hi = np.searchsorted(ref_at, at + WINDOW_S)
    sums = np.concatenate([[0.0], np.cumsum(ref)])
    nearest = np.abs(ref_at[None, :] - at[:, None]).argmin(axis=1)
    local = np.where(hi > lo, (sums[hi] - sums[lo]) / np.maximum(hi - lo, 1), ref[nearest])
    return list(np.asarray(latencies, dtype=float) * REF_NOMINAL_S / local)
