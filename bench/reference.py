"""Reference kernel: a speed probe for the machine the benchmark runs on.

The benchmark's host shares its cores with other tenants, so the same code
runs up to ~1.8x slower for stretches of seconds to minutes.  This kernel
has the instruction mix of a cansol pointwise evaluation (Python closures
building small metric arrays, an inverse, Christoffel- and Riemann-style
einsums) but does not touch cansol, so no change to the library moves it.
Timing it just before and just after a piece of work measures how fast the
machine ran meanwhile; ``normalize`` rescales the work's time to a machine
on which the kernel takes ``NOMINAL_S``.
"""

import math
import time

import numpy as np

# Typical kernel time on the 2-vCPU Xeon (L2 2 MiB/core) the benchmark was
# defined on; normalized timings read as seconds on that machine unloaded.
NOMINAL_S = 0.005
_REPS = 40


def _metric(d):
    def comps(p):
        g = np.eye(d) * (1.0 + 0.1 * math.sin(p[0]))
        g[0, 1] = g[1, 0] = 0.05 * math.cos(p[1])
        return g

    def d1(p):
        out = np.zeros((d, d, d))
        out[0] = np.eye(d) * 0.1 * math.cos(p[0])
        out[1, 0, 1] = out[1, 1, 0] = -0.05 * math.sin(p[1])
        return out

    return comps, d1


def _kernel() -> float:
    acc = 0.0
    for d in (4, 6):
        comps, d1 = _metric(d)
        for i in range(_REPS):
            p = np.full(d, 0.1 * i)
            g = comps(p)
            ginv = np.linalg.inv(g)
            dg = d1(p)
            bracket = np.einsum("bdc->dbc", dg) + np.einsum("cbd->dbc", dg) - dg
            gamma = 0.5 * np.einsum("ad,dbc->abc", ginv, bracket)
            riem = (np.einsum("ace,edb->abcd", gamma, gamma)
                    - np.einsum("ade,ecb->abcd", gamma, gamma))
            acc += float(np.einsum("abad->bd", riem)[0, 0]) + float(np.linalg.norm(g, 1))
    return acc


def probe() -> float:
    """Seconds one run of the reference kernel takes now."""
    start = time.perf_counter()
    _kernel()
    return time.perf_counter() - start


def normalize(seconds: float, before: float, after: float) -> float:
    """Rescale ``seconds`` of work timed between two probes to nominal speed."""
    return seconds * NOMINAL_S / (0.5 * (before + after))
