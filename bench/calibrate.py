"""A fixed calibration load that tracks how fast the host runs right now.

On a shared host the speed available to one process swings by a third or
more over a few seconds, as other tenants come and go.  The benchmark times
this load right before and after every op and scales the op's time by
``REFERENCE_S / calibration``, so a reported time reads as the time at a fixed
reference speed.  The load mixes the two kinds of work rdmap spends its time
on: interpreter-bound word and dict handling, and small numpy/scipy calls
whose cost is mostly dispatch.  It is the benchmark's own code, so no change
to rdmap can move it.
"""

from __future__ import annotations

import time

import numpy as np
import scipy.sparse as sp

# Typical value of calibration_s() on the host the benchmark was tuned on
# (2 vCPUs, Python 3.11, numpy 2.4); it only sets the scale of the figures.
REFERENCE_S = 0.0030

_LETTERS = "aAbB"
_RNG = np.random.default_rng(0)
_MATRIX = sp.csr_matrix(
    (_RNG.normal(size=8000) * (1 + 1j), (_RNG.integers(0, 2000, 8000), _RNG.integers(0, 2000, 8000))),
    shape=(2000, 2000),
)
_START = np.ones(2000, dtype=complex)


def _words() -> int:
    out = {}
    for i in range(6000):
        w = _LETTERS[i & 3] + _LETTERS[(i >> 2) & 3] + _LETTERS[(i >> 4) & 3]
        if w[-1] == w[-2].swapcase():
            w = w[:-2]
        out[w] = out.get(w, 0) + len(w)
    return len(out)


def _sparse() -> complex:
    v = _START
    for _ in range(100):
        v = _MATRIX @ v
        v = v / np.linalg.norm(v)
    return v[0]


def calibration_s() -> float:
    """Geometric mean of the two parts' times, in seconds."""
    start = time.perf_counter()
    _words()
    middle = time.perf_counter()
    _sparse()
    end = time.perf_counter()
    return ((middle - start) * (end - middle)) ** 0.5
