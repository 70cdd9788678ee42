"""A fixed reference kernel that measures how fast the machine runs right now.

The CPU of a shared machine can run at half speed for minutes at a time.
Every process the benchmark starts times this kernel next to the work it
measures, and the end-to-end times are scaled by ``REFERENCE_S / measured``:
they read as seconds on a machine where the kernel takes ``REFERENCE_S``.
The kernel mixes interpreted Python, many small numpy calls and dense
``slogdet`` calls, as the workloads do, and does not touch
casimir_stability, so no change to the package moves it.

Run ``python3 perfbench/reference.py`` to print one timing.
"""

import math
import time

import numpy as np

# about the kernel's median time on a 2-core x86-64 sandbox, one BLAS thread
REFERENCE_S = 0.1

_slogdet = np.linalg.slogdet
_norm = np.linalg.norm


def reference_s():
    """Seconds this process takes for the reference kernel."""
    rng = np.random.default_rng(0)
    a = rng.standard_normal((192, 192)) + 192.0 * np.eye(192)
    p = np.zeros((2, 3))
    t0 = time.perf_counter()
    total = 0.0
    for k in range(6000):
        v = p[k % 2] + 0.1 * rng.uniform(-1.0, 1.0, 3)
        total += math.exp(-float(_norm(v)))
        p[k % 2] = 0.5 * v
    for _ in range(40):
        _slogdet(a)
    return time.perf_counter() - t0


if __name__ == "__main__":
    print(reference_s())
