"""A fixed reference kernel that measures how fast the host runs right now.

On a host whose cores are shared, other load can make the same code run
tens of percent slower for seconds to minutes at a time, which no number
of repeats inside one run averages out. The benchmark therefore times this
kernel just before every op and every set-up probe, and reports each time
scaled by REF_S / (the kernel's time next to it): in seconds at the host
speed at which the kernel takes REF_S.

The kernel mixes the kinds of work the package does, in about equal
shares: a pure-Python complex-arithmetic loop, numpy calls on tiny arrays,
vectorised numpy on 801-point arrays, and scipy scalar and simplex
minimisation. It runs no code of the package, so a change to the package
cannot move it. Changing the kernel or REF_S changes every reported time;
do it only in a change that measures the baseline again.
"""
import time

import numpy as np
from scipy.optimize import minimize, minimize_scalar

REF_S = 0.02   # kernel wall time, in seconds, at the reference host speed

_W = np.linspace(105.0, 145.0, 801)
_X = np.linspace(0.0, 1.0, 201)


def _kernel() -> complex:
    s = 0j
    for i in range(8000):
        r = 1j * (i * 1e-3 - 24.5) + 3.0
        s += r / (r * (r + 2.0) + 64.0)
    for i in range(300):
        m = np.array([[1.0 + i * 1e-4, 0.3j], [0.3j, 2.0]])
        s += np.abs(np.linalg.solve(m, np.array([1.0, 1j]))).sum()
    for i in range(150):
        r = 1j * (_W - 124.5 - i * 1e-3) + 3.0
        s += np.abs(r / (r * r + 64.0)).sum()
    for i in range(10):
        s += minimize_scalar(lambda x: (x - 1.3) ** 2 + np.cos(x + i),
                             bounds=(0.0, 3.0), method="bounded").fun
    s += minimize(lambda p: float(np.sum((p[0] * _X + p[1] - 2.0 * _X) ** 2)),
                  [0.5, 0.1], method="Nelder-Mead").fun
    return s


def sample() -> tuple[float, float]:
    """Wall and process CPU seconds of one run of the kernel."""
    c0, t0 = time.process_time(), time.perf_counter()
    _kernel()
    return time.perf_counter() - t0, time.process_time() - c0
