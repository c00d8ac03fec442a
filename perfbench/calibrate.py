"""Calibration kernels that measure how fast the machine runs now.

The benchmark runs on shared virtual CPUs whose speed drifts by up to about
1.5x over minutes, as other tenants come and go; a fixed loop of pure-Python
work timed once a second showed that swing.  Wall-clock task times inherit
it, so the harness times a fixed kernel between tasks and reports every
time at the reference speed:

    t_reported = t_measured * reference / t_kernel

where t_kernel is the mean of the kernel runs nearest the measured span.
In-process tasks and set-ups use `kernel_seconds`, which mixes interpreter
work with the small dense complex linear algebra the program does; cold
tasks use `cold_kernel_seconds`, a fresh interpreter importing numpy, since
their time goes to starting a process and loading shared libraries.
Neither calls the program, so a change to the program moves t_measured and
never t_kernel.  The raw wall-clock numbers are printed beside the
reported ones.
"""

from __future__ import annotations

import subprocess
import sys
from time import perf_counter

import numpy as np

# kernel seconds at the reference speed: round numbers within the range the
# kernels took on the 2-core Xeon the seed baseline was measured on
# (7.7-12.5 ms and 216-267 ms)
REFERENCE_S = 0.010
REFERENCE_COLD_S = 0.2

_H = np.array([[complex((i * 7 + j * 3) % 5 - 2, (i - j) % 3 - 1) for j in range(8)]
               for i in range(8)])
_H = _H + _H.conj().T


def kernel_seconds() -> float:
    """Seconds taken by one run of the fixed kernel."""
    t0 = perf_counter()
    acc = 0.0
    table: dict[int, int] = {}
    for i in range(16000):
        key = i % 31
        table[key] = table.get(key, 0) + i
        acc += (i * 0.5) % 7
    for _ in range(120):
        w, v = np.linalg.eigh(_H)
        u = (v * np.exp(-0.1j * w)) @ v.conj().T
        acc += float(np.einsum("ii->", u @ _H).real)
    return perf_counter() - t0


def cold_kernel_seconds() -> float:
    """Seconds for a fresh interpreter to start and import numpy.

    Cold tasks spend most of their time starting a process and loading
    shared libraries, which the in-process kernel does not exercise; this
    kernel does, and it loads nothing from the program.
    """
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], check=True, timeout=60)
    return perf_counter() - t0


def at_reference_speed(seconds: float, kernels: list[float], reference: float = REFERENCE_S) -> float:
    """`seconds` scaled by `reference` over the mean of the nearby kernel times."""
    return seconds * reference * len(kernels) / sum(kernels)
