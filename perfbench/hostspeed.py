"""Host-speed references for ``rtf``, ``trace.overhead_s`` and ``setup_s``.

On a shared host the speed of one core swings by up to 2x over tens of
seconds as other tenants come and go, and the enhancer slows with it: the
run-to-run spread of raw RTF reached 15-26% of the median.  A fixed
reference kernel, timed just before and just after each timed call, slows
the same way (its time correlates at 0.7-0.9 with the enhancer's), so

    rtf = raw seconds x REFERENCE_S / (mean of the two kernel times)

reads the enhancer's cost in seconds of a host running the kernel in
REFERENCE_S.  The kernel is fixed here and shares no code with the package,
so a change to the package moves ``rtf`` as much as it moves raw seconds.

Set-up time (mostly imports) tracks that kernel too loosely (correlation
0.6).  It is scaled instead by the time a fresh interpreter takes to import
the package's third-party dependencies, timed before and after each probe
(correlation 0.65-0.83), to seconds of a host that imports them in
IMPORT_REFERENCE_S.  The import list is fixed here, so a package change
that imports more, or less, still moves ``setup_s``.
"""
import subprocess
import sys
import time

import numpy as np

# the kernel's time on the reference host (2 cores, Python 3.11.7,
# numpy 2.4.6), the fastest of repeated timings
REFERENCE_S = 0.023

# the modules modkalm imports from numpy and scipy, and their import time
# in a fresh interpreter on the reference host
DEPENDENCIES = ("numpy", "scipy.ndimage", "scipy.optimize", "scipy.signal",
                "scipy.special")
IMPORT_REFERENCE_S = 1.0

_X = np.linspace(-3.0, 3.0, 257)


def kernel_seconds() -> float:
    """Time one pass of the kernel: a pure-Python integer loop and a run of
    small numpy calls on one frame's worth of bins, the two kinds of work
    the enhancer's inner loops are made of."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(200_000):
        acc += i * i % 7
    for _ in range(2_000):
        np.sum(np.exp(-_X * _X) * _X)
    return time.perf_counter() - t0


def at_reference(seconds: float, kernel_before: float, kernel_after: float) -> float:
    """``seconds`` measured between two kernel timings, scaled to the
    reference host speed."""
    return seconds * REFERENCE_S * 2.0 / (kernel_before + kernel_after)


def import_seconds() -> float:
    """Seconds a fresh interpreter takes to import :data:`DEPENDENCIES`."""
    code = ("import time; t = time.perf_counter(); import "
            + ", ".join(DEPENDENCIES) + "; print(time.perf_counter() - t)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120, check=True)
    return float(proc.stdout)
