"""Machine-speed reference for scaling measured times.

The hosts this benchmark runs on are shared, and their speed drifts by
about 20% within seconds.  Measured on a 2-vCPU VM (Python 3.11): the times
of identical cli_mix rounds vary with a coefficient of variation of 0.15 to
0.22; timed before and after each round, this kernel tracks them with
correlation 0.95, and scaling by it at least every 50 ms of operations
leaves a coefficient of variation of about 0.05.  The runner therefore
times this fixed, library-independent kernel between operations and scales
every measured time by ``NOMINAL_S / kernel time``:
times are reported as they would read on a host where the kernel takes
``NOMINAL_S``.  A change to the library cannot move the kernel, so it moves
the scaled times exactly as it moves the raw ones.  Raw times are kept in
the result file.
"""

from __future__ import annotations

import time
from fractions import Fraction

NOMINAL_S = 0.005


def kernel_seconds() -> float:
    """Time one pass of pure-Python work like the library's own: rational
    arithmetic, hashing and small-object churn."""
    start = time.perf_counter()
    acc = Fraction(0)
    table: dict[str, int] = {}
    for i in range(1, 700):
        acc += Fraction(i, i + 7) * Fraction(3, i + 1)
        table[str(i)] = acc.numerator % 97
    return time.perf_counter() - start


def scale(kernel_before: float, kernel_after: float) -> float:
    """Factor that turns a raw time measured between two kernel runs into a
    nominal-speed time."""
    return NOMINAL_S / ((kernel_before + kernel_after) / 2)
