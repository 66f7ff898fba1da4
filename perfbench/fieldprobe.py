"""Per-operation cost of the exactfield kernel on a workload's own operands.

The operands are field elements drawn from the workload's generated inputs,
so a kernel change is measured on the coefficient sizes that workload
actually feeds it.  ``sign`` is the sign of a difference, ``(x - y).sign()``,
which is how geometry compares coordinates.
"""

from __future__ import annotations

import random
import statistics
import time
from fractions import Fraction
from typing import Callable

from quadrect.exactfield import FieldParam, format_quad, parse_quad

import calibrate

PAIRS = 1000
REPEATS = 5


def measure(p: int, elements: list[tuple[Fraction, Fraction]], rng: random.Random) -> dict[str, float]:
    """Median microseconds per operation over REPEATS passes of PAIRS pairs,
    scaled to nominal machine speed like every other time."""
    field = FieldParam(p)
    xs = [field.quad(a, b) for a, b in elements]
    nonzero = [x for x in xs if not x.is_zero()]
    pairs = [(rng.choice(xs), rng.choice(nonzero)) for _ in range(PAIRS)]
    texts = [format_quad(x) for x, _ in pairs]
    firsts = [x for x, _ in pairs]

    cases: dict[str, Callable[[], object]] = {
        "add": lambda: [x + y for x, y in pairs],
        "mul": lambda: [x * y for x, y in pairs],
        "div": lambda: [x / y for x, y in pairs],
        "sign": lambda: [(x - y).sign() for x, y in pairs],
        "hash": lambda: [hash(x) for x in firsts],
        "parse": lambda: [parse_quad(t, field) for t in texts],
        "format": lambda: [format_quad(x) for x in firsts],
    }
    out = {}
    for name, fn in cases.items():
        times = []
        kernel = calibrate.kernel_seconds()
        for _ in range(REPEATS):
            start = time.perf_counter()
            fn()
            elapsed = time.perf_counter() - start
            after = calibrate.kernel_seconds()
            times.append(elapsed * calibrate.scale(kernel, after))
            kernel = after
        out[name] = statistics.median(times) / PAIRS * 1e6
    return out
