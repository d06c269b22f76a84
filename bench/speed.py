"""Machine-speed reference for the benchmark's timing metrics.

The reference machine's two shared vCPUs run the same code at speeds up to
2x apart, in states that last from a fraction of a second to longer than
a ten-second run, so raw wall-clock timings of one build spread by 10-45%
across runs.  A fixed pure-Python loop slows down with the machine by about
the same factor as the library does, so the benchmark times the loop next
to the work and reports timings scaled to a machine on which the loop takes
REFERENCE_S: a time t measured while the loop took L is reported as
t * REFERENCE_S / L.  REFERENCE_S is about what the loop takes in the
reference machine's fastest state, so scaled timings read like wall-clock
timings on an unloaded core of that machine.

This module is pure Python on purpose: worker.py times the loop before it
imports numpy, scipy or the library.
"""

from __future__ import annotations

import time

REFERENCE_S = 0.6e-3
REPEATS = 3


def _loop() -> float:
    # Dict lookups, float arithmetic and branches, like the library's
    # pure-Python inner loops.
    table: dict = {}
    total = 0.0
    for i in range(3000):
        key = i & 255
        table[key] = table.get(key, 0.0) + i * 0.5
        total += table[key] % 7.0
    return total


def loop_s() -> float:
    """Fastest of REPEATS timings of the loop, in seconds."""
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        _loop()
        best = min(best, time.perf_counter() - start)
    return best


def scale(*loop_times: float) -> float:
    """Factor that turns seconds measured while the loop took `loop_times`
    (their mean) into seconds at the reference speed."""
    return REFERENCE_S * len(loop_times) / sum(loop_times)


def scale_over(readings: list[tuple[float, float]]) -> float:
    """Factor for a span sampled by (perf_counter time, loop seconds)
    readings: each stretch between two readings is scaled by the loop times
    at its ends, and the factors are weighted by the stretches' lengths."""
    spans = list(zip(readings, readings[1:]))
    total = sum(t1 - t0 for (t0, _), (t1, _) in spans)
    return sum((t1 - t0) * scale(l0, l1) for (t0, l0), (t1, l1) in spans) / total
