"""The calibration loop: a fixed piece of work, timed next to every trial.

The benchmark's host is shared, and its speed drifts by a quarter and more
over tens of seconds, for a trial and for any other code alike.  So every
untraced trial is followed, in the same process, by one run of this loop,
and trial costs are reported in ``cal``: the trial's seconds divided by the
loop's seconds measured beside it.  The drift divides out; a change to the
program does not, because the loop uses none of it.

The loop mixes what a trial spends its time on: small numpy arrays (draws,
comparisons, reductions) and Python-level iteration.  It takes about 10 ms
on a 2-core Xeon box.  Changing it changes every ``cal`` figure, so it is
fixed for the life of the benchmark.
"""

from __future__ import annotations

import time

import numpy as np

ROUNDS = 1000
WIDTH = 1024


def calibration_loop() -> int:
    rng = np.random.default_rng(0)
    means = rng.random(WIDTH)
    total = 0
    for _ in range(ROUNDS):
        draws = rng.random(WIDTH) < means
        total += int(draws.sum()) + len([x for x in range(20) if x & 1])
    return total


def timed_calibration() -> tuple[float, float]:
    """Wall and CPU seconds of one run of the loop in this process."""
    w0, c0 = time.perf_counter(), time.process_time()
    calibration_loop()
    return time.perf_counter() - w0, time.process_time() - c0
