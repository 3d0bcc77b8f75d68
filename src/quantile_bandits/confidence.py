"""Anytime confidence intervals for empirical means of sub-Gaussian rewards.

The width after T pulls at confidence delta is

    U(T, delta) = sqrt((2 log(1/delta) + 6 loglog(1/delta) + 3 loglog(e T)) / T)

with natural logarithms.  The 6*loglog(1/delta) term is clamped at zero from
below: the elimination algorithm always calls with delta far below 1/e, so the
clamp only guards degenerate configurations.  For delta < 1/e the width is
strictly decreasing in T.
"""

from __future__ import annotations

import functools
import math

import numpy as np


def confidence_width(pulls, delta: float):
    """Anytime width U(T, delta); ``pulls`` may be a positive int or array.

    Raises
    ------
    ValueError
        If any pull count is below 1 or delta is outside (0, 1).
    """
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    t = np.asarray(pulls, dtype=float)
    if np.any(t < 1):
        raise ValueError("confidence width needs at least one pull")
    big_l = math.log(1.0 / delta)
    loglog = max(math.log(big_l), 0.0)
    num = 2.0 * big_l + 6.0 * loglog + 3.0 * np.log(np.log(math.e * t))
    out = np.sqrt(num / t)
    return float(out) if np.isscalar(pulls) or np.ndim(pulls) == 0 else out


@functools.lru_cache
def invert_width(target: float, delta_per_arm: float) -> int:
    """Smallest T with U(T, delta_per_arm) < target.

    Found by doubling then bisection; exact first crossing whenever the width
    is decreasing in T (always the case for delta_per_arm < 1/e).  Memoized:
    the elimination runs of one experiment epoch invert the same two widths.
    """
    if target <= 0.0:
        raise ValueError(f"target width must be positive, got {target}")
    if confidence_width(1, delta_per_arm) < target:
        return 1
    lo, hi = 1, 2
    while confidence_width(hi, delta_per_arm) >= target:
        lo = hi
        hi *= 2
        if hi > 2**62:
            raise RuntimeError("width inversion failed to bracket; target too small")
    # invariant: U(lo) >= target > U(hi)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if confidence_width(mid, delta_per_arm) < target:
            hi = mid
        else:
            lo = mid
    return hi
