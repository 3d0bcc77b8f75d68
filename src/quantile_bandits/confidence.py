"""Anytime confidence widths, their shared table, and the first-crossing search.

The width after T pulls at confidence delta is

    U(T, delta) = sqrt((2 log(1/delta) + 6 loglog(1/delta) + 3 loglog(e T)) / T)

with natural logarithms.  The 6*loglog(1/delta) term is clamped at zero from
below: the elimination algorithm always calls with delta far below 1/e, so the
clamp only guards degenerate configurations.  For delta < 1/e the width is
strictly decreasing in T.

Every width decision is made here: ledgers read :func:`width_table`, one
shared read-only table per confidence that grows by doubling, and every first
crossing (the stop round t*, the round cap, each arm's stop round T_j) is
:func:`invert_width`, one elementwise search that builds no table.
"""

from __future__ import annotations

import functools
import math

import numpy as np


def confidence_width(pulls, delta: float):
    """Anytime width U(T, delta); ``pulls`` may be a positive int or array.
    Raises ValueError if any pull count is below 1 or delta is outside (0, 1)."""
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


@functools.lru_cache(maxsize=8)
def _table(size: int, delta_per_arm: float) -> np.ndarray:
    table = confidence_width(np.arange(1, size + 1), delta_per_arm)
    table.flags.writeable = False
    return table


def width_table(top: int, delta_per_arm: float) -> np.ndarray:
    """Read-only widths U(1..size, delta_per_arm) for the least size 1024 * 2**k
    that reaches ``top``; cached, so all ledgers at one confidence share them."""
    return _table(1024 << ((max(top, 1) - 1) // 1024).bit_length(), delta_per_arm)


_POWERS = 1 << np.arange(63, dtype=np.int64)  # T = 2**0..2**62 bracket every crossing


@functools.lru_cache(maxsize=8)
def _power_widths(delta_per_arm: float) -> np.ndarray:  # a running minimum, for any delta
    return np.minimum.accumulate(confidence_width(_POWERS, delta_per_arm))


def invert_width(target, delta_per_arm: float):
    """Smallest T with U(T, delta_per_arm) < target, elementwise over an array
    of targets; an int, memoized, for a scalar or 0-d target.  One searchsorted
    over U(2**0..2**62) brackets every target and all brackets are bisected at
    once, so no table of size T is built.  The crossing is exact while U
    decreases in T (delta_per_arm < 1/e).  Raises ValueError on a target that
    is not positive (NaN too) or not crossed by T = 2**62.
    """
    if np.ndim(target) == 0:
        return _invert_one(float(target), delta_per_arm)
    targets = np.asarray(target, dtype=float)
    if not np.all(targets > 0.0):
        raise ValueError(f"target width must be positive, got {targets[~(targets > 0.0)][0]}")
    k = np.searchsorted(-_power_widths(delta_per_arm), -targets, side="right")
    steps = int(k.max(initial=0))
    if steps == _POWERS.size:
        raise ValueError(f"target width {targets[k == steps][0]} is not crossed by T = 2**62")
    # U(lo) >= target > U(hi); a settled bracket, hi - lo == 1, stays as it is
    hi = _POWERS[k]
    lo = np.maximum(hi // 2, 1)
    for _ in range(steps - 1):
        mid = (lo + hi) // 2
        below = confidence_width(mid, delta_per_arm) < targets
        hi, lo = np.where(below, mid, hi), np.where(below, lo, mid)
    return hi


@functools.lru_cache
def _invert_one(target: float, delta_per_arm: float) -> int:
    return int(invert_width(np.array([target]), delta_per_arm)[0])
