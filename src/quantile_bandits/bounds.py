"""Pull-count bounds from the paper's analysis.

The instance-dependent bounds sum one summand over gap lower bounds: the
finite-arm bound over every arm's overall gap, and the grouped multi-step
bound over reservoir-level bounds on the gaps a sampled group realizes,
bucket by bucket.  The worst-case bound depends only on the tolerances.
No trial calls these; the harness and the CLI evaluate them once per run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .elimination import GapProfile
from .grouped import EpochPlan, bucket_geometry
from .instances import BanditInstance, quantile_band


def gap_bound_sum(gaps: np.ndarray, arms_over_delta: float) -> float:
    """Sum over gaps g of (1 / g^2) * log((N/delta) * log(max(1/g^2, e))).

    The summand of every pull-count bound; the bounds are order-level, so
    the constant in front is 1.  ``arms_over_delta`` is N/delta.  The inner
    log argument is clamped at e so a gap of 1 stays well-defined.
    """
    inner = np.log(np.maximum(1.0 / gaps**2, math.e))
    return float(np.sum((1.0 / gaps**2) * np.log(arms_over_delta * inner)))


def bound_pulls_finite(profile: GapProfile, num_arms: int, delta: float) -> float:
    """Gap-based pull-count bound for the finite-arm elimination loop: the
    bound summand over every arm's overall gap with N = ``num_arms``."""
    gaps = profile.overall
    if np.any(gaps <= 0.0):
        raise ValueError("all overall gaps must be positive")
    return gap_bound_sum(gaps, num_arms / delta)


@dataclass(frozen=True)
class ReservoirGapBounds:
    """Reservoir-level lower bounds on the gaps realized by sampled groups.

    Whenever every group's sample quantile is sandwiched, the realized group
    gap dominates ``group_bound``, the realized uniqueness gap dominates
    ``uniqueness_bound``, and every arm whose hidden index falls in bucket i
    has arm gap at least ``bucket_bounds[gid][i]``.  ``combined`` folds in the
    run's quantile slack, mirroring the per-arm overall gap.
    """

    bucket_count: int
    best_group_relaxed: str
    group_bound: dict[str, float]
    uniqueness_bound: float
    bucket_bounds: dict[str, np.ndarray]
    combined: dict[str, np.ndarray]


def reservoir_gap_bounds(instance: BanditInstance, eps: float, gap: float) -> ReservoirGapBounds:
    """Evaluate the gap lower bounds at tolerances (eps, gap) exactly from
    the reservoir quantiles."""
    a = instance.alpha
    low, high = {}, {}
    for gid, res in instance.groups:
        low[gid], high[gid] = quantile_band(res, a, eps)
    if not 0.0 < gap < math.inf:
        raise ValueError(f"gap must be positive and finite, got {gap}")
    m, bounds, level_steps = bucket_geometry(eps, a)
    best_low = max(low.values())
    best_high = max(high.values())
    relaxed_best = min(gid for gid in instance.group_ids if high[gid] == best_high)
    others_high = [high[gid] for gid in instance.group_ids if gid != relaxed_best]
    uniq = best_low - max(others_high) if others_high else math.inf
    group_bound = {gid: best_low - high[gid] for gid in instance.group_ids}

    bucket_bounds: dict[str, np.ndarray] = {}
    combined: dict[str, np.ndarray] = {}
    for gid, res in instance.groups:
        # bucket i lies in [bounds[i-1], bounds[i]); the three around the level stay 0
        vals = np.zeros(m + 1)
        vals[:level_steps - 1] = low[gid] - res.quantile_many(bounds[:level_steps - 1])
        vals[level_steps + 2:] = res.quantile_many(bounds[level_steps + 1:m]) - high[gid]
        bucket_bounds[gid] = vals
        combined[gid] = np.maximum(gap, np.maximum(group_bound[gid], np.maximum(uniq, vals)))
    return ReservoirGapBounds(m, relaxed_best, group_bound, uniq, bucket_bounds, combined)


def pull_bound_worst_case(num_groups: int, eps: float, gap: float, delta: float) -> float:
    """Weakened worst-case bound G / (eps^2 gap^2) * polylog terms, order-level
    (constant 1)."""
    lg = math.log(num_groups / delta)
    loglog = max(math.log(max(math.log(1.0 / gap), 1.0)), 0.0) if gap < 1.0 else 0.0
    return (num_groups / (eps**2 * gap**2)) * (lg * lg + lg * loglog)


def _schedule_gap_bounds(instance: BanditInstance, plans: tuple[EpochPlan, ...]):
    """Each epoch's reservoir gap bounds (evaluated once per epoch) and each
    group's last paying epoch as :func:`epochs_until_elimination` defines it."""
    gap_bounds = [reservoir_gap_bounds(instance, plan.eps, plan.gap) for plan in plans]
    kmax = {gid: next((k for k, (plan, gapb) in enumerate(zip(plans, gap_bounds), start=1)
                       if gapb.group_bound[gid] > plan.gap), len(plans))
            for gid in instance.group_ids}
    return gap_bounds, kmax


def epochs_until_elimination(instance: BanditInstance,
                             plans: tuple[EpochPlan, ...]) -> dict[str, int]:
    """Earliest epoch whose reservoir-level group gap bound exceeds that
    epoch's quantile slack (the full schedule length when none does)."""
    return _schedule_gap_bounds(instance, plans)[1]


def pull_bound_multistep(instance: BanditInstance, plans: tuple[EpochPlan, ...]) -> float:
    """Schedule-aware pull bound: each group pays the per-epoch grouped bound
    only up to the epoch where its reservoir gap bound exceeds the slack.

    Epoch k's bound sums, over its paying groups, the bound summand over buckets 1..m at
    N = G * n_k arms, and scales that sum by 3 * eps_k * n_k from the left (another order
    moves the last bit).  A one-epoch plan gives the two-step bound, which every group pays.
    """
    gap_bounds, kmax = _schedule_gap_bounds(instance, plans)
    num_groups = len(instance.groups)
    total = 0.0
    for k, (plan, gapb) in enumerate(zip(plans, gap_bounds), start=1):
        n_k = plan.arms_per_group
        epoch = 0.0  # plain left-to-right sum: builtin sum() compensates from Python 3.12
        for gid in instance.group_ids:
            if k <= kmax[gid]:
                epoch += gap_bound_sum(gapb.combined[gid][1:], num_groups * n_k / plan.delta)
        total += epoch * 3.0 * plan.eps * n_k
    return total
