"""Two-step and multi-step identification over groups with infinitely many arms.

The two-step sampler requests a fixed number of arms per group (enough for
each group's sample quantile to sandwich the reservoir quantile band with high
probability) and hands the resulting finite groups to the elimination loop.
The multi-step variant repeats this with a schedule of shrinking tolerances,
permanently dropping groups the subroutine eliminated and discarding all
previously requested arms between epochs.

This module also houses the oracle-side analysis helpers: the eps-wide
hidden-index buckets of sampled arms and their largest-bucket count,
reservoir-level lower bounds on the realized gaps, and the pull-count bound
evaluators built from them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .elimination import FiniteGroup, RunChecks, gap_bound_sum, multiset_quantile, run_elimination
from .instances import BanditInstance, Reservoir, RewardEnv, quantile_band, relaxed_success_set

_INT_TOL = 1e-9


def check_schedule(alpha: float, eps_schedule, gap_schedule, delta: float) -> None:
    """Validate a schedule of epoch tolerances; errors name the epoch.

    Every epoch needs delta < eps < min(alpha, 1 - alpha) and gap > 0, with
    delta in (0, 1) the shared failure budget.  A two-step run is the
    schedule of length one.
    """
    if len(eps_schedule) != len(gap_schedule) or not eps_schedule:
        raise ValueError("eps and delta_gap schedules must be equally long and nonempty, "
                         f"got {len(eps_schedule)} and {len(gap_schedule)} epochs")
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    for k, (eps, gap) in enumerate(zip(eps_schedule, gap_schedule)):
        if not delta < eps < min(alpha, 1.0 - alpha):
            raise ValueError(f"schedule[{k}]: need delta < eps < min(alpha, 1-alpha); "
                             f"got delta={delta}, eps={eps}, alpha={alpha}")
        if not 0.0 < gap < math.inf:
            raise ValueError(f"schedule[{k}]: gap must be positive and finite, got {gap}")


def required_arm_count(eps: float, delta: float, num_groups: int) -> int:
    """Arms to request per group: ceil(log(2 * num_groups / delta) / (2 eps^2))."""
    if eps <= 0.0 or not 0.0 < delta < 1.0 or num_groups < 1:
        raise ValueError("need eps > 0, delta in (0, 1), num_groups >= 1")
    return math.ceil(math.log(2.0 * num_groups / delta) / (2.0 * eps * eps))


def quantile_sandwiched(spec: Reservoir, sampled_means, alpha: float, eps: float) -> bool:
    """Whether the sample (1-alpha)-quantile lies inside the reservoir's
    quantile band at levels (1 - alpha -/+ eps)."""
    q = multiset_quantile(sampled_means, alpha)
    low, high = quantile_band(spec, alpha, eps)
    return low <= q <= high


def _bucket_geometry(eps: float, alpha: float) -> tuple[int, np.ndarray, int]:
    """Bucket count m, boundaries b_1..b_m, and the quantile-level index
    floor((1 - alpha) / eps) shared by the bucket count and the gap bounds.

    The buckets split the hidden indices [0, 1]: bucket 0 is [0, b_1),
    buckets 1..m-1 are [b_i, b_{i+1}) and bucket m is [b_m, 1].  Every
    bucket is at most eps wide and the level 1 - alpha sits on a boundary,
    so an arm's bucket pins its position relative to the group quantile up
    to eps.  Callers check eps first.
    """
    level_steps = math.floor((1.0 - alpha) / eps + _INT_TOL)
    m = math.ceil(alpha / eps + level_steps - _INT_TOL)
    b = (1.0 - alpha) - level_steps * eps + np.arange(m) * eps
    return m, np.clip(b, 0.0, 1.0), level_steps


def _bucket_of(bounds: np.ndarray, js) -> np.ndarray:
    """Bucket 0..m of each hidden index in ``js``: the count of boundaries
    ``bounds`` at or below it."""
    return np.searchsorted(bounds, js, side="right")


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
    m, bounds, level_steps = _bucket_geometry(eps, a)
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


@dataclass
class TrialResult:
    """Outcome and telemetry of one identification trial; ``buckets_within_cap``
    says that every epoch's largest bucket load is within its own 3 * eps_k * n_k."""

    instance_id: str
    chosen_group: str
    success: bool
    total_pulls: int
    rounds: int
    event_a: bool
    max_bucket_size: int
    buckets_within_cap: bool
    epoch_pulls: tuple[int, ...]
    checks: RunChecks


def request_arms(instance: BanditInstance, group_ids: list[str], count: int,
                 rng: np.random.Generator):
    """Request ``count`` fresh arms from each listed group.

    Group i holds arm ids i*count .. (i+1)*count - 1.  Returns the groups and
    the flat hidden indices (one draw per epoch) and true means, which each
    group reads through its ``columns``.
    """
    groups = [FiniteGroup(gid, range(i * count, (i + 1) * count))
              for i, gid in enumerate(group_ids)]
    js = rng.random(len(group_ids) * count)
    means = np.concatenate([instance.reservoir(g.group_id).quantile_many(js[g.columns])
                            for g in groups])
    return groups, js, means


def _epoch_oracles(instance: BanditInstance, groups, js, means, alpha: float, eps: float):
    """Event-A flag and max bucket size for one epoch's sampled groups."""
    sandwiched = all(
        quantile_sandwiched(instance.reservoir(g.group_id), means[g.columns], alpha, eps)
        for g in groups
    )
    m, bounds, _ = _bucket_geometry(eps, alpha)
    largest = max(int(np.bincount(_bucket_of(bounds, js[g.columns]), minlength=m + 1).max())
                  for g in groups)
    return sandwiched, largest


def run_multistep(instance: BanditInstance, eps_schedule, gap_schedule, delta: float,
                  rng: np.random.Generator, oracle_checks: bool = False) -> TrialResult:
    """Run the epoch schedule of shrinking tolerances.

    Each epoch requests fresh arms for the surviving groups, runs the
    elimination subroutine at that epoch's quantile slack, and permanently
    drops the groups it eliminated.  A schedule of length one is exactly the
    two-step algorithm.  The success flag is scored against the exact
    reservoir oracle at the final epoch's (eps, gap).  The epochs'
    :class:`RunChecks` add up to the trial's; ``oracle_checks`` passes the
    true means to each epoch.  Arms, rewards (as the instance's family draws
    them; a noiseless one draws none) and tie-breaks draw from ``rng``.

    Every epoch spends the full ``delta`` on each of its three events (the
    sandwich, the bucket loads, the elimination run): K epochs succeed with
    probability at least 1 - 3 * K * delta.  ``required_arm_count`` counts
    all groups in every epoch, not only the survivors.
    """
    a = instance.alpha
    check_schedule(a, eps_schedule, gap_schedule, delta)

    num_groups = len(instance.groups)
    surviving = list(instance.group_ids)
    epoch_pulls: list[int] = []
    rounds = 0
    event_a = True
    max_bucket = 0
    within_cap = True
    chosen = surviving[0]
    checks: RunChecks | None = None

    for eps, gap in zip(eps_schedule, gap_schedule):
        n_per = required_arm_count(eps, delta, num_groups)
        groups, js, means = request_arms(instance, surviving, n_per, rng)
        sandwiched, bucket = _epoch_oracles(instance, groups, js, means, a, eps)
        event_a = event_a and sandwiched
        max_bucket = max(max_bucket, bucket)
        within_cap = within_cap and bucket <= 3.0 * eps * n_per
        env = RewardEnv(means, instance.family, rng)
        res = run_elimination(groups, a, gap, delta, env,
                              true_means=means if oracle_checks else None)
        epoch_pulls.append(res.total_pulls)
        rounds += res.rounds
        chosen = res.chosen
        checks = res.checks if checks is None else checks + res.checks
        surviving = [gid for gid in surviving if gid in res.final_candidates]
        if len(surviving) == 1:
            break

    success = chosen in relaxed_success_set(instance, eps_schedule[-1], gap_schedule[-1])
    return TrialResult(
        instance_id=instance.name, chosen_group=chosen, success=success,
        total_pulls=sum(epoch_pulls), rounds=rounds, event_a=event_a,
        max_bucket_size=max_bucket, buckets_within_cap=within_cap,
        epoch_pulls=tuple(epoch_pulls), checks=checks,
    )


def _schedule_gap_bounds(instance: BanditInstance, eps_schedule, gap_schedule, delta: float):
    """Each epoch's reservoir gap bounds (evaluated once per epoch) and each
    group's last paying epoch as :func:`epochs_until_elimination` defines it."""
    check_schedule(instance.alpha, eps_schedule, gap_schedule, delta)
    gap_bounds = [reservoir_gap_bounds(instance, eps, gap)
                  for eps, gap in zip(eps_schedule, gap_schedule)]
    kmax = {gid: next((k for k, (gap, gapb) in enumerate(zip(gap_schedule, gap_bounds), start=1)
                       if gapb.group_bound[gid] > gap), len(gap_schedule))
            for gid in instance.group_ids}
    return gap_bounds, kmax


def epochs_until_elimination(instance: BanditInstance, eps_schedule, gap_schedule,
                             delta: float) -> dict[str, int]:
    """Earliest epoch whose reservoir-level group gap bound exceeds that
    epoch's quantile slack (the full schedule length when none does)."""
    return _schedule_gap_bounds(instance, eps_schedule, gap_schedule, delta)[1]


def pull_bound_multistep(instance: BanditInstance, eps_schedule, gap_schedule,
                         delta: float) -> float:
    """Schedule-aware pull bound: each group pays the per-epoch grouped bound
    only up to the epoch where its reservoir gap bound exceeds the slack.

    Epoch k's bound sums, over its paying groups, the bound summand over
    buckets 1..m at N = G * n_k arms, and scales that sum by 3 * eps_k * n_k.
    A one-epoch schedule gives the two-step bound, which every group pays.
    """
    gap_bounds, kmax = _schedule_gap_bounds(instance, eps_schedule, gap_schedule, delta)
    num_groups = len(instance.groups)
    total = 0.0
    for k, (eps, gapb) in enumerate(zip(eps_schedule, gap_bounds), start=1):
        n_k = required_arm_count(eps, delta, num_groups)
        epoch = 0.0  # plain left-to-right sum: builtin sum() compensates from Python 3.12
        for gid in instance.group_ids:
            if k <= kmax[gid]:
                epoch += gap_bound_sum(gapb.combined[gid][1:], num_groups * n_k / delta)
        total += epoch * 3.0 * eps * n_k
    return total
