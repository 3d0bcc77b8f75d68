"""Two-step and multi-step identification over groups with infinitely many arms.

The two-step sampler requests a fixed number of arms per group (enough for
each group's sample quantile to sandwich the reservoir quantile band with high
probability) and hands the resulting finite groups to the elimination loop.
The multi-step variant repeats this with a schedule of shrinking tolerances,
permanently dropping groups the subroutine eliminated and discarding all
previously requested arms between epochs.

Each epoch's oracles score the sampled arms: whether every group's sample
quantile sandwiches its reservoir quantile band (event A), and the largest
count of arms sharing one of the eps-wide hidden-index buckets.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .elimination import FiniteGroup, RunChecks, multiset_quantile, run_elimination
from .instances import BanditInstance, Reservoir, RewardEnv, quantile_band, relaxed_success_set

_INT_TOL = 1e-9


@dataclass(frozen=True)
class EpochPlan:
    """One epoch's tolerances ``eps`` and ``gap``, its failure budget and its arms per group."""

    eps: float
    gap: float
    delta: float
    arms_per_group: int


def plan_epochs(instance: BanditInstance, eps_schedule, gap_schedule,
                delta: float) -> tuple[EpochPlan, ...]:
    """Check a schedule of epoch tolerances and plan its epochs; errors name the epoch.

    Every epoch needs delta < eps < min(alpha, 1 - alpha) and gap > 0, with
    delta in (0, 1) the shared failure budget.  A two-step run is the schedule
    of length one.  Each epoch requests ``required_arm_count(eps, delta, G)``
    arms per group, with G all the instance's groups, not only the survivors.
    """
    if len(eps_schedule) != len(gap_schedule) or not eps_schedule:
        raise ValueError("eps and delta_gap schedules must be equally long and nonempty, "
                         f"got {len(eps_schedule)} and {len(gap_schedule)} epochs")
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    for k, (eps, gap) in enumerate(zip(eps_schedule, gap_schedule)):
        if not delta < eps < min(instance.alpha, 1.0 - instance.alpha):
            raise ValueError(f"schedule[{k}]: need delta < eps < min(alpha, 1-alpha); "
                             f"got delta={delta}, eps={eps}, alpha={instance.alpha}")
        if not 0.0 < gap < math.inf:
            raise ValueError(f"schedule[{k}]: gap must be positive and finite, got {gap}")
    return tuple(EpochPlan(eps, gap, delta, required_arm_count(eps, delta, len(instance.groups)))
                 for eps, gap in zip(eps_schedule, gap_schedule))


def required_arm_count(eps: float, delta: float, num_groups: int) -> int:
    """Arms to request per group: ceil(log(2 * num_groups / delta) / (2 eps^2))."""
    if eps <= 0.0 or not 0.0 < delta < 1.0 or num_groups < 1:
        raise ValueError("need eps > 0, delta in (0, 1), num_groups >= 1")
    return math.ceil(math.log(2.0 * num_groups / delta) / (2.0 * eps * eps))


def quantile_sandwiched(spec: Reservoir, sampled_means, alpha: float, eps: float) -> bool:
    """Whether the sample (1-alpha)-quantile lies inside the reservoir's
    quantile band [low, high] at levels (1 - alpha -/+ eps).  An empty
    sample raises ValueError."""
    low, high = quantile_band(spec, alpha, eps)
    return low <= multiset_quantile(sampled_means, alpha) <= high


@functools.lru_cache
def bucket_geometry(eps: float, alpha: float) -> tuple[int, np.ndarray, int]:
    """Bucket count m, boundaries b_1..b_m, and the quantile-level index
    floor((1 - alpha) / eps) shared by the bucket count and the gap bounds.

    The buckets split the hidden indices [0, 1]: bucket 0 is [0, b_1),
    buckets 1..m-1 are [b_i, b_{i+1}) and bucket m is [b_m, 1].  Every
    bucket is at most eps wide and the level 1 - alpha sits on a boundary,
    so an arm's bucket pins its position relative to the group quantile up
    to eps.  Callers check eps first.  Computed once per (eps, alpha), so
    every epoch at one tolerance shares the read-only boundaries.
    """
    level_steps = math.floor((1.0 - alpha) / eps + _INT_TOL)
    m = math.ceil(alpha / eps + level_steps - _INT_TOL)
    b = np.clip((1.0 - alpha) - level_steps * eps + np.arange(m) * eps, 0.0, 1.0)
    b.flags.writeable = False
    return m, b, level_steps


def _bucket_of(bounds: np.ndarray, js) -> np.ndarray:
    """Bucket 0..m of each hidden index in ``js``: the count of boundaries
    ``bounds`` at or below it."""
    return np.searchsorted(bounds, js, side="right")


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


@functools.lru_cache
def _finite_groups(group_ids: tuple[str, ...], count: int) -> tuple[FiniteGroup, ...]:
    """The groups :func:`request_arms` lays out, built once per (ids, count)."""
    return tuple(FiniteGroup(gid, range(i * count, (i + 1) * count))
                 for i, gid in enumerate(group_ids))


def request_arms(instance: BanditInstance, group_ids: list[str], count: int,
                 rng: np.random.Generator):
    """Request ``count`` fresh arms from each listed group.

    Group i holds arm ids i*count .. (i+1)*count - 1.  Returns the groups and
    the flat hidden indices (one draw per epoch) and true means, which each
    group reads through its ``columns``.
    """
    groups = list(_finite_groups(tuple(group_ids), count))
    js = rng.random(len(group_ids) * count)
    means = np.concatenate([instance.reservoir(g.group_id).quantile_many(js[g.columns])
                            for g in groups])
    return groups, js, means


def _largest_bucket(bounds: np.ndarray, js: np.ndarray) -> int:
    """The most hidden indices in ``js`` that share a bucket, the largest
    count ``np.bincount(_bucket_of(bounds, js))`` holds.  With c_i the count
    of indices below boundary i, read off one sort, bucket i holds
    c_i - c_{i-1} of them (c_{-1} = 0 and c_m = all), ties between
    boundaries included.  One sort and a search per boundary replace a
    search per index, whose branches random indices mispredict."""
    below = np.sort(js).searchsorted(bounds, side="left")
    return max(int(below[0]), js.size - int(below[-1]), int(np.diff(below).max(initial=0)))


def _epoch_oracles(instance: BanditInstance, groups, js, means, alpha: float, eps: float):
    """Event-A flag and max bucket size for one epoch's sampled groups."""
    sandwiched = all(
        quantile_sandwiched(instance.reservoir(g.group_id), means[g.columns], alpha, eps)
        for g in groups
    )
    _, bounds, _ = bucket_geometry(eps, alpha)
    return sandwiched, max(_largest_bucket(bounds, js[g.columns]) for g in groups)


def run_multistep(instance: BanditInstance, plans: tuple[EpochPlan, ...],
                  rng: np.random.Generator, oracle_checks: bool = False) -> TrialResult:
    """Run the epochs of :func:`plan_epochs`' ``plans``, of shrinking tolerances.

    Each epoch requests its plan's arms per group for the surviving groups,
    runs the elimination subroutine at that epoch's quantile slack, and
    permanently drops the groups it eliminated.  A one-epoch plan is exactly
    the two-step algorithm.  The success flag is scored against the exact
    reservoir oracle at the final epoch's (eps, gap).  The epochs'
    :class:`RunChecks` add up to the trial's; ``oracle_checks`` passes the
    true means to each epoch.  Arms, rewards (as the instance's family draws
    them; a noiseless one draws none) and tie-breaks draw from ``rng``.

    Every epoch spends the full ``delta`` on each of its three events (the
    sandwich, the bucket loads, the elimination run): K epochs succeed with
    probability at least 1 - 3 * K * delta.  The plans arrive checked.
    """
    a = instance.alpha
    surviving = list(instance.group_ids)
    epoch_pulls: list[int] = []
    rounds = 0
    event_a = True
    max_bucket = 0
    within_cap = True
    chosen = surviving[0]
    checks: RunChecks | None = None

    for plan in plans:
        groups, js, means = request_arms(instance, surviving, plan.arms_per_group, rng)
        sandwiched, bucket = _epoch_oracles(instance, groups, js, means, a, plan.eps)
        event_a = event_a and sandwiched
        max_bucket = max(max_bucket, bucket)
        within_cap = within_cap and bucket <= 3.0 * plan.eps * plan.arms_per_group
        env = RewardEnv(means, instance.family, rng)
        res = run_elimination(groups, a, plan.gap, plan.delta, env,
                              true_means=means if oracle_checks else None)
        epoch_pulls.append(res.total_pulls)
        rounds += res.rounds
        chosen = res.chosen
        checks = res.checks if checks is None else checks + res.checks
        surviving = [gid for gid in surviving if gid in res.final_candidates]
        if len(surviving) == 1:
            break

    success = chosen in relaxed_success_set(instance, plans[-1].eps, plans[-1].gap)
    return TrialResult(
        instance_id=instance.name, chosen_group=chosen, success=success,
        total_pulls=sum(epoch_pulls), rounds=rounds, event_a=event_a,
        max_bucket_size=max_bucket, buckets_within_cap=within_cap,
        epoch_pulls=tuple(epoch_pulls), checks=checks,
    )
