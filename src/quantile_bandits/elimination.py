"""Successive elimination for grouped max-quantile identification over finite arms.

Round structure: pull every active arm once, refresh its confidence interval,
then shrink three nested objects computed from the intervals of *all* arms in
each group (eliminated arms keep their last bounds frozen):

* candidate groups -- groups whose optimistic quantile still weakly dominates
  every candidate's pessimistic quantile;
* potential quantile arms per group -- arms whose interval straddles the
  group's pessimistic/optimistic quantile band; elimination is permanent, so
  this set only shrinks (which is what keeps every active arm at exactly t
  pulls after round t);
* active arms -- the union of potential quantile arms over candidate groups.

The loop stops once a single candidate remains or the spread between the most
optimistic and most pessimistic achievable max-quantiles drops to the target
slack.  The spread is always computed from its direct definition; the cheap
2*U(t, delta/n) shortcut is tracked as telemetry and flagged if it ever
disagrees.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .confidence import confidence_width, invert_width


def quantile_index(n: int, alpha: float) -> int:
    """Index of the (1-alpha)-quantile in a sorted n-vector (0-based).

    Smallest k with (k+1)/n >= 1 - alpha; a 1e-9 slack absorbs float round-off
    when n*(1-alpha) lands on an integer.
    """
    k = math.ceil(n * (1.0 - alpha) - 1e-9) - 1
    return min(max(k, 0), n - 1)


def multiset_quantile(values, alpha: float) -> float:
    """(1-alpha)-quantile of a finite multiset: smallest v with F(v) >= 1-alpha."""
    arr = np.sort(np.asarray(values, dtype=float).ravel())
    if arr.size == 0:
        raise ValueError("multiset quantile of an empty collection")
    return float(arr[quantile_index(arr.size, alpha)])


@dataclass(frozen=True)
class FiniteGroup:
    """A named finite set of arm ids (indices into the reward environment)."""

    group_id: str
    arm_ids: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.arm_ids) == 0:
            raise ValueError(f"group {self.group_id!r} has no arms")
        if len(set(self.arm_ids)) != len(self.arm_ids):
            raise ValueError(f"group {self.group_id!r} repeats arm ids")


class ArmLedger:
    """Per-arm pull counts, reward sums, and frozen/live confidence bounds.

    Bounds are recomputed only for arms pulled this round, around the mean
    ``sums / pulls``; unpulled arms keep their previous values, which is
    exactly the frozen-bound behaviour the elimination rules rely on.  Before
    the first pull an arm carries the sentinel interval (-inf, +inf).
    """

    def __init__(self, num_arms: int, delta_per_arm: float) -> None:
        self.delta_per_arm = delta_per_arm
        self.pulls = np.zeros(num_arms, dtype=np.int64)
        self.sums = np.zeros(num_arms)
        self.lcb = np.full(num_arms, -np.inf)
        self.ucb = np.full(num_arms, np.inf)
        self._width_table = confidence_width(np.arange(1, 1025), delta_per_arm)

    def width_at(self, pulls: np.ndarray) -> np.ndarray:
        top = int(pulls.max(initial=0))
        while top > self._width_table.size:
            grown = self._width_table.size * 2
            self._width_table = confidence_width(np.arange(1, grown + 1), self.delta_per_arm)
        return self._width_table[pulls - 1]

    def record_pulls(self, arm_ids: np.ndarray, rewards: np.ndarray) -> None:
        self.pulls[arm_ids] += 1
        self.sums[arm_ids] += rewards
        pulls = self.pulls[arm_ids]
        mean = self.sums[arm_ids] / pulls
        w = self.width_at(pulls)
        self.lcb[arm_ids] = mean - w
        self.ucb[arm_ids] = mean + w


@dataclass
class EliminationState:
    """Mutable per-round state of the elimination loop."""

    round_index: int
    candidates: tuple[str, ...]
    quantile_arms: dict[str, np.ndarray]
    active: np.ndarray
    spread: float


@dataclass
class EliminationResult:
    chosen: str
    total_pulls: int
    rounds: int
    pull_counts: np.ndarray
    final_candidates: tuple[str, ...]
    equal_pull_ok: bool
    shortcut_consistent: bool
    bounds_valid: bool | None = None
    stop_pull_violations: int | None = None
    best_group_retained: bool | None = None


@dataclass(frozen=True)
class GapProfile:
    """Exact per-group and per-arm gaps computed from true means (oracle side).

    ``overall[j] = max(slack, group_gap, uniqueness_gap-if-applicable, arm_gap)``
    controls how long arm j keeps being pulled.
    """

    best_group: str
    group_quantiles: dict[str, float]
    group_gaps: dict[str, float]
    uniqueness_gap: float
    arm_gaps: np.ndarray
    overall: np.ndarray


def gap_profile(groups: list[FiniteGroup], true_means: np.ndarray, alpha: float,
                slack: float) -> GapProfile:
    """Evaluate the four gap quantities for every arm.

    The best group is the argmax of the (1-alpha)-quantile of true means, ties
    broken toward the lowest group id.  The uniqueness gap is the smallest
    group gap among the remaining groups (+inf when there is a single group).
    """
    true_means = np.asarray(true_means, dtype=float)
    quants = {g.group_id: multiset_quantile(true_means[list(g.arm_ids)], alpha) for g in groups}
    best_val = max(quants.values())
    best_group = min(gid for gid, q in quants.items() if q == best_val)
    group_gaps = {gid: best_val - q for gid, q in quants.items()}
    others = [group_gaps[gid] for gid in quants if gid != best_group]
    uniqueness = min(others) if others else 0.0  # vacuous for a single group
    arm_gaps = np.zeros(true_means.size)
    overall = np.zeros(true_means.size)
    for g in groups:
        ids = np.asarray(g.arm_ids, dtype=np.int64)
        arm_gaps[ids] = np.abs(true_means[ids] - quants[g.group_id])
        overall[ids] = np.maximum(
            np.maximum(slack, group_gaps[g.group_id]),
            np.maximum(uniqueness, arm_gaps[ids]),
        )
    return GapProfile(best_group, quants, group_gaps, uniqueness, arm_gaps, overall)


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


class EliminationRun:
    """Driver object holding a single elimination run's state and telemetry.

    ``true_means`` is optional oracle data: when provided, the run also tracks
    whether every confidence interval covered its mean at every round, whether
    the best group stayed a candidate, and whether any arm was pulled after its
    width first fell below a quarter of its overall gap.
    """

    def __init__(self, groups: list[FiniteGroup], alpha: float, slack: float, delta: float,
                 env, rng: np.random.Generator | None = None,
                 true_means: np.ndarray | None = None) -> None:
        if not groups:
            raise ValueError("need at least one group")
        if not 0.0 < alpha < 1.0:
            raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
        if slack <= 0.0:
            raise ValueError(f"quantile slack must be positive, got {slack}")
        if not 0.0 < delta < 1.0:
            raise ValueError(f"delta must lie in (0, 1), got {delta}")
        all_ids = sorted(i for g in groups for i in g.arm_ids)
        n = len(all_ids)
        if all_ids != list(range(n)):
            raise ValueError("groups must partition arm ids 0..n-1 disjointly")
        if env.num_arms != n:
            raise ValueError("environment arm count does not match the groups")
        self.slack = slack
        self.env = env
        self.rng = rng if rng is not None else np.random.default_rng()
        self.ledger = ArmLedger(n, delta / n)
        self._idx = {g.group_id: np.asarray(g.arm_ids, dtype=np.int64) for g in groups}
        self._kq = {g.group_id: quantile_index(len(g.arm_ids), alpha) for g in groups}
        self.state = EliminationState(
            round_index=1,
            candidates=tuple(g.group_id for g in groups),
            quantile_arms={g.group_id: self._idx[g.group_id].copy() for g in groups},
            active=np.arange(n, dtype=np.int64),
            spread=math.inf,
        )
        self.total_pulls = 0
        # widths vanish, so the loop provably stops; the cap is a loud guard
        # against the astronomically unlikely fully-frozen stall
        self._round_cap = 100 * invert_width(slack / 4.0, delta / n) + 10_000
        self.equal_pull_ok = True
        self.shortcut_consistent = True
        # oracle-side telemetry
        self._true_means = None if true_means is None else np.asarray(true_means, dtype=float)
        self.bounds_valid: bool | None = None
        self.stop_pull_violations: int | None = None
        self.best_group_retained: bool | None = None
        self._stop_round = None
        if self._true_means is not None:
            self._profile = gap_profile(groups, self._true_means, alpha, slack)
            self._stop_round = np.full(n, -1, dtype=np.int64)
            self.bounds_valid = True
            self.stop_pull_violations = 0
            self.best_group_retained = True

    def should_stop(self) -> bool:
        return len(self.state.candidates) == 1 or self.state.spread <= self.slack

    def _group_quantiles(self, values: np.ndarray, gid: str) -> float:
        idx = self._idx[gid]
        return float(np.partition(values[idx], self._kq[gid])[self._kq[gid]])

    def step(self) -> EliminationState:
        """Run one round: pull all active arms, refresh bounds, shrink the sets."""
        if self.should_stop():
            raise RuntimeError("step() called after the stopping condition was met")
        st = self.state
        led = self.ledger
        t = st.round_index
        active = st.active

        if self._stop_round is not None:
            hit = self._stop_round[active]
            self.stop_pull_violations += int(np.count_nonzero((hit >= 1) & (hit < t)))

        led.record_pulls(active, self.env.pull(active))
        self.total_pulls += active.size
        if bool(np.any(led.pulls[active] != t)):
            self.equal_pull_ok = False

        if self._true_means is not None:
            mu = self._true_means[active]
            if bool(np.any((led.lcb[active] > mu) | (led.ucb[active] < mu))):
                self.bounds_valid = False
            widths = led.ucb[active] - led.lcb[active]
            small = widths < self._profile.overall[active] / 2.0  # half-width < gap/4
            fresh = small & (self._stop_round[active] == -1)
            if np.any(fresh):
                self._stop_round[active[fresh]] = t

        q_ucb = {gid: self._group_quantiles(led.ucb, gid) for gid in st.candidates}
        q_lcb = {gid: self._group_quantiles(led.lcb, gid) for gid in st.candidates}
        threshold = max(q_lcb.values())
        new_candidates = tuple(gid for gid in st.candidates if q_ucb[gid] >= threshold)

        # quantile bands range over ALL of the group's arms (frozen bounds
        # included); membership filters the previous set, so elimination is
        # permanent and active arms stay in lockstep at t pulls
        quantile_arms: dict[str, np.ndarray] = {}
        for gid in new_candidates:
            pool = st.quantile_arms[gid]
            mask = (led.lcb[pool] <= q_ucb[gid]) & (led.ucb[pool] >= q_lcb[gid])
            quantile_arms[gid] = pool[mask]
        new_active = (np.sort(np.concatenate([quantile_arms[g] for g in new_candidates]))
                      if new_candidates else np.empty(0, dtype=np.int64))
        if new_candidates and new_active.size == 0:
            raise RuntimeError(
                "all potential quantile arms eliminated while candidates remain; "
                "confidence bounds must have failed catastrophically")

        spread = (max(q_ucb[g] for g in new_candidates)
                  - max(q_lcb[g] for g in new_candidates)) if new_candidates else 0.0
        shortcut = 2.0 * float(self.ledger.width_at(np.asarray([t]))[0])
        if abs(spread - shortcut) > 1e-9:
            self.shortcut_consistent = False

        if self.best_group_retained is not None and self._profile.best_group not in new_candidates:
            self.best_group_retained = False

        self.state = EliminationState(t + 1, new_candidates, quantile_arms, new_active, spread)
        return self.state

    def choose(self) -> str:
        """Final recommendation: argmax of the pessimistic group quantiles."""
        st = self.state
        if st.round_index == 1:
            if len(st.candidates) != 1:
                raise RuntimeError("no rounds ran yet there are multiple candidates")
            return st.candidates[0]
        scores = {gid: self._group_quantiles(self.ledger.lcb, gid) for gid in st.candidates}
        best = max(scores.values())
        ties = [gid for gid in st.candidates if scores[gid] == best]
        if len(ties) == 1:
            return ties[0]
        return ties[int(self.rng.integers(len(ties)))]

    def run(self) -> EliminationResult:
        while not self.should_stop():
            if self.state.round_index > self._round_cap:
                raise RuntimeError(f"elimination failed to stop within {self._round_cap} rounds")
            self.step()
        chosen = self.choose()
        return EliminationResult(
            chosen=chosen,
            total_pulls=self.total_pulls,
            rounds=self.state.round_index - 1,
            pull_counts=self.ledger.pulls.copy(),
            final_candidates=self.state.candidates,
            equal_pull_ok=self.equal_pull_ok,
            shortcut_consistent=self.shortcut_consistent,
            bounds_valid=self.bounds_valid,
            stop_pull_violations=self.stop_pull_violations,
            best_group_retained=self.best_group_retained,
        )


def run_elimination(groups: list[FiniteGroup], alpha: float, slack: float, delta: float,
                    env, rng: np.random.Generator | None = None,
                    true_means: np.ndarray | None = None) -> EliminationResult:
    """Run the elimination loop to completion and return the chosen group."""
    return EliminationRun(groups, alpha, slack, delta, env, rng=rng, true_means=true_means).run()
