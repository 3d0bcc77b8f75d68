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

Each group is a range of consecutive arm ids, and the groups tile 0..n-1 in
group order.  The active set is the candidates' pools concatenated in that
order, so a group's arms, and its live arms among the active ones, are read
by slicing, never gathered.

The loop stops once a single candidate remains or the spread between the most
optimistic and most pessimistic achievable max-quantiles drops to the target
slack.  The spread is always computed from its direct definition; the cheap
2*U(t, delta/n) shortcut is tracked as telemetry and flagged if it ever
disagrees.  Ties in the final recommendation draw from the reward stream,
and a run's verdicts form one :class:`RunChecks` record.

Widths come from :mod:`.confidence`: the ledger reads the shared width table,
and the round t* where 2*U(t) meets the slack, the round cap and each arm's
stop round T_j are first crossings found by one ``invert_width``.

Block rounds: between set changes round t+1 repeats round t with one more
pull of the same arms, so :meth:`EliminationRun.step` evaluates a block of up
to K rounds from one reward draw and its running sums, and ends it at the
first round that changes a set or meets the stopping condition.  K is at
most the block budget over the run's starting arm count (not the active
count) and the rounds left to t*; it doubles after a full block and halves
after a cut one, but not below a quarter of the budget.  The reward
generator advances exactly as one draw per round would, sums accumulate row
by row and quantiles are exact order statistics, so a block gives the same
bits as its rounds run one at a time.  A group with frozen arms finds its
quantile among the live bounds at a rank shifted by the frozen bounds below
them, and sorts frozen and live bounds together only when a frozen bound
lies among the live ones (:func:`_live_rank`).  Between set changes the run
carries the running sums and writes the ledger only at a set change or the
stop.  Most blocks change nothing, and a screen proves that from their last
row of sums alone, sorted once per group, when the sums are int32, no true
means were given, no candidate group has a frozen arm, and 2*U stays above
the slack through the block (:func:`_quiet_block`).  Its first row adds 0 or
1 to the carried sums, so each group's kth and least carried sum, which the
run keeps beside the sums, stand in for that row's from below.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .confidence import invert_width, width_table


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
    """A named finite group of arms: a ``range`` of consecutive ids into the
    reward environment.  Consecutive ids given as a tuple or list are stored as
    the equal range; other ids are rejected.  ``columns`` slices the group's
    arms out of any array indexed by arm id."""

    group_id: str
    arm_ids: range

    def __post_init__(self) -> None:
        ids = self.arm_ids
        if len(ids) == 0:
            raise ValueError(f"group {self.group_id!r} has no arms")
        run = range(ids[0], ids[0] + len(ids))
        if not (ids == run if isinstance(ids, range) else tuple(ids) == tuple(run)):
            raise ValueError(f"group {self.group_id!r} arm ids must be consecutive")
        object.__setattr__(self, "arm_ids", run)

    @property
    def columns(self) -> slice:
        return slice(self.arm_ids.start, self.arm_ids.stop)


class ArmLedger:
    """Per-arm pull counts, reward sums, and frozen/live confidence bounds.

    Bounds are recomputed only for the arms a commit lists, around the mean
    ``sums / pulls``; other arms keep their previous values, which is
    exactly the frozen-bound behaviour the elimination rules rely on.  Before
    the first pull an arm carries the sentinel interval (-inf, +inf).
    :class:`EliminationRun` commits only at set changes and at the stop, so
    mid-run its ledger is current only there.
    """

    def __init__(self, num_arms: int, delta_per_arm: float) -> None:
        self.delta_per_arm = delta_per_arm
        self.pulls = np.zeros(num_arms, dtype=np.int64)
        self.sums = np.zeros(num_arms)
        self.lcb = np.full(num_arms, -np.inf)
        self.ucb = np.full(num_arms, np.inf)
        self._widths = width_table(1, delta_per_arm)

    def width_at(self, pulls: np.ndarray | range) -> np.ndarray:
        """Widths U(pulls, delta_per_arm) read off the shared table.  An array
        of pull counts is gathered; a ``range`` of consecutive counts, a
        block's rounds, is one read-only slice of the table.  A pull count
        below 1 raises ValueError, as ``confidence_width`` does."""
        if isinstance(pulls, range):
            if pulls.step != 1:
                raise ValueError("a range of pull counts must have step 1")
            low, top = pulls.start if pulls else 1, pulls.stop - 1
            index = slice(pulls.start - 1, top)
        else:
            low, top, index = pulls.min(initial=1), int(pulls.max(initial=0)), pulls - 1
        if low < 1:
            raise ValueError("confidence width needs at least one pull")
        if top > self._widths.size:
            self._widths = width_table(top, self.delta_per_arm)
        return self._widths[index]

    def record_pulls(self, arm_ids: np.ndarray, sums: np.ndarray, count: int) -> None:
        """Record ``count`` more pulls of each listed arm, whose reward sums
        are now ``sums``, and refresh their bounds."""
        self.pulls[arm_ids] += count
        self.sums[arm_ids] = sums
        pulls = self.pulls[arm_ids]
        mean, width = sums / pulls, self.width_at(pulls)
        self.lcb[arm_ids], self.ucb[arm_ids] = mean - width, mean + width


@dataclass
class EliminationState:
    """Mutable per-round state of the elimination loop."""

    round_index: int
    candidates: tuple[str, ...]
    quantile_arms: dict[str, np.ndarray]
    active: np.ndarray
    spread: float


@dataclass
class RunChecks:
    """Verdicts of an elimination run: every active arm had t pulls after
    round t, and the spread equalled 2*U(t) in every round.  Given the true
    means (None without): every interval covered its mean, the pulls past
    each arm's stop round (the first t with U(t) < overall gap / 4), the
    best group stayed a candidate, and the chosen group is within the slack
    of the best (event B).  ``a + b`` checks two runs in a row: a flag holds
    only if it held in both, violations add up, unchecked in either is None.
    """

    equal_pull_ok: bool = True
    shortcut_consistent: bool = True
    bounds_valid: bool | None = None
    stop_pull_violations: int | None = None
    best_group_retained: bool | None = None
    event_b: bool | None = None

    def __add__(self, other: RunChecks) -> RunChecks:
        def both(a, b, op=lambda x, y: x and y):
            return None if a is None or b is None else op(a, b)

        return RunChecks(
            self.equal_pull_ok and other.equal_pull_ok,
            self.shortcut_consistent and other.shortcut_consistent,
            both(self.bounds_valid, other.bounds_valid),
            both(self.stop_pull_violations, other.stop_pull_violations, operator.add),
            both(self.best_group_retained, other.best_group_retained),
            both(self.event_b, other.event_b),
        )


@dataclass
class EliminationResult:
    chosen: str
    total_pulls: int
    rounds: int
    pull_counts: np.ndarray
    final_candidates: tuple[str, ...]
    checks: RunChecks


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
    quants = {g.group_id: multiset_quantile(true_means[g.columns], alpha) for g in groups}
    best_val = max(quants.values())
    best_group = min(gid for gid, q in quants.items() if q == best_val)
    group_gaps = {gid: best_val - q for gid, q in quants.items()}
    others = [group_gaps[gid] for gid in quants if gid != best_group]
    uniqueness = min(others) if others else 0.0  # vacuous for a single group
    arm_gaps = np.zeros(true_means.size)
    overall = np.zeros(true_means.size)
    for g in groups:
        cols = g.columns
        arm_gaps[cols] = np.abs(true_means[cols] - quants[g.group_id])
        overall[cols] = np.maximum(
            np.maximum(slack, group_gaps[g.group_id]),
            np.maximum(uniqueness, arm_gaps[cols]),
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


# elements per (rounds, arms) block array; a block runs
# BLOCK_ELEMENTS // num_arms rounds at most
BLOCK_ELEMENTS = 16_384

# an arm's running sum of 0/1 rewards is at most its pull count, which the
# round cap bounds: int32 sums hold while the cap is below this
_INT32_ROUNDS = 2**31


# the screen's rounding allowance.  The per-row path compares band edges
# fl(fl(s / n) -/+ w) with s / n in [0, 1], each within 2u(1 + w) of its
# exact value (u = 2**-53), and no finite width reaches 40 (U(1) is 38 at
# delta = 1e-308).  So the screen gives up n * 1e-12, over ten times what two
# edges and their difference can lose, and a 1e-12 share of n * w for the
# few ulps by which the width table and its own products miss
_ROUNDING = 1e-12


def _sum_floors(sums: np.ndarray, groups: list) -> list[tuple[int, int]]:
    """Each group's kth and least value in a row of running sums, as ints:
    one sort of the group's columns."""
    floors = []
    for kq, cols, _ in groups:
        live = np.sort(sums[cols])
        floors.append((int(live[kq]), int(live[0])))
    return floors


def _quiet_block(block: np.ndarray, carried: np.ndarray, floors: list, width: np.ndarray,
                 t: int, groups: list, slack: float):
    """Certify from a block's last row of running sums and floors under its
    first row that none of its rounds drops an arm, drops a candidate or
    meets the stop; return (last row, spread of the last round, the last
    row's floors) if so, else None.

    ``block`` holds the (k, m) int32 0/1 rewards of rounds t..t+k-1, whose
    running sums start from ``carried``, and ``width`` their widths; no group
    in ``groups`` has a frozen arm, so its bands are kth/n -/+ w.  Row 0 of
    the sums is ``carried`` + ``block[0]`` and row k-1 is ``carried`` plus
    the column sums, the integers cumsum's last row holds.  Sums never
    decrease, so every order statistic of a middle row lies between its
    values in rows 0 and k-1, and each difference an event needs, top - kth
    and kth - bottom within a group and one group's kth minus another's, is
    at most its row k-1 term minus its row 0 term.  ``floors`` holds per
    group a (kth, least) at most row 0's: ``carried``'s own, since row 0
    adds 0 or 1 to each sum, so only row k-1 is sorted, and its (kth, least)
    are the next block's floors.  Round i has no event while each
    difference, with floors for the row 0 terms, is at most 2 * n_i * w_i
    and 2 * w_i exceeds the slack.  n * U(n) rises with n, and U(n) falls or
    first rises and then falls, so row 0 has the least n_i * w_i and row 0
    or k-1 the least w_i.  Both tests give up a rounding allowance, so they
    hold for the float expressions the per-row path evaluates.  The spread
    is (x + w) - (x - w) with x the largest kth over n, the per-row path's
    own expression at the last round.
    """
    k = block.shape[0]
    n = t + k - 1
    w0, w = float(width[0]), width[-1]
    if 2.0 * (min(w0, float(w)) * (1.0 - _ROUNDING) - _ROUNDING) <= slack:
        return None
    room = t * w0 * (1.0 - _ROUNDING) - n * _ROUNDING
    last = np.add.reduce(block, axis=0, out=np.empty_like(carried))
    last += carried
    lowest, highest, worst = math.inf, -math.inf, 0
    last_floors = []
    for (kq, cols, _), (kth, least) in zip(groups, floors):
        live = np.sort(last[cols])
        high = int(live[kq])
        worst = max(worst, int(live[-1]) - kth, high - least)
        lowest, highest = min(lowest, kth), max(highest, high)
        last_floors.append((high, int(live[0])))
    if max(worst, highest - lowest) > 2.0 * room:
        return None
    x = highest / n
    return last, float((x + w) - (x - w)), last_floors


def _live_rank(kq: int, frozen: tuple, extremes: tuple, live: int) -> int | None:
    """Rank kq - s among every row's live bounds of a group's kth bound over
    frozen and live ones, or None.  ``frozen`` holds the sorted frozen (lcb,
    ucb), ``extremes`` per side each row's least and largest live bound.  With
    no frozen bound of a side in [least, largest) over the block, s of them
    lie below the least, so each row merges as frozen[:s], live, frozen[s:].
    If both sides give one s and kq - s is a live rank, that live bound is the
    float a sort of the merged row picks (a frozen bound tied with the largest
    is the same float)."""
    (lcb, ucb), ((lcb_least, lcb_largest), (ucb_least, ucb_largest)) = frozen, extremes
    s = lcb.searchsorted((lcb_least.min(), lcb_largest.max()))
    u = ucb.searchsorted((ucb_least.min(), ucb_largest.max()))
    rank = kq - int(s[0])
    return rank if s[0] == s[1] == u[0] == u[1] and 0 <= rank < live else None


def _running_sums(block: np.ndarray, carried: np.ndarray) -> None:
    """Turn a (k, m) block of rewards into running sums in place: row i
    becomes ``carried`` + rows 0..i, added one row at a time in that order.

    Row i += row i-1 is cumsum's own order of additions, and cheaper on wide
    blocks.  Otherwise cumsum runs on each pair of columns viewed as one
    wider column, and on an odd last column alone, so every sum keeps its
    bits in half the loop's iterations.  A float64 pair is one complex
    number, whose parts add as floats.  An int32 pair is one int64 whose
    lanes add without a carry, since every sum is nonnegative and below 2**31.
    """
    k, m = block.shape
    block[0] += carried
    if 20 * k < m:
        for i in range(1, k):
            block[i] += block[i - 1]
    else:
        pairs = block[:, :m - m % 2].view(np.int64 if block.dtype == np.int32
                                          else np.complex128)
        np.cumsum(pairs, axis=0, out=pairs)
        if m % 2:
            np.cumsum(block[:, -1], out=block[:, -1])


class EliminationRun:
    """Driver object holding a single elimination run's state and its
    :class:`RunChecks` record, ``checks``.  ``env``'s generator draws the
    rewards and breaks ties; the optional oracle data ``true_means`` turns
    on the checks that need them.
    """

    def __init__(self, groups: list[FiniteGroup], alpha: float, slack: float, delta: float,
                 env, true_means: np.ndarray | None = None) -> None:
        if not groups:
            raise ValueError("need at least one group")
        if not 0.0 < alpha < 1.0:
            raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
        if not 0.0 < slack < math.inf:
            raise ValueError(f"quantile slack must be positive and finite, got {slack}")
        if not 0.0 < delta < 1.0:
            raise ValueError(f"delta must lie in (0, 1), got {delta}")
        self._columns = {g.group_id: g.columns for g in groups}
        if len(self._columns) != len(groups):
            raise ValueError("group ids must be distinct")
        n = 0
        for g in groups:
            if g.arm_ids.start != n:
                raise ValueError("groups must tile arm ids 0..n-1 in group order")
            n = g.arm_ids.stop
        if env.num_arms != n:
            raise ValueError("environment arm count does not match the groups")
        self.slack = slack
        self.env = env
        self.ledger = ArmLedger(n, delta / n)
        self._kq = {g.group_id: quantile_index(len(g.arm_ids), alpha) for g in groups}
        self.state = EliminationState(
            round_index=1,
            candidates=tuple(g.group_id for g in groups),
            quantile_arms={g.group_id: np.arange(g.arm_ids.start, g.arm_ids.stop)
                           for g in groups},
            active=np.arange(n, dtype=np.int64),
            spread=math.inf,
        )
        # widths vanish, so the loop provably stops; the cap is a loud guard
        # against the astronomically unlikely fully-frozen stall
        self._round_cap = 100 * invert_width(slack / 4.0, delta / n) + 10_000
        # the running sums take the rewards' dtype while int32 holds them,
        # and are float64, as Gaussian sums are, beyond that
        self._dtype = (env.reward_dtype if self._round_cap < _INT32_ROUNDS
                       else np.dtype(np.float64))
        # the round from which 2*U(t) < slack, where the spread meets the stop
        self._t_star = invert_width(slack / 2.0, delta / n)
        self._max_block = max(1, BLOCK_ELEMENTS // n)
        self._block = self._max_block
        self.checks = RunChecks()
        # oracle side: run() fills in the stop-pull count and event B
        self._true_means = self._profile = None
        if true_means is not None:
            self._true_means = np.asarray(true_means, dtype=float)
            self._profile = gap_profile(groups, self._true_means, alpha, slack)
            self.checks.bounds_valid = self.checks.best_group_retained = True
        self._plan()

    def should_stop(self) -> bool:
        return len(self.state.candidates) == 1 or self.state.spread <= self.slack

    def _group_quantiles(self, values: np.ndarray, gid: str) -> float:
        return float(np.partition(values[self._columns[gid]], self._kq[gid])[self._kq[gid]])

    def _plan(self) -> None:
        """Store what every block reuses until the next set change: the active
        arms' running sums, seeded from the ledger, which is current here, with
        no round pending; the reward index of the longest block, the active
        arms broadcast to (max block, m) without a copy, whose first k rows
        :meth:`RewardEnv.pull` reads as one row of means; the active arms'
        true means, given them; and, per candidate group, its kth index, the
        slice of its columns in ``active`` and its frozen arms' (lcb, ucb),
        each sorted, which never change (None for a group with no frozen
        arm); and whether blocks go to the screen, which needs int32 sums, no
        true means and no frozen arm in any group.  ``active`` is the
        candidates' pools in candidate order, so each group's live arms are
        one run of columns."""
        st = self.state
        led = self.ledger
        self._sums = led.sums[st.active].astype(self._dtype, copy=False)
        self._floors = None  # the screen's floors under the next row 0, when it needs them
        self._pending = 0
        is_active = np.zeros(led.pulls.size, dtype=bool)
        is_active[st.active] = True
        self._index = np.broadcast_to(st.active, (self._max_block, st.active.size))
        self._mu = None if self._true_means is None else self._true_means[st.active]
        self._groups = []
        col = 0
        for gid in st.candidates:
            cols, stop = self._columns[gid], col + st.quantile_arms[gid].size
            frozen = ~is_active[cols]
            bounds = ((np.sort(led.lcb[cols][frozen]), np.sort(led.ucb[cols][frozen]))
                      if frozen.any() else None)
            self._groups.append((self._kq[gid], slice(col, stop), bounds))
            col = stop
        self._screen = (self._dtype == np.int32 and self._mu is None
                        and all(g[2] is None for g in self._groups))

    def step(self) -> EliminationState:
        """Run one block of rounds and return the state after it.

        Each round pulls every active arm once.  The block ends at its first
        round that changes the candidates or the quantile arms, or that meets
        the stopping condition, so one call crosses at most one set change,
        and only in its last round.  Its length K is at most the block budget
        divided by the run's starting arm count, not the active count, and the
        rounds left to t*, where 2*U(t) falls below the slack.  K doubles after
        a full block; after one cut short it halves, but not below a quarter of
        the budget, so a run of clustered set changes keeps blocks of that size.

        The block reads its per-plan inputs without gathering them: one
        :meth:`RewardEnv.pull` of the plan's broadcast index, cut to K rows,
        draws the (K, m) rewards against one row of the active arms' means,
        and the widths U(t..t+K-1) are one slice of the shared width table.
        The rewards become the running sums in place, row i after round t+i
        (:func:`_running_sums`), int32 for Bernoulli rewards below an int32
        round cap and float64 otherwise.  Each candidate group sorts its
        (K, live arms) slice of columns along rows once.  Active arms share
        each round's pull count n and width w, and x / n, then float x - w
        and x + w, keep the order of x, so the sorted columns give every
        round's row max and min, divided by n into float64, and both quantile
        bounds kth / n -/+ w of a group with no frozen arm.  A group with
        frozen arms reads them the same way at live rank kq - s when
        :func:`_live_rank`, given the block's extreme live bounds, bottom and
        top over n -/+ w, finds no frozen bound among them and s below on
        both sides.  Otherwise a frozen bound straddles the live ones, and
        the group divides its sorted sums into means and sorts its bounds
        beside the frozen ones, one side at a time.  Group c's bounds fill
        row c of the (groups, K) bands, so the candidate and stop tests
        reduce over axis 0; the row max and min tell whether a round drops
        one of the group's arms.  A block whose last round changes nothing
        keeps the sets and the per-group plan; one cut short calls
        :meth:`RewardEnv.keep` with the rewards of the rounds it keeps, so
        the stream stands where one pull per round leaves it.

        Row 0 starts from the running sums the run carries across blocks.  A
        block ending in a set change or the stop commits every round since the
        last commit to the ledger; any other keeps its last row as the sums.

        Before any of that, a block is screened when its sums are int32, so
        rewards are 0/1 and no sum decreases; no true means were given, so no
        coverage check is due; no candidate group has a frozen arm (the plan
        records both); and 2*w stays above the slack by a rounding allowance
        through its last round.  :func:`_quiet_block` then sorts only row K-1
        of each group and, with each group's kth and least carried sum as
        floors under row 0's, certifies in O(groups) scalar tests that no
        round drops an arm, drops a candidate or meets the stop.  The floors
        come from the last certified block's sorted row K-1, or from one
        sort of the carried sums after a plan or a per-row block.  A
        certified block carries row K-1 as the sums, takes the per-row
        path's spread of its last round, bit for bit, and doubles K.  The
        spread check is not evaluated on it: with no frozen arm the spread is
        (x + w) - (x - w), a few ulps from 2*w, far inside the check's 1e-9.
        A block the screen refuses runs the path above unchanged.
        """
        if self.should_stop():
            raise RuntimeError("step() called after the stopping condition was met")
        st = self.state
        led = self.ledger
        t = st.round_index
        active = st.active
        k = max(1, min(self._block, self._t_star - t + 1))

        # one draw for all k rounds; a block cut short keeps its rounds' rewards
        sums = self.env.pull(self._index[:k]).astype(self._dtype, copy=False)
        # every active arm has been pulled t-1 times: lockstep
        width = led.width_at(range(t, t + k))
        if self._screen:
            if self._floors is None:
                self._floors = _sum_floors(self._sums, self._groups)
            quiet = _quiet_block(sums, self._sums, self._floors, width, t, self._groups,
                                 self.slack)
            if quiet is not None:
                self._sums, spread, self._floors = quiet
                self._pending += k
                self._block = min(2 * self._block, self._max_block)
                self.state = EliminationState(t + k, st.candidates, st.quantile_arms, active,
                                              spread)
                return self.state
        _running_sums(sums, self._sums)
        rounds = np.arange(t, t + k, dtype=np.float64)  # sums / rounds: float64 means

        # quantile bands range over ALL of the group's arms (frozen bounds
        # included); membership filters the previous set, so elimination is
        # permanent and active arms stay in lockstep at t pulls
        q_lcb = np.empty((len(st.candidates), k))
        q_ucb = np.empty((len(st.candidates), k))
        arm_exits = np.zeros(k, dtype=bool)
        for c, (kq, cols, frozen) in enumerate(self._groups):
            live = np.sort(sums[:, cols], axis=1)
            top, bottom = live[:, -1] / rounds, live[:, 0] / rounds
            # an arm leaves once its interval misses the band: row extremes decide
            top_lcb, bottom_ucb = top - width, bottom + width
            rank = kq if frozen is None else _live_rank(
                kq, frozen, ((bottom - width, top_lcb), (bottom_ucb, top + width)),
                live.shape[1])
            if rank is not None:
                kth = live[:, rank] / rounds
                np.subtract(kth, width, out=q_lcb[c])
                np.add(kth, width, out=q_ucb[c])
            else:  # a frozen bound straddles the live ones: sort them together
                live = live / rounds[:, None]
                mat = np.empty((k, frozen[0].size + live.shape[1]))
                for bound, side, q in zip(frozen, (np.subtract, np.add), (q_lcb, q_ucb)):
                    mat[:, :bound.size] = bound
                    side(live, width[:, None], out=mat[:, bound.size:])
                    mat.sort(axis=1)
                    q[c] = mat[:, kq]
            arm_exits |= (top_lcb > q_ucb[c]) | (bottom_ucb < q_lcb[c])

        # the first round that would drop a candidate or a quantile arm, or
        # stop the loop, ends the block; the rounds before it change nothing
        threshold = q_lcb.max(axis=0)
        keep_group = q_ucb >= threshold
        spread = q_ucb.max(axis=0) - threshold
        event = ~keep_group.all(axis=0) | arm_exits | (spread <= self.slack)
        r = int(event.argmax()) if event.any() else k - 1

        if r < k - 1:  # leave the stream where one draw per round would
            self.env.keep((r + 1) * active.size)
        if self.checks.bounds_valid:  # None without true means
            mean = sums[:r + 1] / rounds[:r + 1, None]
            w = width[:r + 1, None]
            if ((mean - w > self._mu) | (mean + w < self._mu)).any():
                self.checks.bounds_valid = False

        candidates, quantile_arms = st.candidates, st.quantile_arms
        if not event[r]:
            self._sums = sums[r]
            self._floors = None
            self._pending += r + 1
        else:
            # the set filter, _plan() and the caller read the ledger: commit
            # every round since the last commit, so it holds round r's bounds
            led.record_pulls(active, sums[r], self._pending + r + 1)
            if (led.pulls[active] != t + r).any():
                self.checks.equal_pull_ok = False
            # quantile_arms is keyed in candidate order, and the groups tile
            # the ids in that order, so the pools concatenate in id order
            kept = keep_group[:, r]
            quantile_arms = {gid: pool[(led.lcb[pool] <= q_ucb[c, r])
                                       & (led.ucb[pool] >= q_lcb[c, r])]
                             for c, (gid, pool) in enumerate(st.quantile_arms.items())
                             if kept[c]}
            # the largest q_lcb's group is kept (its q_ucb is no smaller), so
            # candidates never empty and spread[r] is the kept groups' spread
            candidates = tuple(quantile_arms)
            active = np.concatenate([quantile_arms[g] for g in candidates])
            if active.size == 0:
                raise RuntimeError(
                    "all potential quantile arms eliminated while candidates remain; "
                    "confidence bounds must have failed catastrophically")
            if self.checks.best_group_retained and self._profile.best_group not in candidates:
                self.checks.best_group_retained = False
        if (np.abs(spread[:r + 1] - 2.0 * width[:r + 1]) > 1e-9).any():
            self.checks.shortcut_consistent = False

        self._block = (min(2 * self._block, self._max_block) if r == k - 1
                       else max(1, self._max_block // 4, self._block // 2))
        self.state = EliminationState(t + r + 1, candidates, quantile_arms, active,
                                      float(spread[r]))
        if event[r]:
            self._plan()
        return self.state

    def choose(self) -> str:
        """Final recommendation: argmax of the pessimistic group quantiles,
        ties broken by a draw from the reward environment's generator."""
        st = self.state
        if st.round_index == 1 and len(st.candidates) != 1:
            raise RuntimeError("no rounds ran yet there are multiple candidates")
        scores = {gid: self._group_quantiles(self.ledger.lcb, gid) for gid in st.candidates}
        best = max(scores.values())
        ties = [gid for gid in st.candidates if scores[gid] == best]
        if len(ties) == 1:
            return ties[0]
        return ties[int(self.env.rng.integers(len(ties)))]

    def run(self) -> EliminationResult:
        while not self.should_stop():
            if self.state.round_index > self._round_cap:
                raise RuntimeError(f"elimination failed to stop within {self._round_cap} rounds")
            self.step()
        chosen = self.choose()
        # the ledger is committed at the stop
        pulls = self.ledger.pulls.copy()
        if self._profile is not None:
            # every active arm has width U(t) after t pulls, so arm j stops at
            # T_j, the first t with U(t) < overall_j / 4, and each pull past it
            # is a violation
            stop = invert_width(self._profile.overall / 4.0, self.ledger.delta_per_arm)
            self.checks.stop_pull_violations = int(np.maximum(pulls - stop, 0).sum())
            q = self._profile.group_quantiles
            self.checks.event_b = q[chosen] >= max(q.values()) - self.slack
        return EliminationResult(chosen, int(pulls.sum()), self.state.round_index - 1, pulls,
                                 self.state.candidates, self.checks)


def run_elimination(groups: list[FiniteGroup], alpha: float, slack: float, delta: float,
                    env, true_means: np.ndarray | None = None) -> EliminationResult:
    """Run the elimination loop to completion and return the chosen group."""
    return EliminationRun(groups, alpha, slack, delta, env, true_means=true_means).run()
