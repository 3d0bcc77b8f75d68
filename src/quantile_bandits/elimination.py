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
group order.  The active arms are the run's one record of the pools: a
candidate's pool is one run of ``active``, the runs follow candidate order,
and the plan keeps each run's column slice, so a group's arms, and its live
arms among the active ones, are read by slicing, never gathered.  At a set
change one boolean mask over the active columns filters every pool at once.

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
most the block budget over the active arm count, worked out again at each
set change, and the rounds left to t*; it doubles after a full block and
halves after a cut one, but not below a quarter of the starting budget, the
budget over the run's starting arm count.  The reward stream advances
exactly as one draw per round would (a cut block's unused uniforms stay
with the env for the next pull), sums accumulate row by row and quantiles
are exact order statistics, so a block gives the same bits as its rounds
run one at a time.  The run keeps each group's frozen bounds sorted (empty
while it has none), merging in the arms that leave at each set change, and
one function finds each side of every group's band (:func:`_band`): a
frozen bound, one live column, or the live bounds sorted with the few
frozen bounds that straddle them.  The final choice reads the band of the
round that stopped the run.  Between set changes the run carries the
running sums and writes the ledger only at a set change or the stop.  Most
blocks change nothing, and a screen proves that from their last row of sums
alone, sorted once per group, when the sums are int32, no true means were
given, no candidate group has a frozen arm, and 2*U stays above the slack
through the block (:func:`_quiet_block`).  Its first row adds 0 or 1 to the
carried sums, so each group's kth and least carried sum, which the run
keeps beside the sums, stand in for that row's from below.
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

    def record_pulls(self, arm_ids: np.ndarray | slice, sums: np.ndarray, count: int) -> None:
        """Record ``count`` more pulls of each listed arm (an index array or
        a slice), whose reward sums are now ``sums``, and refresh their bounds."""
        self.pulls[arm_ids] += count
        self.sums[arm_ids] = sums
        pulls = self.pulls[arm_ids]
        mean, width = sums / pulls, self.width_at(pulls)
        self.lcb[arm_ids], self.ucb[arm_ids] = mean - width, mean + width


@dataclass
class EliminationState:
    """Mutable per-round state of the elimination loop: the next round's
    index, the candidate groups in group order, the active arms, which are
    the candidates' pools in that order (each pool one run of them), and the
    last round's spread."""

    round_index: int
    candidates: tuple[str, ...]
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


# elements per (rounds, arms) block array; a block runs
# BLOCK_ELEMENTS // (active arms) rounds at most
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

    ``block`` holds the (k, m) bool rewards of rounds t..t+k-1, whose int32
    running sums start from ``carried``, and ``width`` their widths; no group
    in ``groups`` has a frozen arm, so its bands are kth/n -/+ w.  Row 0 of
    the sums is ``carried`` + ``block[0]`` and row k-1 is ``carried`` plus
    the column sums, the integers cumsum's last row holds.  The column sums
    count the block's bytes, in uint8 while k < 256 so that no count wraps
    and in int32 beyond, and the carried sums widen them to int32.  Sums never
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
    counts = np.add.reduce(block.view(np.uint8), axis=0,
                           dtype=np.uint8 if k < 256 else np.int32)
    last = np.add(counts, carried)
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


def _band(live: np.ndarray, ends: tuple, rounds: np.ndarray, width: np.ndarray, kq: int,
          frozen: np.ndarray, side, out: np.ndarray) -> None:
    """Write into ``out`` every row's kth bound of one side of a group: the
    kth of its sorted ``frozen`` bounds together with side(live / n, w), its
    live arms' bounds, where ``live`` holds the row-sorted running sums, n
    the row's ``rounds``, w its ``width`` and ``ends`` columns 0 and -1 of
    ``live`` over n.

    x / n, then x -/+ w, keep the order of x, so side(ends, w) are each
    row's least and largest live bound.  Of the frozen bounds, the first s
    lie below every row's least and those from ``top`` on at or above every
    row's largest (s = top = 0 with none), so each merged row is frozen[:s],
    the live bounds with frozen[s:top], then frozen[top:].  The kth is a
    frozen bound when kq misses that middle, the live column at rank kq - s
    when no frozen bound is in it, and otherwise column kq - s of the middle
    sorted along rows: the float a sort of the whole merged row picks, ties
    included."""
    m, s, top = live.shape[1], 0, 0
    if frozen.size:
        s, top = frozen.searchsorted((side(ends[0], width).min(),
                                      side(ends[1], width).max())).tolist()
    rank = kq - s
    if rank < 0 or rank >= m + top - s:
        out[:] = frozen[kq if rank < 0 else kq - m]
    elif top == s:
        side(live[:, rank] / rounds, width, out=out)
    else:
        middle = np.empty((live.shape[0], m + top - s))
        middle[:, :top - s] = frozen[s:top]
        side(live / rounds[:, None], width[:, None], out=middle[:, top - s:])
        middle.sort(axis=1)
        out[:] = middle[:, rank]


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
    on the checks that need them.  The groups must have distinct ids and
    tile the arm ids 0..n-1 in group order.
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
        ids = tuple(g.group_id for g in groups)
        if len(set(ids)) != len(ids):
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
        self.state = EliminationState(
            round_index=1,
            candidates=ids,
            active=np.arange(n, dtype=np.int64),
            spread=math.inf,
        )
        # per candidate group: (kth index, its columns in active, its frozen
        # arms' sorted (lcb, ucb)), which each set change builds anew; the
        # columns start as the group's arm ids, with no frozen bounds
        empty = np.empty(0)
        self._groups = [(quantile_index(len(g.arm_ids), alpha), g.columns, (empty, empty))
                        for g in groups]
        # widths vanish, so the loop provably stops; the cap is a loud guard
        # against the astronomically unlikely fully-frozen stall
        self._round_cap = 100 * invert_width(slack / 4.0, self.ledger.delta_per_arm) + 10_000
        # bool rewards sum as int32 while int32 holds the sums, and as
        # float64, as Gaussian sums are, beyond that
        self._dtype = np.dtype(np.int32 if env.reward_dtype == bool
                               and self._round_cap < _INT32_ROUNDS else np.float64)
        # the round from which 2*U(t) < slack, where the spread meets the stop
        self._t_star = invert_width(slack / 2.0, self.ledger.delta_per_arm)
        # a block cut short halves K, but not below a quarter of the
        # starting budget (the K cap itself grows as the active set shrinks)
        self._floor = max(1, BLOCK_ELEMENTS // n // 4)
        self.checks = RunChecks()
        # oracle side: run() fills in the stop-pull count, whether the best
        # group was retained and event B
        self._true_means = self._profile = None
        if true_means is not None:
            self._true_means = np.asarray(true_means, dtype=float)
            self._profile = gap_profile(groups, self._true_means, alpha, slack)
            self.checks.bounds_valid = True
        self._plan()
        self._block = self._max_block

    def should_stop(self) -> bool:
        return len(self.state.candidates) == 1 or self.state.spread <= self.slack

    def _plan(self) -> None:
        """Store what every block reuses until the next set change: the K cap,
        the block budget over the active arm count; the active arms' running
        sums, seeded from the ledger, which is current here, with no round
        pending; the reward index of the longest block, the env's
        :meth:`RewardEnv.block_index` of the active arms for (K cap, m), whose
        first k rows draw against one row of means; the active arms' true
        means, given them; and whether blocks go to the screen, which needs
        int32 sums, no true means and no frozen arm in any candidate group.
        The per-group tuples the blocks read, ``_groups``, are not rebuilt
        here: the run builds the starting ones and each set change the next
        ones."""
        st = self.state
        self._max_block = max(1, BLOCK_ELEMENTS // st.active.size)
        self._sums = self.ledger.sums[st.active].astype(self._dtype, copy=False)
        self._floors = None  # the screen's floors under the next row 0, when it needs them
        self._pending = 0
        self._index = self.env.block_index(st.active, self._max_block)
        self._mu = None if self._true_means is None else self._true_means[st.active]
        self._screen = (self._dtype == np.int32 and self._mu is None
                        and not any(g[2][0].size for g in self._groups))

    def step(self) -> EliminationState:
        """Run one block of rounds and return the state after it.

        Each round pulls every active arm once.  The block ends at its first
        round that changes the candidates or the quantile arms, or that meets
        the stopping condition, so one call crosses at most one set change,
        and only in its last round.  Its length K is at most the plan's K cap,
        the block budget divided by the active arm count, and the rounds left
        to t*, where 2*U(t) falls below the slack.  K doubles after a full
        block, up to the cap; after one cut short it halves, but not below a
        quarter of the starting budget, the budget divided by the run's
        starting arm count, so a run of clustered set changes keeps blocks of
        that size while the cap grows as arms leave.

        The block reads its per-plan inputs without gathering them: one
        :meth:`RewardEnv.pull` of the plan's block index, cut to K rows,
        draws the (K, m) rewards against one row of the active arms' means,
        and the widths U(t..t+K-1) are one slice of the shared width table.
        The rewards, widened from bool to int32 for Bernoulli rewards below an
        int32 round cap and to float64 otherwise (Gaussian and noiseless
        rewards are float64 already, and are not copied), become the running
        sums in place, row i after round t+i (:func:`_running_sums`).  Each
        candidate group sorts its (K, live arms) slice of columns along rows
        once.  Active arms share each round's pull count n and width w, so
        the sorted columns give every round's row min and max over n, and
        :func:`_band`, called once per side, writes the group's quantile
        bounds over its frozen and live arms into row c of the (groups, K)
        bands.  The candidate and stop tests reduce over axis 0, and the row
        min and max tell whether a round drops one of the group's arms.  A
        block whose last round changes nothing keeps the sets and the
        per-group plan; one cut short calls :meth:`RewardEnv.keep` with the
        rewards of the rounds it keeps, so the stream stands where one pull
        per round leaves it (the env holds the unused uniforms for the next
        pull, and :meth:`run` syncs the generator once at the end).

        Row 0 starts from the running sums the run carries across blocks.  A
        block ending in a set change or the stop commits every round since the
        last commit to the ledger; any other keeps its last row as the sums.
        At a set change the run gathers the active arms' new bounds once, and
        one loop over the plan's groups writes each kept group's inside test
        into one boolean mask over the active columns, merges the arms that
        leave its pool into its sorted frozen bounds and appends its next
        tuple; ``active[mask]`` is then the new active set, the kept pools in
        order.  The run also keeps the kept groups' pessimistic band of round
        r for :meth:`choose`.  After a set change the run goes on from,
        :meth:`_plan` builds the rest of the next block's plan; a block that
        stops the run builds none, since no block would read it.

        Before any of that, a block is screened when its sums are int32, so
        rewards are bools and no sum decreases; no true means were given, so
        no coverage check is due; no candidate group has a frozen arm (the
        plan records both); and 2*w stays above the slack by a rounding
        allowance through its last round.  :func:`_quiet_block` then counts
        the bool block's bytes per column, sorts only row K-1 of each group
        and, with each group's kth and least carried sum as floors under row
        0's, certifies in O(groups) scalar tests that no round drops an arm,
        drops a candidate or meets the stop; only a refused block is widened
        to int32.  The floors come from the last certified block's sorted row
        K-1, or from one sort of the carried sums after a plan or a per-row
        block.  A certified block carries row K-1 as the sums, takes the
        per-row path's spread of its last round, bit for bit, and doubles K.
        The spread check is not evaluated on it: with no frozen arm the spread
        is (x + w) - (x - w), a few ulps from 2*w, far inside the check's
        1e-9.  A block the screen refuses runs the path above unchanged.
        """
        if self.should_stop():
            raise RuntimeError("step() called after the stopping condition was met")
        st = self.state
        led = self.ledger
        t = st.round_index
        active = st.active
        k = max(1, min(self._block, self._t_star - t + 1))

        # one draw for all k rounds; a block cut short keeps its rounds' rewards
        rewards = self.env.pull(self._index[:k])
        # every active arm has been pulled t-1 times: lockstep
        width = led.width_at(range(t, t + k))
        if self._screen:
            if self._floors is None:
                self._floors = _sum_floors(self._sums, self._groups)
            quiet = _quiet_block(rewards, self._sums, self._floors, width, t, self._groups,
                                 self.slack)
            if quiet is not None:
                self._sums, spread, self._floors = quiet
                self._pending += k
                self._block = min(2 * self._block, self._max_block)
                self.state = EliminationState(t + k, st.candidates, active, spread)
                return self.state
        sums = rewards.astype(self._dtype, copy=False)
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
            ends = live[:, 0] / rounds, live[:, -1] / rounds
            _band(live, ends, rounds, width, kq, frozen[0], np.subtract, q_lcb[c])
            _band(live, ends, rounds, width, kq, frozen[1], np.add, q_ucb[c])
            # an arm leaves once its interval misses the band: row extremes decide
            arm_exits |= (ends[1] - width > q_ucb[c]) | (ends[0] + width < q_lcb[c])

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

        candidates = st.candidates
        if not event[r]:
            self._sums = sums[r]
            self._floors = None
            self._pending += r + 1
        else:
            # the set filter, _plan() and the caller read the ledger: commit
            # every round since the last commit, so it holds round r's bounds.
            # With every arm active, active is 0..n-1 and a slice writes it
            arms = slice(None) if active.size == led.pulls.size else active
            led.record_pulls(arms, sums[r], self._pending + r + 1)
            if (led.pulls[arms] != t + r).any():
                self.checks.equal_pull_ok = False
            # each pool is its group's slice of the active arms, so one mask
            # keeps the kept groups' arms inside their band, in order; the
            # arms that leave a kept pool join the group's sorted frozen
            # bounds, and the kept groups' live columns tile the new active
            kept = keep_group[:, r]
            lcb, ucb = led.lcb[arms], led.ucb[arms]
            mask = np.zeros(active.size, dtype=bool)
            groups, col = [], 0
            for c, (kq, cols, (low, high)) in enumerate(self._groups):
                if kept[c]:
                    inside = (lcb[cols] <= q_ucb[c, r]) & (ucb[cols] >= q_lcb[c, r])
                    mask[cols] = inside
                    live = int(np.count_nonzero(inside))
                    if live < inside.size:
                        out = ~inside
                        low = np.sort(np.concatenate((low, lcb[cols][out])))
                        high = np.sort(np.concatenate((high, ucb[cols][out])))
                    groups.append((kq, slice(col, col + live), (low, high)))
                    col += live
            self._groups = groups
            # the largest q_lcb's group is kept (its q_ucb is no smaller), so
            # candidates never empty and spread[r] is the kept groups' spread
            candidates = tuple(gid for gid, keep in zip(st.candidates, kept) if keep)
            self._stop_band = q_lcb[kept, r]  # what choose() reads at the stop
            active = active[mask]
            if active.size == 0:
                raise RuntimeError(
                    "all potential quantile arms eliminated while candidates remain; "
                    "confidence bounds must have failed catastrophically")
        if (np.abs(spread[:r + 1] - 2.0 * width[:r + 1]) > 1e-9).any():
            self.checks.shortcut_consistent = False

        self._block = (min(2 * self._block, self._max_block) if r == k - 1
                       else max(self._floor, self._block // 2))
        self.state = EliminationState(t + r + 1, candidates, active, float(spread[r]))
        if event[r] and not self.should_stop():
            self._plan()
        return self.state

    def choose(self) -> str:
        """Final recommendation: argmax of the candidates' pessimistic
        quantiles in the round that stopped the run, the band :meth:`step`
        keeps, ties broken by a draw from the reward environment's generator."""
        st = self.state
        if len(st.candidates) == 1:  # a lone candidate ties with no one
            return st.candidates[0]
        if not self.should_stop():
            raise RuntimeError("choose() called before the stopping condition was met")
        best = self._stop_band.max()
        ties = [gid for gid, q in zip(st.candidates, self._stop_band) if q == best]
        if len(ties) == 1:
            return ties[0]
        return ties[int(self.env.rng.integers(len(ties)))]

    def run(self) -> EliminationResult:
        while not self.should_stop():
            if self.state.round_index > self._round_cap:
                raise RuntimeError(f"elimination failed to stop within {self._round_cap} rounds")
            self.step()
        self.env.sync()  # the tie-break and the generator's next user read the stream
        chosen = self.choose()
        # the ledger is committed at the stop
        pulls = self.ledger.pulls.copy()
        if self._profile is not None:
            # every active arm has width U(t) after t pulls, so arm j stops at
            # T_j, the first t with U(t) < overall_j / 4, and each pull past it
            # is a violation
            stop = invert_width(self._profile.overall / 4.0, self.ledger.delta_per_arm)
            self.checks.stop_pull_violations = int(np.maximum(pulls - stop, 0).sum())
            # candidates only shrink, so the best group stayed a candidate in
            # every round exactly when it is among the final ones
            self.checks.best_group_retained = self._profile.best_group in self.state.candidates
            q = self._profile.group_quantiles
            self.checks.event_b = q[chosen] >= max(q.values()) - self.slack
        return EliminationResult(chosen, int(pulls.sum()), self.state.round_index - 1, pulls,
                                 self.state.candidates, self.checks)


def run_elimination(groups: list[FiniteGroup], alpha: float, slack: float, delta: float,
                    env, true_means: np.ndarray | None = None) -> EliminationResult:
    """Run the elimination loop to completion and return the chosen group."""
    return EliminationRun(groups, alpha, slack, delta, env, true_means=true_means).run()
