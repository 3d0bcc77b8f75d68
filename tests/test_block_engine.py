"""The block engine of ``EliminationRun.step`` against the plain loop.

``SequentialRun`` runs one round per ``step`` call, as the loop did before
blocks.  On random small instances both must agree bit for bit: outcome,
pull counts, final bounds, every telemetry flag, the ledger at every set
change and the position of the reward generator after the run, where the
env holds no uniforms.  Whole multi-step trials on sampled reservoirs must
agree too.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from sequential_reference import SequentialRun

from quantile_bandits import (
    BanditInstance,
    DiscreteReservoir,
    EliminationRun,
    FiniteGroup,
    PiecewiseLinearReservoir,
    RewardEnv,
    RewardFamily,
    confidence_width,
    elimination,
    plan_epochs,
    run_multistep,
)
from quantile_bandits.elimination import quantile_index

FAMILIES = {"bernoulli": RewardFamily("bernoulli"), "gaussian": RewardFamily("gaussian", 0.25),
            "noiseless": RewardFamily("noiseless")}


@st.composite
def instances(draw):
    sizes = draw(st.lists(st.integers(1, 12), min_size=1, max_size=4))
    n = sum(sizes)
    # adjacent id ranges in group order, the only layout a group has; means
    # are drawn per id, so shuffling the ids would only permute the means
    groups, start = [], 0
    for g, size in enumerate(sizes):
        groups.append(FiniteGroup(f"g{g}", range(start, start + size)))
        start += size
    # means on a coarse grid: ties and close arms make sets change mid-block
    means = np.array(draw(st.lists(st.integers(0, 10), min_size=n, max_size=n))) / 10.0
    return {
        "groups": groups,
        "means": means,
        "family": draw(st.sampled_from(sorted(FAMILIES))),
        "alpha": draw(st.sampled_from([0.3, 0.5, 0.7])),
        "slack": draw(st.sampled_from([0.25, 0.4])),
        # oracle means other than the arms' own trip the bound-coverage and
        # stop-pull telemetry
        "oracle": draw(st.sampled_from(["none", "true", "reversed"])),
        "seed": draw(st.integers(0, 2**32 - 1)),
    }


# two groups with the same median, 0.5; group a's outer arms leave and
# freeze, group b's never do
FROZEN_CASE = (np.array([0.1, 0.1, 0.5, 0.5, 0.9, 0.9, 0.5, 0.5]),
               [FiniteGroup("a", range(6)), FiniteGroup("b", range(6, 8))])

# explicit examples for the differential properties, each a path that one
# of the mutants in mutants.py breaks; hypothesis runs them first and
# reports their failure without a search or shrinking.  At seed 11 group a's outer arms
# freeze one at a time, each merging into the frozen bounds the group
# already has, and its frozen bounds come to straddle the live ones, where
# _band sorts them together; blocks are cut at those set changes, and the
# next pull starts inside the held uniforms
STRADDLE = {"groups": FROZEN_CASE[1], "means": FROZEN_CASE[0], "family": "bernoulli",
            "alpha": 0.5, "slack": 0.1, "oracle": "none", "seed": 11}
# group c is dropped while a and b go on, and b later, which stops the run
DROP = {"groups": [FiniteGroup("a", range(2)), FiniteGroup("b", range(2, 4)),
                   FiniteGroup("c", range(4, 6))],
        "means": np.array([0.9, 0.8, 0.5, 0.6, 0.1, 0.2]), "family": "bernoulli",
        "alpha": 0.5, "slack": 0.1, "oracle": "none", "seed": 0}
# group g0's median is 0, so its arm at 1 leaves in the first round with
# 2w < 1: round t_free, where the opening stretch must end
STRETCH = {"groups": [FiniteGroup("g0", range(3)), FiniteGroup("g1", range(3, 5))],
           "means": np.array([0.0, 0.0, 1.0, 0.5, 0.5]), "family": "bernoulli",
           "alpha": 0.5, "slack": 0.25, "oracle": "none", "seed": 0}


def capped(cls):
    """``cls`` with its round cap lowered to t*, the round from which
    2 * U(t) < slack.  While the spread is 2 * U(t), which the suite
    asserts, a run stops by t*, so the cap changes no run that ends and
    turns one that stalls into an immediate RuntimeError."""

    class Capped(cls):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self._round_cap = self._t_star

    return Capped


def build(cls, case):
    """An engine of class ``cls``, capped at t*, on ``case``, with its reward
    generator, which also breaks ties."""
    env_rng = np.random.default_rng(case["seed"])
    env = RewardEnv(case["means"], FAMILIES[case["family"]], env_rng)
    oracle = {"none": None, "true": case["means"], "reversed": case["means"][::-1]}
    engine = capped(cls)(case["groups"], case["alpha"], case["slack"], 0.1, env,
                         true_means=oracle[case["oracle"]])
    return engine, env_rng


def run(cls, case):
    """Run ``cls`` on ``case``; return the result, the final bounds and the
    state of the reward generator, which the run leaves synced: its env
    holds no uniforms of a cut block."""
    engine, env_rng = build(cls, case)
    res = engine.run()
    assert engine.env._held.size == 0
    return res, engine.ledger.lcb, engine.ledger.ucb, env_rng.bit_generator.state


def assert_same_run(case):
    ref, ref_lcb, ref_ucb, ref_stream = run(SequentialRun, case)
    got, lcb, ucb, stream = run(EliminationRun, case)
    assert (got.chosen, got.rounds, got.total_pulls, got.final_candidates) == \
        (ref.chosen, ref.rounds, ref.total_pulls, ref.final_candidates)
    assert np.array_equal(got.pull_counts, ref.pull_counts)
    assert np.array_equal(lcb, ref_lcb) and np.array_equal(ucb, ref_ucb)
    assert got.checks == ref.checks
    assert stream == ref_stream
    return got


# float values with many ties: a few repeated values beside arbitrary ones
VALUES = st.sampled_from([0.0, 0.1, 0.5, 1.0 / 3.0, 1.0]) | st.floats(-1e3, 1e3)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_shifted_order_statistics_are_exact(data):
    # the identity behind one partition per frozen-free group: rounding is
    # monotone, so x - w and x + w keep the order of x and every order
    # statistic of M -/+ w is kth(M) -/+ w, bit for bit
    rows, cols = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 12))
    means = np.array(data.draw(st.lists(VALUES, min_size=rows * cols,
                                        max_size=rows * cols))).reshape(rows, cols)
    width = np.array(data.draw(st.lists(st.floats(1e-300, 1e3), min_size=rows,
                                        max_size=rows)))
    kq = data.draw(st.integers(0, cols - 1))
    kth = np.partition(means, kq, axis=1)[:, kq]

    def bits(x):
        return x.view(np.int64).tolist()

    for side in (np.subtract, np.add):
        shifted = side(means, width[:, None])
        assert bits(np.partition(shifted, kq, axis=1)[:, kq]) == bits(side(kth, width))
        assert bits(shifted.max(axis=1)) == bits(side(means.max(axis=1), width))
        assert bits(shifted.min(axis=1)) == bits(side(means.min(axis=1), width))


# running reward sums: integers with ties, or floats of either sign.  + 0.0
# turns -0.0 into 0.0, as adding the ledger's zero-started sums does; a
# subnormal sum, whose x / t could round to a zero of either sign, does not
# arise from rewards
SUMS = (st.integers(-50, 50).map(float)
        | st.floats(-1e6, 1e6, allow_subnormal=False).map(lambda x: x + 0.0))


def bits(x):
    return np.asarray(x).view(np.int64).tolist()


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_order_statistics_of_sums_divide_exactly(data):
    # the identity behind dividing only the order statistics: x / t keeps
    # the order of x for t > 0, so columns kq, -1 and 0 of the row-sorted
    # sums, divided by t, are the kth, max and min of S / t, bit for bit
    rows, cols = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 12))
    sums = np.array(data.draw(st.lists(SUMS, min_size=rows * cols,
                                       max_size=rows * cols))).reshape(rows, cols)
    t = np.array(data.draw(st.lists(st.integers(1, 10**6), min_size=rows, max_size=rows)))
    kq = data.draw(st.integers(0, cols - 1))
    means = sums / t[:, None]
    ordered = np.sort(sums, axis=1)

    assert bits(ordered[:, kq] / t) == bits(np.partition(means, kq, axis=1)[:, kq])
    assert bits(ordered[:, -1] / t) == bits(means.max(axis=1))
    assert bits(ordered[:, 0] / t) == bits(means.min(axis=1))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_sorted_frozen_merge_gives_the_kth(data):
    # a group with frozen arms: its bound matrix is [frozen | sorted means
    # -/+ w], sorted again along rows; its column kq is the kth that a
    # partition of [frozen | means -/+ w] finds, frozen values equal to live
    # ones included
    rows, live_n = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 10))
    means = np.array(data.draw(st.lists(VALUES, min_size=rows * live_n,
                                        max_size=rows * live_n))).reshape(rows, live_n)
    width = np.array(data.draw(st.lists(st.floats(1e-300, 1e3), min_size=rows,
                                        max_size=rows)))
    for side in (np.subtract, np.add):
        shifted = side(means, width[:, None])
        # frozen bounds, some equal to live ones; + 0.0 turns -0.0 into 0.0,
        # since a bound mean -/+ w with w > 0 is never -0.0
        frozen = np.array(data.draw(st.lists(
            st.sampled_from(shifted[0].tolist()) | VALUES.map(lambda x: x + 0.0),
            min_size=1, max_size=5)))
        size = frozen.size + live_n
        kq = data.draw(st.integers(0, size - 1))
        mat = np.empty((rows, size))
        mat[:, :frozen.size] = frozen
        side(np.sort(means, axis=1), width[:, None], out=mat[:, frozen.size:])
        mat.sort(axis=1)
        unsorted = np.hstack([np.broadcast_to(frozen, (rows, frozen.size)), shifted])
        assert bits(mat[:, kq]) == bits(np.partition(unsorted, kq, axis=1)[:, kq])


def frozen_bounds(anchors):
    """Sorted frozen bounds of one side, none to four: a row's live extreme,
    the double next to it on either side, or a value far from the live ones.
    + 0.0 turns -0.0 into 0.0, since a bound mean -/+ w with w > 0 is never
    -0.0."""
    near = st.sampled_from(anchors).flatmap(lambda x: st.sampled_from(
        [x, np.nextafter(x, -np.inf), np.nextafter(x, np.inf)]))
    far = st.sampled_from([-1e3, -1.0, 2.0, 1e3]) | st.floats(-1e3, 1e3)
    return st.lists((near | far).map(lambda x: float(x) + 0.0),
                    max_size=4).map(lambda x: np.sort(np.array(x, dtype=float)))


@settings(max_examples=800, deadline=None)
@given(st.data())
def test_band_is_the_kth_of_the_merged_row(data):
    # one side of a group's band, whichever of its three ways _band finds
    # it: a frozen bound, one live column, or the live bounds sorted with
    # the frozen ones that straddle them.  Every row is the kth that a
    # partition of the whole row [frozen | sums / n -/+ w] finds, bit for
    # bit, for int32 or float sums, frozen bounds at, one ulp from or far
    # from the live extremes, and kq below, at the edges of and above the
    # live ranks
    rows, live_n = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 8))
    t = data.draw(st.integers(1, 10**4))
    values = data.draw(st.sampled_from([st.integers(0, t), SUMS]))
    sums = np.sort(np.array(data.draw(st.lists(values, min_size=rows * live_n,
                                               max_size=rows * live_n)),
                            dtype=np.int32 if values is not SUMS else float)
                   .reshape(rows, live_n), axis=1)
    width = np.array(data.draw(st.lists(st.floats(1e-9, 2.0) | st.sampled_from([0.05, 0.5]),
                                        min_size=rows, max_size=rows)))
    rounds = np.arange(t, t + rows, dtype=np.float64)
    side = data.draw(st.sampled_from([np.subtract, np.add]))
    live = side(sums / rounds[:, None], width[:, None])
    frozen = data.draw(frozen_bounds(np.concatenate((live[:, 0], live[:, -1]))))
    below = int((frozen < live[:, 0].min()).sum())
    above = int((frozen < live[:, -1].max()).sum())
    size = frozen.size + live_n
    kq = data.draw(st.sampled_from([below - 1, below, below + live_n - 1, above + live_n - 1,
                                    above + live_n]) | st.integers(0, size - 1))
    kq = min(max(kq, 0), size - 1)

    out = np.full(rows, np.nan)
    ends = sums[:, 0] / rounds, sums[:, -1] / rounds
    elimination._band(sums, ends, rounds, width, kq, frozen, side, out)
    merged = np.hstack([np.broadcast_to(frozen, (rows, frozen.size)), live])
    assert bits(out) == bits(np.partition(merged, kq, axis=1)[:, kq])


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 128), st.integers(1, 300), st.sampled_from(sorted(FAMILIES)),
       st.integers(0, 2**32 - 1))
@example(1, 1, "noiseless", 0)
@example(128, 1, "gaussian", 0)
@example(99, 164, "bernoulli", 0)
@example(60, 47, "noiseless", 0)
def test_running_sums_match_cumsum(k, m, family, seed):
    # a block's rewards and the running sums carried into it from t0 earlier
    # rounds; the pair accumulate adds two columns as one complex number and
    # an odd last column on its own, and must keep every bit of cumsum's sums
    rng = np.random.default_rng(seed)
    means = rng.random(m)
    t0 = int(rng.integers(1, 10**4))
    if family == "bernoulli":
        rewards = (rng.random((k, m)) < means).astype(float)
        carried = rng.binomial(t0, means) + 1.0
    elif family == "gaussian":
        rewards = rng.normal(means, 0.5, (k, m))
        carried = rng.normal(means * t0, 0.5 * t0**0.5)
    else:
        rewards = np.tile(means, (k, 1))
        carried = means * t0
    expected = rewards.copy()
    expected[0] += carried
    np.cumsum(expected, axis=0, out=expected)
    elimination._running_sums(rewards, carried)
    assert np.array_equal(rewards.view(np.int64), expected.view(np.int64))


# Bernoulli means at the edges of the comparison: 0 and 1, where every
# reward is sure, 0.5, a dyadic uniform, and the doubles next to each
EDGE_MEANS = [m for x in (0.0, 0.5, 1.0)
              for m in (np.nextafter(x, -1.0), x, np.nextafter(x, 2.0)) if 0.0 <= m <= 1.0]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from(EDGE_MEANS) | st.floats(0.0, 1.0), min_size=1, max_size=40),
       st.integers(1, 120), st.integers(0, 2**32 - 1))
@example(EDGE_MEANS, 120, 0)
def test_bernoulli_pull_is_the_float_comparison(means, count, seed):
    # bool rewards are the float comparison's rewards, and the draw
    # leaves the generator where the float comparison leaves its twin
    means = np.array(means)
    arms = np.random.default_rng(seed).integers(means.size, size=count)
    rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
    env = RewardEnv(means, FAMILIES["bernoulli"], rng)
    rewards = env.pull(arms)
    assert rewards.dtype == env.reward_dtype == bool
    assert np.array_equal(rewards, (twin.random(count) < means[arms]).astype(float))
    assert rng.bit_generator.state == twin.bit_generator.state


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=40),
       st.floats(0.0, 1.0, exclude_min=True) | st.sampled_from([0.25, 0.5, 0.81, 1.0]),
       st.integers(1, 50), st.sampled_from(["flat", "broadcast", "2-D"]),
       st.integers(0, 2**32 - 1))
def test_gaussian_pull_is_the_normal_draw(means, sigma2, rows, layout, seed):
    # z * sigma + mean, formed in the standard normals' own array, is the
    # normal draw bit for bit, and leaves the generator where the normal
    # draw leaves its twin, for a flat index, a block's broadcast row and a
    # 2-D index whose rows differ
    means = np.array(means)
    index = np.random.default_rng(seed).integers(means.size, size=(rows, means.size))
    arms = {"flat": index.ravel(), "broadcast": np.broadcast_to(index[0], index.shape),
            "2-D": index}[layout]
    rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
    env = RewardEnv(means, RewardFamily("gaussian", sigma2), rng)
    rewards = env.pull(arms)
    expected = twin.normal(means[arms], np.sqrt(sigma2), size=arms.shape)
    assert rewards.dtype == env.reward_dtype == np.float64
    assert np.array_equal(rewards.view(np.int64), expected.view(np.int64))
    assert rng.bit_generator.state == twin.bit_generator.state


@pytest.mark.parametrize("k, m", [(1, 40), (1, 41), (3, 80), (2, 81),  # row loop: 20k < m
                                  (1, 1), (4, 80), (5, 81), (99, 164), (60, 47), (128, 1)])
def test_int32_running_sums_match_float_sums(k, m):
    # the int64 view of int32 column pairs adds each lane on its own: the
    # sums equal float64 sums of the same 0/1 rewards, on both branches,
    # up to the largest int32
    rng = np.random.default_rng(k * 1000 + m)
    means = rng.random(m)
    rewards = (rng.random((k, m)) < means).astype(np.int32)
    carried = rng.integers(0, 2**31 - k, m, endpoint=True).astype(np.int32)
    expected = rewards.astype(float)
    elimination._running_sums(expected, carried.astype(float))
    elimination._running_sums(rewards, carried)
    assert rewards.dtype == np.int32
    assert np.array_equal(rewards.astype(float), expected)


def test_running_sum_dtype_follows_rewards_and_round_cap():
    # Bernoulli sums are int32 while the round cap fits in int32 and float64
    # beyond it; Gaussian and noiseless sums are float64 throughout.  The
    # runs are only built, never run
    groups = [FiniteGroup("a", range(2)), FiniteGroup("b", range(2, 4))]
    means = np.full(4, 0.5)
    for family, wide in (("bernoulli", np.int32), ("noiseless", np.float64),
                         ("gaussian", np.float64)):
        env = RewardEnv(means, FAMILIES[family], np.random.default_rng(0))
        for slack, dtype in ((0.1, wide), (1e-3, np.float64)):
            engine = EliminationRun(groups, 0.5, slack, 0.1, env)
            assert (engine._round_cap < 2**31) == (slack == 0.1)
            assert engine._dtype == dtype
            assert engine._sums.dtype == dtype


@settings(max_examples=15, deadline=None)
@given(instances())
@example(STRADDLE)
@example(DROP)
def test_float_sums_of_int32_rewards_match_sequential_loop(case):
    # past the int32 round cap a Bernoulli run sums its 0/1 rewards as float64
    with mock.patch.object(elimination, "_INT32_ROUNDS", 0):
        assert_same_run(case)


@settings(max_examples=60, deadline=None)
@given(instances())
@example(STRADDLE)
@example(dict(STRADDLE, family="gaussian", oracle="true"))
@example(DROP)
@example(STRETCH)
def test_block_engine_matches_sequential_loop(case):
    got = assert_same_run(case)
    # active arms stay in lockstep and the spread is 2 * U(t) in every round
    assert got.checks.equal_pull_ok and got.checks.shortcut_consistent


def snapshotting(cls):
    """``cls`` keeping, after every step that changes a set and after the
    stop, keyed by the round just run, its candidates and a copy of its
    active arms and of its ledger's pulls, sums, lcb and ucb."""

    class Snapshots(cls):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.snapshots = {}

        def step(self):
            before = self.state
            after = super().step()
            if (before.candidates != after.candidates
                    or before.active.size != after.active.size or self.should_stop()):
                led = self.ledger
                self.snapshots[after.round_index - 1] = (after.candidates, [
                    a.copy() for a in (after.active, led.pulls, led.sums, led.lcb, led.ucb)])
            return after

    return Snapshots


@settings(max_examples=60, deadline=None)
@given(instances())
def test_ledger_is_current_at_every_set_change(case):
    # the block engine writes its ledger only at set changes and the stop,
    # where the set filter, the per-group plan and the caller read it; its
    # masked active arms and its candidates there are the reference's,
    # which filters pools of its own
    ref = build(snapshotting(SequentialRun), case)[0]
    got = build(snapshotting(EliminationRun), case)[0]
    ref.run()
    got.run()
    assert list(got.snapshots) == list(ref.snapshots)
    for t, (candidates, arrays) in got.snapshots.items():
        want_candidates, want_arrays = ref.snapshots[t]
        assert candidates == want_candidates, t
        assert all(np.array_equal(a, b) for a, b in zip(arrays, want_arrays)), t


@settings(max_examples=15, deadline=None)
@given(instances(), st.sampled_from([1, 40]))
def test_small_block_budgets_match_sequential_loop(case, budget):
    # a budget below the arm count gives one-round blocks
    with mock.patch.object(elimination, "BLOCK_ELEMENTS", budget):
        assert_same_run(case)


class CountingEnv(RewardEnv):
    """Counts pulls and keeps, and records each pull's rows."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.pulls = 0
        self.keeps = 0
        self.rows = []

    def pull(self, arm_indices):
        self.pulls += 1
        self.rows.append(arm_indices.shape[0])
        return super().pull(arm_indices)

    def keep(self, count):
        self.keeps += 1
        return super().keep(count)


class CountingRun(EliminationRun):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.calls = 0

    def step(self):
        self.calls += 1
        return super().step()


def test_cut_blocks_rewind_the_stream():
    # arms spread around three distinct medians: sets change every few dozen
    # rounds, so blocks are cut short; a cut block keeps the rewards of its
    # committed rounds, which leaves the generator where one pull per round
    # does, since the ledger takes its sums from the one draw each block makes
    means = np.array([0.2, 0.5, 0.7, 0.9, 0.1, 0.3, 0.6, 0.8, 0.0, 0.1, 0.2, 0.4])
    groups = [FiniteGroup("a", (0, 1, 2, 3)), FiniteGroup("b", (4, 5, 6, 7)),
              FiniteGroup("c", (8, 9, 10, 11))]
    for family in ("bernoulli", "gaussian"):
        env = CountingEnv(means, FAMILIES[family], np.random.default_rng(3))
        engine = CountingRun(groups, 0.5, 0.1, 0.1, env, true_means=means)
        engine.run()
        assert env.keeps > 0  # some block was cut and rewound
        assert env.pulls == engine.calls  # one draw per block
        assert_same_run({"groups": groups, "means": means, "family": family, "alpha": 0.5,
                         "slack": 0.1, "oracle": "reversed", "seed": 3})


class PlanCountRun(EliminationRun):
    """Counts ``_plan`` calls and the blocks that change a set without
    stopping the run."""

    def __init__(self, *args, **kwargs):
        self.plans = self.changes = 0
        super().__init__(*args, **kwargs)

    def _plan(self):
        self.plans += 1
        super()._plan()

    def step(self):
        before = self.state
        after = super().step()
        changed = (before.candidates, before.active.size) != (after.candidates, after.active.size)
        self.changes += changed and not self.should_stop()
        return after


@pytest.mark.parametrize("family", ["bernoulli", "noiseless"])
def test_no_plan_after_the_stop(family):
    # every block that changes a set or meets the stop ends the block, but
    # only a set change the run goes on from needs a new plan: a run that
    # stops on dropping the last rival group, and one that stops on the
    # spread after group a's outer arms froze, each plan once more than
    # they change a set and go on, and give the sequential loop's bits
    far = (np.array([0.9, 0.8, 0.9, 0.8, 0.1, 0.2, 0.1, 0.2]),
           [FiniteGroup("a", range(4)), FiniteGroup("b", range(4, 8))])
    for (means, groups), stops_on in ((far, "set change"), (FROZEN_CASE, "spread")):
        case = {"groups": groups, "means": means, "family": family, "alpha": 0.5,
                "slack": 0.1, "oracle": "none", "seed": 5}
        engine, _ = build(PlanCountRun, case)
        res = engine.run()
        assert engine.plans == 1 + engine.changes
        assert (len(res.final_candidates) == 1) == (stops_on == "set change")
        if stops_on == "spread":
            assert engine.changes > 0
        assert_same_run(case)


def live_count(cols):
    """A group's live arm count in a plan: the length of its slice of the
    active columns."""
    return cols.stop - cols.start


class BranchRun(EliminationRun):
    """Counts the blocks in which one candidate group has frozen arms and
    another has none, so both ways of finding a quantile run in one block.
    Asserts that only a set change or the stop cuts a block short: a false
    alarm would keep the bits but waste the rest of the block."""

    def __init__(self, groups, *args, **kwargs):
        super().__init__(groups, *args, **kwargs)
        self._sizes = {g.group_id: len(g.arm_ids) for g in groups}
        self.mixed_blocks = 0

    def step(self):
        before = self.state
        frozen = {live_count(cols) < self._sizes[gid]
                  for gid, (_, cols, _) in zip(before.candidates, self._groups)}
        self.mixed_blocks += frozen == {True, False}
        full = max(1, min(self._block, self._t_star - before.round_index + 1))
        after = super().step()
        if (before.candidates, before.active.size) == (after.candidates, after.active.size) \
                and not self.should_stop():
            assert after.round_index - before.round_index == full
        return after


class FrozenPlanRun(EliminationRun):
    """Checks every plan's per-group tuples, which the run builds at each
    set change, against those built from the ledger, which is current at a
    plan, and from the active arms within each group's id range: each
    candidate group's kth index, its slice of columns in ``active`` and its
    frozen arms' sorted lcb and ucb, empty while it has none.  Counts the
    plans whose groups have frozen arms."""

    def __init__(self, groups, alpha, *args, **kwargs):
        self.frozen_plans = 0
        self._group_columns = {g.group_id: g.columns for g in groups}
        self._kth = {g.group_id: quantile_index(len(g.arm_ids), alpha) for g in groups}
        super().__init__(groups, alpha, *args, **kwargs)

    def _plan(self):
        super()._plan()
        st, led = self.state, self.ledger
        is_active = np.zeros(led.pulls.size, dtype=bool)
        is_active[st.active] = True
        col, expected = 0, []
        for gid in st.candidates:
            cols = self._group_columns[gid]
            live, frozen = int(is_active[cols].sum()), ~is_active[cols]
            bounds = (np.sort(led.lcb[cols][frozen]), np.sort(led.ucb[cols][frozen]))
            expected.append((self._kth[gid], slice(col, col + live), bounds))
            col += live
        assert col == st.active.size
        assert len(self._groups) == len(expected)
        for got, want in zip(self._groups, expected):
            assert got[:2] == want[:2]
            for merged, sorted_ in zip(got[2], want[2]):
                assert merged.dtype == sorted_.dtype
                assert merged.tobytes() == sorted_.tobytes()
        self.frozen_plans += any(g[2][0].size for g in expected)


@settings(max_examples=60, deadline=None)
@given(instances())
@example(STRADDLE)
def test_merged_frozen_bounds_are_the_sorted_ledger_bounds(case):
    # at every set change the run merges the arms that left a pool into
    # their group's sorted frozen bounds, instead of sorting every group's
    # frozen bounds from the ledger; both give the same floats in the same
    # order, and the run the sequential loop's bits
    engine = build(FrozenPlanRun, case)[0]
    engine.run()
    if case["groups"] is FROZEN_CASE[1]:
        assert engine.frozen_plans > 0
    assert_same_run(case)


@settings(max_examples=60, deadline=None)
@given(instances())
@example(dict(STRADDLE, family="gaussian"))
def test_choice_scores_are_the_stop_rounds_lcb_quantiles(case):
    # a run that stops on the spread with two or more candidates chooses by
    # the pessimistic band step kept from the stop round; it must be each
    # candidate's kth lcb over all of its arms, as the reference partitions
    # them from the ledger, which holds the stop round's bounds.  Without
    # frozen arms q_ucb = q_lcb + 2w ranks the groups alike, so the chosen
    # group alone would not tell the two bands apart
    engine = build(EliminationRun, case)[0]
    res = engine.run()
    if len(res.final_candidates) > 1:
        ref = build(SequentialRun, case)[0]
        assert bits(engine._stop_band) == bits(
            [ref._group_quantiles(engine.ledger.lcb, gid) for gid in res.final_candidates])


def band_case(live, ends, rounds, width, kq, frozen, side, out):
    """How ``_band`` finds its kth on these arguments: "frozen" when kq
    misses the live bounds and the frozen ones among them, "live" from one
    live column when no frozen bound lies among them, else "straddle"."""
    s = int((frozen < side(live[:, 0] / rounds, width).min()).sum())
    top = int((frozen < side(live[:, -1] / rounds, width).max()).sum())
    if not 0 <= kq - s < live.shape[1] + top - s:
        return "frozen"
    return "live" if top == s else "straddle"


class BandRun(BranchRun):
    """Records the set of ways ``_band`` found a frozen group's band, and
    after every block cut short, the next block's length and the rounds
    left to t*; runs only while ``elimination._band`` is replaced by a
    recording wrapper."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.cases = set()
        self.after_cut = []

    def planned(self):
        left = self._t_star - self.state.round_index + 1
        return max(1, min(self._block, left)), left

    def step(self):
        t, (k, _) = self.state.round_index, self.planned()
        after = super().step()
        if after.round_index - t < k:
            self.after_cut.append(self.planned())
        return after


def test_frozen_and_frozen_free_groups_in_one_block():
    # in group a the arms at 0.1 and 0.9 leave once w falls below about 0.2
    # and freeze; group b's two equal arms never leave.  Both medians are 0.5,
    # so both groups stay candidates until the spread 2w meets the slack.
    # Group a's band comes from one live column while its frozen bounds lie
    # outside the live ones, and from a sort of the live bounds with the
    # frozen ones that straddle them: with noise, one of two equal outer
    # arms can leave while the other's bounds pass the frozen ones, but
    # noiseless equal arms leave together.  A block cut short halves K, but
    # not below a quarter of the starting budget, the budget over all arms,
    # although the cap grows as arms leave
    means, groups = FROZEN_CASE
    for family in ("noiseless", "bernoulli", "gaussian"):
        env = RewardEnv(means, FAMILIES[family], np.random.default_rng(11))
        engine = BandRun(groups, 0.5, 0.1, 0.1, env, true_means=means)

        def band(*args, find=elimination._band):
            if args[5].size:
                engine.cases.add(band_case(*args))
            find(*args)

        with mock.patch.object(elimination, "_band", band):
            engine.run()
        assert engine.mixed_blocks > 0
        assert engine.cases == ({"live"} if family == "noiseless" else {"live", "straddle"})
        assert engine.after_cut
        for k, left in engine.after_cut:
            assert k >= max(1, min(elimination.BLOCK_ELEMENTS // means.size // 4, left))
        assert_same_run({"groups": groups, "means": means, "family": family, "alpha": 0.5,
                         "slack": 0.1, "oracle": "true", "seed": 11})


class ShapeRun(BranchRun):
    """Records, per block of two or more rounds that forms running sums (one
    the screen certifies does not), whether they came from ``np.cumsum`` or
    from the row-by-row loop; runs only while ``np.cumsum`` and
    ``elimination._running_sums`` are wrapped by mocks that count calls."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.cumsum_used = []

    def step(self):
        k = max(1, min(self._block, self._t_star - self.state.round_index + 1))
        calls, formed = np.cumsum.call_count, elimination._running_sums.call_count
        after = super().step()
        if k > 1 and elimination._running_sums.call_count > formed:
            self.cumsum_used.append(np.cumsum.call_count > calls)
        return after


def test_wide_blocks_sum_row_by_row():
    # two groups of 150 adjacent arms spread over [0, 1]: a block budget of
    # 8 rounds of all 300 arms makes wide blocks summed row by row, and as
    # arms leave the blocks narrow until cumsum sums them
    means = np.tile(np.linspace(0.0, 1.0, 150), 2)
    groups = [FiniteGroup("a", tuple(range(150))), FiniteGroup("b", tuple(range(150, 300)))]
    case = {"groups": groups, "means": means, "family": "bernoulli", "alpha": 0.5,
            "slack": 0.25, "oracle": "true", "seed": 5}
    with mock.patch.object(elimination, "BLOCK_ELEMENTS", 8 * 300):
        with mock.patch.object(np, "cumsum", wraps=np.cumsum), \
                mock.patch.object(elimination, "_running_sums", wraps=elimination._running_sums):
            env = RewardEnv(means, FAMILIES["bernoulli"], np.random.default_rng(5))
            engine = ShapeRun(groups, 0.5, 0.25, 0.1, env, true_means=means)
            engine.run()
        assert set(engine.cumsum_used) == {True, False}
        assert_same_run(case)


def per_row_events(sums, width, t, groups, slack):
    """The one-round loop's tests on each row of running sums ``sums`` of
    rounds t, t+1, ..., for groups with no frozen arm: whether a round drops
    an arm or a candidate or meets the stop; and each round's spread."""
    rounds = np.arange(t, t + sums.shape[0], dtype=np.float64)[:, None]
    lcb, ucb = sums / rounds - width[:, None], sums / rounds + width[:, None]
    q_lcb = np.array([np.partition(lcb[:, cols], kq, axis=1)[:, kq] for kq, cols, _ in groups])
    q_ucb = np.array([np.partition(ucb[:, cols], kq, axis=1)[:, kq] for kq, cols, _ in groups])
    event = (q_ucb < q_lcb.max(axis=0)).any(axis=0)
    for c, (_, cols, _) in enumerate(groups):
        event |= ((lcb[:, cols] > q_ucb[c, :, None]) | (ucb[:, cols] < q_lcb[c, :, None])).any(1)
    spread = q_ucb.max(axis=0) - q_lcb.max(axis=0)
    event |= spread <= slack
    return event, spread


def kth_and_least(row, groups):
    """Each group's kth and least value in a row of sums, by a full sort."""
    return [(int(np.sort(row[cols])[kq]), int(row[cols].min())) for kq, cols, _ in groups]


@settings(max_examples=600, deadline=None)
@given(sizes=st.lists(st.integers(1, 6), min_size=2, max_size=3),
       kqs=st.lists(st.integers(0, 5), min_size=3, max_size=3),
       t=st.integers(1, 3000), k=st.integers(1, 40), delta=st.sampled_from([0.49, 0.1, 1e-6]),
       near=st.sampled_from([0.0, 0.3, 0.5, 0.7, 1.0]),
       reach=st.sampled_from([0.0, 0.5, 0.9, 1.0, 1.1]),
       slack=st.sampled_from([0.5, 0.999999, 1.000001]), seed=st.integers(0, 2**32 - 1))
@example(sizes=[1, 5, 4], kqs=[0, 1, 0], t=707, k=2, delta=1e-6, near=0.3, reach=0.5, slack=0.5,
         seed=16384)
@example(sizes=[1, 6], kqs=[0, 5, 0], t=28, k=31, delta=0.1, near=0.7, reach=0.5, slack=0.5,
         seed=1)
@example(sizes=[2, 1], kqs=[0, 0, 0], t=24, k=2, delta=0.49, near=0.0, reach=1.0, slack=0.5,
         seed=0)
@example(sizes=[1, 6], kqs=[0, 1, 0], t=27, k=2, delta=0.49, near=0.5, reach=0.5, slack=0.5,
         seed=0)
@example(sizes=[1, 1], kqs=[0, 0, 0], t=1, k=2, delta=0.49, near=0.0, reach=0.0, slack=1.000001,
         seed=0)
@example(sizes=[5, 1], kqs=[0, 0, 0], t=21, k=5, delta=0.49, near=0.5, reach=0.5, slack=0.5,
         seed=133588)
@example(sizes=[1, 1], kqs=[0, 0, 0], t=5, k=1, delta=0.49, near=0.0, reach=0.5, slack=0.5,
         seed=0)
def test_screen_passes_no_block_with_an_event(sizes, kqs, t, k, delta, near, reach, slack,
                                              seed):
    # bool blocks of near ties: each arm's sum is a common level, or that
    # level -/+ ``reach`` times about 2 * t * w, so that top - kth, kth -
    # bottom and the gaps between groups' kths sit near the band width, and
    # slacks near 2w.  The certificate may refuse a quiet block, but never passes one
    # in which any round has an event, and it leaves the block as it found
    # it.  A run with one candidate has stopped, so a block has two or more
    # groups; at delta 0.49 the width first rises with t, then falls.  Each
    # example is a block that a weakened certificate once passed in error.
    # The floors under row 0 are the carried sums' exact kth and least, as a
    # run carries them, and then those lowered by a drawn amount, which any
    # floors at most row 0's must be as safe as
    m = sum(sizes)
    width = confidence_width(np.arange(t, t + k), delta)
    rng = np.random.default_rng(seed)
    offset = rng.integers(-1, 1, m, endpoint=True) * reach * 2.0 * width[0] * t
    carried = np.clip(np.round(near * (t - 1) + offset * rng.uniform(0.95, 1.05, m)), 0, t - 1)
    chance = np.clip(near + rng.uniform(-1.0, 1.0, m), 0.0, 1.0)
    block = rng.random((k, m)) < chance
    slack *= 2.0 * width.min()
    groups, start = [], 0
    for size, kq in zip(sizes, kqs):
        groups.append((kq % size, slice(start, start + size), None))
        start += size
    carried = carried.astype(np.int32)
    sums = np.cumsum(block, axis=0) + carried
    event, spread = per_row_events(sums, width, t, groups, slack)

    exact = kth_and_least(carried, groups)
    lowered = [(kth - int(rng.integers(0, 3)), least - int(rng.integers(0, 3)))
               for kth, least in exact]
    drawn = block.copy()
    for floors in (exact, lowered):
        quiet = elimination._quiet_block(block, carried, floors, width, t, groups, slack)
        assert np.array_equal(block, drawn)
        if quiet is not None:
            assert not event.any()
            last, last_spread, last_floors = quiet
            assert last.dtype == np.int32 and np.array_equal(last, sums[-1])
            assert bits(last_spread) == bits(spread[-1])
            assert last_floors == kth_and_least(sums[-1], groups)


@settings(max_examples=20, deadline=None)
@given(st.integers(255, 300), st.integers(1, 6), st.integers(3000, 10**6))
def test_screen_counts_past_255_rows(k, m, t):
    # a block of 256 or more rows can hold a column of more than 255 ones,
    # which a uint8 count would wrap; the last row must be the exact count.
    # From round 3000 on, 2 * t * U(t) exceeds 300, so every arm rising by
    # k in one group is quiet
    carried = np.full(m, t - 1, dtype=np.int32)
    block = np.ones((k, m), dtype=bool)
    width = confidence_width(np.arange(t, t + k), 0.1)
    groups = [(0, slice(0, m), None)]
    quiet = elimination._quiet_block(block, carried, [(t - 1, t - 1)], width, t, groups,
                                     width.min())
    assert quiet is not None
    last, _, last_floors = quiet
    assert last.dtype == np.int32 and np.array_equal(last, np.full(m, t - 1 + k))
    assert last_floors == [(t - 1 + k, t - 1 + k)]


class ScriptedEnv:
    """A Bernoulli env stand-in whose pulls return the next rows of a fixed
    (rounds, m) bool ``block``, set after the run is built, a whole pull's
    rows at a time."""

    reward_dtype = bool

    def __init__(self, num_arms):
        self.num_arms = num_arms
        self.block, self.drawn = None, 0

    def block_index(self, arms, rows):
        return np.broadcast_to(arms, (rows, arms.size))

    def pull(self, index):
        rows = self.block[self.drawn:self.drawn + index.shape[0]]
        self.drawn += rows.shape[0]
        return rows.copy()


@settings(max_examples=200, deadline=None)
@given(sizes=st.lists(st.integers(1, 6), min_size=2, max_size=3),
       alpha=st.sampled_from([0.3, 0.5, 0.7]) | st.floats(0.01, 0.99),
       delta=st.sampled_from([0.49, 0.1, 1e-6]),
       slack=st.sampled_from([0.5, 0.999999, 1.000001, 1.5]),
       chances=st.lists(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0), min_size=18,
                        max_size=18),
       extremes=st.booleans(), seed=st.integers(0, 2**32 - 1))
@example(sizes=[2, 1], alpha=0.5, delta=0.1, slack=0.5, chances=[0.0, 1.0] + [0.5] * 16,
         extremes=True, seed=0)
def test_opening_stretch_has_no_event(sizes, alpha, delta, slack, chances, extremes, seed):
    # a run's first step draws rounds 1..t_free-1 as one stretch with no
    # test.  Every sum lies in [0, n], so no round in it may drop an arm or
    # a candidate or meet the stop, even with sums of 0 and n in one group;
    # the sums, spread and floors it hands on are the cumsum's last row, the
    # per-row spread of round t_free-1, bit for bit, and that row's kth and
    # least.  The ledger's per-arm confidence is ``delta`` itself, so that at
    # 0.49 U(t) first rises and then falls, as it does in a run of two arms
    m = sum(sizes)
    groups = [FiniteGroup(f"g{g}", range(sum(sizes[:g]), sum(sizes[:g + 1])))
              for g in range(len(sizes))]
    chance = np.array(chances[:m])
    if extremes and sizes[0] > 1:
        chance[0], chance[sizes[0] - 1] = 0.0, 1.0
    env = ScriptedEnv(m)
    with mock.patch.object(elimination, "ArmLedger",
                           lambda n, _, ledger=elimination.ArmLedger: ledger(n, delta)):
        engine = EliminationRun(groups, alpha, slack, 0.5, env)
    t_free, plan = engine._t_free, engine._groups
    assert t_free > 1
    env.block = np.random.default_rng(seed).random((t_free - 1, m)) < chance
    sums = np.cumsum(env.block, axis=0)
    event, spread = per_row_events(sums, engine.ledger.width_at(range(1, t_free)), 1, plan,
                                   slack)
    assert not event.any()
    before = engine.state
    after = engine.step()
    assert after.round_index == t_free and env.drawn == t_free - 1
    assert after.candidates == before.candidates and after.active is before.active
    assert engine._sums.dtype == np.int32 and np.array_equal(engine._sums, sums[-1])
    assert bits(after.spread) == bits(spread[-1])
    assert engine._floors == kth_and_least(sums[-1], plan)
    assert engine._pending == t_free - 1


def test_opening_stretch_draws_whole_rounds_in_chunks():
    # the stretch draws at most the K cap's rounds at a time: with a cap of
    # 20 rounds, the 90 rounds before t_free are four pulls of 20 and one of
    # 10, and the run is the sequential loop's
    means, groups = FROZEN_CASE
    with mock.patch.object(elimination, "BLOCK_ELEMENTS", 20 * means.size):
        env = CountingEnv(means, FAMILIES["bernoulli"], np.random.default_rng(11))
        engine = EliminationRun(groups, 0.5, 0.1, 0.1, env)
        engine.step()
        assert engine.state.round_index == engine._t_free == 91
        assert env.rows == [20, 20, 20, 20, 10]
        assert_same_run(STRADDLE)


def test_hard_instance_blocks_are_screened():
    # the lower-bound instance's shape: group a's arms all at 0.5, group b's
    # at 0.45 and 0.55, so the sets rarely change and most blocks are quiet.
    # A budget of 40 rounds of 12 arms keeps blocks near the 99 rounds of the
    # 164-arm benchmark instance; 1365-round blocks drift too far to certify.
    # Given true means, every block takes the per-row path, which checks
    # coverage, and the run is the same
    means = np.array([0.5] * 6 + [0.45] * 3 + [0.55] * 3)
    groups = [FiniteGroup("a", range(6)), FiniteGroup("b", range(6, 12))]
    for oracle in ("none", "true"):
        case = {"groups": groups, "means": means, "family": "bernoulli", "alpha": 0.5,
                "slack": 0.2, "oracle": oracle, "seed": 2}
        verdicts = []  # True for each block the certificate passed

        def screen(*args, certify=elimination._quiet_block):
            quiet = certify(*args)
            verdicts.append(quiet is not None)
            return quiet

        with mock.patch.object(elimination, "_quiet_block", screen), \
                mock.patch.object(elimination, "BLOCK_ELEMENTS", 12 * 40):
            got = assert_same_run(case)
        if oracle == "none":
            assert any(verdicts) and not all(verdicts)
        else:
            assert not verdicts
        assert got.checks.bounds_valid is (True if oracle == "true" else None)


def test_screened_blocks_carry_their_sums_floors():
    # at every block the screen sees, the floors a run passes are its carried
    # sums' exact kth and least per group, whether they come from one sort
    # after the opening stretch or a per-row block or from the last certified
    # block's sorted last row.  The hard instance's shape, with a budget of
    # 200 rounds of 12 arms, whose first block after the stretch drifts too
    # far to certify, and two groups of 150 arms spread over [0, 1], whose
    # wide blocks are screened while no arm has left.  The screen sees no
    # round before t_free, and its first block starts there
    spread = np.linspace(0.0, 1.0, 150)
    cases = [(np.array([0.5] * 6 + [0.45] * 3 + [0.55] * 3), 0.2, 12 * 200),
             (np.concatenate([spread, spread[::-1]]), 0.25, 8 * 300)]
    for means, slack, budget in cases:
        half = means.size // 2
        groups = [FiniteGroup("a", range(half)), FiniteGroup("b", range(half, means.size))]
        case = {"groups": groups, "means": means, "family": "bernoulli", "alpha": 0.5,
                "slack": slack, "oracle": "none", "seed": 2}
        verdicts, starts = [], []

        def screen(block, carried, floors, width, t, groups, slack,
                   certify=elimination._quiet_block):
            assert floors == kth_and_least(carried, groups)
            quiet = certify(block, carried, floors, width, t, groups, slack)
            verdicts.append(quiet is not None)
            starts.append(t)
            return quiet

        with mock.patch.object(elimination, "_quiet_block", screen), \
                mock.patch.object(elimination, "BLOCK_ELEMENTS", budget):
            assert_same_run(case)
        # floors followed both a certified block and a refused one
        assert {True, False} <= set(verdicts[:-1])
        assert starts[0] == build(EliminationRun, case)[0]._t_free > 1


class ScreenRun(EliminationRun):
    """Records, per block, its first round and the round after it, whether a
    candidate group had frozen arms and whether the block went to the
    certificate."""

    def __init__(self, groups, *args, **kwargs):
        super().__init__(groups, *args, **kwargs)
        self._sizes = {g.group_id: len(g.arm_ids) for g in groups}
        self.blocks = []

    def step(self):
        st = self.state
        frozen = any(live_count(cols) < self._sizes[gid]
                     for gid, (_, cols, _) in zip(st.candidates, self._groups))
        calls = elimination._quiet_block.call_count
        after = super().step()
        self.blocks.append((st.round_index, after.round_index, frozen,
                            elimination._quiet_block.call_count > calls))
        return after


@pytest.mark.parametrize("family", ["bernoulli", "float-sums", "noiseless", "gaussian"])
def test_only_frozen_free_int32_blocks_enter_the_screen(family):
    # the instance of the frozen-and-frozen-free test, run without true
    # means: group a's outer arms freeze early, group b's never do.  Float
    # sums, of Gaussian or noiseless rewards or of Bernoulli rewards past an
    # int32 round cap, and blocks with a frozen arm go straight to the
    # per-row path.  With int32 sums, rounds 1..t_free-1 are one step that
    # the screen does not see, and every frozen-free block after it is
    # screened
    means, groups = FROZEN_CASE
    rewards = "bernoulli" if family == "float-sums" else family
    env = RewardEnv(means, FAMILIES[rewards], np.random.default_rng(11))
    cap = 0 if family == "float-sums" else elimination._INT32_ROUNDS
    with mock.patch.object(elimination, "_INT32_ROUNDS", cap), \
            mock.patch.object(elimination, "_quiet_block", wraps=elimination._quiet_block):
        engine = ScreenRun(groups, 0.5, 0.1, 0.1, env)
        engine.run()
    blocks = engine.blocks
    assert any(frozen for _, _, frozen, _ in blocks)
    if family == "bernoulli":
        assert blocks[0] == (1, engine._t_free, False, False) and engine._t_free > 1
        assert [entered for *_, entered in blocks[1:]] == \
            [not frozen for _, _, frozen, _ in blocks[1:]]
    else:
        assert not any(entered for *_, entered in blocks)


RESERVOIRS = {
    # group quantiles 0.6 and 0.5: close enough that a coarse first epoch
    # keeps both groups, so a second epoch runs
    "discrete": (DiscreteReservoir((0.3, 0.6, 0.8), (0.3, 0.4, 0.3)),
                 DiscreteReservoir((0.2, 0.5, 0.7), (0.4, 0.3, 0.3))),
    "piecewise-linear": (PiecewiseLinearReservoir((0.3, 0.9), (0.0, 1.0)),
                         PiecewiseLinearReservoir((0.1, 0.9), (0.0, 1.0))),
}
SCHEDULES = {1: ((0.25,), (0.3,)), 2: ((0.3, 0.2), (0.45, 0.3))}


@pytest.mark.parametrize("epochs", sorted(SCHEDULES))
@pytest.mark.parametrize("family", ["bernoulli", "gaussian"])
@pytest.mark.parametrize("reservoirs", sorted(RESERVOIRS))
def test_reservoir_trials_match_sequential_loop(reservoirs, family, epochs):
    # whole trials: arms sampled from each reservoir, one elimination run per
    # epoch on one generator, with every oracle check on
    instance = BanditInstance((("hi", RESERVOIRS[reservoirs][0]),
                               ("lo", RESERVOIRS[reservoirs][1])),
                              FAMILIES[family], 0.5, reservoirs)
    plans = plan_epochs(instance, *SCHEDULES[epochs], 0.1)

    def trial(seed):
        rng = np.random.default_rng(seed)
        result = run_multistep(instance, plans, rng, oracle_checks=True)
        return result, rng.bit_generator.state

    # the uniforms each run's env still held when the run synced it
    held = []

    def sync(self, sync=RewardEnv.sync):
        held.append(self._held.size)
        sync(self)

    for seed in range(3):
        with mock.patch.object(RewardEnv, "sync", sync), \
                mock.patch.object(elimination, "EliminationRun", capped(EliminationRun)):
            got = trial(seed)
        with mock.patch.object(elimination, "EliminationRun", capped(SequentialRun)):
            ref = trial(seed)
        assert got == ref
        assert len(got[0].epoch_pulls) == epochs
    # a Bernoulli run ends on a cut block and holds its unused uniforms, so
    # the next epoch's arm draw matches only because the run synced first
    assert any(held) == (family == "bernoulli")
