"""The block engine of ``EliminationRun.step`` against the plain loop.

``SequentialRun`` runs one round per ``step`` call, as the loop did before
blocks.  On random small instances both must agree bit for bit: outcome,
pull counts, final bounds, every telemetry flag and the position of the
reward generator after the run.
"""

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from sequential_reference import SequentialRun

from quantile_bandits import EliminationRun, FiniteGroup, RewardEnv, RewardFamily, elimination

FAMILIES = {"bernoulli": RewardFamily("bernoulli"), "gaussian": RewardFamily("gaussian", 0.25),
            "noiseless": RewardFamily("bernoulli")}


@st.composite
def instances(draw):
    sizes = draw(st.lists(st.integers(1, 12), min_size=1, max_size=4))
    n = sum(sizes)
    # shuffled ids, so a group's arms are not a contiguous range
    ids = draw(st.permutations(range(n)))
    groups, start = [], 0
    for g, size in enumerate(sizes):
        groups.append(FiniteGroup(f"g{g}", tuple(ids[start:start + size])))
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
        "shared_rng": draw(st.booleans()),
        "seed": draw(st.integers(0, 2**32 - 1)),
    }


def run(cls, case):
    """Run ``cls`` on ``case``; return the result, the final bounds and the
    states of the reward and tie-break generators."""
    env_rng = np.random.default_rng(case["seed"])
    tie_rng = env_rng if case["shared_rng"] else np.random.default_rng(case["seed"] + 1)
    env = RewardEnv(case["means"], FAMILIES[case["family"]], env_rng,
                    noiseless=case["family"] == "noiseless")
    oracle = {"none": None, "true": case["means"], "reversed": case["means"][::-1]}
    engine = cls(case["groups"], case["alpha"], case["slack"], 0.1, env, rng=tie_rng,
                 true_means=oracle[case["oracle"]])
    res = engine.run()
    return (res, engine.ledger.lcb, engine.ledger.ucb,
            env_rng.bit_generator.state, tie_rng.bit_generator.state)


def assert_same_run(case):
    ref, ref_lcb, ref_ucb, *ref_streams = run(SequentialRun, case)
    got, lcb, ucb, *streams = run(EliminationRun, case)
    assert (got.chosen, got.rounds, got.total_pulls, got.final_candidates) == \
        (ref.chosen, ref.rounds, ref.total_pulls, ref.final_candidates)
    assert np.array_equal(got.pull_counts, ref.pull_counts)
    assert np.array_equal(lcb, ref_lcb) and np.array_equal(ucb, ref_ucb)
    flags = ("equal_pull_ok", "shortcut_consistent", "bounds_valid",
             "stop_pull_violations", "best_group_retained")
    assert [getattr(got, f) for f in flags] == [getattr(ref, f) for f in flags]
    assert streams == ref_streams


@settings(max_examples=60, deadline=None)
@given(instances())
def test_block_engine_matches_sequential_loop(case):
    assert_same_run(case)


@settings(max_examples=15, deadline=None)
@given(instances(), st.sampled_from([1, 40]))
def test_small_block_budgets_match_sequential_loop(case, budget):
    # a budget below the arm count gives one-round blocks
    with mock.patch.object(elimination, "BLOCK_ELEMENTS", budget):
        assert_same_run(case)


class CountingEnv(RewardEnv):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.calls = 0

    def pull(self, arm_indices):
        self.calls += 1
        return super().pull(arm_indices)


class CountingRun(EliminationRun):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.calls = 0

    def step(self):
        self.calls += 1
        return super().step()


def test_cut_blocks_rewind_the_stream():
    # arms spread around three distinct medians: sets change every few dozen
    # rounds, so blocks are cut short and their committed rounds drawn again
    means = np.array([0.2, 0.5, 0.7, 0.9, 0.1, 0.3, 0.6, 0.8, 0.0, 0.1, 0.2, 0.4])
    groups = [FiniteGroup("a", (0, 1, 2, 3)), FiniteGroup("b", (4, 5, 6, 7)),
              FiniteGroup("c", (8, 9, 10, 11))]
    for family in ("bernoulli", "gaussian"):
        env = CountingEnv(means, FAMILIES[family], np.random.default_rng(3))
        engine = CountingRun(groups, 0.5, 0.1, 0.1, env, rng=env.rng, true_means=means)
        engine.run()
        assert env.calls > engine.calls  # some block drew twice: it was cut and rewound
        assert_same_run({"groups": groups, "means": means, "family": family, "alpha": 0.5,
                         "slack": 0.1, "oracle": "reversed", "shared_rng": True, "seed": 3})
