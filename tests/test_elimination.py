"""Finite-arm successive elimination: quantiles, rounds, gaps, and bounds."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from quantile_bandits import (
    EliminationRun,
    FiniteGroup,
    RewardEnv,
    RewardFamily,
    RunChecks,
    bound_pulls_finite,
    confidence_width,
    gap_profile,
    invert_width,
    multiset_quantile,
    run_elimination,
)

FAM = RewardFamily("bernoulli")

AB_MEANS = np.array([0.2, 0.4, 0.6, 0.8, 0.1, 0.3, 0.5, 0.7])
AB_GROUPS = [FiniteGroup("A", (0, 1, 2, 3)), FiniteGroup("B", (4, 5, 6, 7))]


def brute_force_multiset_quantile(values, alpha):
    """Oracle: try every element in order, return the first with F >= 1-alpha."""
    vals = sorted(values)
    n = len(vals)
    for v in vals:
        if sum(u <= v for u in vals) / n >= (1 - alpha) - 1e-12:
            return v
    return vals[-1]


def noiseless_env(means, seed=0):
    return RewardEnv(means, RewardFamily("noiseless"), np.random.default_rng(seed))


class TestMultisetQuantile:
    def test_singleton(self):
        for alpha in (0.1, 0.5, 0.9):
            assert multiset_quantile([0.5], alpha) == 0.5

    def test_even_split_median(self):
        assert multiset_quantile([0.2, 0.4, 0.6, 0.8], 0.5) == 0.4

    def test_upper_quartile(self):
        assert multiset_quantile([0.1, 0.3, 0.5, 0.7], 0.25) == 0.5

    def test_matches_brute_force(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            vals = rng.random(int(rng.integers(1, 12))).round(2).tolist()
            alpha = float(rng.uniform(0.05, 0.95))
            got = multiset_quantile(vals, alpha)
            assert got == brute_force_multiset_quantile(vals, alpha)
            assert got in vals

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            multiset_quantile([], 0.5)


class TestNoiselessElimination:
    def test_suboptimal_group_leaves_when_widths_cross(self):
        # quantiles 0.4 vs 0.3: B is eliminated at the first round with
        # width < half the quantile gap
        env = noiseless_env(AB_MEANS)
        res = run_elimination(AB_GROUPS, 0.5, 0.01, 0.1, env)
        t_star = invert_width(0.05, 0.1 / 8)
        assert res.chosen == "A"
        # the loop stops as soon as one candidate is left, so B stayed a
        # candidate through round t_star - 1 and left at round t_star
        assert res.rounds == t_star
        assert res.final_candidates == ("A",)

    def test_arm_pull_counts_match_gap_thresholds(self):
        # arms quit at width < arm-gap / 2; quantile arms run to the end
        env = noiseless_env(AB_MEANS)
        res = run_elimination(AB_GROUPS, 0.5, 0.01, 0.1, env)
        t_far = invert_width(0.2, 0.1 / 8)    # arms 0.8 and 0.7 (gap 0.4)
        t_near = invert_width(0.1, 0.1 / 8)   # arms at distance 0.2 from the quantile
        t_star = invert_width(0.05, 0.1 / 8)
        assert list(res.pull_counts) == [t_near, t_star, t_near, t_far,
                                         t_near, t_star, t_near, t_far]
        assert res.total_pulls == 2 * (t_far + 2 * t_near + t_star)

    def test_identical_groups_stop_on_spread(self):
        means = np.array([0.2, 0.4, 0.6, 0.8] * 2)
        env = noiseless_env(means)
        res = run_elimination(AB_GROUPS, 0.5, 0.1, 0.1, env)
        assert res.rounds == invert_width(0.05, 0.1 / 8)
        assert set(res.final_candidates) == {"A", "B"}
        assert res.chosen in {"A", "B"}

    def test_single_group_returns_without_pulls(self):
        env = noiseless_env(np.array([0.3, 0.5]))
        res = run_elimination([FiniteGroup("only", (0, 1))], 0.5, 0.1, 0.1, env)
        assert res.chosen == "only"
        assert res.total_pulls == 0
        assert res.rounds == 0

    def test_choice_before_any_round_needs_one_candidate(self):
        # before any round, and mid-run: the choice reads the band of the
        # round that stopped the run
        run = EliminationRun(AB_GROUPS, 0.5, 0.1, 0.1, noiseless_env(AB_MEANS))
        with pytest.raises(RuntimeError, match="before the stopping condition was met"):
            run.choose()
        run.step()
        assert len(run.state.candidates) == 2 and not run.should_stop()
        with pytest.raises(RuntimeError, match="before the stopping condition was met"):
            run.choose()

    def test_step_rejected_after_stop(self):
        env = noiseless_env(np.array([0.3, 0.5]))
        run = EliminationRun([FiniteGroup("only", (0, 1))], 0.5, 0.1, 0.1, env)
        assert run.should_stop()
        with pytest.raises(RuntimeError):
            run.step()

    def test_telemetry_clean_on_noiseless_run(self):
        env = noiseless_env(AB_MEANS)
        res = run_elimination(AB_GROUPS, 0.5, 0.01, 0.1, env, true_means=AB_MEANS)
        assert res.checks.equal_pull_ok
        assert res.checks.shortcut_consistent
        assert res.checks.bounds_valid
        assert res.checks.stop_pull_violations == 0
        assert res.checks.best_group_retained

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from([0.3, 0.5, 0.7]), st.sampled_from([0.04, 0.1]),
           st.lists(st.lists(st.integers(1, 19), min_size=1, max_size=9),
                    min_size=2, max_size=4))
    def test_noiseless_runs_choose_the_brute_force_best_group(self, alpha, slack, grid):
        # random small instances, means on a 0.05 grid; noiseless intervals
        # always cover, so once the best group leads the rest by more than
        # the slack the run must choose it.  Odd active counts with
        # non-integer sums run through the pair accumulate
        groups, start = [], 0
        for g, cells in enumerate(grid):
            groups.append(FiniteGroup(f"g{g}", range(start, start + len(cells))))
            start += len(cells)
        means = np.concatenate(grid) * 0.05
        quants = sorted((brute_force_multiset_quantile(means[g.columns].tolist(), alpha),
                         g.group_id) for g in groups)
        assume(quants[-1][0] - quants[-2][0] >= 2 * slack)
        res = run_elimination(groups, alpha, slack, 0.1, noiseless_env(means),
                              true_means=means)
        assert res.chosen == quants[-1][1]
        assert res.checks.bounds_valid and res.checks.event_b

    def test_ties_break_reproducibly_from_the_reward_stream(self):
        # two equal arms tie to the end; the tie-break draws from the env's
        # generator, so every run from env seed 0 picks the same group
        tied = [FiniteGroup("a", (0,)), FiniteGroup("b", (1,))]
        chosen = {run_elimination(tied, 0.5, 0.1, 0.1, noiseless_env(np.array([0.5, 0.5]))).chosen
                  for _ in range(8)}
        assert len(chosen) == 1


class TestRunChecks:
    ORACLE = ("bounds_valid", "stop_pull_violations", "best_group_retained", "event_b")

    def test_sum_ands_flags_and_adds_violations(self):
        a = RunChecks(True, True, True, 2, True, True)
        b = RunChecks(False, True, False, 3, True, False)
        assert a + b == b + a == RunChecks(False, True, False, 5, True, False)
        assert a + a == RunChecks(True, True, True, 4, True, True)
        assert (a + RunChecks(True, False)).shortcut_consistent is False

    def test_oracle_fields_stay_none_without_true_means(self):
        checks = run_elimination(AB_GROUPS, 0.5, 0.01, 0.1, noiseless_env(AB_MEANS)).checks
        oracle = RunChecks(True, True, True, 0, True, True)
        for total in (checks, checks + checks, checks + oracle, oracle + checks):
            assert [getattr(total, f) for f in self.ORACLE] == [None] * 4
            assert total.equal_pull_ok and total.shortcut_consistent

    def test_stop_pull_violations_match_inverted_widths(self):
        # reversed oracle means give arms overall gaps they do not have, so
        # some arms outlive their stop round; the count must equal the
        # scalar inversion's sum of max(0, pulls_j - T_j)
        means = np.array([0.1, 0.5, 0.9, 0.3, 0.4, 0.5])
        groups = [FiniteGroup("A", (0, 1, 2)), FiniteGroup("B", (3, 4, 5))]
        oracle = means[::-1]
        res = run_elimination(groups, 0.5, 0.05, 0.1, noiseless_env(means), true_means=oracle)
        overall = gap_profile(groups, oracle, 0.5, 0.05).overall
        stop = [invert_width(gap / 4.0, 0.1 / means.size) for gap in overall]
        expected = sum(max(0, int(p) - s) for p, s in zip(res.pull_counts, stop))
        assert expected > 0
        assert res.checks.stop_pull_violations == expected


class TestNoisyElimination:
    def test_bernoulli_ab_returns_optimal(self):
        # clear 0.1 quantile gap; a handful of seeded runs all find A
        for seed in range(5):
            rng = np.random.default_rng(seed)
            env = RewardEnv(AB_MEANS, FAM, rng)
            res = run_elimination(AB_GROUPS, 0.5, 0.05, 0.1, env)
            assert res.chosen == "A"

    @pytest.mark.slow
    def test_success_rate_meets_confidence_level(self):
        # at slack 0.05 only A's median (0.4 vs 0.3) meets the target, so the
        # guaranteed 1 - delta success rate is testable directly
        trials, delta = 200, 0.1
        wins = 0
        for seed in range(trials):
            rng = np.random.default_rng(10_000 + seed)
            env = RewardEnv(AB_MEANS, FAM, rng)
            wins += run_elimination(AB_GROUPS, 0.5, 0.05, delta, env).chosen == "A"
        rate = wins / trials
        floor = 1.0 - delta
        assert rate >= floor - 3.0 * math.sqrt(floor * (1 - floor) / trials)

    def test_seeded_telemetry_flags_hold(self):
        for seed in (0, 7, 19):
            rng = np.random.default_rng(seed)
            env = RewardEnv(AB_MEANS, FAM, rng)
            res = run_elimination(AB_GROUPS, 0.5, 0.05, 0.1, env, true_means=AB_MEANS)
            assert res.checks.equal_pull_ok
            assert res.checks.shortcut_consistent
            if res.checks.bounds_valid:
                assert res.checks.stop_pull_violations == 0
                assert res.checks.best_group_retained

    def test_ledger_bounds_match_width_around_mean(self):
        from quantile_bandits.elimination import ArmLedger
        rng = np.random.default_rng(14)
        ledger = ArmLedger(3, 0.02)
        history = []
        for _ in range(50):
            rewards = rng.random(3)
            ledger.record_pulls(np.arange(3), ledger.sums + rewards, 1)
            history.append(rewards)
        means = np.mean(history, axis=0)
        width = confidence_width(50, 0.02)
        assert np.array_equal(ledger.pulls, [50, 50, 50])
        np.testing.assert_allclose(ledger.sums / ledger.pulls, means, rtol=1e-12)
        np.testing.assert_allclose(ledger.lcb, means - width, rtol=1e-12)
        np.testing.assert_allclose(ledger.ucb, means + width, rtol=1e-12)

    def test_width_at_rejects_a_zero_pull_count(self):
        # index pulls - 1 would read the table's last entry for a zero count
        from quantile_bandits.elimination import ArmLedger
        ledger = ArmLedger(3, 0.02)
        with pytest.raises(ValueError, match="at least one pull") as raised:
            ledger.width_at(np.array([0, 1, 2]))
        with pytest.raises(ValueError) as direct:
            confidence_width(np.array([0, 1, 2]), 0.02)
        assert str(raised.value) == str(direct.value)
        assert np.array_equal(ledger.width_at(np.array([1, 2])),
                              confidence_width(np.array([1, 2]), 0.02))
        assert ledger.width_at(np.array([], dtype=np.int64)).size == 0
        for pulls in (range(0, 3), range(-2, 1), range(0, 1)):
            with pytest.raises(ValueError, match="at least one pull"):
                ledger.width_at(pulls)
        with pytest.raises(ValueError, match="step 1"):
            ledger.width_at(range(1, 9, 2))

    @pytest.mark.parametrize("t, k", [(1, 1), (1, 99), (900, 124), (1000, 60), (1024, 1),
                                      (1025, 3), (3000, 2000), (7, 0)])
    def test_width_at_range_is_the_gathered_widths(self, t, k):
        # a block's rounds read one slice of the table, and a range past its
        # end grows it as the gathered form does
        from quantile_bandits.elimination import ArmLedger
        sliced, gathered = ArmLedger(3, 0.02), ArmLedger(3, 0.02)
        widths = sliced.width_at(range(t, t + k))
        assert np.array_equal(widths, gathered.width_at(np.arange(t, t + k)))
        assert widths.shape == (k,)
        assert sliced._widths.size == gathered._widths.size >= t + k - 1


class TestGapProfile:
    def test_ab_instance_values(self):
        prof = gap_profile(AB_GROUPS, AB_MEANS, 0.5, 0.05)
        assert prof.best_group == "A"
        assert prof.group_gaps["A"] == pytest.approx(0.0)
        assert prof.group_gaps["B"] == pytest.approx(0.1)
        assert prof.uniqueness_gap == pytest.approx(0.1)
        assert prof.arm_gaps[3] == pytest.approx(0.4)   # arm 0.8 in A
        assert prof.overall[3] == pytest.approx(0.4)
        assert prof.arm_gaps[5] == pytest.approx(0.0)   # arm 0.3 is B's quantile
        assert prof.overall[5] == pytest.approx(0.1)

    def test_identical_groups(self):
        means = np.array([0.2, 0.4, 0.6, 0.8] * 2)
        prof = gap_profile(AB_GROUPS, means, 0.5, 0.05)
        assert prof.uniqueness_gap == 0.0
        assert np.all(prof.overall >= 0.05)

    def test_quantile_arm_has_zero_arm_gap(self):
        prof = gap_profile(AB_GROUPS, AB_MEANS, 0.5, 0.05)
        assert prof.arm_gaps[1] == 0.0  # arm 0.4 is A's median

    def test_tie_breaks_to_lowest_group_id(self):
        means = np.array([0.5, 0.5])
        groups = [FiniteGroup("z", (0,)), FiniteGroup("a", (1,))]
        prof = gap_profile(groups, means, 0.5, 0.1)
        assert prof.best_group == "a"


def bound_by_hand(gaps, num_arms, delta):
    total = 0.0
    for g in gaps:
        inner = math.log(max(1.0 / g**2, math.e))
        total += (1.0 / g**2) * math.log((num_arms / delta) * inner)
    return total


class TestFiniteBound:
    def test_unit_gaps_boundary(self):
        prof = gap_profile([FiniteGroup("a", (0,))], np.array([1.0]), 0.5, 1.0)
        assert prof.overall[0] == 1.0
        got = bound_pulls_finite(prof, 1, 0.1)
        assert got == pytest.approx(math.log(1.0 / 0.1))

    def test_matches_hand_formula(self):
        prof = gap_profile(AB_GROUPS, AB_MEANS, 0.5, 0.05)
        got = bound_pulls_finite(prof, 8, 0.1)
        assert got == pytest.approx(bound_by_hand(prof.overall, 8, 0.1), rel=1e-12)

    def test_nonpositive_gap_rejected(self):
        prof = gap_profile(AB_GROUPS, AB_MEANS, 0.5, 0.05)
        for gap in (0.0, -0.1):
            with pytest.raises(ValueError, match="all overall gaps must be positive"):
                bound_pulls_finite(replace(prof, overall=np.append(prof.overall[1:], gap)), 8, 0.1)

    def test_doubling_gaps_quarters_leading_term(self):
        gaps1 = np.full(4, 0.1)
        gaps2 = np.full(4, 0.2)
        b1 = bound_by_hand(gaps1, 4, 0.1)
        b2 = bound_by_hand(gaps2, 4, 0.1)
        # 1/gap^2 quarters; log factor drifts mildly
        assert 3.0 < b1 / b2 < 5.0

    def test_monotone_decreasing_in_each_gap(self):
        base = np.array([0.1, 0.2, 0.3])
        ref = bound_by_hand(base, 3, 0.1)
        for i in range(3):
            bumped = base.copy()
            bumped[i] *= 1.5
            assert bound_by_hand(bumped, 3, 0.1) < ref


class TestValidation:
    def test_groups_must_partition(self):
        env = noiseless_env(np.array([0.5, 0.6]))
        with pytest.raises(ValueError):
            run_elimination([FiniteGroup("a", (0, 2))], 0.5, 0.1, 0.1, env)
        with pytest.raises(ValueError):
            run_elimination([FiniteGroup("a", (0,)), FiniteGroup("b", (0,))], 0.5, 0.1, 0.1,
                            noiseless_env(np.array([0.5])))

    def test_group_needs_an_arm(self):
        with pytest.raises(ValueError, match="group 'none' has no arms"):
            FiniteGroup("none", ())

    @pytest.mark.parametrize("ids", [(0, 2), (1, 0), (3, 3), [4, 5, 7], range(0, 6, 2)])
    def test_group_arm_ids_must_be_consecutive(self, ids):
        with pytest.raises(ValueError, match="group 'gap' arm ids must be consecutive"):
            FiniteGroup("gap", ids)

    def test_consecutive_ids_are_the_equal_range(self):
        for ids in ((0, 1, 2, 3), [0, 1, 2, 3], np.arange(4), range(4)):
            group = FiniteGroup("A", ids)
            assert group == FiniteGroup("A", range(4))
            assert group.arm_ids == range(4) and group.columns == slice(0, 4)
        assert FiniteGroup("B", (5,)).columns == slice(5, 6)

    @pytest.mark.parametrize("layout", [
        [(2, 3), (0, 1)],        # out of group order
        [(0, 1), (3,)],          # a gap at id 2
        [(1, 2), (0,)],          # not starting at 0
        [(0, 1, 2), (2, 3)],     # overlapping
    ])
    def test_groups_must_tile_the_ids_in_order(self, layout):
        groups = [FiniteGroup(f"g{i}", ids) for i, ids in enumerate(layout)]
        env = noiseless_env(np.linspace(0.1, 0.9, max(max(ids) for ids in layout) + 1))
        with pytest.raises(ValueError, match="groups must tile arm ids 0..n-1 in group order"):
            EliminationRun(groups, 0.5, 0.1, 0.1, env)

    def test_group_ids_must_be_distinct(self):
        env = noiseless_env(np.array([0.2, 0.8]))
        with pytest.raises(ValueError, match="group ids must be distinct"):
            run_elimination([FiniteGroup("a", (0,)), FiniteGroup("a", (1,))], 0.5, 0.1, 0.1, env)

    def test_parameter_validation(self):
        env = noiseless_env(np.array([0.5]))
        with pytest.raises(ValueError):
            run_elimination([FiniteGroup("a", (0,))], 1.5, 0.1, 0.1, env)
        with pytest.raises(ValueError):
            run_elimination([FiniteGroup("a", (0,))], 0.5, -0.1, 0.1, env)
        for slack in (math.nan, math.inf):
            with pytest.raises(ValueError, match="slack must be positive and finite"):
                EliminationRun([FiniteGroup("a", (0,))], 0.5, slack, 0.1, env)

    @pytest.mark.parametrize("groups, delta, arms, message", [
        ([], 0.1, 8, "at least one group"),
        (AB_GROUPS, 0.0, 8, r"delta must lie in \(0, 1\)"),
        (AB_GROUPS, 1.0, 8, r"delta must lie in \(0, 1\)"),
        (AB_GROUPS, 0.1, 7, "arm count does not match"),
    ])
    def test_run_rejects_invalid(self, groups, delta, arms, message):
        with pytest.raises(ValueError, match=message):
            EliminationRun(groups, 0.5, 0.1, delta, noiseless_env(AB_MEANS[:arms]))
