"""Two-step/multi-step runners, hidden-index buckets, reservoir gap bounds, and bounds."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quantile_bandits import (
    BanditInstance,
    DiscreteReservoir,
    EpochPlan,
    FiniteGroup,
    PiecewiseLinearReservoir,
    RewardFamily,
    epochs_until_elimination,
    gap_profile,
    make_worst_case_instances,
    plan_epochs,
    pull_bound_multistep,
    pull_bound_worst_case,
    quantile_sandwiched,
    required_arm_count,
    relaxed_success_set,
    reservoir_gap_bounds,
    run_multistep,
)
from quantile_bandits.elimination import quantile_index
from quantile_bandits.grouped import (_bucket_of, _epoch_oracles, _largest_bucket,
                                      bucket_geometry)
from quantile_bandits.hardness import HardInstanceParams
from quantile_bandits.instances import quantile_band

FAM = RewardFamily("bernoulli")
NOISELESS = RewardFamily("noiseless")


def make_instance(groups, alpha=0.5, name="test", family=FAM):
    return BanditInstance(tuple(groups), family, alpha, name)


GOOD_PAIR = make_worst_case_instances(HardInstanceParams(0.2, 0.2))[1]


def bucket_members(eps, alpha, js):
    """Positions of ``js`` in each bucket, read off the edges 0, b_1..b_m, 1
    one interval at a time: [edges[i], edges[i+1]), the last one closed at 1."""
    m, bounds, _ = bucket_geometry(eps, alpha)
    js = np.asarray(js, dtype=float)
    edges = np.concatenate(([0.0], bounds, [1.0]))
    return [np.flatnonzero((edges[i] <= js) & ((js < edges[i + 1]) | (i == m)))
            for i in range(m + 1)]


class TestRequiredArmCount:
    def test_frozen_values(self):
        assert required_arm_count(0.1, 0.05, 2) == 220    # ceil(50 ln 80)
        assert required_arm_count(0.25, 0.1, 4) == 36     # ceil(8 ln 80)
        assert required_arm_count(0.05, 0.05, 2) == 877   # ceil(200 ln 80)

    def test_quarter_eps_quadruples_count(self):
        # exact ratio is 877/220 = 3.9864; ceiling effects keep it near 4
        ratio = required_arm_count(0.05, 0.05, 2) / required_arm_count(0.1, 0.05, 2)
        assert ratio == pytest.approx(877 / 220)
        assert 3.9 < ratio < 4.1

    def test_validation(self):
        with pytest.raises(ValueError):
            required_arm_count(0.0, 0.1, 2)


class TestCheckSchedule:
    """The schedule checks, made by :func:`plan_epochs` before any epoch runs."""

    def test_ordering_enforced(self):
        half, low = GOOD_PAIR, make_instance([("a", DiscreteReservoir.point_mass(0.5))], 0.3)
        with pytest.raises(ValueError, match=r"schedule\[0\]: need delta < eps"):
            plan_epochs(half, [0.2], [0.1], 0.3)   # delta > eps
        with pytest.raises(ValueError, match=r"schedule\[0\]: need delta < eps"):
            plan_epochs(half, [0.6], [0.1], 0.05)  # eps > min(alpha, 1-alpha)
        with pytest.raises(ValueError, match=r"schedule\[0\]: need delta < eps"):
            plan_epochs(low, [0.35], [0.1], 0.05)  # eps > alpha
        for gap in (0.0, math.nan, math.inf):
            with pytest.raises(ValueError, match=r"schedule\[0\]: gap must be positive"):
                plan_epochs(half, [0.2], [gap], 0.05)
        with pytest.raises(ValueError, match="delta must lie in"):
            plan_epochs(half, [0.2], [0.1], -0.05)
        with pytest.raises(ValueError, match="eps and delta_gap schedules"):
            plan_epochs(half, [], [], 0.05)
        plan_epochs(half, [0.2], [0.1], 0.05)


class TestPlanEpochs:
    def test_every_epoch_requests_arms_for_all_groups(self):
        # the count covers all G groups in every epoch, not only the survivors
        three = make_instance([(gid, DiscreteReservoir.point_mass(0.5)) for gid in "abc"])
        assert plan_epochs(three, (0.2, 0.1), (0.3, 0.05), 0.05) == (
            EpochPlan(0.2, 0.3, 0.05, required_arm_count(0.2, 0.05, 3)),
            EpochPlan(0.1, 0.05, 0.05, required_arm_count(0.1, 0.05, 3)))


class TestQuantileSandwiched:
    def test_exact_atoms_of_point_mass(self):
        spec = DiscreteReservoir.point_mass(0.5)
        assert quantile_sandwiched(spec, [0.5, 0.5, 0.5], 0.5, 0.1)

    def test_sample_below_band_fails(self):
        spec = DiscreteReservoir.from_atoms(((0.3, 0.5), (0.7, 0.5)))
        # band at alpha=1/2, eps=0.1 is [0.3, 0.7]; all-low samples give 0.3 -> ok,
        # but a sample from a different group sitting below 0.3 fails
        assert not quantile_sandwiched(spec, [0.1, 0.1, 0.1], 0.5, 0.1)

    def test_two_atom_sandwich_frequency(self):
        spec = DiscreteReservoir.from_atoms(((0.3, 0.5), (0.7, 0.5)))
        n = required_arm_count(0.1, 0.05, 1)
        rng = np.random.default_rng(42)
        hits = 0
        for _ in range(1000):
            means = spec.quantile_many(rng.random(n))
            hits += quantile_sandwiched(spec, means, 0.5, 0.1)
        assert hits / 1000 >= 0.95


@st.composite
def sandwich_cases(draw):
    """A two-to-four-atom reservoir on a 0.05 grid, an alpha, an eps inside
    (0, min(alpha, 1 - alpha)) and a sample drawn from the band's ends, the
    floats either side of them and the atoms, so ties sit on both ends."""
    grid = sorted(set(draw(st.lists(st.integers(0, 20), min_size=2, max_size=4))))
    if len(grid) < 2:
        grid = [0, 20]
    weights = np.array(draw(st.lists(st.integers(1, 5), min_size=len(grid),
                                     max_size=len(grid))), dtype=float)
    spec = DiscreteReservoir(tuple(g / 20 for g in grid), tuple(weights / weights.sum()))
    alpha = draw(st.sampled_from([0.1, 0.25, 0.3, 0.5, 0.7, 0.9]))
    eps = min(alpha, 1.0 - alpha) * draw(st.sampled_from([0.1, 0.5, 0.9]))
    low, high = quantile_band(spec, alpha, eps)
    pool = [low, high, *np.nextafter([low, low, high, high], [-1.0, 2.0, -1.0, 2.0]),
            *spec.means]
    sample = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=40))
    return spec, sample, alpha, eps


class TestSandwichByCounting:
    @settings(max_examples=400, deadline=None)
    @given(sandwich_cases())
    def test_counts_decide_as_the_sorted_quantile_does(self, case):
        # the sorted sample's kth value is at least low when at most k values
        # lie below low, and at most high when more than k lie at or below it
        spec, sample, alpha, eps = case
        low, high = quantile_band(spec, alpha, eps)
        kq = quantile_index(len(sample), alpha)
        expected = bool(sum(x < low for x in sample) <= kq < sum(x <= high for x in sample))
        assert quantile_sandwiched(spec, sample, alpha, eps) is expected
        assert quantile_sandwiched(spec, np.array(sample), alpha, eps) is expected

    def test_empty_sample_raises(self):
        with pytest.raises(ValueError, match="empty"):
            quantile_sandwiched(DiscreteReservoir.point_mass(0.5), [], 0.5, 0.1)


class TestBucketGeometry:
    def test_half_eighth_geometry(self):
        m, bounds, _ = bucket_geometry(0.125, 0.5)
        assert m == 8
        assert np.allclose(bounds, np.arange(8) / 8)
        # b_1 = 0 leaves bucket 0 empty
        assert bucket_members(0.125, 0.5, [0.0, 0.5, 0.99])[0].size == 0
        assert 0 not in _bucket_of(bounds, [0.0, 0.5, 0.99])

    def test_point_three_geometry(self):
        m, bounds, _ = bucket_geometry(0.1, 0.3)
        assert m == 10
        assert bounds[0] == pytest.approx(0.0, abs=1e-12)

    def test_uneven_geometry(self):
        m, bounds, _ = bucket_geometry(0.15, 0.5)
        assert m == 7
        assert bounds[0] == pytest.approx(0.05)
        # 0.02 < b_1
        assert bucket_members(0.15, 0.5, [0.02])[0].tolist() == [0]
        assert _bucket_of(bounds, [0.02]).tolist() == [0]

    @pytest.mark.parametrize("eps, alpha", [(0.125, 0.5), (0.15, 0.5), (0.1, 0.3),
                                            (0.13, 0.37), (0.07, 0.61)])
    def test_each_boundary_and_its_neighbouring_floats(self, eps, alpha):
        # a boundary opens its bucket; one ulp below it is still in the bucket before
        m, bounds, _ = bucket_geometry(eps, alpha)
        js = np.clip(np.concatenate((bounds, np.nextafter(bounds, -1.0), np.nextafter(bounds, 2.0),
                                     [0.0, 1.0])), 0.0, 1.0)
        which = _bucket_of(bounds, js)
        for i, bucket in enumerate(bucket_members(eps, alpha, js)):
            assert np.array_equal(np.flatnonzero(which == i), bucket)
        inner = np.flatnonzero(bounds > 0.0)
        assert _bucket_of(bounds, bounds[inner]).tolist() == (inner + 1).tolist()
        assert _bucket_of(bounds, np.nextafter(bounds[inner], -1.0)).tolist() == inner.tolist()

    def test_buckets_cover_and_are_disjoint(self):
        rng = np.random.default_rng(3)
        js = np.concatenate((rng.random(500), [0.0, 1.0]))
        members = bucket_members(0.13, 0.37, js)
        all_idx = np.concatenate(members)
        assert np.array_equal(np.sort(all_idx), np.arange(js.size))
        m, bounds, _ = bucket_geometry(0.13, 0.37)
        which = _bucket_of(bounds, js)
        for i, bucket in enumerate(members):
            assert np.array_equal(np.flatnonzero(which == i), bucket)
        # every bucket interval has width at most eps
        edges = np.concatenate(([0.0], bounds, [1.0]))
        assert np.all(np.diff(edges) <= 0.13 + 1e-12)

    def test_bucket_count_near_inverse_eps(self):
        for eps, alpha in ((0.125, 0.5), (0.1, 0.3), (0.15, 0.5), (0.07, 0.25)):
            m, bounds, _ = bucket_geometry(eps, alpha)
            assert m in (math.floor(1 / eps), math.ceil(1 / eps))
            assert m >= 3
            assert np.isclose(bounds, 1.0 - alpha).any()  # the level is a boundary

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from([(0.125, 0.5), (0.15, 0.5), (0.1, 0.3), (0.13, 0.37), (0.07, 0.61)]),
           st.data())
    def test_largest_bucket_is_the_largest_bincount(self, geometry, data):
        # indices on the boundaries, one ulp either side and anywhere else
        eps, alpha = geometry
        m, bounds, _ = bucket_geometry(eps, alpha)
        near = np.clip(np.concatenate((bounds, np.nextafter(bounds, -1.0),
                                       np.nextafter(bounds, 2.0), [0.0, 1.0])), 0.0, 1.0)
        js = np.array(data.draw(st.lists(st.sampled_from(near.tolist()) | st.floats(0.0, 1.0),
                                         min_size=1, max_size=60)))
        assert _largest_bucket(bounds, js) == np.bincount(_bucket_of(bounds, js)).max()

    def test_geometry_is_built_once_and_read_only(self):
        first = bucket_geometry(0.05, 0.5)
        assert bucket_geometry(0.05, 0.5) is first
        with pytest.raises(ValueError, match="read-only"):
            first[1][0] = 0.5

    def test_epoch_oracle_counts_the_largest_bucket(self):
        inst = make_instance([("a", DiscreteReservoir((0.2, 0.6), (0.5, 0.5))),
                              ("b", DiscreteReservoir((0.4,), (1.0,)))])
        rng = np.random.default_rng(8)
        for eps, alpha in ((0.125, 0.5), (0.1, 0.3), (0.13, 0.37)):
            js = {"a": rng.random(300), "b": np.array([0.0, 0.5, 1.0, 1.0])}
            groups = [FiniteGroup("a", range(300)), FiniteGroup("b", range(300, 304))]
            flat = np.concatenate((js["a"], js["b"]))
            means = np.concatenate([inst.reservoir(gid).quantile_many(js[gid]) for gid in js])
            largest = _epoch_oracles(inst, groups, flat, means, alpha, eps)[1]
            assert largest == max(b.size for g in js for b in bucket_members(eps, alpha, js[g]))


class TestReservoirGapBounds:
    def test_identical_groups_bound_nonpositive(self):
        res = DiscreteReservoir.from_atoms(((0.2, 0.5), (0.8, 0.5)))
        inst = make_instance([("a", res), ("b", res)])
        gb = reservoir_gap_bounds(inst, 0.1, 0.05)
        for gid in ("a", "b"):
            assert gb.group_bound[gid] <= 0.0
            assert np.all(gb.combined[gid] >= 0.05)
            # with nonpositive group bounds the combination is slack vs bucket
            assert np.allclose(gb.combined[gid],
                               np.maximum(0.05, gb.bucket_bounds[gid]))

    def test_hard_pair_suboptimal_group_bound(self):
        # instance built at tolerance 0.2, analyzed at 0.05: the point-mass
        # group's quantile band sits 0.1 below the mixture's upper quantile
        gb = reservoir_gap_bounds(GOOD_PAIR, 0.05, 0.05)
        assert gb.best_group_relaxed == "g2"
        assert gb.group_bound["g1"] == pytest.approx(0.1)
        assert gb.group_bound["g2"] == pytest.approx(0.0)  # its own low is the max

    def test_middle_buckets_have_zero_arm_bound(self):
        inst = make_instance([("a", DiscreteReservoir.from_atoms(((0.2, 0.25), (0.4, 0.25), (0.6, 0.25), (0.8, 0.25))))])
        gb = reservoir_gap_bounds(inst, 0.1, 0.05)
        level = math.floor((1 - 0.5) / 0.1)
        for i in range(gb.bucket_count + 1):
            if level - 1 <= i <= level + 1:
                assert gb.bucket_bounds["a"][i] == 0.0
            else:
                assert gb.bucket_bounds["a"][i] >= 0.0

    def test_dominates_realized_gaps_under_sandwich(self):
        # whenever every sample quantile is sandwiched, the reservoir-level
        # bounds sit below the realized finite-arm gaps
        inst = make_instance([
            ("a", DiscreteReservoir.from_atoms(((0.2, 0.25), (0.4, 0.25), (0.6, 0.25), (0.8, 0.25)))),
            ("b", DiscreteReservoir.from_atoms(((0.1, 0.25), (0.3, 0.25), (0.5, 0.25), (0.7, 0.25)))),
            ("c", DiscreteReservoir.point_mass(0.35)),
        ])
        eps, gap, delta = 0.1, 0.05, 0.05
        gb = reservoir_gap_bounds(inst, eps, gap)
        alpha = inst.alpha
        n = required_arm_count(eps, delta, 3)
        rng = np.random.default_rng(11)
        checked = 0
        from quantile_bandits import FiniteGroup
        for _ in range(60):
            js = {gid: rng.random(n) for gid in inst.group_ids}
            mus = {gid: inst.reservoir(gid).quantile_many(js[gid]) for gid in inst.group_ids}
            if not all(quantile_sandwiched(inst.reservoir(g), mus[g], alpha, eps)
                       for g in inst.group_ids):
                continue
            checked += 1
            groups = [FiniteGroup(gid, tuple(range(k * n, (k + 1) * n)))
                      for k, gid in enumerate(inst.group_ids)]
            means = np.concatenate([mus[gid] for gid in inst.group_ids])
            prof = gap_profile(groups, means, alpha, gap)
            for gid in inst.group_ids:
                assert prof.group_gaps[gid] >= gb.group_bound[gid] - 1e-12
                offset = inst.group_ids.index(gid) * n
                for i, bucket in enumerate(bucket_members(eps, alpha, js[gid])):
                    for pos in bucket:
                        assert prof.arm_gaps[offset + pos] >= gb.bucket_bounds[gid][i] - 1e-12
            assert prof.uniqueness_gap >= gb.uniqueness_bound - 1e-12
        assert checked >= 40, "sandwich event should hold on most resamples"

    @pytest.mark.parametrize("alpha, eps", [(0.5, 0.1), (0.3, 0.07), (0.37, 0.13), (0.75, 0.2),
                                            (0.2, 0.19)])
    def test_bucket_bounds_match_per_bucket_quantiles(self, alpha, eps):
        # reference: each bucket below the level band reads the reservoir at its
        # upper edge b_{i+1}, each bucket above it at its lower edge b_i
        inst = make_instance([
            ("a", DiscreteReservoir.from_atoms(((0.1, 0.3), (0.45, 0.2), (0.7, 0.1), (0.9, 0.4)))),
            ("b", PiecewiseLinearReservoir((0.0, 0.35, 0.6, 1.0), (0.1, 0.2, 0.8, 1.0))),
        ], alpha=alpha)
        gb = reservoir_gap_bounds(inst, eps, 0.05)
        m, bounds, level = bucket_geometry(eps, alpha)
        for gid, res in inst.groups:
            low, high = quantile_band(res, alpha, eps)
            ref = [low - res.quantile(float(bounds[i])) if i < level - 1
                   else res.quantile(float(bounds[i - 1])) - high if i > level + 1
                   else 0.0 for i in range(m + 1)]
            assert gb.bucket_bounds[gid].tolist() == ref

    @pytest.mark.parametrize("alpha,eps,gap,message", [
        (0.5, 0.0, 0.1, "eps must lie in"),
        (0.5, -0.1, 0.1, "eps must lie in"),
        (0.5, 0.5, 0.1, "eps must lie in"),
        (0.3, 0.35, 0.1, "eps must lie in"),
        (0.5, 0.1, 0.0, "gap must be positive"),
        (0.5, 0.1, -0.05, "gap must be positive"),
        (0.5, 0.1, float("nan"), "gap must be positive and finite"),
        (0.5, 0.1, float("inf"), "gap must be positive and finite"),
        (0.5, 0.1, -float("inf"), "gap must be positive and finite"),
    ])
    def test_bad_tolerances_rejected(self, alpha, eps, gap, message):
        # every reader of the quantile band checks the tolerances the same way
        inst = make_instance([("a", DiscreteReservoir.from_atoms(((0.2, 0.5), (0.8, 0.5)))),
                              ("b", DiscreteReservoir.point_mass(0.5))], alpha=alpha)
        with pytest.raises(ValueError, match=message):
            reservoir_gap_bounds(inst, eps, gap)
        with pytest.raises(ValueError, match=message):
            relaxed_success_set(inst, eps, gap)
        if message.startswith("eps"):
            with pytest.raises(ValueError, match=message):
                quantile_sandwiched(inst.reservoir("a"), [0.5], alpha, eps)


class TestPullBounds:
    def test_grouped_bound_matches_hand_sum(self):
        eps, gap, delta = 0.1, 0.05, 0.05
        gb = reservoir_gap_bounds(GOOD_PAIR, eps, gap)
        n = required_arm_count(eps, delta, 2)
        expected = 0.0
        for gid in GOOD_PAIR.group_ids:
            for g in gb.combined[gid][1:]:
                inner = math.log(max(1.0 / g**2, math.e))
                expected += (1.0 / g**2) * math.log((2 * n / delta) * inner)
        expected *= 3 * eps * n
        got = pull_bound_multistep(GOOD_PAIR, plan_epochs(GOOD_PAIR, [eps], [gap], delta))
        assert got == pytest.approx(expected, rel=1e-12)

    def test_slack_dominated_bound_quarters_when_slack_doubles(self):
        # identical groups: every combined gap equals the slack floor
        res = DiscreteReservoir.point_mass(0.5)
        inst = make_instance([("a", res), ("b", res)])
        b1 = pull_bound_multistep(inst, plan_epochs(inst, [0.1], [0.05], 0.05))
        b2 = pull_bound_multistep(inst, plan_epochs(inst, [0.1], [0.10], 0.05))
        assert 3.0 < b1 / b2 < 5.0

    def test_worst_case_scaling(self):
        w1 = pull_bound_worst_case(2, 0.1, 0.05, 0.05)
        w2 = pull_bound_worst_case(2, 0.1, 0.10, 0.05)
        assert w1 / w2 == pytest.approx(4.0, rel=0.15)  # 1/gap^2 with loglog drift
        assert pull_bound_worst_case(4, 0.1, 0.05, 0.05) > w1

    def test_grouped_vs_worst_case_same_order_when_slack_dominates(self):
        res = DiscreteReservoir.point_mass(0.5)
        inst = make_instance([("a", res), ("b", res)])
        grouped = pull_bound_multistep(inst, plan_epochs(inst, [0.1], [0.05], 0.05))
        worst = pull_bound_worst_case(2, 0.1, 0.05, 0.05)
        assert 0.1 < grouped / worst < 10.0


class TestTwoStep:
    def test_single_group_returns_immediately(self):
        inst = make_instance([("only", DiscreteReservoir.point_mass(0.6))])
        tr = run_multistep(inst, plan_epochs(inst, [0.1], [0.05], 0.05), np.random.default_rng(0))
        assert tr.chosen_group == "only"
        assert tr.total_pulls == 0
        assert tr.success

    def test_noiseless_always_succeeds(self):
        inst = make_instance([
            ("hi", DiscreteReservoir.point_mass(0.7)),
            ("lo", DiscreteReservoir.point_mass(0.3)),
        ], family=NOISELESS)
        plans = plan_epochs(inst, [0.2], [0.1], 0.1)
        for seed in range(5):
            tr = run_multistep(inst, plans, np.random.default_rng(seed))
            assert tr.chosen_group == "hi"
            assert tr.success

    def test_oracle_telemetry_populated(self):
        tr = run_multistep(GOOD_PAIR, plan_epochs(GOOD_PAIR, [0.2], [0.2], 0.1),
                           np.random.default_rng(4), oracle_checks=True)
        assert tr.checks.event_b is not None
        assert tr.checks.bounds_valid is not None
        assert tr.checks.stop_pull_violations == 0
        assert tr.max_bucket_size > 0
        assert tr.epoch_pulls == (tr.total_pulls,)


class TestOracleConstantsPerConfig:
    """The relaxed success set and each reservoir's sandwich band depend only
    on the config, so they are computed once and shared by its trials."""

    @staticmethod
    def two_groups(low_mean):
        return make_instance([("hi", DiscreteReservoir.from_atoms(((0.3, 0.5), (0.7, 0.5)))),
                              ("lo", DiscreteReservoir.point_mass(low_mean))])

    def test_equal_instances_give_equal_winners(self):
        # best lower quantile 0.3, so a group wins when its upper one is >= 0.25
        first, second = self.two_groups(0.2), self.two_groups(0.2)
        assert first is not second and first == second
        assert relaxed_success_set(first, 0.1, 0.05) == {"hi"}
        assert relaxed_success_set(second, 0.1, 0.05) == {"hi"}
        assert relaxed_success_set(self.two_groups(0.28), 0.1, 0.05) == {"hi", "lo"}

    def test_equal_reservoirs_share_one_band(self):
        spec = DiscreteReservoir.from_atoms(((0.3, 0.5), (0.7, 0.5)))
        assert quantile_sandwiched(spec, [0.3, 0.7, 0.7], 0.5, 0.1)
        misses = quantile_band.cache_info().misses
        again = DiscreteReservoir.from_atoms(((0.3, 0.5), (0.7, 0.5)))
        assert quantile_sandwiched(again, [0.3, 0.7, 0.7], 0.5, 0.1)
        assert not quantile_sandwiched(again, [0.1, 0.1, 0.1], 0.5, 0.1)
        # the success set and the gap bounds read the same band
        inst = make_instance([("only", again)], name="one-band")
        assert relaxed_success_set(inst, 0.1, 0.05) == {"only"}
        assert reservoir_gap_bounds(inst, 0.1, 0.05).group_bound["only"] == pytest.approx(-0.4)
        assert quantile_band.cache_info().misses == misses

    def test_mutating_a_returned_set_leaves_later_trials_alone(self):
        # every trial scores against one cached set, so it is a frozenset
        inst = make_instance([("hi", DiscreteReservoir.point_mass(0.7)),
                              ("lo", DiscreteReservoir.point_mass(0.3))], family=NOISELESS)
        plans = plan_epochs(inst, [0.2], [0.1], 0.1)
        before = run_multistep(inst, plans, np.random.default_rng(3))
        won = relaxed_success_set(inst, 0.2, 0.1)
        assert won == {"hi"} and isinstance(won, frozenset)
        with pytest.raises(AttributeError):
            won.add("lo")
        assert relaxed_success_set(inst, 0.2, 0.1) is won
        after = run_multistep(inst, plans, np.random.default_rng(3))
        assert after == before and after.success


class TestMultistep:
    def test_schedule_validation(self):
        # run_multistep takes checked plans; a bad schedule stops at plan_epochs
        with pytest.raises(ValueError, match="eps and delta_gap schedules"):
            plan_epochs(GOOD_PAIR, [0.2, 0.1], [0.2], 0.1)
        with pytest.raises(ValueError, match=r"schedule\[1\]: need delta < eps"):
            plan_epochs(GOOD_PAIR, [0.2, 0.05], [0.2, 0.05], 0.1)
        with pytest.raises(ValueError, match=r"schedule\[0\]: gap must be positive"):
            plan_epochs(GOOD_PAIR, [0.2], [0.0], 0.1)

    def test_far_suboptimal_group_dropped_in_first_epoch(self):
        inst = make_instance([
            ("best", DiscreteReservoir.point_mass(0.7)),
            ("near", DiscreteReservoir.point_mass(0.55)),
            ("far", DiscreteReservoir.point_mass(0.2)),
        ], family=NOISELESS)
        tr = run_multistep(inst, plan_epochs(inst, [0.2, 0.1], [0.2, 0.1], 0.05),
                           np.random.default_rng(1))
        assert tr.chosen_group == "best"
        assert len(tr.epoch_pulls) == 2
        # epoch 2 runs without the far group: at eps=0.1 it requests arms for
        # two groups only, visible as a pull count below 3 groups' worth
        assert tr.success

    def test_epochs_until_elimination(self):
        inst = make_instance([
            ("best", DiscreteReservoir.point_mass(0.7)),
            ("near", DiscreteReservoir.point_mass(0.55)),
            ("far", DiscreteReservoir.point_mass(0.2)),
        ])
        kmax = epochs_until_elimination(inst, plan_epochs(inst, [0.2, 0.1, 0.05],
                                                          [0.2, 0.1, 0.05], 0.01))
        # far group's reservoir bound 0.5 exceeds every slack from epoch 1
        assert kmax["far"] == 1
        # the near group's bound 0.15 first beats slack at 0.1
        assert kmax["near"] == 2
        assert kmax["best"] == 3

    @pytest.mark.slow
    def test_success_frequency_meets_schedule_budget(self):
        # error budget grows to 3*K*delta across K epochs; with K=2 and
        # delta=0.05 the guarantee is 0.7, checked with 3-sigma slack
        inst = make_instance([
            ("hi", DiscreteReservoir.point_mass(0.7)),
            ("lo", DiscreteReservoir.point_mass(0.3)),
        ])
        trials, delta, epochs = 100, 0.05, 2
        plans = plan_epochs(inst, [0.2, 0.15], [0.2, 0.15], delta)
        wins = 0
        for i in range(trials):
            rng = np.random.default_rng(60_000 + i)
            tr = run_multistep(inst, plans, rng)
            wins += tr.success
        rate = wins / trials
        floor = 1.0 - 3.0 * epochs * delta
        assert rate >= floor - 3.0 * math.sqrt(floor * (1 - floor) / trials)

    def test_multistep_bound_evaluates_gap_bounds_once_per_epoch(self, monkeypatch):
        from quantile_bandits import bounds
        inst = make_instance([
            ("best", DiscreteReservoir.point_mass(0.7)),
            ("near", DiscreteReservoir.point_mass(0.55)),
            ("far", DiscreteReservoir.point_mass(0.2)),
        ])
        calls = []

        def counted(instance, eps, gap):
            calls.append(eps)
            return reservoir_gap_bounds(instance, eps, gap)

        monkeypatch.setattr(bounds, "reservoir_gap_bounds", counted)
        bound = pull_bound_multistep(inst, plan_epochs(inst, [0.2, 0.1, 0.05],
                                                       [0.2, 0.1, 0.05], 0.01))
        assert calls == [0.2, 0.1, 0.05]
        # the value of the per-group-and-epoch evaluation, bit for bit
        assert repr(bound) == "3659878.7016695635"

    def test_multistep_bound_positive_and_below_naive(self):
        inst = make_instance([
            ("best", DiscreteReservoir.point_mass(0.7)),
            ("near", DiscreteReservoir.point_mass(0.55)),
            ("far", DiscreteReservoir.point_mass(0.2)),
        ])
        plans = plan_epochs(inst, [0.2, 0.1, 0.05], [0.2, 0.1, 0.05], 0.01)
        with_cutoff = pull_bound_multistep(inst, plans)
        assert with_cutoff > 0
        # paying every epoch for every group can only be larger
        total_all = 0.0
        for plan in plans:
            total_all += pull_bound_multistep(inst, (plan,))
        assert with_cutoff <= total_all + 1e-9


class TestSuccessScaleIntegration:
    def test_hard_instances_have_unique_strict_winner(self):
        params = HardInstanceParams(0.2, 0.2, num_groups=3)
        eps_s, gap_s = 0.05, 0.05
        for j, inst in enumerate(make_worst_case_instances(params), start=1):
            strict = relaxed_success_set(inst, eps_s, gap_s)
            assert strict == {f"g{j}"}
