"""Acceptance suite: every headline guarantee at its stated tolerance.

Each test prints one PASS/FAIL line.  Statistical criteria run at desk scale
with 3-sigma binomial slack; exact criteria run at their stated numerical
tolerances.  The slow Monte Carlo criteria take a few minutes total.
"""

import math

import numpy as np
import pytest

from quantile_bandits import (
    BanditInstance,
    DiscreteReservoir,
    ExperimentConfig,
    FiniteGroup,
    HardInstanceParams,
    RewardEnv,
    RewardFamily,
    confidence_width,
    expected_next_likelihood_ratio,
    likelihood_ratio,
    make_worst_case_instances,
    multiset_quantile,
    mix_seed,
    required_arm_count,
    run_elimination,
    run_experiment,
    run_multistep,
    verify_drift,
)
from quantile_bandits.grouped import _bucket_geometry

FAM = RewardFamily("bernoulli")
WORKERS = 2


def announce(num, name, ok, detail):
    print(f"\nACCEPTANCE {num} ({name}): {'PASS' if ok else 'FAIL'} -- {detail}")


def three_sigma(p, n):
    return 3.0 * math.sqrt(p * (1.0 - p) / n)


def make_instance(groups, alpha=0.5, name="inst"):
    return BanditInstance(tuple(groups), FAM, alpha, name)


GOOD_PAIR = make_worst_case_instances(HardInstanceParams(0.2, 0.2))[1]

POINT_PAIR = make_instance(
    [("hi", DiscreteReservoir.point_mass(0.7)), ("lo", DiscreteReservoir.point_mass(0.3))],
    name="point-pair")

THREE_GROUP = make_instance(
    [("a", DiscreteReservoir.from_atoms(((0.2, 0.25), (0.4, 0.25), (0.6, 0.25), (0.8, 0.25)))),
     ("b", DiscreteReservoir.from_atoms(((0.1, 0.25), (0.3, 0.25), (0.5, 0.25), (0.7, 0.25)))),
     ("c", DiscreteReservoir.point_mass(0.2))],
    name="three-group")

# (instance, eps, gap, delta) triples used by criteria 1-3
CORRECTNESS_SETUPS = [
    (GOOD_PAIR, 0.2, 0.2, 0.1),
    (POINT_PAIR, 0.2, 0.1, 0.1),
    (THREE_GROUP, 0.15, 0.15, 0.1),
]


@pytest.mark.slow
class TestCriterion1Correctness:
    @pytest.mark.parametrize("inst,eps,gap,delta",
                             CORRECTNESS_SETUPS,
                             ids=[s[0].name for s in CORRECTNESS_SETUPS])
    def test_success_rate_meets_guarantee(self, inst, eps, gap, delta):
        trials = 200
        cfg = ExperimentConfig(instance=inst, eps_schedule=(eps,), gap_schedule=(gap,),
                               delta=delta, trials=trials, seed=20260808, threads=WORKERS)
        report = run_experiment(cfg)
        floor = 1.0 - 3.0 * delta
        threshold = floor - three_sigma(floor, trials)
        ok = report.success_rate >= threshold
        announce(1, f"correctness on {inst.name}", ok,
                 f"success {report.success_rate:.3f} >= {threshold:.3f} "
                 f"(guarantee {floor:.2f}, {trials} trials)")
        assert ok


def _resample_group_stats(inst, eps, delta, resamples, seed):
    """Per-resample event-A flags and max bucket loads, vectorized."""
    alpha = inst.alpha
    n = required_arm_count(eps, delta, len(inst.groups))
    rng = np.random.default_rng(seed)
    sandwiched = np.ones(resamples, dtype=bool)
    max_load = np.zeros(resamples, dtype=np.int64)
    bucket_count, boundaries, _ = _bucket_geometry(eps, alpha)
    edges = np.concatenate(([0.0], boundaries, [1.0 + 1e-15]))
    k = math.ceil(n * (1.0 - alpha) - 1e-9) - 1
    for gid, res in inst.groups:
        js = rng.random((resamples, n))
        means = res.quantile_many(js.ravel()).reshape(resamples, n)
        sample_q = np.partition(means, k, axis=1)[:, k]
        lo = res.quantile(1.0 - alpha - eps)
        hi = res.quantile(1.0 - alpha + eps)
        sandwiched &= (sample_q >= lo) & (sample_q <= hi)
        which = np.clip(np.searchsorted(edges, js, side="right") - 1, 0, bucket_count)
        for i in range(bucket_count + 1):
            max_load = np.maximum(max_load, (which == i).sum(axis=1))
    return sandwiched, max_load, n


class TestCriterion2EventA:
    @pytest.mark.parametrize("inst,eps,gap,delta",
                             CORRECTNESS_SETUPS,
                             ids=[s[0].name for s in CORRECTNESS_SETUPS])
    def test_sandwich_frequency(self, inst, eps, gap, delta):
        resamples = 1000
        sandwiched, _, n = _resample_group_stats(inst, eps, delta, resamples, seed=11)
        freq = sandwiched.mean()
        threshold = (1.0 - delta) - three_sigma(1.0 - delta, resamples)
        ok = freq >= threshold
        announce(2, f"quantile sandwich on {inst.name}", ok,
                 f"frequency {freq:.3f} >= {threshold:.3f} at N={n}")
        assert ok


class TestCriterion3PartitionBound:
    @pytest.mark.parametrize("inst,eps,gap,delta",
                             CORRECTNESS_SETUPS,
                             ids=[s[0].name for s in CORRECTNESS_SETUPS])
    def test_bucket_load_frequency(self, inst, eps, gap, delta):
        resamples = 1000
        _, max_load, n = _resample_group_stats(inst, eps, delta, resamples, seed=12)
        freq = (max_load <= 3.0 * eps * n).mean()
        threshold = (1.0 - delta) - three_sigma(1.0 - delta, resamples)
        ok = freq >= threshold
        announce(3, f"bucket load on {inst.name}", ok,
                 f"frequency {freq:.3f} >= {threshold:.3f} (cap {3 * eps * n:.1f})")
        assert ok


class TestCriterion4Coverage:
    def test_anytime_violation_rate(self):
        arms, horizon, delta = 500, 10_000, 0.05
        rng = np.random.default_rng(99)
        # unit-variance Gaussian rewards: the extreme sub-Gaussian case
        rewards = rng.normal(0.5, 1.0, size=(arms, horizon))
        running = np.cumsum(rewards, axis=1) / np.arange(1, horizon + 1)
        widths = confidence_width(np.arange(1, horizon + 1), delta)
        violated = np.any(np.abs(running - 0.5) > widths, axis=1)
        rate = violated.mean()
        threshold = delta + three_sigma(delta, arms)
        ok = rate <= threshold
        announce(4, "anytime coverage", ok,
                 f"violation rate {rate:.4f} <= {threshold:.4f} over {arms} arms")
        assert ok


@pytest.mark.slow
class TestCriterion5StopPull:
    def test_zero_violations_on_valid_trajectories(self):
        valid, violations, invalid = 0, 0, 0
        # grouped pipeline trajectories on two instances
        for inst, eps, gap, delta, reps in ((POINT_PAIR, 0.2, 0.1, 0.1, 40),
                                            (THREE_GROUP, 0.15, 0.15, 0.1, 30)):
            for i in range(reps):
                rng = np.random.default_rng(mix_seed(5150, i))
                tr = run_multistep(inst, (eps,), (gap,), delta, rng, oracle_checks=True)
                if tr.bounds_valid:
                    valid += 1
                    violations += tr.stop_pull_violations
                else:
                    invalid += 1
        # direct finite-arm trajectories
        means = np.array([0.2, 0.4, 0.6, 0.8, 0.1, 0.3, 0.5, 0.7])
        groups = [FiniteGroup("A", (0, 1, 2, 3)), FiniteGroup("B", (4, 5, 6, 7))]
        for i in range(20):
            rng = np.random.default_rng(mix_seed(777, i))
            env = RewardEnv(means, FAM, rng)
            res = run_elimination(groups, 0.5, 0.05, 0.1, env, rng=rng, true_means=means)
            if res.bounds_valid:
                valid += 1
                violations += res.stop_pull_violations
            else:
                invalid += 1
        ok = violations == 0 and valid > 0
        announce(5, "stop-pull condition", ok,
                 f"{violations} violations on {valid} valid-bound trajectories "
                 f"({invalid} excluded)")
        assert ok


class TestCriterion6NoiselessOracle:
    def test_exact_agreement_on_random_instances(self):
        rng = np.random.default_rng(606)
        agree = 0
        cases = 20
        for _ in range(cases):
            while True:
                num_groups = int(rng.integers(2, 5))
                sizes = rng.integers(2, 9, size=num_groups)
                means, groups, start = [], [], 0
                for g, size in enumerate(sizes):
                    mu = np.sort(rng.choice(np.arange(1, 20) * 0.05, size=size, replace=False))
                    means.extend(mu.tolist())
                    groups.append(FiniteGroup(f"g{g}", tuple(range(start, start + size))))
                    start += size
                means_arr = np.array(means)
                quants = sorted((multiset_quantile(means_arr[list(g.arm_ids)], 0.5), g.group_id)
                                for g in groups)
                if len(quants) > 1 and quants[-1][0] - quants[-2][0] >= 0.1:
                    break
            oracle_best = quants[-1][1]
            env = RewardEnv(means_arr, FAM, np.random.default_rng(0), noiseless=True)
            res = run_elimination(groups, 0.5, 0.04, 0.1, env, rng=np.random.default_rng(1))
            agree += res.chosen == oracle_best
        ok = agree == cases
        announce(6, "noiseless oracle equivalence", ok, f"{agree}/{cases} agree")
        assert ok


class TestCriterion7Martingale:
    def test_identity_to_twelve_digits(self):
        report = verify_drift()
        ok = report.martingale_max_error < 1e-12
        announce(7, "score martingale identity", ok,
                 f"max |error| {report.martingale_max_error:.2e} < 1e-12")
        assert ok


class TestCriterion8Drift:
    def test_bounded_ratio_and_anchor_point(self):
        report = verify_drift(ratio_limit=16.0)
        anchor = expected_next_likelihood_ratio(0, HardInstanceParams(0.2, 0.2), "good") \
            - likelihood_ratio(0, HardInstanceParams(0.2, 0.2))
        anchor_ratio = anchor / (0.2 * 0.2) ** 2
        ok = report.passed and abs(anchor_ratio - 4.006) <= 0.01
        announce(8, "drift bound", ok,
                 f"max ratio {report.max_ratio:.3f} <= 16, anchor {anchor_ratio:.4f} = 4.006 +/- 0.01")
        assert ok


@pytest.mark.slow
class TestCriterion9GapScaling:
    def test_quartering_pulls_when_gaps_double(self):
        # every overall gap is 0.2 in the first setup and 0.4 in the second
        setups = [(np.array([0.5, 0.3]), 0.1), (np.array([0.5, 0.1]), 0.2)]
        trials = 100
        means_pulls = []
        for means, slack in setups:
            groups = [FiniteGroup("hi", (0,)), FiniteGroup("lo", (1,))]
            total = 0
            for i in range(trials):
                rng = np.random.default_rng(mix_seed(909, i))
                env = RewardEnv(means, FAM, rng)
                total += run_elimination(groups, 0.5, slack, 0.1, env, rng=rng).total_pulls
            means_pulls.append(total / trials)
        ratio = means_pulls[0] / means_pulls[1]
        ok = 2.5 <= ratio <= 6.0
        announce(9, "gap scaling", ok,
                 f"mean pulls {means_pulls[0]:.0f} vs {means_pulls[1]:.0f}, "
                 f"ratio {ratio:.2f} in [2.5, 6]")
        assert ok


@pytest.mark.slow
class TestCriterion10MultistepImprovement:
    def test_schedule_beats_single_step(self):
        inst = make_instance([
            ("best", DiscreteReservoir.point_mass(0.7)),
            ("near", DiscreteReservoir.point_mass(0.55)),
            ("far", DiscreteReservoir.point_mass(0.2)),
        ], name="one-far")
        trials, seed = 100, 4242
        multi_cfg = ExperimentConfig(instance=inst, eps_schedule=(0.2, 0.1, 0.05),
                                     gap_schedule=(0.2, 0.1, 0.05), delta=0.04,
                                     trials=trials, seed=seed, threads=WORKERS)
        single_cfg = ExperimentConfig(instance=inst, eps_schedule=(0.05,), gap_schedule=(0.05,),
                                      delta=0.04, trials=trials, seed=seed, threads=WORKERS)
        multi = run_experiment(multi_cfg)
        single = run_experiment(single_cfg)
        ok = multi.mean_pulls < single.mean_pulls
        announce(10, "multi-step improvement", ok,
                 f"multi {multi.mean_pulls:.0f} < single {single.mean_pulls:.0f} "
                 f"mean pulls over {trials} paired trials")
        assert ok


@pytest.mark.slow
class TestCriterion11HardnessTrend:
    def test_halving_either_tolerance_doubles_pulls(self):
        trials, seed = 100, 31337
        means = {}
        # delta = 0.05 everywhere: the eps = 0.1 setting requires delta < eps
        for eps, gap in ((0.2, 0.2), (0.1, 0.2), (0.2, 0.1)):
            inst = make_worst_case_instances(HardInstanceParams(eps, gap))[1]
            cfg = ExperimentConfig(instance=inst, eps_schedule=(eps,), gap_schedule=(gap,),
                                   delta=0.05, trials=trials, seed=seed, threads=WORKERS)
            means[(eps, gap)] = run_experiment(cfg).mean_pulls
        r_eps = means[(0.1, 0.2)] / means[(0.2, 0.2)]
        r_gap = means[(0.2, 0.1)] / means[(0.2, 0.2)]
        ok = r_eps >= 2.0 and r_gap >= 2.0
        announce(11, "hardness trend", ok,
                 f"halving eps x{r_eps:.2f}, halving gap x{r_gap:.2f} (both >= 2)")
        assert ok


class TestCriterion12Determinism:
    def test_csv_bytes_identical_across_runs_and_workers(self, tmp_path):
        def cfg(path, threads):
            return ExperimentConfig(instance=POINT_PAIR, eps_schedule=(0.2,), gap_schedule=(0.2,),
                                    delta=0.1, trials=8, seed=777, threads=threads,
                                    out_csv=str(path))
        run_experiment(cfg(tmp_path / "a.csv", 1))
        run_experiment(cfg(tmp_path / "b.csv", 1))
        run_experiment(cfg(tmp_path / "c.csv", 8))
        a = (tmp_path / "a.csv").read_bytes()
        ok = a == (tmp_path / "b.csv").read_bytes() == (tmp_path / "c.csv").read_bytes()
        announce(12, "determinism", ok,
                 "identical CSV bytes across repeats and 1 vs 8 workers")
        assert ok
