"""Worst-case instance family and the score-statistic verifier."""

import math

import numpy as np
import pytest

from quantile_bandits import (
    HardInstanceParams,
    conditional_good_prob,
    expected_next_likelihood_ratio,
    likelihood_ratio,
    make_worst_case_instances,
    relaxed_success_set,
    success_scale,
    verify_drift,
)

P22 = HardInstanceParams(0.2, 0.2)


def ratio_by_hand(d, params):
    """Direct (unstabilized) evaluation of the likelihood ratio."""
    p, pb = params.good_fraction, params.bad_fraction
    q, qb = params.good_mean, params.bad_mean
    return (p * q**d + pb * qb**d) / (pb * q**d + p * qb**d)


class TestInstances:
    def test_two_group_pair_structure(self):
        bad, good = make_worst_case_instances(P22)
        assert bad.name == "hard1" and good.name == "hard2"
        assert bad.group_ids == good.group_ids == ("g1", "g2")
        # reference group is a point mass at 1/2 in both
        for inst in (bad, good):
            assert inst.reservoir("g1").quantile(0.5) == 0.5
        # good-arm fraction 0.6 in the good instance, 0.4 in the bad one
        assert good.reservoir("g2").cdf(0.4) == pytest.approx(0.4)
        assert bad.reservoir("g2").cdf(0.4) == pytest.approx(0.6)

    def test_planted_group_has_best_median(self):
        for j, inst in enumerate(make_worst_case_instances(HardInstanceParams(0.1, 0.1, 4)), 1):
            medians = {gid: inst.reservoir(gid).quantile(0.5) for gid in inst.group_ids}
            best = max(medians, key=medians.get)
            assert best == f"g{j}"

    def test_instance_1_prefers_reference_group(self):
        bad = make_worst_case_instances(P22)[0]
        assert bad.reservoir("g1").quantile(0.5) == 0.5
        assert bad.reservoir("g2").quantile(0.5) == pytest.approx(0.4)

    def test_scaled_tolerances_isolate_planted_group(self):
        eps_s, gap_s = success_scale(P22)
        assert (eps_s, gap_s) == (0.05, 0.05)
        for j, inst in enumerate(make_worst_case_instances(P22), 1):
            assert relaxed_success_set(inst, eps_s, gap_s) == {f"g{j}"}

    def test_params_validated(self):
        with pytest.raises(ValueError):
            HardInstanceParams(0.3, 0.1)
        with pytest.raises(ValueError):
            HardInstanceParams(0.1, 0.1, num_groups=1)


class TestLikelihoodRatio:
    def test_zero_score_is_one(self):
        assert likelihood_ratio(0, P22) == 1.0

    def test_single_success_value(self):
        assert likelihood_ratio(1, P22) == pytest.approx(0.52 / 0.48, rel=1e-12)

    def test_reciprocal_symmetry(self):
        for params in (P22, HardInstanceParams(0.05, 0.1), HardInstanceParams(0.24, 0.01)):
            for d in range(0, 40):
                assert likelihood_ratio(d, params) * likelihood_ratio(-d, params) == \
                    pytest.approx(1.0, abs=1e-12)

    def test_matches_direct_formula(self):
        for d in range(-20, 21):
            assert likelihood_ratio(d, P22) == pytest.approx(ratio_by_hand(d, P22), rel=1e-10)

    def test_nondecreasing_in_score(self):
        vals = [likelihood_ratio(d, P22) for d in range(-30, 31)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_stable_at_extreme_scores(self):
        v = likelihood_ratio(2000, P22)
        assert v == pytest.approx(P22.good_fraction / P22.bad_fraction)
        assert likelihood_ratio(-2000, P22) == pytest.approx(P22.bad_fraction / P22.good_fraction)

    def test_product_statistic_is_martingale_under_low_fraction(self):
        # simulate the mixture with the low good fraction; the mean of the
        # product statistic stays near 1 (exact martingale, 3-sigma check)
        rng = np.random.default_rng(8)
        trials, pulls = 4000, 30
        vals = np.empty(trials)
        for t in range(trials):
            good = rng.random() < P22.bad_fraction
            mean = P22.good_mean if good else P22.bad_mean
            d = int(2 * np.sum(rng.random(pulls) < mean) - pulls)
            vals[t] = likelihood_ratio(d, P22)
        err = abs(vals.mean() - 1.0)
        assert err < 3 * vals.std() / math.sqrt(trials)


class TestConditionalGoodProb:
    def test_priors_at_zero_score(self):
        assert conditional_good_prob(0, P22, "bad") == pytest.approx(P22.bad_fraction)
        assert conditional_good_prob(0, P22, "good") == pytest.approx(P22.good_fraction)

    def test_zero_score_difference_is_eps_within_bound(self):
        diff = conditional_good_prob(0, P22, "good") - conditional_good_prob(0, P22, "bad")
        assert diff == pytest.approx(P22.eps)
        assert diff <= 4 * P22.eps

    def test_difference_bounded_everywhere(self):
        for d in range(-30, 31):
            diff = conditional_good_prob(d, P22, "good") - conditional_good_prob(d, P22, "bad")
            assert 0.0 <= diff <= 4 * P22.eps

    def test_invalid_kind(self):
        with pytest.raises(ValueError):
            conditional_good_prob(0, P22, "ugly")


class TestExpectedNext:
    def test_exact_martingale_under_low_fraction(self):
        for d in range(-10, 11):
            drift = expected_next_likelihood_ratio(d, P22, "bad") - likelihood_ratio(d, P22)
            assert abs(drift) < 1e-12

    def test_good_instance_drift_at_zero(self):
        got = expected_next_likelihood_ratio(0, P22, "good")
        assert got == pytest.approx(1.0 + 25 / 156 * 0.04, abs=1e-6)

    def test_drift_ratio_at_zero(self):
        drift = expected_next_likelihood_ratio(0, P22, "good") - 1.0
        assert drift / (0.2 * 0.2) ** 2 == pytest.approx(4.006, abs=0.01)


class TestVerifyDrift:
    def test_default_grid_passes(self):
        report = verify_drift()
        assert report.passed
        assert report.martingale_max_error < 1e-12
        assert 0.0 <= report.max_ratio <= 16.0
        # fine scales keep the same order of drift
        small = [r for e, g, d, r in report.rows if e == 0.05 and g == 0.05 and d == 0]
        assert small and 3.0 < small[0] < 5.0

    def test_report_table_renders(self):
        report = verify_drift(eps_values=(0.2,), gap_values=(0.2,), d_values=range(-2, 3))
        table = report.format_table()
        assert "PASS" in table
        assert "max drift ratio" in table

    def test_tight_limit_fails_and_names_offender(self):
        report = verify_drift(eps_values=(0.2,), gap_values=(0.2,), d_values=range(-2, 3),
                              ratio_limit=1.0)
        assert not report.passed
        assert report.failures
        assert report.max_ratio > 1.0
