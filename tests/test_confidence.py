"""Anytime confidence widths, the shared width table, the ledger's interval
bounds, and the first-crossing search."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from quantile_bandits import ArmLedger, confidence_width, invert_width
from quantile_bandits.confidence import width_table


def width_by_hand(pulls, delta):
    """Independent re-evaluation of the width formula with scalar math."""
    big_l = math.log(1.0 / delta)
    return math.sqrt(
        (2 * big_l + 6 * max(math.log(big_l), 0.0) + 3 * math.log(math.log(math.e * pulls)))
        / pulls
    )


class TestWidth:
    def test_one_pull(self):
        assert confidence_width(1, 0.1) == pytest.approx(3.09990, abs=1e-4)

    def test_hundred_pulls(self):
        assert confidence_width(100, 0.01) == pytest.approx(0.48523, abs=1e-4)

    def test_vanishes_at_large_counts(self):
        assert confidence_width(10**8, 0.1) < 1e-3

    def test_matches_hand_formula(self):
        for pulls in (1, 2, 7, 100, 12345):
            for delta in (0.3, 0.05, 1e-4):
                assert confidence_width(pulls, delta) == pytest.approx(
                    width_by_hand(pulls, delta), rel=1e-12)

    def test_quadrupling_pulls_roughly_halves(self):
        ratio = confidence_width(400, 0.01) / confidence_width(100, 0.01)
        assert 0.49 < ratio < 0.51

    def test_strictly_decreasing(self):
        for delta in (0.3, 0.1, 0.01):
            w = confidence_width(np.arange(2, 2000), delta)
            assert np.all(np.diff(w) < 0)
        # narrower at looser confidence: width shrinks as delta grows
        assert confidence_width(50, 0.01) > confidence_width(50, 0.1)

    def test_vectorized_matches_scalar(self):
        t = np.array([1, 5, 50])
        vec = confidence_width(t, 0.05)
        assert vec.shape == (3,)
        assert vec[1] == pytest.approx(confidence_width(5, 0.05))

    def test_rejects_zero_pulls(self):
        with pytest.raises(ValueError):
            confidence_width(0, 0.1)
        with pytest.raises(ValueError):
            confidence_width(10, 1.5)

    def test_width_tables_are_shared_and_read_only(self):
        first, second = ArmLedger(3, 0.02), ArmLedger(5, 0.02)
        widths = first.width_at(np.array([1, 3000]))
        later = second.width_at(np.array([2500]))
        table = width_table(3000, 0.02)
        assert table is width_table(2500, 0.02) and table.size == 4096
        assert not table.flags.writeable
        assert np.array_equal(table, confidence_width(np.arange(1, table.size + 1), 0.02))
        assert np.array_equal(widths, table[[0, 2999]])
        assert np.array_equal(later, table[[2499]])


class TestBounds:
    """Per-arm bounds as kept by the elimination ledger."""

    def test_symmetric_around_mean(self):
        ledger = ArmLedger(1, 0.1)
        ledger.record_pulls(np.array([0]), ledger.sums[[0]] + 0.5, 1)
        assert ledger.lcb[0] == pytest.approx(0.5 - 3.09990, abs=1e-4)
        assert ledger.ucb[0] == pytest.approx(0.5 + 3.09990, abs=1e-4)

    def test_contains_running_mean(self):
        rng = np.random.default_rng(0)
        ledger = ArmLedger(1, 0.05)
        for x in rng.random(200):
            ledger.record_pulls(np.array([0]), ledger.sums[[0]] + x, 1)
            assert ledger.lcb[0] <= ledger.sums[0] / ledger.pulls[0] <= ledger.ucb[0]

    def test_running_mean_is_average(self):
        ledger = ArmLedger(1, 0.1)
        xs = [0.1, 0.9, 0.4, 0.4]
        for x in xs:
            ledger.record_pulls(np.array([0]), ledger.sums[[0]] + x, 1)
        assert ledger.sums[0] / ledger.pulls[0] == pytest.approx(np.mean(xs))

    def test_unpulled_arm_carries_sentinel_interval(self):
        # bounds are undefined before the first pull (the width rejects zero
        # pulls), so an unpulled arm's interval is the whole line
        ledger = ArmLedger(2, 0.1)
        ledger.record_pulls(np.array([1]), ledger.sums[[1]] + 0.3, 1)
        assert (ledger.lcb[0], ledger.ucb[0]) == (-np.inf, np.inf)
        assert ledger.sums[0] == 0.0 and ledger.pulls[0] == 0
        assert np.isfinite(ledger.lcb[1]) and np.isfinite(ledger.ucb[1])


class TestInvertWidth:
    def test_self_consistent(self):
        target = confidence_width(100, 0.01) + 1e-9
        assert invert_width(target, 0.01) == 100

    def test_huge_target(self):
        assert invert_width(1e6, 0.01) == 1

    def test_first_crossing_exact(self):
        for target in (2.0, 0.5, 0.11, 0.033):
            for delta in (0.1, 0.003):
                t = invert_width(target, delta)
                assert confidence_width(t, delta) < target
                if t > 1:
                    assert confidence_width(t - 1, delta) >= target

    @settings(max_examples=300, deadline=None)
    @given(st.floats(1e-3, 10.0), st.floats(1e-12, 0.3))
    def test_first_crossing_exact_on_random_targets(self, target, delta):
        # delta below 1/e keeps the width decreasing, so the crossing is unique
        t = invert_width(target, delta)
        assert confidence_width(t, delta) < target
        assert t == 1 or confidence_width(t - 1, delta) >= target

    def test_halving_target_roughly_quadruples(self):
        t1 = invert_width(0.1, 0.01)
        t2 = invert_width(0.05, 0.01)
        assert 0.8 * 4 <= t2 / t1 <= 1.2 * 4

    def test_rejects_nonpositive_target(self):
        for target in (0.0, -1.0, math.nan, np.array([0.1, math.nan])):
            with pytest.raises(ValueError, match="target width must be positive"):
                invert_width(target, 0.1)

    @settings(max_examples=200, deadline=None)
    @given(hnp.arrays(np.float64, st.integers(0, 40), elements=st.floats(1e-3, 10.0)),
           st.floats(1e-12, 0.3))
    def test_array_targets_match_scalar_first_crossings(self, targets, delta):
        crossings = invert_width(targets, delta)
        assert crossings.shape == targets.shape
        assert crossings.tolist() == [invert_width(float(t), delta) for t in targets]
        assert np.all(confidence_width(crossings, delta) < targets)
        after_one = crossings > 1
        assert np.all(confidence_width(crossings[after_one] - 1, delta)
                      >= targets[after_one])

    def test_exact_table_values_cross_one_round_later(self):
        for delta in (0.1, 0.003, 1e-9):
            table = width_table(5000, delta)
            rounds = np.array([1, 2, 3, 17, 1024, 1025, 4999])
            assert invert_width(table[rounds - 1], delta).tolist() == (rounds + 1).tolist()
            assert all(invert_width(float(table[t - 1]), delta) == t + 1 for t in rounds)

    def test_first_crossing_where_the_width_rises(self):
        # at delta = 0.5 the width rises from T = 1 to T = 2, so the power-of-
        # two widths are not sorted; the crossing is still the first T
        assert confidence_width(1, 0.5) < 1.2 < confidence_width(2, 0.5)
        assert invert_width(1.2, 0.5) == 1
        assert invert_width(np.array([1.2, 5.0]), 0.5).tolist() == [1, 1]

    def test_zero_dimensional_target_is_a_scalar(self):
        crossing = invert_width(np.array(0.05), 0.01)
        assert crossing == invert_width(0.05, 0.01) and isinstance(crossing, int)

    def test_rejects_a_target_not_crossed_by_2_to_62(self):
        with pytest.raises(ValueError, match="not crossed"):
            invert_width(np.array([0.1, 1e-12]), 0.1)

    def test_large_crossings_build_no_table(self):
        # slack 1e-3 at delta/n = 0.0125: t* and the round cap's crossing lie
        # past 10**8, where a width table would take gigabytes
        tracemalloc.start()
        try:
            crossings = invert_width(np.array([5e-4, 2.5e-4]), 0.0125)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert crossings.min() > 10**8
        assert peak < 64 * 1024
