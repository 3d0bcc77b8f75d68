"""Reservoirs, arm sampling, reward draws, and the success-set oracle."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quantile_bandits import (
    BanditInstance,
    DiscreteReservoir,
    PiecewiseLinearReservoir,
    Reservoir,
    RewardEnv,
    RewardFamily,
    instance_from_dict,
    instance_to_dict,
    relaxed_success_set,
)


def brute_force_quantile(atoms, p):
    """Independent oracle: scan CDF steps, return the first mean with F >= p."""
    total = 0.0
    for mean, mass in atoms:
        total += mass
        if total >= p - 1e-15:
            return mean
    return atoms[-1][0]


QUARTER = ((0.2, 0.25), (0.4, 0.25), (0.6, 0.25), (0.8, 0.25))
QUARTER_LOW = ((0.1, 0.25), (0.3, 0.25), (0.5, 0.25), (0.7, 0.25))


class TestReservoirQuantile:
    def test_point_mass(self):
        spec = DiscreteReservoir.point_mass(0.5)
        assert spec.quantile(0.3) == 0.5

    def test_four_atoms_median(self):
        spec = DiscreteReservoir.from_atoms(QUARTER)
        assert spec.quantile(0.5) == 0.4
        assert spec.quantile(0.5) == brute_force_quantile(QUARTER, 0.5)

    def test_four_atoms_upper(self):
        spec = DiscreteReservoir.from_atoms(QUARTER_LOW)
        assert spec.quantile(0.75) == 0.5
        assert spec.quantile(0.75) == brute_force_quantile(QUARTER_LOW, 0.75)

    def test_matches_brute_force_on_grid(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            k = int(rng.integers(1, 6))
            means = np.sort(rng.choice(np.linspace(0.05, 0.95, 19), size=k, replace=False))
            w = rng.random(k) + 0.1
            w /= w.sum()
            atoms = tuple(zip(means.tolist(), w.tolist()))
            spec = DiscreteReservoir.from_atoms(atoms)
            ps = rng.random(20)
            expected = [brute_force_quantile(atoms, p) for p in ps]
            assert [spec.quantile(p) for p in ps] == expected
            assert spec.quantile_many(ps).tolist() == expected

    def test_nondecreasing_and_cdf_inverse(self):
        spec = DiscreteReservoir.from_atoms(QUARTER)
        ps = np.linspace(0.0, 1.0, 101)
        qs = spec.quantile_many(ps)
        assert np.all(np.diff(qs) >= 0)
        assert spec.quantile(1.0) == 0.8  # maximal support mean
        for p in ps:
            assert spec.cdf(spec.quantile(p)) >= p - 1e-12

    def test_invalid_masses_rejected(self):
        with pytest.raises(ValueError):
            DiscreteReservoir((0.2, 0.4), (0.5, 0.6))
        with pytest.raises(ValueError):
            DiscreteReservoir((0.4, 0.2), (0.5, 0.5))
        with pytest.raises(ValueError):
            DiscreteReservoir((0.2, 1.2), (0.5, 0.5))

    def test_level_out_of_range(self):
        spec = DiscreteReservoir.point_mass(0.5)
        for bad in (1.5, -0.1, math.nan):
            with pytest.raises(ValueError):
                spec.quantile(bad)
            with pytest.raises(ValueError):
                spec.quantile_many(np.array([0.5, bad]))


def brute_force_pwl_quantile(xs, ps, p):
    """Independent oracle: walk the breakpoints, return the first x with F(x) >= p,
    interpolating inside the rising stretch that crosses p."""
    if p <= ps[0]:
        return xs[0]  # the lower support edge, or an initial atom
    for i in range(1, len(xs)):
        if ps[i] >= p:
            return xs[i - 1] + (p - ps[i - 1]) / (ps[i] - ps[i - 1]) * (xs[i] - xs[i - 1])
    return xs[-1]


class TestPiecewiseLinear:
    def test_uniform_cdf(self):
        spec = PiecewiseLinearReservoir((0.0, 1.0), (0.0, 1.0))
        assert spec.quantile(0.25) == pytest.approx(0.25)
        assert spec.cdf(0.7) == pytest.approx(0.7)

    def test_flat_stretch_takes_left_edge(self):
        # F climbs to 0.5 on [0, 0.2], flat to 0.6, climbs to 1 on [0.6, 1]
        spec = PiecewiseLinearReservoir((0.0, 0.2, 0.6, 1.0), (0.0, 0.5, 0.5, 1.0))
        assert spec.quantile(0.5) == pytest.approx(0.2)
        assert spec.quantile(0.75) == pytest.approx(0.8)

    def test_monotone_cdf_required(self):
        with pytest.raises(ValueError):
            PiecewiseLinearReservoir((0.0, 0.5, 1.0), (0.0, 0.8, 0.6))

    @pytest.mark.parametrize("xs,ps", [
        ((0.0, 1.0), (0.0, 1.0)),
        ((0.8, 1.0), (0.0, 1.0)),
        ((0.0, 0.2, 0.6, 1.0), (0.0, 0.5, 0.5, 1.0)),        # flat stretch
        ((0.1, 0.3, 0.9), (0.3, 0.3, 1.0)),                  # initial atom, then flat
        ((0.1, 0.2, 0.5, 0.7, 0.95), (0.25, 0.4, 0.4, 0.4, 1.0)),
        ((0.05, 0.15, 0.35, 0.4, 0.8), (0.0, 0.1, 0.7, 0.7, 1.0)),
    ])
    def test_quantile_many_bitwise_matches_brute_force(self, xs, ps):
        spec = PiecewiseLinearReservoir(xs, ps)
        rng = np.random.default_rng(17)
        grid = np.asarray(ps)
        levels = np.concatenate([rng.random(5000), grid, np.nextafter(grid, 0.0),
                                 np.nextafter(grid, 1.0).clip(0.0, 1.0), [0.0, 1.0]])
        expected = np.array([brute_force_pwl_quantile(xs, ps, float(p)) for p in levels])
        got = spec.quantile_many(levels)
        assert np.array_equal(got.view(np.int64), expected.view(np.int64))
        assert [spec.quantile(p) for p in levels[:50]] == got[:50].tolist()
        for bad in (-1e-12, 1.0 + 1e-12, math.nan):
            with pytest.raises(ValueError):
                spec.quantile_many(np.array([0.5, bad]))


@st.composite
def discrete_reservoirs(draw):
    """Atoms on a 0.05 grid with masses in ninths, normalised (sums within ulps of 1)."""
    means = sorted(set(draw(st.lists(st.integers(0, 20), min_size=1, max_size=6))))
    weights = np.array(draw(st.lists(st.integers(1, 9), min_size=len(means),
                                     max_size=len(means))), dtype=float)
    return DiscreteReservoir(tuple(m / 20 for m in means), tuple(weights / weights.sum()))


@st.composite
def piecewise_linear_reservoirs(draw):
    """Breakpoints on a 0.05 grid; zero CDF steps give flats and a first step
    above zero an initial atom."""
    xs = sorted(set(draw(st.lists(st.integers(0, 20), min_size=2, max_size=6))))
    if len(xs) < 2:
        xs = [0, 20]
    steps = draw(st.lists(st.integers(0, 4), min_size=len(xs), max_size=len(xs)))
    if sum(steps[1:]) == 0:
        steps[-1] = 1
    ps = np.cumsum(steps) / sum(steps)
    return PiecewiseLinearReservoir(tuple(x / 20 for x in xs), tuple(map(float, ps)))


# p = 0 is left out: inf{mu : F(mu) >= 0} is -inf, and quantile(0) is the support's lower edge
LEVELS = st.floats(0.0, 1.0, exclude_min=True) | st.sampled_from([0.25, 1 / 3, 0.5, 0.75, 1.0])


class TestQuantileInvertsCdf:
    @settings(max_examples=300, deadline=None)
    @given(discrete_reservoirs(), LEVELS)
    def test_discrete_exactly(self, spec, p):
        q = spec.quantile(p)
        assert spec.cdf(q) >= p
        assert spec.cdf(np.nextafter(q, -np.inf)) < p

    @settings(max_examples=300, deadline=None)
    @given(piecewise_linear_reservoirs(), LEVELS)
    def test_piecewise_linear_up_to_round_off(self, spec, p):
        # a continuous CDF meets p between floats: interpolating the quantile
        # and then the CDF can each round by an ulp, so "at q" allows 1e-12
        # and "just below q" steps 1e-9, far more than any rounding moves and
        # far less than the grid spacing
        q = spec.quantile(p)
        assert spec.cdf(q) >= p - 1e-12
        assert spec.cdf(q - 1e-9) < p


class TestSampleArm:
    """An arm is a hidden index j ~ U[0, 1] with mean ``quantile_many(j)``."""

    def test_point_mass_mean(self):
        spec = DiscreteReservoir.point_mass(0.5)
        assert spec.quantile_many(np.random.default_rng(0).random(3)).tolist() == [0.5] * 3

    def test_two_atom_frequency(self):
        spec = DiscreteReservoir.from_atoms(((0.3, 0.5), (0.7, 0.5)))
        means = spec.quantile_many(np.random.default_rng(11).random(100_000))
        assert abs(np.mean(means == 0.7) - 0.5) < 0.01

    def test_index_zero_takes_lowest_atom(self):
        spec = DiscreteReservoir.from_atoms(QUARTER)
        assert spec.quantile(0.0) == 0.2
        assert spec.quantile_many(np.array([0.0]))[0] == 0.2

    def test_histogram_matches_masses(self):
        atoms = ((0.1, 0.2), (0.5, 0.5), (0.9, 0.3))
        spec = DiscreteReservoir.from_atoms(atoms)
        means = spec.quantile_many(np.random.default_rng(3).random(100_000))
        for mean, mass in atoms:
            freq = np.mean(means == mean)
            tol = 3.0 * math.sqrt(mass * (1 - mass) / 100_000)
            assert abs(freq - mass) < tol

    def test_hidden_index_consistent(self):
        spec = DiscreteReservoir.from_atoms(QUARTER)
        js = np.random.default_rng(5).random(100)
        assert spec.quantile_many(js).tolist() == [spec.quantile(j) for j in js]


class TestSampleReward:
    """Reward draws through ``RewardEnv.pull``."""

    def test_bernoulli_sure_thing(self):
        env = RewardEnv(np.array([1.0]), RewardFamily("bernoulli"), np.random.default_rng(0))
        assert env.pull(np.zeros(20, dtype=np.int64)).tolist() == [1.0] * 20

    def test_bernoulli_mean(self):
        env = RewardEnv(np.array([0.6]), RewardFamily("bernoulli"), np.random.default_rng(1))
        draws = env.pull(np.zeros(100_000, dtype=np.int64))
        assert set(np.unique(draws)) == {0.0, 1.0}
        assert abs(draws.mean() - 0.6) < 0.01

    def test_noiseless_returns_mean(self):
        rng = np.random.default_rng(0)
        env = RewardEnv(np.array([0.42, 0.7]), RewardFamily("noiseless"), rng)
        before = rng.bit_generator.state
        rewards = env.pull(np.array([1, 0, 0]))
        assert rewards.tolist() == [0.7, 0.42, 0.42] and rewards.dtype == env.reward_dtype
        assert env.reward_dtype == np.float64 and rng.bit_generator.state == before

    def test_gaussian_mean_and_var(self):
        env = RewardEnv(np.array([0.5]), RewardFamily("gaussian", sigma2=0.25),
                        np.random.default_rng(2))
        draws = env.pull(np.zeros(20_000, dtype=np.int64))
        assert abs(draws.mean() - 0.5) < 0.02
        assert abs(draws.var() - 0.25) < 0.02

    @pytest.mark.parametrize("family, draws_nothing", [
        (RewardFamily("bernoulli"), False), (RewardFamily("gaussian", 0.25), False),
        (RewardFamily("gaussian", 1.0), False), (RewardFamily("noiseless"), True)])
    @pytest.mark.parametrize("count", [0, 1, 7, 1000])
    def test_skip_advances_like_pull(self, family, draws_nothing, count):
        # the cut-block rewind keeps the rounds already drawn and skips the
        # rest; the next draws must be those a pull of the same count leaves
        means = np.random.default_rng(9).random(count + 3)
        pulled, cut = np.random.default_rng(4), np.random.default_rng(4)
        RewardEnv(means, family, pulled).pull(np.arange(count))
        env = RewardEnv(means, family, cut)
        env.pull(np.arange(count + 3))
        env.keep(count)
        assert cut.bit_generator.state == pulled.bit_generator.state
        untouched = pulled.bit_generator.state == np.random.default_rng(4).bit_generator.state
        assert untouched == (draws_nothing or count == 0)

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from(["bernoulli", "gaussian", "noiseless"]),
           st.sampled_from([0.25, 0.81, 1.0]), st.integers(1, 9), st.integers(1, 20),
           st.integers(0, 2**32 - 1))
    def test_keep_leaves_the_stream_where_a_shorter_pull_does(self, kind, sigma2, k, m, seed):
        # a block cut after its first j of k rounds keeps j * m rewards; the
        # generator must stand where a pull of those j rows alone leaves it
        family = RewardFamily(kind, sigma2 if kind == "gaussian" else None)
        means = np.random.default_rng(seed).random(m)
        block = np.broadcast_to(np.arange(m), (k, m))
        for j in range(k + 1):
            cut, short = np.random.default_rng(seed), np.random.default_rng(seed)
            env = RewardEnv(means, family, cut)
            env.pull(block)
            env.keep(j * m)
            if j:
                RewardEnv(means, family, short).pull(block[:j])
            assert cut.bit_generator.state == short.bit_generator.state

    @pytest.mark.parametrize("family, draws_nothing", [
        (RewardFamily("bernoulli"), False), (RewardFamily("gaussian", 0.25), False),
        (RewardFamily("noiseless"), True)])
    @pytest.mark.parametrize("k", [1, 2, 9])
    def test_broadcast_block_draws_the_flat_tile(self, family, draws_nothing, k):
        # a block's index repeats one row with stride 0, and pull reads that
        # row's means once: the rewards and the stream are the tiled pull's
        means = np.random.default_rng(7).random(12)
        active = np.array([0, 3, 4, 5, 9, 11])
        rng, twin = np.random.default_rng(k), np.random.default_rng(k)
        block = np.broadcast_to(active, (16, active.size))[:k]
        assert block.strides[0] == 0
        rewards = RewardEnv(means, family, rng).pull(block)
        flat = RewardEnv(means, family, twin).pull(np.tile(active, k))
        assert rewards.shape == (k, active.size) and rewards.dtype == flat.dtype
        assert rewards.flags.c_contiguous and rewards.flags.writeable
        assert np.array_equal(rewards.ravel(), flat)
        assert rng.bit_generator.state == twin.bit_generator.state
        fresh = np.random.default_rng(k).bit_generator.state
        assert (rng.bit_generator.state == fresh) == draws_nothing

    @pytest.mark.parametrize("family, draws_nothing", [
        (RewardFamily("bernoulli"), False), (RewardFamily("gaussian", 0.25), False),
        (RewardFamily("noiseless"), True)])
    def test_two_dimensional_index_reads_every_mean(self, family, draws_nothing):
        # rows that differ, a transposed view and a broadcast second axis all
        # have a first-axis stride other than 0, so each element's own mean
        # is read; the first row's means would give other rewards
        means = np.array([0.0, 1.0, 0.0, 1.0, 0.5, 0.25])
        rows = np.array([[0, 1, 2], [1, 3, 5], [4, 0, 3]])
        for index in (rows, rows.T, np.broadcast_to(np.array([[0], [1], [4]]), (3, 4))):
            rng, twin = np.random.default_rng(3), np.random.default_rng(3)
            rewards = RewardEnv(means, family, rng).pull(index)
            flat = RewardEnv(means, family, twin).pull(index.ravel())
            assert rewards.shape == index.shape
            assert np.array_equal(rewards.ravel(), flat)
            assert rng.bit_generator.state == twin.bit_generator.state
            fresh = np.random.default_rng(3).bit_generator.state
            assert (rng.bit_generator.state == fresh) == draws_nothing

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from(["bernoulli", "gaussian"]), st.integers(1, 9), st.integers(1, 20),
           st.data(), st.integers(0, 2**32 - 1))
    def test_keep_restores_the_whole_state_after_a_tie_break(self, kind, k, m, data, seed):
        # a tie-break's integers(3) leaves PCG64 holding a buffered 32-bit
        # half, which jump-ahead clears; after a cut pull the whole state,
        # buffered half included, and the next integers draws must be those
        # of a twin that pulled only the kept rewards
        j = data.draw(st.integers(0, k))
        family = RewardFamily(kind, 0.25 if kind == "gaussian" else None)
        means = np.random.default_rng(seed).random(m)
        block = np.broadcast_to(np.arange(m), (k, m))
        cut, twin = np.random.default_rng(seed), np.random.default_rng(seed)
        for rng in (cut, twin):
            rng.integers(3)
        assert cut.bit_generator.state["has_uint32"] == 1
        env = RewardEnv(means, family, cut)
        env.pull(block)
        env.keep(j * m)
        if j:
            RewardEnv(means, family, twin).pull(block[:j])
        assert cut.bit_generator.state == twin.bit_generator.state
        assert np.array_equal(cut.integers(1000, size=5), twin.integers(1000, size=5))

    def test_bernoulli_pull_reads_no_generator_state(self):
        # the rewind counts the uniforms a pull drew, so only keep, on a cut
        # block, reads the generator's state
        reads = []

        class Watched(np.random.PCG64):
            @property
            def state(self):
                reads.append("state")
                return np.random.PCG64.state.__get__(self)

            @state.setter
            def state(self, value):
                np.random.PCG64.state.__set__(self, value)

        rng = np.random.Generator(Watched(5))
        env = RewardEnv(np.array([0.2, 0.7, 0.4]), RewardFamily("bernoulli"), rng)
        block = np.broadcast_to(np.arange(3), (6, 3))
        for k in (1, 6, 2):
            env.pull(block[:k])
        assert reads == []
        env.keep(2)
        assert reads

    @pytest.mark.parametrize("kind", ["bernoulli", "gaussian", "noiseless"])
    def test_generator_must_be_pcg64(self, kind):
        family = RewardFamily(kind, 0.25 if kind == "gaussian" else None)
        rng = np.random.Generator(np.random.MT19937(0))
        with pytest.raises(ValueError, match="PCG64 generator, not MT19937"):
            RewardEnv(np.array([0.5]), family, rng)

    @pytest.mark.parametrize("family", [RewardFamily("bernoulli"), RewardFamily("noiseless")])
    def test_broadcast_rows_of_other_bases_read_their_own_means(self, family):
        # the mean row is gathered once per base array broadcast whole; a new
        # base, or a broadcast of part of one, reads its own means
        means = np.array([0.0, 1.0, 1.0, 0.0, 1.0, 0.0])
        first, second = np.array([0, 3, 5]), np.array([1, 2, 4])
        env = RewardEnv(means, family, np.random.default_rng(0))
        for active in (first, second, first, second[1:], second[:2], second):
            for k in (1, 4):
                rewards = env.pull(np.broadcast_to(active, (k, active.size)))
                assert np.array_equal(rewards, np.broadcast_to(means[active], rewards.shape))

    def test_mean_out_of_range(self):
        # NaN fails both comparisons with the range's ends, so it is tested too
        for bad in (1.2, -0.1, math.nan):
            for family in (RewardFamily("bernoulli"), RewardFamily("gaussian", 0.25)):
                with pytest.raises(ValueError):
                    RewardEnv(np.array([0.5, bad]), family, np.random.default_rng(0))

    def test_bad_family(self):
        with pytest.raises(ValueError):
            RewardFamily("poisson")
        with pytest.raises(ValueError):
            RewardFamily("gaussian", sigma2=1.5)


def make_instance(groups, alpha=0.5, name="test"):
    return BanditInstance(tuple(groups), RewardFamily("bernoulli"), alpha, name)


class TestRelaxedSuccessSet:
    def test_identical_groups_all_succeed(self):
        res = DiscreteReservoir.from_atoms(QUARTER)
        inst = make_instance([("a", res), ("b", res), ("c", res)])
        assert relaxed_success_set(inst, 0.1, 0.05) == {"a", "b", "c"}

    def test_hard_pair_separates_at_quarter_scale(self):
        # point mass 1/2 vs the low-good-fraction two-atom mixture built at
        # eps = gap = 0.2; at tolerances 0.05 only the point mass passes
        g2 = DiscreteReservoir.from_atoms(((0.4, 0.6), (0.6, 0.4)))
        inst = make_instance([("group1", DiscreteReservoir.point_mass(0.5)), ("group2", g2)])
        assert relaxed_success_set(inst, 0.05, 0.05) == {"group1"}

    def test_huge_gap_admits_everyone(self):
        inst = make_instance([
            ("a", DiscreteReservoir.point_mass(0.1)),
            ("b", DiscreteReservoir.point_mass(0.9)),
        ])
        assert relaxed_success_set(inst, 0.1, 1.0) == {"a", "b"}

    def test_monotone_in_tolerances(self):
        rng = np.random.default_rng(13)
        grid = np.linspace(0.05, 0.95, 19)
        for _ in range(30):
            groups = []
            for g in range(int(rng.integers(2, 5))):
                k = int(rng.integers(1, 4))
                means = np.sort(rng.choice(grid, size=k, replace=False))
                w = rng.random(k) + 0.1
                w /= w.sum()
                groups.append((f"g{g}", DiscreteReservoir(tuple(means), tuple(w))))
            inst = make_instance(groups)
            base = relaxed_success_set(inst, 0.1, 0.05)
            assert base <= relaxed_success_set(inst, 0.2, 0.05)
            assert base <= relaxed_success_set(inst, 0.1, 0.2)

    @pytest.mark.parametrize("gap", [0.0, float("nan"), float("inf"), -float("inf")])
    def test_gap_must_be_positive_and_finite(self, gap):
        inst = make_instance([("a", DiscreteReservoir.point_mass(0.6)),
                              ("b", DiscreteReservoir.point_mass(0.4))])
        with pytest.raises(ValueError, match="gap must be positive and finite"):
            relaxed_success_set(inst, 0.2, gap)

    def test_eps_out_of_range(self):
        inst = make_instance([("a", DiscreteReservoir.point_mass(0.5))])
        with pytest.raises(ValueError):
            relaxed_success_set(inst, 0.6, 0.1)


class TestConfigRoundTrip:
    def test_dict_round_trip(self):
        inst = make_instance([
            ("a", DiscreteReservoir.from_atoms(QUARTER)),
            ("b", PiecewiseLinearReservoir((0.0, 1.0), (0.0, 1.0))),
        ], alpha=0.3, name="round")
        back = instance_from_dict(instance_to_dict(inst))
        assert back.name == "round"
        assert back.alpha == 0.3
        assert back.reservoir("a").quantile(0.5) == 0.4
        assert back.reservoir("b").quantile(0.5) == pytest.approx(0.5)

    def test_error_paths_name_fields(self):
        with pytest.raises(ValueError, match="groups"):
            instance_from_dict({"alpha": 0.5, "family": {"kind": "bernoulli"}})
        with pytest.raises(ValueError, match=r"groups\[0\]"):
            instance_from_dict({"alpha": 0.5, "family": {"kind": "bernoulli"},
                                "groups": [{"id": "a", "atoms": [[0.5, 0.7]]}]})

    def test_instances_pickle_for_worker_pools(self):
        import pickle
        inst = make_instance([
            ("a", DiscreteReservoir.from_atoms(QUARTER)),
            ("b", PiecewiseLinearReservoir((0.0, 1.0), (0.0, 1.0))),
        ])
        back = pickle.loads(pickle.dumps(inst))
        assert back.reservoir("a").quantile(0.5) == 0.4
        assert back.reservoir("b").quantile(0.25) == pytest.approx(0.25)

    def test_gaussian_round_trip_keeps_sigma2(self):
        inst = BanditInstance((("a", DiscreteReservoir.point_mass(0.5)),),
                              RewardFamily("gaussian", 0.25), 0.5, "noisy")
        payload = instance_to_dict(inst)
        assert payload["family"] == {"kind": "gaussian", "sigma2": 0.25}
        assert instance_from_dict(payload) == inst

    def test_noiseless_round_trip_has_no_sigma2(self):
        inst = BanditInstance((("a", DiscreteReservoir.point_mass(0.5)),),
                              RewardFamily("noiseless"), 0.5, "quiet")
        payload = instance_to_dict(inst)
        assert payload["family"] == {"kind": "noiseless"}
        assert instance_from_dict(payload) == inst
        assert RewardFamily("gaussian") == RewardFamily("gaussian", 1.0)

    def test_unknown_reservoir_type_is_not_serialized(self):
        class Uniform(Reservoir):
            def _inverse(self, levels):
                return levels

        inst = make_instance([("a", Uniform())])
        assert inst.reservoir("a").quantile(0.25) == 0.25
        with pytest.raises(KeyError):
            inst.reservoir("b")
        with pytest.raises(TypeError, match="cannot serialize reservoir type Uniform"):
            instance_to_dict(inst)


def _instance_dict(**over):
    data = {"name": "pair", "alpha": 0.5, "family": {"kind": "bernoulli"},
            "groups": [{"id": "a", "atoms": [[0.3, 0.5], [0.7, 0.5]]},
                       {"id": "b", "cdf": {"x": [0.0, 1.0], "p": [0.0, 1.0]}}]}
    data.update(over)
    return data


def _with_group(i, group):
    groups = _instance_dict()["groups"]
    groups[i] = group
    return _instance_dict(groups=groups)


class TestInstanceConfigFields:
    @pytest.mark.parametrize("data, field", [
        (_instance_dict(alpha=[0.5]), r"instance\.alpha: expected a number"),
        (_instance_dict(alpha=True), r"instance\.alpha: expected a number"),
        (_instance_dict(family={"kind": "gaussian", "sigma2": [0.5]}),
         r"instance\.family\.sigma2: expected a number"),
        (_instance_dict(family={"kind": "gaussian", "sigma2": False}),
         r"instance\.family\.sigma2: expected a number"),
        (_with_group(0, {"id": "a", "atoms": [[True, 1.0]]}),
         r"instance\.groups\[0\]\.atoms\[0\]\[0\]: expected a number"),
        (_with_group(0, {"id": "a", "atoms": [[0.5, None]]}),
         r"instance\.groups\[0\]\.atoms\[0\]\[1\]: expected a number"),
        (_with_group(0, {"id": "a", "atoms": [[0.5]]}),
         r"instance\.groups\[0\]\.atoms\[0\]: expected 2 numbers"),
        (_with_group(0, {"id": "a", "atoms": 0.5}),
         r"instance\.groups\[0\]\.atoms: expected a nonempty list"),
        (_with_group(1, {"id": "b", "cdf": {"x": [0.0, True], "p": [0.0, 1.0]}}),
         r"instance\.groups\[1\]\.cdf\.x\[1\]: expected a number"),
        (_with_group(1, {"id": "b", "cdf": {"x": [0.0, 1.0], "p": "01"}}),
         r"instance\.groups\[1\]\.cdf\.p: expected a nonempty list"),
        (_with_group(1, {"id": "b", "cdf": [[0.0, 1.0], [0.0, 1.0]]}),
         r"instance\.groups\[1\]\.cdf: expected an object"),
        (_instance_dict(family={"kind": "gaussian", "sigma": 0.25}),
         r"instance\.family\.sigma: unknown field"),
        (_with_group(0, {"id": "a", "atoms": [[0.5, 1.0]], "weight": 2}),
         r"instance\.groups\[0\]\.weight: unknown field"),
        (_with_group(1, {"id": "b", "cdf": {"x": [0.0, 1.0], "p": [0.0, 1.0], "q": [1]}}),
         r"instance\.groups\[1\]\.cdf\.q: unknown field"),
        (_with_group(0, {"id": "a", "atoms": [[0.5, 1.0]],
                         "cdf": {"x": [0.0, 1.0], "p": [0.0, 1.0]}}),
         r"instance\.groups\[0\]: needs exactly one of 'atoms' and 'cdf'"),
        (_instance_dict(eps=0.1), r"instance\.eps: unknown field"),
        (_instance_dict(family={"sigma2": 0.5}), r"instance\.family: unknown reward family None"),
        (_with_group(0, {"atoms": [[0.5, 1.0]]}), r"instance\.groups\[0\]\.id: required"),
        ({key: value for key, value in _instance_dict().items() if key != "alpha"},
         r"instance\.alpha: required"),
        (_instance_dict(alpha=1.5), r"instance: alpha must lie in \(0, 1\)"),
        (_with_group(1, {"id": "a", "atoms": [[0.5, 1.0]]}), r"instance: group ids must be unique"),
        (_instance_dict(family={"kind": "bernoulli", "sigma2": 7.0}),
         r"instance\.family\.sigma2: only a gaussian family takes sigma2, not 'bernoulli'"),
        (_instance_dict(family={"kind": "noiseless", "sigma2": 1.0}),
         r"instance\.family\.sigma2: only a gaussian family takes sigma2, not 'noiseless'"),
        (_instance_dict(family={"kind": "gaussian", "sigma2": 1.5}),
         r"instance\.family\.sigma2: gaussian sigma2 must lie in \(0, 1\]"),
        (_with_group(0, {"id": None, "atoms": [[0.5, 1.0]]}),
         r"instance\.groups\[0\]\.id: expected a string, got None"),
        (_with_group(1, {"id": 7, "atoms": [[0.5, 1.0]]}),
         r"instance\.groups\[1\]\.id: expected a string, got 7"),
        (_instance_dict(name=["x"]), r"instance\.name: expected a string, got \['x'\]"),
    ])
    def test_bad_field_named(self, data, field):
        with pytest.raises(ValueError, match=field):
            instance_from_dict(data)

    def test_success_annotations_accepted(self):
        inst = instance_from_dict(_instance_dict(success_eps=0.05, success_delta_gap=0.05))
        assert inst == instance_from_dict(_instance_dict())


def _env(means):
    return RewardEnv(means, RewardFamily("bernoulli"), np.random.default_rng(0))


@pytest.mark.parametrize("build, message", [
    (lambda: _env(np.zeros((2, 2))), "nonempty 1-D"),
    (lambda: _env(np.array([])), "nonempty 1-D"),
    (lambda: _env(0.5), "nonempty 1-D"),
    (lambda: make_instance([("a", DiscreteReservoir.point_mass(0.5)),
                            ("a", DiscreteReservoir.point_mass(0.6))]), "unique"),
    (lambda: make_instance([("a", DiscreteReservoir.point_mass(0.5))], alpha=0.0), "alpha"),
    (lambda: make_instance([("a", DiscreteReservoir.point_mass(0.5))], alpha=1.0), "alpha"),
    (lambda: PiecewiseLinearReservoir((0.5,), (1.0,)), ">= 2 matching breakpoints"),
    (lambda: PiecewiseLinearReservoir((-0.1, 1.0), (0.0, 1.0)), r"lie in \[0, 1\]"),
    (lambda: PiecewiseLinearReservoir((0.0, 1.2), (0.0, 1.0)), r"lie in \[0, 1\]"),
    (lambda: PiecewiseLinearReservoir((0.5, 0.5), (0.0, 1.0)), "strictly increasing"),
    (lambda: PiecewiseLinearReservoir((0.0, 1.0), (0.0, 0.9)), "reach 1"),
    (lambda: DiscreteReservoir((0.2, 0.8), (1.5, -0.5)), r"masses must lie in \(0, 1\]"),
    (lambda: DiscreteReservoir((0.2, 0.8), (0.0, 1.0)), r"masses must lie in \(0, 1\]"),
    (lambda: DiscreteReservoir((math.nan,), (1.0,)), r"means must lie in \[0, 1\]"),
    (lambda: DiscreteReservoir((0.2, math.inf), (0.5, 0.5)), r"means must lie in \[0, 1\]"),
    (lambda: DiscreteReservoir((0.2, 0.8), (math.nan, 1.0)), r"masses must lie in \(0, 1\]"),
    (lambda: PiecewiseLinearReservoir((0.0, math.nan), (0.0, 1.0)), r"lie in \[0, 1\]"),
    (lambda: PiecewiseLinearReservoir((0.0, 1.0), (math.nan, 1.0)), "nondecreasing"),
    (lambda: PiecewiseLinearReservoir((0.0, 1.0), (0.0, math.inf)), "CDF must reach 1"),
    (lambda: DiscreteReservoir((0.2, 0.8), (1.0,)), "equally many means and masses"),
    (lambda: make_instance([]), "at least one group"),
    (lambda: RewardFamily("bernoulli", 7.0), "only a gaussian family takes sigma2"),
    (lambda: RewardFamily("noiseless", 1.0), "only a gaussian family takes sigma2"),
])
def test_constructors_reject_invalid(build, message):
    with pytest.raises(ValueError, match=message):
        build()
