"""Bandit instances: reward families, reservoir distributions, and exact oracles.

A bandit instance is a finite collection of disjoint groups, each holding an
effectively infinite pool of arms.  Requesting an arm from a group draws a
hidden index j uniformly from [0, 1]; the arm's mean reward is the reservoir
quantile at j.  Algorithms observe only rewards; the hidden index and the true
mean stay on the oracle side.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import ClassVar, Sequence

import numpy as np

MASS_TOL = 1e-12


@dataclass(frozen=True)
class RewardFamily:
    """Reward distribution family, uniquely parameterized by its mean.

    ``bernoulli`` rewards are in {0, 1}; ``gaussian`` rewards are normal with
    fixed variance ``sigma2`` (at most 1, so the sub-Gaussian confidence
    machinery applies unchanged, and 1 when not given); a ``noiseless``
    reward is the mean itself.  Only a Gaussian family takes ``sigma2``.
    """

    KINDS: ClassVar[tuple[str, ...]] = ("bernoulli", "gaussian", "noiseless")

    kind: str
    sigma2: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in self.KINDS:
            raise ValueError(f"unknown reward family {self.kind!r}; expected one of {self.KINDS}")
        if self.kind != "gaussian" and self.sigma2 is not None:
            raise ValueError(f"only a gaussian family takes sigma2, not {self.kind!r}")
        if self.kind == "gaussian" and self.sigma2 is None:
            object.__setattr__(self, "sigma2", 1.0)
        if self.kind == "gaussian" and not (0.0 < self.sigma2 <= 1.0):
            raise ValueError(f"gaussian sigma2 must lie in (0, 1], got {self.sigma2}")


class Reservoir:
    """Distribution over arm means within one group, queryable by CDF and quantile.

    Subclasses implement ``_inverse``, the vectorized quantile function on
    levels already checked to lie in [0, 1]; ``quantile`` and
    ``quantile_many`` are its scalar and array entry points.
    """

    def cdf(self, tau: float) -> float:
        raise NotImplementedError

    def _inverse(self, levels: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def quantile(self, p: float) -> float:
        """Return inf{mu : F(mu) >= p} for p in [0, 1]."""
        return float(self._inverse(_checked_levels(p)))

    def quantile_many(self, ps: np.ndarray) -> np.ndarray:
        """Elementwise :meth:`quantile` over an array of levels in [0, 1]."""
        return self._inverse(_checked_levels(ps))


def _checked_levels(ps) -> np.ndarray:
    levels = np.asarray(ps, dtype=float)
    inside = (levels >= 0.0) & (levels <= 1.0)
    if not np.all(inside):
        raise ValueError(f"quantile levels must lie in [0, 1], got {levels[~inside].flat[0]}")
    return levels


@dataclass(frozen=True)
class DiscreteReservoir(Reservoir):
    """Finite-atom reservoir: ordered support means with point masses.

    Parameters
    ----------
    means : tuple of float
        Strictly increasing atom locations in [0, 1].
    masses : tuple of float
        Atom probabilities in (0, 1], summing to 1 within ``MASS_TOL``.
    """

    means: tuple[float, ...]
    masses: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.means) == 0 or len(self.means) != len(self.masses):
            raise ValueError("reservoir needs equally many means and masses, at least one atom")
        mu = np.asarray(self.means, dtype=float)
        w = np.asarray(self.masses, dtype=float)
        if not np.all((mu >= 0.0) & (mu <= 1.0)):  # NaN fails too
            raise ValueError("reservoir means must lie in [0, 1]")
        if np.any(np.diff(mu) <= 0.0):
            raise ValueError("reservoir means must be strictly increasing")
        if not np.all((w > 0.0) & (w <= 1.0)):
            raise ValueError("reservoir masses must lie in (0, 1]")
        if abs(float(w.sum()) - 1.0) > MASS_TOL:
            raise ValueError(f"reservoir masses must sum to 1 within {MASS_TOL}, got {w.sum()!r}")
        cum = np.cumsum(w)
        cum[-1] = 1.0  # snap accumulated rounding so quantile(1.0) is safe
        object.__setattr__(self, "_means_arr", mu)
        object.__setattr__(self, "_cum", cum)

    @classmethod
    def from_atoms(cls, atoms: Sequence[tuple[float, float]]) -> "DiscreteReservoir":
        return cls(tuple(m for m, _ in atoms), tuple(w for _, w in atoms))

    @classmethod
    def point_mass(cls, mean: float) -> "DiscreteReservoir":
        return cls((float(mean),), (1.0,))

    def cdf(self, tau: float) -> float:
        if tau < self._means_arr[0]:
            return 0.0
        return float(self._cum[np.searchsorted(self._means_arr, tau, side="right") - 1])

    def _inverse(self, levels: np.ndarray) -> np.ndarray:
        idx = np.minimum(np.searchsorted(self._cum, levels, side="left"), len(self._means_arr) - 1)
        return self._means_arr[idx]


@dataclass(frozen=True)
class PiecewiseLinearReservoir(Reservoir):
    """Continuous reservoir with a piecewise-linear CDF on a bounded support.

    ``xs`` are strictly increasing breakpoints in [0, 1]; ``ps`` are the CDF
    values at those breakpoints (nondecreasing, ending at 1).  Below ``xs[0]``
    the CDF is 0; an initial atom can be encoded by ``ps[0] > 0``.
    """

    xs: tuple[float, ...]
    ps: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.xs) < 2 or len(self.xs) != len(self.ps):
            raise ValueError("piecewise-linear CDF needs >= 2 matching breakpoints")
        x = np.asarray(self.xs, dtype=float)
        p = np.asarray(self.ps, dtype=float)
        if not np.all((x >= 0.0) & (x <= 1.0)):  # NaN fails too
            raise ValueError("support breakpoints must lie in [0, 1]")
        if np.any(np.diff(x) <= 0.0):
            raise ValueError("support breakpoints must be strictly increasing")
        if not (np.all(np.diff(p) >= 0.0) and np.all(p >= 0.0)):
            raise ValueError("CDF values must be nondecreasing and nonnegative")
        if abs(float(p[-1]) - 1.0) > MASS_TOL:
            raise ValueError("CDF must reach 1 at the last breakpoint")
        p = p.copy()
        p[-1] = 1.0
        object.__setattr__(self, "_xs", x)
        object.__setattr__(self, "_ps", p)

    def cdf(self, tau: float) -> float:
        if tau < self._xs[0]:
            return 0.0
        return float(np.interp(tau, self._xs, self._ps))

    def _inverse(self, levels: np.ndarray) -> np.ndarray:
        # searchsorted(left) places each level p in ps[i-1] < p <= ps[i], so
        # every i > 0 interpolates on a rising stretch; i == 0 is the lower
        # support edge or an initial atom (ps[-1] is exactly 1, so i < n)
        i = np.searchsorted(self._ps, levels, side="left")
        lo = np.maximum(i - 1, 0)
        rising = i > 0
        frac = (levels - self._ps[lo]) / np.where(rising, self._ps[i] - self._ps[lo], 1.0)
        return np.where(rising, self._xs[lo] + frac * (self._xs[i] - self._xs[lo]), self._xs[i])


@dataclass(frozen=True)
class BanditInstance:
    """A named collection of disjoint groups with one reservoir each."""

    groups: tuple[tuple[str, Reservoir], ...]
    family: RewardFamily
    alpha: float
    name: str = "instance"

    def __post_init__(self) -> None:
        if len(self.groups) == 0:
            raise ValueError("instance needs at least one group")
        ids = [gid for gid, _ in self.groups]
        if len(set(ids)) != len(ids):
            raise ValueError("group ids must be unique")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha}")

    @property
    def group_ids(self) -> tuple[str, ...]:
        return tuple(gid for gid, _ in self.groups)

    def reservoir(self, group_id: str) -> Reservoir:
        for gid, res in self.groups:
            if gid == group_id:
                return res
        raise KeyError(group_id)


class RewardEnv:
    """Vectorized pull interface over a fixed set of arms.

    Algorithms draw rewards only through :meth:`pull`, whose index may have
    any shape (a block of rounds is a (rounds, arms) index that repeats one
    row), and :meth:`keep` cuts the last pull back to its first rewards; the
    true means are kept private so elimination code cannot peek at them.
    The family alone picks the draw, one variate per reward: a uniform for
    Bernoulli, a standard normal for Gaussian, none for noiseless.  The
    generator must be PCG64, whose jump-ahead rewinds a Bernoulli pull.
    """

    def __init__(self, means: np.ndarray, family: RewardFamily, rng: np.random.Generator) -> None:
        means = np.asarray(means, dtype=float)
        if means.ndim != 1 or means.size == 0:
            raise ValueError("means must be a nonempty 1-D array")
        if not np.all((means >= 0.0) & (means <= 1.0)):  # NaN fails too
            raise ValueError("arm means must lie in [0, 1]")
        if not isinstance(rng.bit_generator, np.random.PCG64):
            raise ValueError(f"rewards need a PCG64 generator, not "
                             f"{type(rng.bit_generator).__name__}")
        self._means = means
        self._family = family
        self._rng = rng
        self._sigma = math.sqrt(family.sigma2) if family.kind == "gaussian" else 0.0
        self._draw = {"bernoulli": rng.random, "gaussian": rng.standard_normal}.get(family.kind)
        # what the last pull drew: a Bernoulli pull's count of uniforms, one
        # PCG64 word each; a Gaussian pull's starting generator state
        self._drawn = self._start = None
        self._row = None  # (base array, means of its one row) of the last repeated-row index

    @property
    def num_arms(self) -> int:
        return self._means.size

    @property
    def rng(self) -> np.random.Generator:
        """The generator rewards are drawn from (read-only)."""
        return self._rng

    @property
    def reward_dtype(self) -> np.dtype:
        """The dtype :meth:`pull` returns: int32 for 0/1 Bernoulli rewards,
        float64 for Gaussian and noiseless ones."""
        return np.dtype(np.int32 if self._family.kind == "bernoulli" else np.float64)

    def _row_means(self, arms: np.ndarray) -> np.ndarray:
        """The means of a repeated-row index's one row.  An index that
        broadcasts the whole of a 1-D base array, as a block's index does the
        plan's active arms, reads them once while consecutive pulls broadcast
        that base; the base must not be written while it is pulled."""
        base, row = arms.base, self._row
        if not (isinstance(base, np.ndarray) and base.ndim == 1 and arms.ndim == 2
                and arms.shape[1] == base.size and arms.strides[1] == base.strides[0]):
            return self._means[arms[0]]
        if row is None or row[0] is not base:
            row = self._row = (base, self._means[arms[0]])
        return row[1]

    def pull(self, arm_indices: np.ndarray) -> np.ndarray:
        """Pull each listed arm once and return the rewards in C order, as
        :attr:`reward_dtype`, in the index's shape; the generator advances
        as one pull of the flattened index would.  A Bernoulli reward is
        ``uniform < mean``, written as 0 or 1 straight into an int32 array;
        a Gaussian one is ``z * sigma + mean`` in the normals' own array, the
        bits of the generator's ``normal(mean, sigma)``.

        An index whose first axis has stride 0, such as
        ``np.broadcast_to(active, (k, m))``, repeats one row, so only that
        row's means are read and broadcast over the draw; pulls that
        broadcast the whole of one base array read its means once.  A
        Bernoulli pull records only how many uniforms it drew, and a
        Gaussian one the generator state it started from, for :meth:`keep`."""
        arms = np.asarray(arm_indices)
        shape = arms.shape
        mu = (self._row_means(arms) if arms.ndim > 1 and arms.strides[0] == 0
              else self._means[arms])
        if self._draw is None:
            return np.broadcast_to(mu, shape).copy()
        if self._family.kind == "bernoulli":
            self._drawn = arms.size
            return np.less(self._draw(shape), mu, out=np.empty(shape, np.int32))
        self._start = self._rng.bit_generator.state
        draws = self._draw(shape)
        draws *= self._sigma
        draws += mu
        return draws

    def keep(self, count: int) -> None:
        """Keep the first ``count`` rewards of the last :meth:`pull`, in C
        order: the generator is left where a pull of ``count`` arms from
        the same start would leave it.  A Bernoulli pull took one PCG64
        word per uniform, so the generator steps back by the words it drops
        (``advance`` counts modulo 2**128, PCG64's period) and gets back the
        buffered 32-bit half that ``advance`` clears and uniforms never
        touch.  A Gaussian pull's ziggurat takes a varying number of words
        per normal, so it restores the start and draws ``count`` again."""
        if self._draw is None:
            return
        bits = self._rng.bit_generator
        if self._family.kind == "bernoulli":
            half = bits.state
            bits.advance(count - self._drawn)
            if half["has_uint32"]:
                moved = bits.state
                moved["has_uint32"], moved["uinteger"] = half["has_uint32"], half["uinteger"]
                bits.state = moved
        else:
            bits.state = self._start
            self._draw(count)


def relaxed_success_set(instance: BanditInstance, eps: float, gap: float) -> set[str]:
    """Ground-truth oracle for the doubly relaxed identification goal.

    A group G succeeds when its quantile at level (1 - alpha + eps) is within
    ``gap`` of the best quantile at level (1 - alpha - eps) across groups.
    """
    return set(_relaxed_winners(instance, eps, gap))


@functools.lru_cache
def _relaxed_winners(instance: BanditInstance, eps: float, gap: float) -> frozenset[str]:
    """:func:`relaxed_success_set`, computed once per (instance, eps, gap):
    every trial of an experiment scores against the same set."""
    bands = {gid: quantile_band(res, instance.alpha, eps) for gid, res in instance.groups}
    if not 0.0 < gap < math.inf:
        raise ValueError(f"gap must be positive and finite, got {gap}")
    best_low = max(low for low, _ in bands.values())
    return frozenset(gid for gid, (_, high) in bands.items() if high >= best_low - gap)


@functools.lru_cache
def quantile_band(spec: Reservoir, alpha: float, eps: float) -> tuple[float, float]:
    """The reservoir's quantiles at levels (1 - alpha -/+ eps), for
    0 < eps < min(alpha, 1 - alpha).

    Computed once per (reservoir, alpha, eps): the sandwich event, the
    relaxed success set and the reservoir gap bounds all read this band.
    """
    if not 0.0 < eps < min(alpha, 1.0 - alpha):
        raise ValueError(f"eps must lie in (0, min(alpha, 1-alpha)), got {eps}")
    return spec.quantile(1.0 - alpha - eps), spec.quantile(1.0 - alpha + eps)
