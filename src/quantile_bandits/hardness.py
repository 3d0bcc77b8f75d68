"""Worst-case instance family and the score-based likelihood machinery.

The hard instances are Bernoulli median-identification problems built from
two arm types: good arms with mean (1+gap)/2 and bad arms with mean
(1-gap)/2.  One reference group is a point mass at 1/2; every other group is
a two-atom mixture whose good-arm fraction is either (1+eps)/2 or (1-eps)/2.
Distinguishing the mixtures is what forces the 1/(gap^2 eps^2) pull scaling.

For a single arm the sufficient statistic is the score d = #ones - #zeros.
The likelihood ratio between the two mixture assignments is a function f(d)
whose one-step conditional expectation is exactly f(d) under one assignment
(a martingale) and drifts by O(gap^2 eps^2) under the other; the verifier
checks both facts numerically on a parameter grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .instances import BanditInstance, DiscreteReservoir, RewardFamily

KINDS = ("good", "bad")
MARTINGALE_TOL = 1e-12  # largest |E[f(d')] - f(d)| the verifier accepts under the low mixture
DRIFT_LIMIT = 16.0  # the drift lemma's constant: largest drift / (gap * eps)^2 the verifier accepts


@dataclass(frozen=True)
class HardInstanceParams:
    """Construction parameters: eps and gap in (0, 1/4), at least two groups."""

    eps: float
    gap: float
    num_groups: int = 2

    def __post_init__(self) -> None:
        if not 0.0 < self.eps < 0.25:
            raise ValueError(f"eps must lie in (0, 1/4), got {self.eps}")
        if not 0.0 < self.gap < 0.25:
            raise ValueError(f"gap must lie in (0, 1/4), got {self.gap}")
        if self.num_groups < 2:
            raise ValueError(f"need at least two groups, got {self.num_groups}")

    @property
    def good_fraction(self) -> float:
        return (1.0 + self.eps) / 2.0

    @property
    def bad_fraction(self) -> float:
        return (1.0 - self.eps) / 2.0

    @property
    def good_mean(self) -> float:
        return (1.0 + self.gap) / 2.0

    @property
    def bad_mean(self) -> float:
        return (1.0 - self.gap) / 2.0


def _mixture(params: HardInstanceParams, good_fraction: float) -> DiscreteReservoir:
    return DiscreteReservoir(
        (params.bad_mean, params.good_mean),
        (1.0 - good_fraction, good_fraction),
    )


def make_worst_case_instances(params: HardInstanceParams) -> list[BanditInstance]:
    """All num_groups hard instances; in instance j (1-based) group j is optimal.

    Instance 1 gives every mixture group the low good-arm fraction, so the
    point-mass group wins; instance j >= 2 upgrades group j alone.
    """
    family = RewardFamily("bernoulli")
    out = []
    for j in range(1, params.num_groups + 1):
        groups: list[tuple[str, DiscreteReservoir]] = [("g1", DiscreteReservoir.point_mass(0.5))]
        for i in range(2, params.num_groups + 1):
            frac = params.good_fraction if i == j else params.bad_fraction
            groups.append((f"g{i}", _mixture(params, frac)))
        out.append(BanditInstance(tuple(groups), family, alpha=0.5, name=f"hard{j}"))
    return out


def success_scale(params: HardInstanceParams) -> tuple[float, float]:
    """Tolerances (eps/4, gap/4) under which only the planted optimal group
    of each hard instance passes the relaxed success oracle.

    The construction only separates the groups after shrinking both
    tolerances by a constant factor; 4 is a safe one.
    """
    return params.eps / 4.0, params.gap / 4.0


def _stable_ratio_terms(d: int, params: HardInstanceParams) -> tuple[float, float, float]:
    """(p, pbar, r) with r = (bad_mean/good_mean)^{|d|}, for overflow-free forms."""
    p, pb = params.good_fraction, params.bad_fraction
    r = (params.bad_mean / params.good_mean) ** abs(d)
    return p, pb, r


def likelihood_ratio(d: int, params: HardInstanceParams) -> float:
    """f(d): likelihood ratio of the observed score between the two mixtures.

    Evaluated with the dominant power factored out, so large |d| stays finite;
    f(d) * f(-d) = 1 exactly by symmetry of the two forms.
    """
    p, pb, r = _stable_ratio_terms(d, params)
    if d >= 0:
        return (p + pb * r) / (pb + p * r)
    return (p * r + pb) / (pb * r + p)


def conditional_good_prob(d: int, params: HardInstanceParams, instance_kind: str) -> float:
    """Posterior probability the arm is good given score d, under either mixture."""
    if instance_kind not in KINDS:
        raise ValueError(f"instance_kind must be one of {KINDS}, got {instance_kind!r}")
    p, pb, r = _stable_ratio_terms(d, params)
    prior, other = (p, pb) if instance_kind == "good" else (pb, p)
    if d >= 0:
        return prior / (prior + other * r)
    return prior * r / (prior * r + other)


def expected_next_likelihood_ratio(d: int, params: HardInstanceParams, instance_kind: str) -> float:
    """E[f(d') | score d] after one more pull of the arm under either mixture."""
    pg = conditional_good_prob(d, params, instance_kind)
    p_one = params.good_mean * pg + params.bad_mean * (1.0 - pg)
    return p_one * likelihood_ratio(d + 1, params) + (1.0 - p_one) * likelihood_ratio(d - 1, params)


@dataclass
class DriftReport:
    """Grid verification of the martingale identity and the drift bound."""

    rows: list[tuple[float, float, int, float]]
    max_ratio: float
    argmax: tuple[float, float, int]
    martingale_max_error: float
    passed: bool
    failures: list[tuple[float, float, int, float]]

    def format_table(self, max_rows: int = 20) -> str:
        lines = [f"{'eps':>6} {'gap':>6} {'d':>4} {'drift/(gap*eps)^2':>18}"]
        shown = sorted(self.rows, key=lambda r: -r[3])[:max_rows]
        lines += [f"{e:6.3f} {g:6.3f} {d:4d} {r:18.6f}" for e, g, d, r in shown]
        lines.append(f"max drift ratio {self.max_ratio:.6f} at eps={self.argmax[0]}, "
                     f"gap={self.argmax[1]}, d={self.argmax[2]} (limit {DRIFT_LIMIT})")
        lines.append(f"martingale max |error| {self.martingale_max_error:.3e}")
        lines.append("PASS" if self.passed else f"FAIL ({len(self.failures)} offending points)")
        return "\n".join(lines)


def verify_drift(eps_values=(0.05, 0.1, 0.2), gap_values=(0.05, 0.1, 0.2),
                 d_values=range(-20, 21)) -> DriftReport:
    """Check, over the parameter grid, that the one-step statistic is an exact
    martingale under the low-fraction mixture and drifts upward by at most
    ``DRIFT_LIMIT * (gap * eps)^2`` under the high-fraction mixture.  An
    empty grid is an error: it would check nothing and pass."""
    rows = []
    failures = []
    max_ratio = -math.inf
    argmax = (math.nan, math.nan, 0)
    mart_err = 0.0
    for e in map(float, eps_values):
        for g in map(float, gap_values):
            params = HardInstanceParams(e, g)
            for d in map(int, d_values):
                f_d = likelihood_ratio(d, params)
                mart_err = max(mart_err, abs(expected_next_likelihood_ratio(d, params, "bad") - f_d))
                ratio = (expected_next_likelihood_ratio(d, params, "good") - f_d) / (g * e) ** 2
                rows.append((e, g, d, ratio))
                if ratio > max_ratio:
                    max_ratio, argmax = ratio, (e, g, d)
                if not -1e-9 <= ratio <= DRIFT_LIMIT:
                    failures.append((e, g, d, ratio))
    if not rows:
        raise ValueError("verify_drift: the eps, gap and d grids must all be nonempty")
    passed = not failures and mart_err < MARTINGALE_TOL
    return DriftReport(rows, max_ratio, argmax, mart_err, passed, failures)
