"""Dissect the finite-arm elimination loop on a noiseless example.

With noiseless rewards the empirical means equal the true means, so every
candidate/arm elimination happens at an exactly predictable round: an arm
leaves once the shared confidence width drops below half its distance to the
group quantile, and a group leaves once the width drops below half the
quantile gap.

Run:
    python demos/02_elimination_anatomy.py
"""

import numpy as np

from quantile_bandits import (
    FiniteGroup,
    RewardEnv,
    RewardFamily,
    gap_profile,
    invert_width,
    run_elimination,
)

means = np.array([0.2, 0.4, 0.6, 0.8, 0.1, 0.3, 0.5, 0.7])
groups = [FiniteGroup("A", (0, 1, 2, 3)), FiniteGroup("B", (4, 5, 6, 7))]
alpha, slack, delta = 0.5, 0.01, 0.1
per_arm_budget = delta / means.size

profile = gap_profile(groups, means, alpha, slack)
print("group medians:", {g: f"{q:.2f}" for g, q in profile.group_quantiles.items()})
print("per-arm overall gaps:", np.round(profile.overall, 2).tolist())

print("\npredicted departure rounds (width < distance from quantile / 2):")
# an arm at the quantile (distance 0) never leaves on its own
leaves = profile.arm_gaps > 0
pred = np.zeros(means.size, dtype=np.int64)
pred[leaves] = invert_width(profile.arm_gaps[leaves] / 2, per_arm_budget)
for arm, mu in enumerate(means):
    print(f"  arm {arm} (mean {mu:.1f}): "
          f"{f'round {pred[arm]}' if leaves[arm] else 'stays to the end'}")
print(f"group B leaves at round {invert_width(0.05, per_arm_budget)} "
       "(width < quantile gap 0.1 / 2)")

env = RewardEnv(means, RewardFamily("noiseless"), np.random.default_rng(0))
result = run_elimination(groups, alpha, slack, delta, env, true_means=means)

print(f"\nchose {result.chosen!r} after {result.rounds} rounds, "
      f"{result.total_pulls} total pulls")
print("observed per-arm pull counts:", result.pull_counts.tolist())
print(f"every active arm pulled in lockstep: {result.checks.equal_pull_ok}")
print(f"cheap 2*width spread shortcut agreed every round: {result.checks.shortcut_consistent}")
print(f"no arm outlived its gap threshold: {result.checks.stop_pull_violations == 0}")
