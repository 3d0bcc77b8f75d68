"""Walk through one run of the two-step max-quantile group identification.

Builds a three-group instance with discrete reservoirs, requests arms, runs
the elimination subroutine, and reports what the oracle thinks of the answer.
The two-step run is ``run_multistep`` with a one-epoch schedule.

Run:
    python demos/01_two_step_identification.py
"""

import numpy as np

from quantile_bandits import (
    BanditInstance,
    DiscreteReservoir,
    RewardFamily,
    plan_epochs,
    relaxed_success_set,
    run_multistep,
)

instance = BanditInstance(
    groups=(
        ("wide", DiscreteReservoir.from_atoms(((0.2, 0.25), (0.4, 0.25), (0.6, 0.25), (0.8, 0.25)))),
        ("narrow", DiscreteReservoir.from_atoms(((0.45, 0.5), (0.55, 0.5)))),
        ("weak", DiscreteReservoir.from_atoms(((0.1, 0.6), (0.3, 0.4)))),
    ),
    family=RewardFamily("bernoulli"),
    alpha=0.5,
    name="demo-three-group",
)

alpha, eps, gap, delta = instance.alpha, 0.15, 0.1, 0.1

print(f"instance: {instance.name}")
for gid, res in instance.groups:
    lo = res.quantile(1 - alpha - eps)
    mid = res.quantile(1 - alpha)
    hi = res.quantile(1 - alpha + eps)
    print(f"  {gid:>7}: median {mid:.2f}, quantile band [{lo:.2f}, {hi:.2f}]")

winners = relaxed_success_set(instance, eps, gap)
plans = plan_epochs(instance, (eps,), (gap,), delta)
n_per = plans[0].arms_per_group
print(f"\nacceptable answers at (eps={eps}, gap={gap}): {sorted(winners)}")
print(f"arms requested per group: {n_per}")

for seed in range(3):
    trial = run_multistep(instance, plans, np.random.default_rng(seed), oracle_checks=True)
    verdict = "correct" if trial.success else "WRONG"
    print(f"\nseed {seed}: chose {trial.chosen_group!r} ({verdict}) "
          f"after {trial.total_pulls} pulls in {trial.rounds} rounds")
    print(f"  sample quantiles sandwiched: {trial.event_a}; "
          f"subroutine met its finite-sample target: {trial.checks.event_b}")
    print(f"  largest hidden-index bucket: {trial.max_bucket_size} "
          f"(cap 3*eps*N = {3 * eps * n_per:.1f})")
