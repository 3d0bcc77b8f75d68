"""Why a schedule of shrinking tolerances can save pulls.

A clearly bad group can be ruled out from a coarse sample; only the close
race needs the fine (expensive) tolerance.  The multi-step runner requests
cheap coarse samples first and permanently drops eliminated groups, so the
far group never sees the fine epoch.

Run (takes ~1 minute):
    python demos/03_multistep_schedules.py
"""

import numpy as np

from quantile_bandits import (
    BanditInstance,
    DiscreteReservoir,
    RewardFamily,
    epochs_until_elimination,
    mix_seed,
    plan_epochs,
    pull_bound_multistep,
    run_multistep,
)

instance = BanditInstance(
    groups=(
        ("best", DiscreteReservoir.point_mass(0.7)),
        ("near", DiscreteReservoir.point_mass(0.55)),
        ("far", DiscreteReservoir.point_mass(0.2)),
    ),
    family=RewardFamily("bernoulli"),
    alpha=0.5,
    name="one-far-group",
)

# every epoch requests arms for all three groups, so the single-tolerance
# run is the schedule's last plan
plans = plan_epochs(instance, (0.2, 0.1, 0.05), (0.2, 0.1, 0.05), 0.04)
kmax = epochs_until_elimination(instance, plans)
print("predicted elimination epoch per group:", kmax)

trials = 5
multi_pulls, single_pulls = [], []
for i in range(trials):
    tr = run_multistep(instance, plans, np.random.default_rng(mix_seed(3, i)))
    multi_pulls.append(tr.total_pulls)
    print(f"trial {i}: multi-step chose {tr.chosen_group!r}, "
          f"epoch pulls {tr.epoch_pulls} (ran {len(tr.epoch_pulls)} of {len(plans)} epochs)")
for i in range(trials):
    tr = run_multistep(instance, plans[-1:], np.random.default_rng(mix_seed(3, 1000 + i)))
    single_pulls.append(tr.total_pulls)

print(f"\nmean pulls, multi-step : {np.mean(multi_pulls):,.0f}")
print(f"mean pulls, single-step: {np.mean(single_pulls):,.0f}")

bound_multi = pull_bound_multistep(instance, plans)
bound_single = pull_bound_multistep(instance, plans[-1:])
print(f"\nschedule-aware pull bound: {bound_multi:,.0f}")
print(f"single-tolerance pull bound: {bound_single:,.0f}")
