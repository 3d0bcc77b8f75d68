"""The worst-case instance family and its score-statistic machinery.

Shows the hard Bernoulli median-identification instances, the likelihood
ratio of a single arm's score, the martingale/drift verification grid, and
how empirical pull counts blow up as either tolerance shrinks.

Run (takes ~1 minute):
    python demos/04_hard_instances.py
"""

import numpy as np

from quantile_bandits import (
    HardInstanceParams,
    likelihood_ratio,
    make_worst_case_instances,
    mix_seed,
    plan_epochs,
    relaxed_success_set,
    run_multistep,
    success_scale,
    verify_drift,
)

params = HardInstanceParams(eps=0.2, gap=0.2, num_groups=2)
bad, good = make_worst_case_instances(params)
print(f"good-arm mean {params.good_mean}, bad-arm mean {params.bad_mean}, "
      f"good fraction {params.good_fraction} vs {params.bad_fraction}")
for inst in (bad, good):
    medians = {g: inst.reservoir(g).quantile(0.5) for g in inst.group_ids}
    eps_s, gap_s = success_scale(params)
    strict = relaxed_success_set(inst, eps_s, gap_s)
    print(f"  {inst.name}: medians {medians}, strict winner {sorted(strict)}")

print("\nlikelihood ratio of one arm's score d = #ones - #zeros:")
for d in (-3, -1, 0, 1, 3):
    print(f"  f({d:+d}) = {likelihood_ratio(d, params):.4f}")

report = verify_drift()
print("\n" + report.format_table(max_rows=5))

print("\nempirical hardness trend (10 trials per setting, delta=0.05):")
for eps, gap in ((0.2, 0.2), (0.1, 0.2), (0.2, 0.1)):
    inst = make_worst_case_instances(HardInstanceParams(eps, gap))[1]
    plans = plan_epochs(inst, (eps,), (gap,), 0.05)
    pulls = []
    for i in range(10):
        tr = run_multistep(inst, plans, np.random.default_rng(mix_seed(17, i)))
        pulls.append(tr.total_pulls)
    print(f"  eps={eps}, gap={gap}: mean pulls {np.mean(pulls):>12,.0f}")
