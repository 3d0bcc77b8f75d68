"""Grouped max-quantile infinite-arm bandit identification.

Simulation library for the problem of finding, among several groups each
holding an effectively infinite pool of arms, the group whose reservoir
distribution of arm means has the highest (1-alpha)-quantile.  Ships the
multi-step identification algorithm over a schedule of tolerances (the
two-step algorithm is its one-epoch schedule), the finite-arm
successive-elimination subroutine with anytime confidence bounds, exact
oracles and gap calculators, pull-count bound evaluators, worst-case hard
instances with a numerical verifier, and a deterministic Monte Carlo harness.

Arms are sampled through ``Reservoir.quantile_many`` on uniform hidden
indices and pulled through ``RewardEnv.pull``; ``ArmLedger`` keeps the
per-arm pull counts, reward sums and confidence bounds.
"""

from .confidence import confidence_width, invert_width
from .elimination import (ArmLedger, EliminationResult, EliminationRun, EliminationState,
                          FiniteGroup, GapProfile, RunChecks, bound_pulls_finite, gap_profile,
                          multiset_quantile, run_elimination)
from .grouped import (ReservoirGapBounds, TrialResult, check_schedule, epochs_until_elimination,
                      pull_bound_multistep, pull_bound_worst_case, quantile_sandwiched,
                      required_arm_count, reservoir_gap_bounds, run_multistep)
from .hardness import (DriftReport, HardInstanceParams, conditional_good_prob,
                       expected_next_likelihood_ratio, likelihood_ratio,
                       make_worst_case_instances, success_scale, verify_drift)
from .harness import (AggregateReport, ExperimentConfig, config_from_dict, config_from_file,
                      instance_from_dict, instance_to_dict, mix_seed, run_experiment, run_trial)
from .instances import (BanditInstance, DiscreteReservoir, PiecewiseLinearReservoir, Reservoir,
                        RewardEnv, RewardFamily, relaxed_success_set)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
