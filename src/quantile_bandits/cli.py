"""Command-line front end: run experiments, bound evaluations, and the
hard-instance verifier and generator.  A grid over tolerances is a loop over
``run``."""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .elimination import bound_pulls_finite, gap_profile
from .grouped import pull_bound_multistep, pull_bound_worst_case, request_arms, required_arm_count
from .harness import (ExperimentConfig, config_from_file, instance_to_dict, mix_seed,
                      run_experiment)
from .hardness import HardInstanceParams, make_worst_case_instances, success_scale, verify_drift


def _parse_floats(text: str) -> list[float]:
    return [float(x) for x in text.split(",") if x.strip()]


def _load_config(args) -> ExperimentConfig:
    """The config file with every given flag applied.

    Each given flag replaces its field, and ``--eps``/``--delta-gap`` each
    replace their schedule with one epoch.  A flag the subcommand lacks
    leaves the config's own value.
    """
    flags = vars(args)
    cfg = config_from_file(flags["config"])
    overrides = {key: flags[key] for key in ("trials", "seed", "threads", "delta")
                 if flags.get(key) is not None}
    for flag, field in (("eps", "eps_schedule"), ("delta_gap", "gap_schedule")):
        if flags.get(flag) is not None:
            overrides[field] = (flags[flag],)
    if flags.get("out") is not None:
        overrides["out_csv"] = str(Path(flags["out"]) / "trials.csv")
        overrides["out_summary"] = str(Path(flags["out"]) / "summary.json")
    if flags.get("alpha") is not None:
        overrides["instance"] = replace(cfg.instance, alpha=flags["alpha"])
    return replace(cfg, **overrides)


def _cmd_run(args) -> int:
    cfg = _load_config(args)
    report = run_experiment(cfg)
    print(json.dumps(report.to_dict(), indent=2))
    return 0


def _cmd_bound(args) -> int:
    """The same four lines for every schedule; the finite-arm bound scores
    trial 0's first-epoch draw, the one ``run_trial`` makes."""
    cfg = _load_config(args)
    inst = cfg.instance
    num_groups = len(inst.groups)
    counts = [required_arm_count(eps, cfg.delta, num_groups) for eps in cfg.eps_schedule]
    rng = np.random.default_rng(mix_seed(cfg.seed, 0))
    groups, _, means = request_arms(inst, list(inst.group_ids), counts[0], rng)
    profile = gap_profile(groups, means, inst.alpha, cfg.gap_schedule[0])
    finite = bound_pulls_finite(profile, means.size, cfg.delta)
    total = pull_bound_multistep(inst, cfg.eps_schedule, cfg.gap_schedule, cfg.delta)
    worst = pull_bound_worst_case(num_groups, cfg.final_eps, cfg.final_gap, cfg.delta)
    print(f"arms requested per group: {', '.join(map(str, counts))}")
    print(f"finite-arm gap bound (one sampled draw, seed {cfg.seed}): {finite:.6g}")
    print(f"grouped reservoir bound: {total:.6g}")
    print(f"worst-case bound: {worst:.6g}")
    return 0


def _cmd_verify_lb(args) -> int:
    """``verify_drift`` over the given grids; a grid not given keeps its default there."""
    grids = {}
    if args.eps is not None:
        grids["eps_values"] = _parse_floats(args.eps)
    if args.delta_gap is not None:
        grids["gap_values"] = _parse_floats(args.delta_gap)
    if args.d_range is not None:
        grids["d_values"] = range(-args.d_range, args.d_range + 1)
    report = verify_drift(**grids)
    print(report.format_table())
    return 0 if report.passed else 1


def _cmd_make_lb(args) -> int:
    params = HardInstanceParams(args.eps, args.delta_gap, args.groups)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    eps_s, gap_s = success_scale(params)
    paths = []
    for inst in make_worst_case_instances(params):
        payload = instance_to_dict(inst)
        payload["success_eps"] = eps_s
        payload["success_delta_gap"] = gap_s
        path = out_dir / f"{inst.name}.json"
        path.write_text(json.dumps(payload, indent=2) + "\n")
        paths.append(str(path))
    print("\n".join(paths))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quantile-bandits",
        description="Grouped max-quantile bandit experiments, bounds, and verifiers")
    sub = parser.add_subparsers(dest="command", required=True)

    def config_flags(p):
        """Flags read by ``_load_config``."""
        p.add_argument("--config", required=True, help="experiment config (JSON)")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--alpha", type=float, default=None)
        p.add_argument("--eps", type=float, default=None, help="quantile-level tolerance")
        p.add_argument("--delta", type=float, default=None, help="failure probability")
        p.add_argument("--delta-gap", type=float, default=None, dest="delta_gap",
                       help="quantile-value slack")

    p_run = sub.add_parser("run", help="run a Monte Carlo experiment from a config")
    config_flags(p_run)
    p_run.add_argument("--trials", type=int, default=None)
    p_run.add_argument("--out", default=None, help="output directory")
    p_run.add_argument("--threads", type=int, default=None)
    p_run.set_defaults(func=_cmd_run)

    p_bound = sub.add_parser("bound", help="evaluate the pull-count bound expressions")
    config_flags(p_bound)
    p_bound.set_defaults(func=_cmd_bound)

    p_verify = sub.add_parser("verify-lb", help="verify the score-statistic lemmas on a grid")
    p_verify.add_argument("--eps", default=None, help="comma list (default 0.05,0.1,0.2)")
    p_verify.add_argument("--delta-gap", default=None, dest="delta_gap",
                          help="comma list (default 0.05,0.1,0.2)")
    p_verify.add_argument("--d-range", type=int, default=None, dest="d_range")
    p_verify.set_defaults(func=_cmd_verify_lb)

    p_make = sub.add_parser("make-lb", help="emit the worst-case instance configs")
    p_make.add_argument("--eps", type=float, required=True)
    p_make.add_argument("--delta-gap", type=float, required=True, dest="delta_gap")
    p_make.add_argument("--groups", type=int, default=2)
    p_make.add_argument("--out", required=True, help="output directory")
    p_make.set_defaults(func=_cmd_make_lb)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
