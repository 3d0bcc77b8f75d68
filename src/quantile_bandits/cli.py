"""Command-line front end: run experiments, sweeps, bound evaluations, and the
hard-instance verifier."""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .elimination import bound_pulls_finite, gap_profile
from .grouped import (_sample_finite_groups, pull_bound_multistep, pull_bound_worst_case,
                      required_arm_count)
from .harness import ExperimentConfig, config_from_file, mix_seed, run_experiment
from .hardness import HardInstanceParams, make_worst_case_instances, success_scale, verify_drift
from .instances import instance_to_dict


def _parse_floats(text: str) -> list[float]:
    return [float(x) for x in text.split(",") if x.strip()]


def _load_config(args) -> ExperimentConfig:
    cfg = config_from_file(args.config)
    overrides = {key: getattr(args, key) for key in ("trials", "seed", "threads", "delta")
                 if getattr(args, key, None) is not None}
    if getattr(args, "eps", None) is not None:
        overrides["eps_schedule"] = (args.eps,)
    if getattr(args, "delta_gap", None) is not None:
        overrides["gap_schedule"] = (args.delta_gap,)
    if args.noiseless:
        overrides["noiseless"] = True
    if args.out:
        overrides["out_csv"] = str(Path(args.out) / "trials.csv")
        overrides["out_summary"] = str(Path(args.out) / "summary.json")
    if args.alpha is not None:
        overrides["instance"] = replace(cfg.instance, alpha=args.alpha)
    return replace(cfg, **overrides)


def _cmd_run(args) -> int:
    cfg = _load_config(args)
    report = run_experiment(cfg)
    print(json.dumps(report.to_dict(), indent=2))
    return 0


def _cmd_sweep(args) -> int:
    base = _load_config(args)
    eps_grid = _parse_floats(args.eps_grid) if args.eps_grid else [base.final_eps]
    gap_grid = _parse_floats(args.gap_grid) if args.gap_grid else [base.final_gap]
    delta_grid = _parse_floats(args.delta_grid) if args.delta_grid else [base.delta]
    out_dir = Path(args.out) if args.out else None
    if out_dir:
        out_dir.mkdir(parents=True, exist_ok=True)
    rows = ["eps,delta_gap,delta,trials,success_rate,mean_pulls,median_pulls,event_a_rate"]
    for eps in eps_grid:
        for gap in gap_grid:
            for delta in delta_grid:
                tag = f"eps{eps:g}_gap{gap:g}_delta{delta:g}"
                cfg = replace(base, eps_schedule=(eps,), gap_schedule=(gap,), delta=delta,
                              out_csv=str(out_dir / f"trials_{tag}.csv") if out_dir else None,
                              out_summary=str(out_dir / f"summary_{tag}.json") if out_dir else None)
                rep = run_experiment(cfg)
                if rep.trials:
                    rows.append(f"{eps:g},{gap:g},{delta:g},{rep.trials},"
                                f"{rep.success_rate:.6f},{rep.mean_pulls:.3f},"
                                f"{rep.median_pulls:.3f},{rep.event_a_rate:.6f}")
                else:
                    rows.append(f"{eps:g},{gap:g},{delta:g},0,nan,nan,nan,nan")
                print(rows[-1])
    if out_dir:
        (out_dir / "sweep.csv").write_text("\n".join(rows) + "\n")
    return 0


def _cmd_bound(args) -> int:
    cfg = _load_config(args)
    inst = cfg.instance
    num_groups = len(inst.groups)
    total = pull_bound_multistep(inst, cfg.eps_schedule, cfg.gap_schedule, cfg.delta)
    worst = pull_bound_worst_case(num_groups, cfg.final_eps, cfg.final_gap, cfg.delta)
    if len(cfg.eps_schedule) > 1:
        print(f"multi-step schedule bound: {total:.6g}")
        print(f"worst-case bound at final tolerances: {worst:.6g}")
        return 0
    n_per = required_arm_count(cfg.final_eps, cfg.delta, num_groups)
    rng = np.random.default_rng(mix_seed(cfg.seed, 0))
    groups, _, means = _sample_finite_groups(inst, list(inst.group_ids), n_per, rng)
    profile = gap_profile(groups, means, inst.alpha, cfg.final_gap)
    finite = bound_pulls_finite(profile, means.size, cfg.delta)
    print(f"arms requested per group: {n_per}")
    print(f"finite-arm gap bound (one sampled draw, seed {cfg.seed}): {finite:.6g}")
    print(f"grouped reservoir bound: {total:.6g}")
    print(f"worst-case bound: {worst:.6g}")
    return 0


def _cmd_verify_lb(args) -> int:
    eps_values = _parse_floats(args.eps) if args.eps else [0.05, 0.1, 0.2]
    gap_values = _parse_floats(args.delta_gap) if args.delta_gap else [0.05, 0.1, 0.2]
    report = verify_drift(eps_values, gap_values,
                          d_values=range(-args.d_range, args.d_range + 1),
                          ratio_limit=args.drift_limit)
    print(report.format_table())
    return 0 if report.passed else 1


def _cmd_make_lb(args) -> int:
    params = HardInstanceParams(args.eps, args.delta_gap, args.groups)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    eps_s, gap_s = success_scale(params, args.scale)
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

    def common(p):
        p.add_argument("--config", required=True, help="experiment config (JSON)")
        p.add_argument("--trials", type=int, default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--alpha", type=float, default=None)
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--threads", type=int, default=None)
        p.add_argument("--noiseless", action="store_true")

    p_run = sub.add_parser("run", help="run a Monte Carlo experiment from a config")
    common(p_run)
    p_run.add_argument("--eps", type=float, default=None)
    p_run.add_argument("--delta", type=float, default=None, help="failure probability")
    p_run.add_argument("--delta-gap", type=float, default=None, dest="delta_gap",
                       help="quantile-value slack")
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="grid over eps, delta-gap, delta")
    common(p_sweep)
    # grid flags get their own dests so _load_config does not read them as overrides
    p_sweep.add_argument("--eps", default=None, dest="eps_grid", help="comma list")
    p_sweep.add_argument("--delta", default=None, dest="delta_grid",
                         help="comma list of failure probabilities")
    p_sweep.add_argument("--delta-gap", default=None, dest="gap_grid", help="comma list")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_bound = sub.add_parser("bound", help="evaluate the pull-count bound expressions")
    common(p_bound)
    p_bound.add_argument("--eps", type=float, default=None)
    p_bound.add_argument("--delta", type=float, default=None, help="failure probability")
    p_bound.add_argument("--delta-gap", type=float, default=None, dest="delta_gap")
    p_bound.set_defaults(func=_cmd_bound)

    p_verify = sub.add_parser("verify-lb", help="verify the score-statistic lemmas on a grid")
    p_verify.add_argument("--eps", default=None, help="comma list (default 0.05,0.1,0.2)")
    p_verify.add_argument("--delta-gap", default=None, dest="delta_gap",
                          help="comma list (default 0.05,0.1,0.2)")
    p_verify.add_argument("--d-range", type=int, default=20, dest="d_range")
    p_verify.add_argument("--drift-limit", type=float, default=16.0, dest="drift_limit")
    p_verify.set_defaults(func=_cmd_verify_lb)

    p_make = sub.add_parser("make-lb", help="emit the worst-case instance configs")
    p_make.add_argument("--eps", type=float, required=True)
    p_make.add_argument("--delta-gap", type=float, required=True, dest="delta_gap")
    p_make.add_argument("--groups", type=int, default=2)
    p_make.add_argument("--scale", type=float, default=4.0,
                        help="tolerance shrink factor for the success oracle")
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
    except (ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
