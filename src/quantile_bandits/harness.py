"""Reproducible Monte Carlo experiment runner.

Each trial draws its random stream from a child seed mixed deterministically
out of (master seed, trial index) with a splitmix64 step, so results are
byte-identical regardless of worker count or scheduling order.
"""

from __future__ import annotations

import csv
import json
import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .grouped import (TrialResult, check_schedule, pull_bound_multistep, pull_bound_worst_case,
                      required_arm_count, run_multistep)
from .instances import BanditInstance, instance_from_dict

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

CSV_COLUMNS = ("trial", "instance_id", "chosen_group", "success", "total_pulls",
               "rounds", "event_a", "max_bucket_size")


def mix_seed(master_seed: int, trial_index: int) -> int:
    """splitmix64 finalizer applied to master_seed + (trial_index+1)*golden."""
    z = (master_seed + (trial_index + 1) * _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything needed to reproduce one experiment byte-for-byte.

    ``eps_schedule`` and ``gap_schedule`` list each epoch's tolerances, with
    ``delta`` the shared failure budget; a two-step run is the schedule of
    length one.
    """

    instance: BanditInstance
    eps_schedule: tuple[float, ...]
    gap_schedule: tuple[float, ...]
    delta: float = 0.1
    trials: int = 100
    seed: int = 0
    noiseless: bool = False
    threads: int = 1
    out_csv: str | None = None
    out_summary: str | None = None

    def __post_init__(self) -> None:
        if self.trials < 0:
            raise ValueError(f"trials must be nonnegative, got {self.trials}")
        if self.threads < 1:
            raise ValueError(f"threads must be at least 1, got {self.threads}")
        # validate tolerances eagerly so bad configs fail before any work
        check_schedule(self.instance.alpha, self.eps_schedule, self.gap_schedule, self.delta)

    @property
    def final_eps(self) -> float:
        return self.eps_schedule[-1]

    @property
    def final_gap(self) -> float:
        return self.gap_schedule[-1]


def _number(value, field: str, kind=float):
    """``kind(value)``; a value that does not convert, a boolean, or a
    non-integral number for an integer field names its field."""
    expected = "an integer" if kind is int else "a number"
    if isinstance(value, bool) or (kind is int and isinstance(value, float)
                                   and not value.is_integer()):
        raise ValueError(f"{field}: expected {expected}, got {value!r}")
    try:
        return kind(value)
    except (TypeError, ValueError):
        raise ValueError(f"{field}: expected {expected}, got {value!r}") from None


def _numbers(values, field: str) -> tuple[float, ...]:
    if not isinstance(values, list) or not values:
        raise ValueError(f"{field}: expected a nonempty list of numbers, got {values!r}")
    return tuple(_number(v, f"{field}[{i}]") for i, v in enumerate(values))


_CONFIG_KEYS = ("instance", "instance_file", "alpha", "schedule", "eps", "delta_gap", "delta",
                "trials", "seed", "threads", "noiseless", "out_csv", "out_summary")


def config_from_dict(data: dict, base_dir: Path | None = None, path: str = "config") -> ExperimentConfig:
    """Build a config from a plain dict; validation errors carry field paths.

    Scalar ``eps``/``delta_gap`` give a one-epoch schedule; ``schedule``
    gives the epoch lists.  Unknown keys are rejected, so a misspelt field
    cannot silently fall back to its default, and so are fields that another
    field would override (``eps`` beside ``schedule``, ``instance_file``
    beside ``instance``).
    """
    if not isinstance(data, dict):
        raise ValueError(f"{path}: expected an object")
    for key in data:
        if key not in _CONFIG_KEYS:
            raise ValueError(f"{path}.{key}: unknown field")
    if "instance" in data and "instance_file" in data:
        raise ValueError(f"{path}.instance_file: not allowed beside {path}.instance")
    if "instance" in data:
        inst = instance_from_dict(data["instance"], path=f"{path}.instance")
    elif "instance_file" in data:
        ref = Path(data["instance_file"])
        if base_dir is not None and not ref.is_absolute():
            ref = base_dir / ref
        if not ref.exists():
            raise ValueError(f"{path}.instance_file: no such file: {ref}")
        inst = instance_from_dict(json.loads(ref.read_text()), path=f"{path}.instance_file")
    else:
        raise ValueError(f"{path}.instance: required (inline object or instance_file)")
    if "alpha" in data:
        alpha = _number(data["alpha"], f"{path}.alpha")
        try:
            inst = BanditInstance(inst.groups, inst.family, alpha, inst.name)
        except ValueError as exc:
            raise ValueError(f"{path}.alpha: {exc}") from None
    sched = data.get("schedule")
    if sched is not None:
        if not isinstance(sched, dict):
            raise ValueError(
                f"{path}.schedule: expected an object with 'eps' and 'delta_gap' lists")
        eps_schedule = _numbers(sched.get("eps"), f"{path}.schedule.eps")
        gap_schedule = _numbers(sched.get("delta_gap"), f"{path}.schedule.delta_gap")
        for key in ("eps", "delta_gap"):
            if key in data:
                raise ValueError(f"{path}.{key}: not allowed beside {path}.schedule")
    else:
        for key in ("eps", "delta_gap"):
            if key not in data:
                raise ValueError(f"{path}.{key}: required when no schedule is given")
        eps_schedule = (_number(data["eps"], f"{path}.eps"),)
        gap_schedule = (_number(data["delta_gap"], f"{path}.delta_gap"),)
    numbers = {key: _number(data.get(key, default), f"{path}.{key}", kind)
               for key, default, kind in (("delta", 0.1, float), ("trials", 100, int),
                                          ("seed", 0, int), ("threads", 1, int))}
    noiseless = data.get("noiseless", False)
    if not isinstance(noiseless, bool):
        raise ValueError(f"{path}.noiseless: expected true or false, got {noiseless!r}")
    for key in ("out_csv", "out_summary"):
        if data.get(key) is not None and not isinstance(data[key], str):
            raise ValueError(f"{path}.{key}: expected a path string, got {data[key]!r}")
    try:
        return ExperimentConfig(
            instance=inst, eps_schedule=eps_schedule, gap_schedule=gap_schedule,
            noiseless=noiseless,
            out_csv=data.get("out_csv"),
            out_summary=data.get("out_summary"),
            **numbers,
        )
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def config_from_file(path: str | Path) -> ExperimentConfig:
    p = Path(path)
    if not p.exists():
        raise FileNotFoundError(f"config file not found: {p}")
    return config_from_dict(json.loads(p.read_text()), base_dir=p.parent)


def run_trial(config: ExperimentConfig, trial_index: int) -> TrialResult:
    """Run one trial on its own deterministic child stream."""
    rng = np.random.default_rng(mix_seed(config.seed, trial_index))
    return run_multistep(config.instance, config.eps_schedule, config.gap_schedule,
                         config.delta, rng, noiseless=config.noiseless)


@dataclass
class AggregateReport:
    """Summary of an experiment; rates are None when there were no trials."""

    trials: int
    success_rate: float | None
    success_ci_3sigma: tuple[float, float] | None
    mean_pulls: float | None
    median_pulls: float | None
    max_pulls: int | None
    event_a_rate: float | None
    partition_bound_rate: float | None
    bound_grouped: float
    bound_worst_case: float
    wall_clock_s: float

    def to_dict(self) -> dict:
        return {
            "trials": self.trials,
            "success_rate": self.success_rate if self.success_rate is not None else "undefined",
            "success_ci_3sigma": list(self.success_ci_3sigma) if self.success_ci_3sigma else "undefined",
            "mean_pulls": self.mean_pulls if self.mean_pulls is not None else "undefined",
            "median_pulls": self.median_pulls if self.median_pulls is not None else "undefined",
            "max_pulls": self.max_pulls if self.max_pulls is not None else "undefined",
            "event_a_rate": self.event_a_rate if self.event_a_rate is not None else "undefined",
            "partition_bound_rate": self.partition_bound_rate if self.partition_bound_rate is not None else "undefined",
            "bound_grouped": self.bound_grouped,
            "bound_worst_case": self.bound_worst_case,
            "wall_clock_s": self.wall_clock_s,
        }


def _write_csv(path: str, results: list[TrialResult]) -> None:
    """Write the trial rows; ids holding commas or quotes are quoted."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        writer.writerows((i, r.instance_id, r.chosen_group, int(r.success), r.total_pulls,
                          r.rounds, int(r.event_a), r.max_bucket_size)
                         for i, r in enumerate(results))


def run_experiment(config: ExperimentConfig) -> AggregateReport:
    """Run all trials (optionally across processes), write CSV and summary.

    Results are collected in any order and sorted by trial index before
    writing, so the artifacts do not depend on scheduling.
    """
    start = time.perf_counter()
    indices = list(range(config.trials))
    if config.threads > 1 and config.trials > 1:
        with ProcessPoolExecutor(max_workers=config.threads) as pool:
            results = list(pool.map(run_trial, [config] * len(indices), indices,
                                    chunksize=max(1, len(indices) // (4 * config.threads))))
    else:
        results = [run_trial(config, i) for i in indices]

    num_groups = len(config.instance.groups)
    bound = pull_bound_multistep(config.instance, config.eps_schedule, config.gap_schedule,
                                 config.delta)
    worst = pull_bound_worst_case(num_groups, config.final_eps, config.final_gap, config.delta)

    if results:
        pulls = [r.total_pulls for r in results]
        rate = sum(r.success for r in results) / len(results)
        half = 3.0 * math.sqrt(max(rate * (1.0 - rate), 1e-12) / len(results))
        ci = (max(rate - half, 0.0), min(rate + half, 1.0))
        n_cap = required_arm_count(config.final_eps, config.delta, num_groups)
        part_rate = sum(r.max_bucket_size <= 3.0 * config.final_eps * n_cap for r in results) / len(results)
        report = AggregateReport(
            trials=len(results), success_rate=rate, success_ci_3sigma=ci,
            mean_pulls=float(np.mean(pulls)), median_pulls=float(np.median(pulls)),
            max_pulls=int(max(pulls)),
            event_a_rate=sum(r.event_a for r in results) / len(results),
            partition_bound_rate=part_rate,
            bound_grouped=bound, bound_worst_case=worst,
            wall_clock_s=time.perf_counter() - start,
        )
    else:
        report = AggregateReport(0, None, None, None, None, None, None, None,
                                 bound, worst, time.perf_counter() - start)

    if config.out_csv:
        Path(config.out_csv).parent.mkdir(parents=True, exist_ok=True)
        _write_csv(config.out_csv, results)
    if config.out_summary:
        Path(config.out_summary).parent.mkdir(parents=True, exist_ok=True)
        Path(config.out_summary).write_text(json.dumps(report.to_dict(), indent=2) + "\n")
    return report

