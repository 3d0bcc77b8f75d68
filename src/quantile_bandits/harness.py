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
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .grouped import (TrialResult, check_schedule, pull_bound_multistep, pull_bound_worst_case,
                      required_arm_count, run_multistep)
from .instances import BanditInstance, _check_keys, _number, _numbers, instance_from_dict

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


_CONFIG_KEYS = ("instance", "instance_file", "schedule", "eps", "delta_gap", "delta",
                "trials", "seed", "threads", "noiseless", "out_csv", "out_summary")


def config_from_dict(data: dict, base_dir: Path | None = None, path: str = "config") -> ExperimentConfig:
    """Build a config from a plain dict; validation errors carry field paths.

    Scalar ``eps``/``delta_gap`` give a one-epoch schedule; ``schedule``
    gives the epoch lists.  Unknown keys are rejected, so a misspelt field
    cannot silently fall back to its default, and so are fields that another
    field would override (``eps`` beside ``schedule``, ``instance_file``
    beside ``instance``).
    """
    _check_keys(data, _CONFIG_KEYS, path)
    if "instance_file" in data and not isinstance(data["instance_file"], str):
        raise ValueError(f"{path}.instance_file: expected a path string, "
                         f"got {data['instance_file']!r}")
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
    sched = data.get("schedule")
    if sched is not None:
        _check_keys(sched, ("eps", "delta_gap"), f"{path}.schedule")
        eps_schedule, gap_schedule = (_numbers(sched.get(key), f"{path}.schedule.{key}")
                                      for key in ("eps", "delta_gap"))
        for key in ("eps", "delta_gap"):
            if key in data:
                raise ValueError(f"{path}.{key}: not allowed beside {path}.schedule")
    else:
        for key in ("eps", "delta_gap"):
            if key not in data:
                raise ValueError(f"{path}.{key}: required when no schedule is given")
        eps_schedule, gap_schedule = ((_number(data[key], f"{path}.{key}"),)
                                      for key in ("eps", "delta_gap"))
    # only the given keys: each default lives on ExperimentConfig
    fields = {key: _number(data[key], f"{path}.{key}", kind)
              for key, kind in (("delta", float), ("trials", int), ("seed", int), ("threads", int))
              if key in data}
    if not isinstance(data.get("noiseless", False), bool):
        raise ValueError(f"{path}.noiseless: expected true or false, got {data['noiseless']!r}")
    for key in ("out_csv", "out_summary"):
        if data.get(key) is not None and not isinstance(data[key], str):
            raise ValueError(f"{path}.{key}: expected a path string, got {data[key]!r}")
    fields.update((key, data[key]) for key in ("noiseless", "out_csv", "out_summary") if key in data)
    try:
        return ExperimentConfig(inst, eps_schedule, gap_schedule, **fields)
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
        """The fields in order, "undefined" for None; JSON writes the tuple as a list."""
        return {k: "undefined" if v is None else v for k, v in asdict(self).items()}


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

    Results come back in trial-index order whatever the worker count:
    ``pool.map`` yields them in submission order, so the artifacts do not
    depend on scheduling.
    """
    start = time.perf_counter()
    indices = list(range(config.trials))
    # under fork the pool starts all its workers at the first submit: no more than trials
    workers = min(config.threads, config.trials)
    if workers > 1:
        # imported here: a one-process run, and importing the package, skip
        # loading the process pool's modules
        from concurrent.futures import ProcessPoolExecutor

        # about 32 chunks a worker: the pool hands chunks out as workers free
        # up, so the last one's run is all that one worker can idle behind
        # another; at 4 a worker that idle was a fifth of a run's wall and
        # changed from one run to the next
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(run_trial, [config] * len(indices), indices,
                                    chunksize=max(1, len(indices) // (32 * workers))))
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

