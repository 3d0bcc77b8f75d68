"""Reproducible Monte Carlo experiment runner, and the one reader and writer
of the package's files: experiment configs, instance JSON (inline, in an
``instance_file`` or written by ``make-lb``), ``trials.csv`` and ``summary.json``.

Each trial draws its random stream from a child seed mixed deterministically
out of (master seed, trial index) with a splitmix64 step, so results are
byte-identical regardless of worker count or scheduling order.
"""

from __future__ import annotations

import csv
import json
import math
import os
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .bounds import pull_bound_multistep, pull_bound_worst_case
from .grouped import EpochPlan, TrialResult, plan_epochs, run_multistep
from .instances import (BanditInstance, DiscreteReservoir, PiecewiseLinearReservoir, Reservoir,
                        RewardFamily)

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
    length one.  ``plans`` holds their :func:`plan_epochs`, built at
    construction, so ``dataclasses.replace`` builds new plans.
    """

    instance: BanditInstance
    eps_schedule: tuple[float, ...]
    gap_schedule: tuple[float, ...]
    delta: float = 0.1
    trials: int = 100
    seed: int = 0
    threads: int = 1
    out_csv: str | None = None
    out_summary: str | None = None
    plans: tuple[EpochPlan, ...] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.trials < 0:
            raise ValueError(f"trials must be nonnegative, got {self.trials}")
        if self.threads < 1:
            raise ValueError(f"threads must be at least 1, got {self.threads}")
        # validate tolerances eagerly so bad configs fail before any work
        object.__setattr__(self, "plans", plan_epochs(self.instance, self.eps_schedule,
                                                      self.gap_schedule, self.delta))

    @property
    def final_eps(self) -> float:
        return self.eps_schedule[-1]

    @property
    def final_gap(self) -> float:
        return self.gap_schedule[-1]


def _check_keys(data, allowed: tuple[str, ...], path: str) -> None:
    """Reject a non-object and, so no misspelling falls back to a default, unknown keys."""
    if not isinstance(data, dict):
        raise ValueError(f"{path}: expected an object")
    for key in data:
        if key not in allowed:
            raise ValueError(f"{path}.{key}: unknown field")


def _number(value, field: str, kind=float):
    """``kind(value)`` of a finite JSON number; anything else (a string, a
    boolean, null, a list, NaN or an infinity) or a non-integral number for an
    integer field names its field."""
    expected = "an integer" if kind is int else "a number"
    if (not isinstance(value, (int, float)) or isinstance(value, bool)
            or (kind is int and isinstance(value, float) and not value.is_integer())):
        raise ValueError(f"{field}: expected {expected}, got {value!r}")
    if isinstance(value, float) and not math.isfinite(value):
        raise ValueError(f"{field}: expected a finite number, got {value!r}")
    try:
        return kind(value)
    except OverflowError:  # an integer too large for a float
        raise ValueError(f"{field}: expected {expected}, got {value!r}") from None


def _string(value, field: str) -> str:
    if not isinstance(value, str):
        raise ValueError(f"{field}: expected a string, got {value!r}")
    return value


def _numbers(values, field: str, size: int | None = None) -> tuple[float, ...]:
    if not isinstance(values, list) or not values or len(values) != (size or len(values)):
        what = f"{size} numbers" if size else "a nonempty list of numbers"
        raise ValueError(f"{field}: expected {what}, got {values!r}")
    return tuple(_number(v, f"{field}[{i}]") for i, v in enumerate(values))


# make-lb writes the success_* tolerances beside the instance; loading ignores them
_INSTANCE_KEYS = ("name", "alpha", "family", "groups", "success_eps", "success_delta_gap")


def _reservoir_from_dict(g: dict, path: str) -> Reservoir:
    """One group's reservoir, from exactly one of ``atoms`` and ``cdf``."""
    if ("atoms" in g) == ("cdf" in g):
        raise ValueError(f"{path}: needs exactly one of 'atoms' and 'cdf'")
    if "atoms" in g:
        atoms = g["atoms"]
        if not isinstance(atoms, list) or not atoms:
            raise ValueError(f"{path}.atoms: expected a nonempty list of [mean, mass] pairs")
        cls = DiscreteReservoir
        fields = zip(*(_numbers(pair, f"{path}.atoms[{k}]", 2) for k, pair in enumerate(atoms)))
    else:
        _check_keys(g["cdf"], ("x", "p"), f"{path}.cdf")
        cls = PiecewiseLinearReservoir
        fields = [_numbers(g["cdf"].get(key), f"{path}.cdf.{key}") for key in ("x", "p")]
    try:
        return cls(*fields)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def instance_from_dict(data: dict, path: str = "instance") -> BanditInstance:
    """Build an instance from a plain-dict config; errors carry field paths.
    Numbers read as config numbers do, and unknown keys are rejected."""
    _check_keys(data, _INSTANCE_KEYS, path)
    fam = data.get("family", {"kind": "bernoulli"})
    _check_keys(fam, ("kind", "sigma2"), f"{path}.family")
    kind = fam.get("kind")
    sigma2 = _number(fam["sigma2"], f"{path}.family.sigma2") if "sigma2" in fam else None
    try:
        family = RewardFamily(kind, sigma2)
    except ValueError as exc:  # with a known kind, sigma2 is at fault
        field = f"{path}.family.sigma2" if kind in RewardFamily.KINDS else f"{path}.family"
        raise ValueError(f"{field}: {exc}") from None
    if "alpha" not in data:
        raise ValueError(f"{path}.alpha: required")
    alpha = _number(data["alpha"], f"{path}.alpha")
    raw_groups = data.get("groups")
    if not isinstance(raw_groups, list) or not raw_groups:
        raise ValueError(f"{path}.groups: expected a nonempty list")
    groups: list[tuple[str, Reservoir]] = []
    for i, g in enumerate(raw_groups):
        gpath = f"{path}.groups[{i}]"
        _check_keys(g, ("id", "atoms", "cdf"), gpath)
        if "id" not in g:
            raise ValueError(f"{gpath}.id: required")
        groups.append((_string(g["id"], f"{gpath}.id"), _reservoir_from_dict(g, gpath)))
    name = _string(data.get("name", "instance"), f"{path}.name")
    try:
        return BanditInstance(tuple(groups), family, alpha, name)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def instance_to_dict(instance: BanditInstance) -> dict:
    groups = []
    for gid, res in instance.groups:
        if isinstance(res, DiscreteReservoir):
            groups.append({"id": gid, "atoms": [[m, w] for m, w in zip(res.means, res.masses)]})
        elif isinstance(res, PiecewiseLinearReservoir):
            groups.append({"id": gid, "cdf": {"x": list(res.xs), "p": list(res.ps)}})
        else:
            raise TypeError(f"cannot serialize reservoir type {type(res).__name__}")
    fam: dict = {"kind": instance.family.kind}
    if instance.family.kind == "gaussian":
        fam["sigma2"] = instance.family.sigma2
    return {"name": instance.name, "alpha": instance.alpha, "family": fam, "groups": groups}


_CONFIG_KEYS = ("instance", "instance_file", "eps", "delta_gap", "delta", "trials", "seed",
                "threads", "out_csv", "out_summary")


def config_from_dict(data: dict, base_dir: Path | None = None) -> ExperimentConfig:
    """Build a config from a plain dict; validation errors carry field paths.

    ``eps`` and ``delta_gap`` each take a number (one epoch) or a list (one
    value per epoch).  Unknown keys are rejected, so a misspelt field cannot
    silently fall back to its default, and so is ``instance_file`` beside
    ``instance``, which would override it.
    """
    _check_keys(data, _CONFIG_KEYS, "config")
    if "instance_file" in data and not isinstance(data["instance_file"], str):
        raise ValueError("config.instance_file: expected a path string, "
                         f"got {data['instance_file']!r}")
    if "instance" in data and "instance_file" in data:
        raise ValueError("config.instance_file: not allowed beside config.instance")
    if "instance" in data:
        inst = instance_from_dict(data["instance"], path="config.instance")
    elif "instance_file" in data:
        ref = Path(data["instance_file"])
        if base_dir is not None and not ref.is_absolute():
            ref = base_dir / ref
        if not ref.is_file():
            raise ValueError(f"config.instance_file: no such file: {ref}")
        inst = instance_from_dict(json.loads(ref.read_text()), path="config.instance_file")
    else:
        raise ValueError("config.instance: required (inline object or instance_file)")
    for key in ("eps", "delta_gap"):
        if key not in data:
            raise ValueError(f"config.{key}: required")
    eps_schedule, gap_schedule = (
        _numbers(data[key], f"config.{key}") if isinstance(data[key], list)
        else (_number(data[key], f"config.{key}"),) for key in ("eps", "delta_gap"))
    # only the given keys: each default lives on ExperimentConfig
    fields = {key: _number(data[key], f"config.{key}", kind)
              for key, kind in (("delta", float), ("trials", int), ("seed", int), ("threads", int))
              if key in data}
    for key in ("out_csv", "out_summary"):
        if data.get(key) is not None and not isinstance(data[key], str):
            raise ValueError(f"config.{key}: expected a path string, got {data[key]!r}")
    fields.update((key, data[key]) for key in ("out_csv", "out_summary") if key in data)
    try:
        return ExperimentConfig(inst, eps_schedule, gap_schedule, **fields)
    except ValueError as exc:
        raise ValueError(f"config: {exc}") from None


def config_from_file(path: str | Path) -> ExperimentConfig:
    p = Path(path)
    if not p.is_file():
        raise FileNotFoundError(f"config file not found: {p}")
    return config_from_dict(json.loads(p.read_text()), base_dir=p.parent)


def run_trial(config: ExperimentConfig, trial_index: int) -> TrialResult:
    """Run one trial on its own deterministic child stream; the instance's
    reward family, noiseless included, decides how rewards are drawn."""
    rng = np.random.default_rng(mix_seed(config.seed, trial_index))
    return run_multistep(config.instance, config.plans, rng)


@dataclass
class AggregateReport:
    """Summary of an experiment; rates are None when there were no trials."""

    trials: int
    success_rate: float | None
    success_ci_wilson3: tuple[float, float] | None
    mean_pulls: float | None
    median_pulls: float | None
    max_pulls: int | None
    event_a_rate: float | None
    event_a_ci_wilson3: tuple[float, float] | None
    partition_bound_rate: float | None
    partition_bound_ci_wilson3: tuple[float, float] | None
    bound_grouped: float
    bound_worst_case: float
    wall_clock_s: float

    def to_dict(self) -> dict:
        """The fields in order, "undefined" for None; JSON writes the tuple as a list."""
        return {k: "undefined" if v is None else v for k, v in asdict(self).items()}


def _wilson3(hits: int, n: int) -> tuple[float, float]:
    """Wilson score interval at z = 3 of ``hits`` in ``n`` trials, in counts:
    it ends at exactly 0 or 1."""
    half = 3.0 * math.sqrt(hits * (n - hits) / n + 9.0 / 4.0)
    return (hits + 4.5 - half) / (n + 9.0), (hits + 4.5 + half) / (n + 9.0)


def _write_csv(path: str, results: list[TrialResult]) -> None:
    """Write the trial rows; ids holding commas or quotes are quoted."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        writer.writerows((i, r.instance_id, r.chosen_group, int(r.success), r.total_pulls,
                          r.rounds, int(r.event_a), r.max_bucket_size)
                         for i, r in enumerate(results))


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity set where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_share(run, config: ExperimentConfig, counter, results: dict, children=()) -> None:
    """Run one trial at a time, each at the next index taken from the shared
    ``counter``, until the counter passes ``config.trials``; ``results`` maps
    each index this process ran to its result.  A process that dies inside
    the counter's lock never releases it, so the caller, given its
    ``children``, waits for the lock a second at a time and raises
    ``ChildProcessError`` once a wait ends with a child gone."""
    lock = counter.get_lock()
    while True:
        while not lock.acquire(timeout=1.0):
            for child in children:
                if child.exitcode is not None:
                    raise ChildProcessError(
                        f"trial process {child.pid} exited with code {child.exitcode} "
                        "and left the trial counter locked")
        try:
            index = counter.value
            counter.value = index + 1
        finally:
            lock.release()
        if index >= config.trials:
            return
        results[index] = run(config, index)


def _child(run, config: ExperimentConfig, counter, conn) -> None:
    """A child process's share: it sends home its ``{index: TrialResult}``,
    or the exception that stopped it."""
    results: dict[int, TrialResult] = {}
    try:
        _run_share(run, config, counter, results)
    except Exception as exc:
        with counter.get_lock():  # no process takes another trial
            counter.value = max(counter.value, config.trials)
        conn.send(exc)
    else:
        conn.send(results)


def run_experiment(config: ExperimentConfig) -> AggregateReport:
    """Run all trials (optionally across processes), write CSV and summary.

    ``threads`` counts the processes that run trials, this one included,
    capped by the trial count and the usable CPUs.  Results come back in
    trial-index order whatever the worker count, because each process records
    its trials by index, so the artifacts do not depend on scheduling.
    """
    start = time.perf_counter()
    # a bad output path fails before any trial runs, not after all of them;
    # an existing file keeps its bytes and a new one is not left behind
    for out in filter(None, (config.out_csv, config.out_summary)):
        Path(out).parent.mkdir(parents=True, exist_ok=True)
        existed = os.path.lexists(out)
        os.close(os.open(out, os.O_WRONLY | os.O_CREAT))
        if not existed:
            os.unlink(out)
    indices = list(range(config.trials))
    workers = min(config.threads, config.trials, _usable_cpus())
    if workers > 1:
        # imported here: a one-process run, and importing the package, skip
        # loading multiprocessing
        import multiprocessing

        # run_trial as read now, so a stand-in set on the module runs in every process
        run = run_trial
        counter = multiprocessing.Value("q", 0)
        children = []
        by_index: dict[int, TrialResult] = {}
        try:
            for _ in range(workers - 1):
                reader, writer = multiprocessing.Pipe(duplex=False)
                child = multiprocessing.Process(target=_child,
                                                args=(run, config, counter, writer))
                child.start()
                # closed before the next child starts, so that no other
                # process holds it and the reader sees EOF if this child dies
                writer.close()
                children.append((child, reader))
            _run_share(run, config, counter, by_index, [child for child, _ in children])
            for child, reader in children:
                try:
                    sent = reader.recv()
                except EOFError:
                    child.join()
                    raise ChildProcessError(
                        f"trial process {child.pid} exited with code {child.exitcode} "
                        "before sending its results") from None
                if isinstance(sent, BaseException):
                    raise sent
                by_index.update(sent)
                child.join()
        finally:
            for child, reader in children:
                if child.is_alive():
                    child.terminate()
                child.join()
                reader.close()
        results = [by_index[i] for i in indices]
    else:
        results = [run_trial(config, i) for i in indices]

    num_groups = len(config.instance.groups)
    bound = pull_bound_multistep(config.instance, config.plans)
    worst = pull_bound_worst_case(num_groups, config.final_eps, config.final_gap, config.delta)

    if results:
        pulls = [r.total_pulls for r in results]
        n = len(results)
        wins = sum(r.success for r in results)
        event_a = sum(r.event_a for r in results)
        within_cap = sum(r.buckets_within_cap for r in results)
        report = AggregateReport(
            trials=n, success_rate=wins / n, success_ci_wilson3=_wilson3(wins, n),
            mean_pulls=float(np.mean(pulls)), median_pulls=float(np.median(pulls)),
            max_pulls=int(max(pulls)),
            event_a_rate=event_a / n, event_a_ci_wilson3=_wilson3(event_a, n),
            partition_bound_rate=within_cap / n,
            partition_bound_ci_wilson3=_wilson3(within_cap, n),
            bound_grouped=bound, bound_worst_case=worst,
            wall_clock_s=time.perf_counter() - start,
        )
    else:
        report = AggregateReport(0, None, None, None, None, None, None, None, None, None,
                                 bound, worst, time.perf_counter() - start)

    if config.out_csv:
        _write_csv(config.out_csv, results)
    if config.out_summary:
        Path(config.out_summary).write_text(json.dumps(report.to_dict(), indent=2) + "\n")
    return report

