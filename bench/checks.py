"""Output checks and summary statistics of the benchmark.

A trial fails when its ``trials.csv`` row is invalid, or, at a workload's
reference seed, when the row differs from the committed reference row.
"""

from __future__ import annotations

import math
import statistics


def tail_percentile(values: list[float]) -> tuple[float, float]:
    """The highest percentile of ``values`` with at least ten values above it.

    Returns (value, percentile).  The k-th smallest of n values is the
    100*k/n-th percentile and has n - k values beyond it, so k = n - 10.
    With ten values or fewer no percentile qualifies; the smallest value is
    returned with percentile 0.
    """
    ordered = sorted(values)
    k = len(ordered) - 10
    if k < 1:
        return ordered[0], 0.0
    return ordered[k - 1], 100.0 * k / len(ordered)


def quartiles(values: list[float]) -> list[float]:
    """First quartile, median and third quartile (a single value repeats)."""
    if len(values) < 2:
        return [values[0]] * 3
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return [q1, q2, q3]


def invalid_rows(csv_text: str, config) -> list[int]:
    """Indices of the rows of an ``ExperimentConfig``'s ``trials.csv`` that
    break its contract.

    A file without the header or with another row count fails every trial.
    Each row must hold its own index, name the instance and one of its
    groups, carry a success flag equal to the exact reservoir oracle, and
    have positive counts with at least one pull per round and a bucket no
    larger than an epoch's arm request.
    """
    from quantile_bandits.grouped import required_arm_count
    from quantile_bandits.harness import CSV_COLUMNS
    from quantile_bandits.instances import relaxed_success_set

    lines = csv_text.splitlines()
    if len(lines) != config.trials + 1 or lines[0] != ",".join(CSV_COLUMNS):
        return list(range(config.trials))
    inst = config.instance
    winners = relaxed_success_set(inst, config.final_eps, config.final_gap)
    schedule = config.eps_schedule or (config.eps,)
    max_arms = max(required_arm_count(e, config.delta, len(inst.groups)) for e in schedule)
    bad = []
    for i in range(config.trials):
        try:
            trial, name, chosen, success, pulls, rounds, event_a, bucket = lines[i + 1].split(",")
            ok = (int(trial) == i and name == inst.name and chosen in inst.group_ids
                  and success == str(int(chosen in winners)) and event_a in ("0", "1")
                  and 1 <= int(rounds) <= int(pulls) and 1 <= int(bucket) <= max_arms)
        except ValueError:
            ok = False
        if not ok:
            bad.append(i)
    return bad


def reference_mismatches(csv_text: str, reference_text: str) -> list[int]:
    """Indices of the data rows present in both files whose bytes differ."""
    rows = csv_text.splitlines()[1:]
    ref = reference_text.splitlines()[1:]
    return [i for i, (a, b) in enumerate(zip(rows, ref)) if a != b]


def success_floor(delta: float, trials: int) -> float:
    """(1 - 3 delta) - 3 sigma, sigma the binomial spread at rate 1 - 3 delta."""
    rate = 1.0 - 3.0 * delta
    return rate - 3.0 * math.sqrt(rate * (1.0 - rate) / trials)
