"""In-memory spans around the package's public calls, and the layer metrics
computed from them.

The traced run replaces public functions in the namespace of the module that
calls them (and public methods on their classes) with wrappers that open and
close a span.  Wrappers only read the clock and record arguments' sizes, so
they never touch a random stream: the traced ``trials.csv`` must equal the
untraced bytes, and the benchmark checks that it does.
"""

from __future__ import annotations

import json
import math
import time
from array import array
from collections import Counter

import numpy as np

# span names, one per layer boundary
RUN = "harness.run_experiment"
TRIAL = "harness.trial"
BOUNDS = "harness.bounds"
GROUPED = "grouped.run"
ORACLE = "grouped.oracle"
SAMPLE = "instances.sample"
PULL = "instances.pull"
ELIM = "elimination.run"
STEP = "elimination.step"
RECORD = "elimination.record"
WIDTH = "elimination.width"
CONF = "confidence"


class SpanStore:
    """Spans as parallel arrays: name id, start, end, parent span, trial id.

    Spans nest strictly (one thread), so the open spans form a stack and the
    parent of a new span is the top of that stack (-1 for a root).
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.trial = array("q")
        self.counts: Counter = Counter()
        self.trial_id = -1
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.trial.append(self.trial_id)
        self.end.append(math.nan)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self._stack.pop()

    def arrays(self) -> dict[str, np.ndarray]:
        return {"name": np.frombuffer(self.name, dtype=np.uint16),
                "start": np.frombuffer(self.start), "end": np.frombuffer(self.end),
                "parent": np.frombuffer(self.parent, dtype=np.int64),
                "trial": np.frombuffer(self.trial, dtype=np.int64)}

    def save(self, path) -> None:
        """Write every span, the name table and the counts to one ``.npz`` file."""
        np.savez_compressed(path, names=np.array(self.names),
                            counts=np.array(json.dumps(self.counts)), **self.arrays())


def self_times(start: np.ndarray, end: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Each span's duration minus the durations of its direct children.

    Children of one span never overlap each other, so the part of the
    parent's interval they cover is the sum of their durations.
    """
    dur = end - start
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
    return dur - covered


def set_changed(before, after) -> bool:
    """Whether a round changed the candidate groups or the active arms.

    Both sets only shrink, so a changed active set always changes its size.
    """
    return before.candidates != after.candidates or before.active.size != after.active.size


def _span(store: SpanStore, name: str, fn, size_of=None):
    def wrapper(*args, **kwargs):
        if size_of is not None:
            store.counts[name] += size_of(*args, **kwargs)
        i = store.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            store.close(i)
    wrapper.__wrapped__ = fn
    return wrapper


def _counted_step(store: SpanStore, step):
    def wrapper(run):
        before = run.state
        i = store.open(STEP)
        try:
            return step(run)
        finally:
            store.close(i)
            if set_changed(before, run.state):
                store.counts["set_changes"] += 1
    wrapper.__wrapped__ = step
    return wrapper


class Tracer:
    """Installs the span wrappers on the package, and removes them again.

    A public name that no longer exists is skipped and listed in
    ``missing``, so a refactor of one layer leaves the other layers traced.
    """

    def __init__(self, store: SpanStore) -> None:
        self.store = store
        self.trial_results: list = []
        self.missing: list[str] = []
        self._undo: list[tuple[object, str, object]] = []

    def _patch(self, owner, attr: str, wrap) -> None:
        old = owner.__dict__.get(attr)
        if old is None:
            self.missing.append(f"{owner.__name__}.{attr}")
            return
        self._undo.append((owner, attr, old))
        setattr(owner, attr, wrap(old))

    def install(self) -> None:
        from quantile_bandits import elimination, grouped, harness, instances

        st = self.store

        def trial(run_trial):
            def wrapper(config, index):
                st.trial_id = index
                i = st.open(TRIAL)
                try:
                    result = run_trial(config, index)
                finally:
                    st.close(i)
                self.trial_results.append(result)
                return result
            return wrapper

        def span(name, size_of=None):
            return lambda fn: _span(st, name, fn, size_of)

        self._patch(harness, "run_trial", trial)
        for attr in ("run_two_step", "run_multistep"):
            self._patch(harness, attr, span(GROUPED))
        for attr in ("pull_bound_grouped", "pull_bound_multistep", "pull_bound_worst_case"):
            self._patch(harness, attr, span(BOUNDS))
        for attr in ("quantile_sandwiched", "build_partition", "relaxed_success_set"):
            self._patch(grouped, attr, span(ORACLE))
        self._patch(grouped, "run_elimination", span(ELIM))
        for attr in ("confidence_width", "invert_width"):
            self._patch(elimination, attr, span(CONF))
        self._patch(elimination.EliminationRun, "step", lambda fn: _counted_step(st, fn))
        self._patch(elimination.ArmLedger, "record_pulls", span(RECORD))
        self._patch(elimination.ArmLedger, "width_at", span(WIDTH))
        self._patch(instances.RewardEnv, "pull", span(PULL, lambda env, arms: len(arms)))
        for cls in (instances.Reservoir, instances.DiscreteReservoir,
                    instances.PiecewiseLinearReservoir):
            if "quantile_many" in cls.__dict__:
                self._patch(cls, "quantile_many", span(SAMPLE, lambda res, ps: np.size(ps)))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)


def _ratio(num: float, den: float) -> float:
    """num / den, or 0 when a skipped wrapper left the count at 0."""
    return num / den if den else 0.0


def layer_metrics(store: SpanStore, trial_results: list, report) -> dict[str, float]:
    """Per-layer figures of one traced run, per trial where they scale with trials."""
    a = store.arrays()
    selfs = self_times(a["start"], a["end"], a["parent"])
    dur = a["end"] - a["start"]
    ids = {n: i for i, n in enumerate(store.names)}

    def mask(name):
        return a["name"] == ids[name] if name in ids else np.zeros(dur.size, dtype=bool)

    def total(name):
        return float(dur[mask(name)].sum())

    def self_total(name):
        return float(selfs[mask(name)].sum())

    trials = len(trial_results)
    rounds = sum(r.rounds for r in trial_results)
    pulls = sum(r.total_pulls for r in trial_results)
    draws = store.counts[PULL]
    arms = store.counts[SAMPLE]
    steps = int(mask(STEP).sum())
    changes = store.counts["set_changes"]
    discarded = sum(sum(r.epoch_pulls[:-1]) for r in trial_results)
    elim_s = total(ELIM)
    return {
        "harness.self_s": self_total(RUN) / trials,
        "harness.bounds_s": total(BOUNDS),
        "grouped.self_s": self_total(GROUPED) / trials,
        "grouped.oracle_s": total(ORACLE) / trials,
        "grouped.epochs": int(mask(ELIM).sum()) / trials,
        "grouped.arms_requested": arms / trials,
        "grouped.discarded_pull_share": discarded / pulls,
        "grouped.bound_ratio": report.mean_pulls / report.bound_grouped,
        "instances.sample_s": total(SAMPLE) / trials,
        "instances.us_per_arm": _ratio(1e6 * total(SAMPLE), arms),
        "instances.pull_s": total(PULL) / trials,
        "instances.ns_per_draw": _ratio(1e9 * total(PULL), draws),
        "instances.pull_calls": int(mask(PULL).sum()) / trials,
        "elimination.s": elim_s / trials,
        "elimination.rounds": rounds / trials,
        "elimination.step_calls": steps / trials,
        "elimination.us_per_round": 1e6 * elim_s / rounds,
        "elimination.ns_per_pull": 1e9 * elim_s / pulls,
        "elimination.record_s": total(RECORD) / trials,
        "elimination.width_s": total(WIDTH) / trials,
        "elimination.shrink_s": self_total(STEP) / trials,
        "elimination.set_changes": changes / trials,
        # a run without any set change counts as one
        "elimination.rounds_per_set_change": rounds / max(changes, 1),
        "elimination.active_mean": _ratio(draws, steps),
        "confidence.s": total(CONF) / trials,
        "confidence.calls": int(mask(CONF).sum()) / trials,
    }
