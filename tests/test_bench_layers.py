"""The benchmark's per-layer tracer still finds every layer it wraps.

``bench/tracing.py`` wraps public functions and methods by name and lists a
name it cannot find as ``unwrapped``; its layer metrics then read 0.  This
test fails when a refactor renames or unwraps one of those layers.  The
tracer counts set changes by comparing ``run.state`` around each
``EliminationRun.step``, so that count is exact only while one step crosses
at most one set change, in its last round.
"""

import importlib.util
from pathlib import Path
from unittest import mock

import numpy as np
from sequential_reference import SequentialRun

from quantile_bandits import (
    EliminationRun,
    FiniteGroup,
    RewardEnv,
    RewardFamily,
    config_from_dict,
    run_experiment,
)

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"

# public names removed on purpose; the benchmark still asks for them
REMOVED = {"harness.run_two_step", "harness.pull_bound_grouped", "grouped.build_partition",
           "elimination.confidence_width"}


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_every_layer_it_measures():
    tracing = load_tracing()
    store = tracing.SpanStore()
    tracer = tracing.Tracer(store)
    tracer.install()
    try:
        # module owners are listed by their full name, "quantile_bandits.harness";
        # a name restored but left in REMOVED fails too
        assert {name.removeprefix("quantile_bandits.") for name in tracer.missing} == REMOVED
        cfg = config_from_dict({
            "instance": {"name": "pair", "alpha": 0.5, "groups": [
                {"id": "hi", "atoms": [[0.7, 1.0]]}, {"id": "lo", "atoms": [[0.3, 1.0]]}]},
            "eps": 0.2, "delta_gap": 0.2, "delta": 0.1, "trials": 2, "seed": 1})
        run_experiment(cfg)
    finally:
        tracer.uninstall()
    # every wrapped layer saw at least one call on a small run
    assert set(store.names) >= {tracing.TRIAL, tracing.BOUNDS, tracing.GROUPED,
                                tracing.ORACLE, tracing.SAMPLE, tracing.PULL, tracing.ELIM,
                                tracing.STEP, tracing.RECORD, tracing.WIDTH, tracing.CONF}
    assert len(tracer.trial_results) == 2


class RecordingRun(SequentialRun):
    """The one-round reference, noting the rounds that change a set."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.change_rounds = []

    def step(self):
        before = self.state
        after = super().step()
        if before.candidates != after.candidates or before.active.size != after.active.size:
            self.change_rounds.append(before.round_index)
        return after


def test_tracer_counts_each_set_change_once():
    tracing = load_tracing()
    means = np.array([0.2, 0.5, 0.7, 0.9, 0.1, 0.3, 0.6, 0.8, 0.0, 0.1, 0.2, 0.4])
    groups = [FiniteGroup("a", (0, 1, 2, 3)), FiniteGroup("b", (4, 5, 6, 7)),
              FiniteGroup("c", (8, 9, 10, 11))]

    def engine(cls):
        env = RewardEnv(means, RewardFamily("bernoulli"), np.random.default_rng(5))
        return cls(groups, 0.5, 0.1, 0.1, env)

    reference = engine(RecordingRun)
    ref = reference.run()
    blocks = []  # (first round, last round, sets changed) of each traced step
    store = tracing.SpanStore()
    tracer = tracing.Tracer(store)
    tracer.install()
    traced_step = EliminationRun.step

    def step(run):
        before = run.state
        after = traced_step(run)
        blocks.append((before.round_index, after.round_index - 1,
                       tracing.set_changed(before, after)))
        return after

    try:
        with mock.patch.object(EliminationRun, "step", step):
            got = engine(EliminationRun).run()
    finally:
        tracer.uninstall()
    assert (got.rounds, got.total_pulls) == (ref.rounds, ref.total_pulls)
    assert store.counts["set_changes"] == len(reference.change_rounds) > 1
    # every set change is the last round of its block
    assert [last for _, last, changed in blocks if changed] == reference.change_rounds
    for first, last, _ in blocks:
        assert not [t for t in reference.change_rounds if first <= t < last]
    steps = int((store.arrays()["name"] == store.names.index(tracing.STEP)).sum())
    assert steps == len(blocks) < got.rounds
