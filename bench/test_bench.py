"""Tests of the benchmark's own logic.

Run: python3 -m pytest -q bench/test_bench.py
"""

import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "bench"))

import calibration  # noqa: E402
import checks  # noqa: E402
import tracing  # noqa: E402
from quantile_bandits import (FiniteGroup, RewardEnv, RewardFamily,  # noqa: E402
                              config_from_file, invert_width, run_elimination,
                              run_experiment)


def test_self_time_subtracts_direct_children_only():
    # root [0, 10] holds a [1, 4] and b [5, 9]; a holds c [2, 3]
    start = np.array([0.0, 1.0, 5.0, 2.0])
    end = np.array([10.0, 4.0, 9.0, 3.0])
    parent = np.array([-1, 0, 0, 1])
    assert tracing.self_times(start, end, parent).tolist() == [3.0, 2.0, 4.0, 1.0]


def test_span_store_links_each_span_to_the_open_one():
    store = tracing.SpanStore()
    root = store.open("root")
    store.close(store.open("a"))
    b = store.open("b")
    store.close(store.open("c"))
    store.close(b)
    store.close(root)
    a = store.arrays()
    assert a["parent"].tolist() == [-1, 0, 0, 2]
    assert [store.names[i] for i in a["name"]] == ["root", "a", "b", "c"]
    assert np.all(tracing.self_times(a["start"], a["end"], a["parent"]) >= 0.0)


@pytest.mark.parametrize("n,value,percentile", [
    (30, 20.0, 100.0 * 20 / 30),  # ten values (21..30) lie beyond the 20th
    (11, 1.0, 100.0 / 11),
    (10, 1.0, 0.0),  # no percentile has ten values beyond it
    (1, 1.0, 0.0),
])
def test_tail_percentile_keeps_ten_values_beyond(n, value, percentile):
    values = [float(v) for v in range(n, 0, -1)]
    assert checks.tail_percentile(values) == (value, pytest.approx(percentile))


def test_calibration_loop_does_fixed_work():
    # every cal figure is in units of this loop; a change to it shows here
    assert calibration.calibration_loop() == 536375
    wall_s, cpu_s = calibration.timed_calibration()
    assert wall_s > 0.0 and cpu_s > 0.0


def test_set_change_counter_on_noiseless_instance():
    # one arm per group, rewards equal the means: group c (0.1) drops at the
    # first round whose width is below 0.4, group b (0.6) at the first below
    # 0.15, which leaves one candidate and stops the run; the spread rule
    # (2 * width <= 0.01) cannot fire first
    delta = 0.1
    groups = [FiniteGroup("a", (0,)), FiniteGroup("b", (1,)), FiniteGroup("c", (2,))]
    env = RewardEnv(np.array([0.9, 0.6, 0.1]), RewardFamily("bernoulli"),
                    np.random.default_rng(0), noiseless=True)
    store = tracing.SpanStore()
    tracer = tracing.Tracer(store)
    tracer.install()
    try:
        result = run_elimination(groups, 0.5, 0.01, delta, env)
    finally:
        tracer.uninstall()
    assert result.chosen == "a"
    assert result.rounds == invert_width(0.15, delta / 3) > invert_width(0.4, delta / 3) > 1
    assert store.counts["set_changes"] == 2
    steps = store.arrays()["name"] == store.names.index(tracing.STEP)
    assert int(steps.sum()) == result.rounds


def test_tracer_uninstall_restores_the_package():
    from quantile_bandits import elimination, harness, instances

    before = (harness.run_trial, elimination.EliminationRun.step, instances.RewardEnv.pull,
              instances.PiecewiseLinearReservoir.quantile_many)
    tracer = tracing.Tracer(tracing.SpanStore())
    tracer.install()
    assert harness.run_trial is not before[0]
    tracer.uninstall()
    assert (harness.run_trial, elimination.EliminationRun.step, instances.RewardEnv.pull,
            instances.PiecewiseLinearReservoir.quantile_many) == before


def test_tracer_skips_and_lists_a_missing_public_name(monkeypatch):
    from quantile_bandits import elimination

    monkeypatch.delattr(elimination.ArmLedger, "width_at")
    step = elimination.EliminationRun.step
    tracer = tracing.Tracer(tracing.SpanStore())
    tracer.install()
    try:
        assert tracer.missing == ["ArmLedger.width_at"]
        assert elimination.EliminationRun.step is not step
    finally:
        tracer.uninstall()
    assert elimination.EliminationRun.step is step
    assert "width_at" not in elimination.ArmLedger.__dict__


def test_reference_mismatches_count_differing_rows():
    ref = "h\n0,x\n1,y\n2,z\n3,w\n"
    assert checks.reference_mismatches(ref, ref) == []
    assert checks.reference_mismatches("h\n0,x\n1,Y\n2,z\n3,W\n", ref) == [1, 3]
    # rows beyond the shorter file are not compared
    assert checks.reference_mismatches("h\n0,x\n", ref) == []
    assert checks.reference_mismatches("h\n0,x\n1,y\n2,z\n3,w\n4,v\n", ref) == []


def test_invalid_rows_on_a_real_run(tmp_path):
    config = replace(config_from_file(ROOT / "bench" / "workloads" / "pwl-wide-pool.json"),
                     trials=3, threads=1, out_csv=str(tmp_path / "trials.csv"))
    run_experiment(config)
    text = (tmp_path / "trials.csv").read_text()
    assert checks.invalid_rows(text, config) == []
    lines = text.splitlines()
    fields = lines[2].split(",")
    fields[3] = "0" if fields[3] == "1" else "1"  # success flag contradicts the oracle
    flipped = "\n".join(lines[:2] + [",".join(fields)] + lines[3:]) + "\n"
    assert checks.invalid_rows(flipped, config) == [1]
    assert checks.invalid_rows("\n".join(lines[:-1]) + "\n", config) == [0, 1, 2]
    assert checks.invalid_rows(text.replace("trial,", "index,", 1), config) == [0, 1, 2]


def test_success_floor_is_three_sigma_below_the_guarantee():
    assert checks.success_floor(0.1, 100) == pytest.approx(0.7 - 3 * (0.21 / 100) ** 0.5)
