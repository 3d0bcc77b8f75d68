"""Seeded runs reproduce their committed artifacts byte for byte.

For a fixed seed, ``trials.csv`` and ``summary.json`` (without
``wall_clock_s``) are the behavioural contract.  Each benchmark workload
``bench/workloads/<w>.json`` is pinned by ``bench/reference/<w>.csv`` and
``tests/contract/<w>.summary.json``; ``tests/contract/<name>.json`` pins four
more configs: Gaussian and noiseless rewards on the three-group instance, a
two-epoch Gaussian schedule on piecewise-linear reservoirs run on two
workers, and a two-epoch Bernoulli schedule on two equal groups, whose first
epochs end in tie-breaks, run on one worker and on two.  A change that moves these files must regenerate them on purpose,
with ``quantile-bandits run --config <config> --out <dir>``.

Those bytes also rest on numpy's generator streams: ``numpy-stream.txt``
pins the first uniforms and standard normals of ``default_rng(0)``, so a
numpy release that changes a stream fails here, by name, before the byte
comparisons do.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from quantile_bandits.cli import main

CONTRACT = Path(__file__).resolve().parent / "contract"
CONFIGS = sorted(p for p in CONTRACT.glob("*.json") if not p.name.endswith(".summary.json"))
BENCH = CONTRACT.parent.parent / "bench"
WORKLOADS = sorted((BENCH / "workloads").glob("*.json"))


def check_numpy_streams(path=CONTRACT / "numpy-stream.txt"):
    """Fail, naming the numpy version, when ``default_rng(0)`` draws other
    values than the fingerprint pins."""
    lines = path.read_text().splitlines()
    pinned = [line.split() for line in lines if line and not line.startswith("#")]
    assert [draw for draw, *_ in pinned] == ["random", "standard_normal"]
    for draw, *values in pinned:
        got = [float(x).hex() for x in getattr(np.random.default_rng(0), draw)(len(values))]
        assert got == values, (
            f"numpy {np.__version__} draws other default_rng(0).{draw} values than the ones "
            "the contract bytes were made with; the numpy version, not this package, moved "
            "the stream")


def test_numpy_streams_match_the_fingerprint():
    check_numpy_streams()


def test_a_moved_stream_names_numpy(tmp_path):
    moved = tmp_path / "numpy-stream.txt"
    moved.write_text((CONTRACT / "numpy-stream.txt").read_text().replace("0x1.4", "0x1.5", 1))
    with pytest.raises(AssertionError, match=f"numpy {np.__version__} draws other"):
        check_numpy_streams(moved)


def test_contract_configs_are_found():
    assert len(CONFIGS) == 4
    assert [p.stem for p in WORKLOADS] == ["hard2-fine", "pwl-wide-pool", "three-group"]


def assert_run_reproduces(config, csv_ref, summary_ref, out, *options):
    """``run`` on ``config``, given the command-line ``options``, writes
    ``csv_ref``'s bytes and ``summary_ref``'s summary, without
    ``wall_clock_s``."""
    check_numpy_streams()  # a moved stream is numpy's doing: say so before the bytes differ
    assert main(["run", "--config", str(config), "--out", str(out), *options]) == 0
    assert (out / "trials.csv").read_bytes() == csv_ref.read_bytes()
    summary = json.loads((out / "summary.json").read_text())
    del summary["wall_clock_s"]
    assert summary == json.loads(summary_ref.read_text())


@pytest.mark.parametrize("config", CONFIGS, ids=[p.stem for p in CONFIGS])
def test_run_reproduces_reference(config, tmp_path, capsys):
    assert_run_reproduces(config, CONTRACT / f"{config.stem}.trials.csv",
                          CONTRACT / f"{config.stem}.summary.json", tmp_path)


@pytest.mark.parametrize("threads", ["1", "2"])
def test_tie_breaks_before_rewinds_reproduce_at_any_thread_count(threads, tmp_path, capsys):
    # a first epoch's tie-break leaves the generator a buffered 32-bit half,
    # which the next epoch's cut blocks rewind around; the final tie-break
    # draws it, so a rewind that dropped it would move the chosen groups
    config = CONTRACT / "bernoulli-schedule.json"
    assert_run_reproduces(config, CONTRACT / "bernoulli-schedule.trials.csv",
                          CONTRACT / "bernoulli-schedule.summary.json", tmp_path,
                          "--threads", threads)


@pytest.mark.parametrize("workload", WORKLOADS, ids=[p.stem for p in WORKLOADS])
def test_benchmark_workload_reproduces_reference(workload, tmp_path, capsys):
    assert_run_reproduces(workload, BENCH / "reference" / f"{workload.stem}.csv",
                          CONTRACT / f"{workload.stem}.summary.json", tmp_path)
