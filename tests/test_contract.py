"""Seeded runs reproduce their committed artifacts byte for byte.

For a fixed seed, ``trials.csv`` and ``summary.json`` (without
``wall_clock_s``) are the behavioural contract.  The benchmark workloads are
pinned by ``bench/reference``; ``tests/contract/<name>.json`` pins three more
configs: Gaussian and noiseless rewards on the three-group instance, and a
two-epoch Gaussian schedule on piecewise-linear reservoirs run on two workers.
A change that moves these files must regenerate them on purpose, with
``quantile-bandits run --config tests/contract/<name>.json --out <dir>``.
"""

import json
from pathlib import Path

import pytest

from quantile_bandits.cli import main

CONTRACT = Path(__file__).resolve().parent / "contract"
CONFIGS = sorted(p for p in CONTRACT.glob("*.json") if not p.name.endswith(".summary.json"))


def test_contract_configs_are_found():
    assert len(CONFIGS) == 3


@pytest.mark.parametrize("config", CONFIGS, ids=[p.stem for p in CONFIGS])
def test_run_reproduces_reference(config, tmp_path, capsys):
    assert main(["run", "--config", str(config), "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    csv_ref = CONTRACT / f"{config.stem}.trials.csv"
    assert (tmp_path / "trials.csv").read_bytes() == csv_ref.read_bytes()
    summary = json.loads((tmp_path / "summary.json").read_text())
    del summary["wall_clock_s"]
    assert summary == json.loads((CONTRACT / f"{config.stem}.summary.json").read_text())
