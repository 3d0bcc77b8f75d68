"""Print the seconds a fresh interpreter takes to import the package and load
and build one experiment config, i.e. everything before ``run_experiment``.

Usage: python3 bench/setup_probe.py bench/workloads/hard2-fine.json
"""

import time

T0 = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from quantile_bandits import config_from_file  # noqa: E402

config_from_file(sys.argv[1])
print(repr(time.perf_counter() - T0))
