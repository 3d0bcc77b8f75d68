"""Mutants of record for the engine, and a runner that times how fast the
differential suite kills each one.

Each mutant is one text edit, (file, old text, new text), that breaks one
path the differential tests must guard.  pytest does not collect this file;
run it by hand from the repository root:

    python tests/mutants.py [name ...]

For each mutant it exports the committed tree (HEAD) with ``git archive``
into a temporary directory, applies the edit there, and runs the
differential files with ``-x`` and an empty hypothesis example database.
It records the tests that failed and the wall seconds until pytest stopped,
at the first failure, in ``tests/mutants.json``.  Naming mutants reruns only
those and keeps the other entries.  ``tests/test_mutants.py`` checks that
the record lists exactly the mutants below and that every edit still
applies, without running them.
"""

import io
import json
import os
import platform
import re
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RECORD = Path(__file__).resolve().with_suffix(".json")
DIFFERENTIAL = ["tests/test_block_engine.py", "tests/test_elimination.py"]
ENGINE = "src/quantile_bandits/elimination.py"
# a mutant no test kills runs the whole differential suite, about a minute;
# one that stalls a run is stopped here
TIMEOUT = 1800

MUTANTS = {
    # the arms that leave a pool join its frozen bounds unsorted
    "frozen-merge-unsorted": (
        ENGINE,
        "low = np.sort(np.concatenate((low, lcb[cols][out])))\n"
        "                        high = np.sort(np.concatenate((high, ucb[cols][out])))",
        "low = np.concatenate((low, lcb[cols][out]))\n"
        "                        high = np.concatenate((high, ucb[cols][out]))"),
    # a cut Bernoulli pull holds its unused uniforms from one past the kept ones
    "kept-tail-one-short": (
        "src/quantile_bandits/instances.py",
        "self._held = self._drawn[count:]",
        "self._held = self._drawn[count + 1:]"),
    # run() leaves the held uniforms in the env instead of rewinding past them
    "no-sync-in-run": (
        ENGINE,
        "        self.env.sync()  # the tie-break",
        "        pass  # the tie-break"),
    # _band's straddle case reads the rank below the kth
    "band-rank-off-by-one": (
        ENGINE,
        "out[:] = middle[:, rank]",
        "out[:] = middle[:, rank - 1]"),
    # choose() scores the candidates by their optimistic band
    "choice-reads-q-ucb": (
        ENGINE,
        "self._stop_band = q_lcb[kept, r]",
        "self._stop_band = q_ucb[kept, r]"),
    # a dropped group's columns stay in the set-change mask
    "dropped-group-left-in-mask": (
        ENGINE,
        "                    col += live\n"
        "            self._groups = groups",
        "                    col += live\n"
        "                else:\n"
        "                    mask[cols] = True\n"
        "            self._groups = groups"),
    # a kept group's column offset is not advanced past its live arms
    "column-offset-skipped": (
        ENGINE,
        "                    col += live\n",
        ""),
    # the opening stretch runs on until 2 * U(t) meets half of max(1, slack)
    "stretch-runs-too-far": (
        ENGINE,
        "max(1.0, slack) / 2.0 + _ROUNDING",
        "max(1.0, slack) / 4.0 + _ROUNDING"),
}


def run_mutant(name: str) -> dict:
    """Apply one mutant to an export of HEAD and run the differential files
    there; return its record entry."""
    path, old, new = MUTANTS[name]
    tree = subprocess.run(["git", "archive", "HEAD"], cwd=ROOT, check=True,
                          capture_output=True).stdout
    with tempfile.TemporaryDirectory() as tmp:
        with tarfile.open(fileobj=io.BytesIO(tree)) as tar:
            tar.extractall(tmp, filter="data")
        target = Path(tmp, path)
        text = target.read_text()
        if text.count(old) != 1:
            raise ValueError(f"mutant {name!r}: its old text is not in {path} exactly once")
        target.write_text(text.replace(old, new))
        env = dict(os.environ, PYTHONPATH="src")
        start = time.perf_counter()
        try:
            out = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-rfE",
                                  "-p", "no:cacheprovider", *DIFFERENTIAL],
                                 cwd=tmp, env=env, capture_output=True, text=True,
                                 timeout=TIMEOUT).stdout
        except subprocess.TimeoutExpired:
            return {"file": path, "failed": [], "seconds": None, "outcome": "timed out"}
        seconds = time.perf_counter() - start
    failed = re.findall(r"^(?:FAILED|ERROR) (\S+)", out, flags=re.MULTILINE)
    return {"file": path, "failed": failed, "seconds": round(seconds, 1),
            "outcome": "killed" if failed else "survived"}


def main(names: list[str]) -> None:
    unknown = sorted(set(names) - set(MUTANTS))
    if unknown:
        raise SystemExit(f"unknown mutants: {', '.join(unknown)}")
    record = json.loads(RECORD.read_text()) if RECORD.exists() else {"mutants": {}}
    for name in names or list(MUTANTS):
        record["mutants"][name] = entry = run_mutant(name)
        print(name, entry["outcome"], entry["seconds"], *entry["failed"], flush=True)
    record["mutants"] = {name: record["mutants"][name] for name in MUTANTS
                         if name in record["mutants"]}
    record["command"] = ("python -m pytest -x -q -rfE -p no:cacheprovider "
                         + " ".join(DIFFERENTIAL))
    record["commit"] = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                                      check=True, capture_output=True, text=True).stdout.strip()
    record["machine"] = (f"{os.cpu_count()} CPUs, {platform.machine()}, "
                         f"Python {platform.python_version()}")
    RECORD.write_text(json.dumps(record, indent=1) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
