"""The benchmark: run one workload, check its outputs, print its metrics.

Usage:
    python3 bench/run.py --workload hard2-fine --seed 7 --seconds 35 --trace 0

Metric names and units come from ``BENCHMARK.json``.  Each workload is a
``run --config`` file in ``bench/workloads``; its ``trials`` field fills
``run_seconds`` on a 2-core box and is scaled to ``--seconds``, and its
``seed`` field is the reference seed whose ``trials.csv`` is committed in
``bench/reference``.  ``--seed`` replaces the seed, so the same seed gives
the same trials.

``--trace 0`` times the untraced run and prints the end-to-end metrics.
Its timings are in ``cal``: each trial is followed by a timed run of the
calibration loop in the same process (``calibration.py``), and a trial's
cost is its seconds over the loop's seconds beside it, so that the host's
drifting speed divides out.  ``trials_per_cal`` is trials finished per
mean loop duration of wall time, and ``cpu_cal_per_trial`` the CPU time per
trial over the loop's mean CPU time; both leave the loop's own time out.
Set-up time is in seconds.
``--trace 1`` runs half as many trials twice, untraced and then traced in
one process, and prints the per-layer metrics.  Every metric is printed by
name with its unit; the last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  Run facts and
sample quartiles go to the line before it and to
``.bench_out/<workload>-seed<n>-trace<t>/result.json``.

Exit status: 0 when every output check passed, 1 when one failed, 2 when
the source tree is missing or the arguments are wrong.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import checks

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = sorted(p.stem for p in (BENCH / "workloads").glob("*.json"))
SETUP_PROBES = 6
# every child must end before this, so that a run ends within 180 seconds
DEADLINE = time.monotonic() + 170


def _child(args: list[str]) -> str:
    """Run a benchmark script in a fresh interpreter and return its stdout.

    The child gets its own process group, so that on timeout its pool
    workers are killed with it before the error propagates.
    """
    with subprocess.Popen([sys.executable, *args], cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, start_new_session=True) as proc:
        try:
            out, err = proc.communicate(timeout=max(1.0, DEADLINE - time.monotonic()))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise
    if proc.returncode != 0:
        raise RuntimeError(f"{args[0]} exited with {proc.returncode}: {err.strip()}")
    return out


def _measure(workload: str, out: Path, seed: int, trials: int, threads: int,
             traced: bool = False) -> dict:
    _child([str(BENCH / "measure.py"), "--config", str(BENCH / "workloads" / f"{workload}.json"),
            "--seed", str(seed), "--trials", str(trials), "--threads", str(threads),
            "--out", str(out)] + (["--traced"] if traced else []))
    return json.loads((out / "measure.json").read_text())


def _nproc() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


def _cpu_model() -> str | None:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _sha256(paths) -> str:
    digest = hashlib.sha256()
    for path in paths:
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _history(entry: dict) -> dict:
    """Append this run to the checkout's history and summarize the runs of
    the same workload, trace mode, source tree and benchmark code: count and
    quartiles."""
    path = OUT / "history.jsonl"
    with path.open("a") as fh:
        fh.write(json.dumps(entry) + "\n")
    fields = ("workload", "trace", "src_sha256", "bench_sha256")
    runs = [e for e in map(json.loads, path.read_text().splitlines())
            if all(e.get(f) == entry[f] for f in fields)]
    return {"runs": len(runs),
            "quartiles": {name: checks.quartiles([e["metrics"][name] for e in runs])
                          for name in entry["metrics"]}}


def _check_rows(workload: str, config, reference_seed: int, csv_text: str,
                report: dict) -> tuple[list[int], list[str]]:
    """Failed trial indices and the reasons, for one untraced ``trials.csv``."""
    problems = []
    bad = set(checks.invalid_rows(csv_text, config))
    if bad:
        problems.append(f"{len(bad)} invalid rows")
    reference = BENCH / "reference" / f"{workload}.csv"
    if config.seed == reference_seed:
        mismatched = checks.reference_mismatches(csv_text, reference.read_text())
        if mismatched:
            problems.append(f"{len(mismatched)} rows differ from {reference.relative_to(ROOT)}")
        bad.update(mismatched)
    floor = checks.success_floor(config.delta, config.trials)
    if not report["success_rate"] >= floor:
        problems.append(f"success_rate {report['success_rate']} below {floor:.4f}")
    return sorted(bad), problems


def _run(args, config, reference_seed: int, out: Path) -> tuple[dict, dict, list[int], list[str]]:
    """Measure the workload; return metrics, sample facts, failed trials, problems."""
    nproc = _nproc()
    threads = min(config.threads, nproc)
    if args.trace == 0:
        # half the set-up probes run before the measured run and half after,
        # so a slow spell of the machine moves the median less
        probe = [str(BENCH / "setup_probe.py"), str(BENCH / "workloads" / f"{args.workload}.json")]
        setup = [float(_child(probe)) for _ in range(SETUP_PROBES // 2)]
        plain = _measure(args.workload, out / "plain", args.seed, config.trials, threads)
        setup += [float(_child(probe)) for _ in range(SETUP_PROBES - len(setup))]
        csv_text = (out / "plain" / "trials.csv").read_text()
        failed, problems = _check_rows(args.workload, config, reference_seed, csv_text,
                                       plain["report"])
        # trial costs in cal, the calibration loop's duration beside them
        cost = [t / c for t, c in zip(plain["trial_s"], plain["cal_s"], strict=True)]
        tail, percentile = checks.tail_percentile(cost)
        # whole-run rates divide by the loop's mean duration, which samples
        # the host's speed across the whole wall; every worker spent its
        # calibration runs inside that wall
        wall_s = plain["wall_s"] - sum(plain["cal_s"]) / threads
        cpu_s = plain["cpu_s"] - sum(plain["cal_cpu_s"])
        metrics = {
            "trials_per_cal": config.trials * statistics.mean(plain["cal_s"]) / wall_s,
            "trial_cal_p50": statistics.median(cost),
            "trial_cal_tail": tail,
            "cpu_cal_per_trial": cpu_s / config.trials / statistics.mean(plain["cal_cpu_s"]),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": plain["peak_rss_mb"],
            "mean_pulls": plain["report"]["mean_pulls"],
            "success_rate": plain["report"]["success_rate"],
        }
        samples = {"setup_s": {"n": len(setup), "quartiles": checks.quartiles(setup)},
                   "trial_s": {"n": len(plain["trial_s"]),
                               "quartiles": checks.quartiles(plain["trial_s"])},
                   "cal_s": {"n": len(plain["cal_s"]), "quartiles": checks.quartiles(plain["cal_s"])},
                   "trial_cal": {"n": len(cost), "quartiles": checks.quartiles(cost)},
                   "trial_cal_tail": {"percentile": percentile, "trials": len(cost)},
                   "trials_per_s": config.trials / wall_s,
                   "threads": threads}
        return metrics, samples, failed, problems

    plain = _measure(args.workload, out / "plain", args.seed, config.trials, threads)
    traced = _measure(args.workload, out / "traced", args.seed, config.trials, 1, traced=True)
    plain_csv = (out / "plain" / "trials.csv").read_bytes()
    failed, problems = _check_rows(args.workload, config, reference_seed, plain_csv.decode(),
                                   plain["report"])
    traced_csv = (out / "traced" / "trials.csv").read_bytes()
    if traced_csv != plain_csv:
        what = f"{threads}-worker untraced" if threads > 1 else "untraced"
        problems.append(f"traced single-process trials.csv differs from the {what} bytes")
        failed = sorted(set(failed) | set(checks.reference_mismatches(traced_csv.decode(),
                                                                      plain_csv.decode())))
    metrics = dict(traced["layers"])
    busy_s = sum(plain["trial_s"]) + sum(plain["cal_s"])
    metrics["harness.pool_efficiency"] = busy_s / (threads * plain["wall_s"])
    metrics["harness.artifact_bytes"] = len(plain_csv) + (out / "plain" / "summary.json").stat().st_size
    metrics["trace.overhead"] = (statistics.median(traced["trial_s"])
                                 / statistics.median(plain["trial_s"]))
    samples = {"trial_s_untraced": {"n": len(plain["trial_s"]),
                                    "quartiles": checks.quartiles(plain["trial_s"])},
               "trial_s_traced": {"n": len(traced["trial_s"]),
                                  "quartiles": checks.quartiles(traced["trial_s"])},
               "threads_untraced": threads, "unwrapped": traced["unwrapped"],
               "spans": str((out / "traced" / "spans.npz").relative_to(ROOT))}
    return metrics, samples, failed, problems


def main(argv=None) -> int:
    load = os.getloadavg()
    ap = argparse.ArgumentParser(description="Run one benchmark workload and print its metrics.")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "quantile_bandits" / "__init__.py").is_file():
        print(f"error: no package source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import numpy

    from quantile_bandits import config_from_file

    base = config_from_file(BENCH / "workloads" / f"{args.workload}.json")
    trials = max(1, round(base.trials * args.seconds / SPEC["run_seconds"]))
    if args.trace == 1:
        trials = max(1, trials // 2)
    config = replace(base, seed=args.seed, trials=trials)
    out = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)

    try:
        metrics, samples, failed, problems = _run(args, config, base.seed, out)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        metrics, samples, failed, problems = {}, {}, list(range(trials)), [str(exc)]
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end" if args.trace == 0 else "per_layer"]}
    if metrics and set(metrics) != set(units):
        raise RuntimeError(f"measured metrics {sorted(metrics)} differ from BENCHMARK.json")
    facts = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
             "trials": trials, "nproc": _nproc(), "cpu_model": _cpu_model(),
             "python": platform.python_version(), "numpy": numpy.__version__,
             "git_commit": _git_commit(),
             "src_sha256": _sha256(sorted((ROOT / "src").rglob("*.py"))),
             "bench_sha256": _sha256([ROOT / "BENCHMARK.json", *sorted(BENCH.glob("*.py")),
                                      *sorted(BENCH.glob("workloads/*.json"))]),
             "loadavg_start": list(load), "samples": samples, "problems": problems}
    if metrics:
        facts["history"] = _history({"workload": args.workload, "trace": args.trace,
                                     "src_sha256": facts["src_sha256"],
                                     "bench_sha256": facts["bench_sha256"], "metrics": metrics})
    result = {"correct": not problems, "attempted": trials, "failed": len(failed),
              "metrics": {name: {"value": metrics[name], "unit": units[name]}
                          for name in units if name in metrics}}
    (out / "result.json").write_text(json.dumps({"facts": facts, "result": result}, indent=2) + "\n")
    for name, m in result["metrics"].items():
        print(f"{name:36s} {m['value']:>16.6g} {m['unit']}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    print(json.dumps({"facts": facts}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
