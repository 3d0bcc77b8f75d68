"""Run one workload's experiment the way ``quantile-bandits run --config`` does,
and write what was measured to ``<out>/measure.json``.

Usage:
    python3 bench/measure.py --config bench/workloads/hard2-fine.json \
        --seed 1 --trials 8 --threads 1 --out .bench_out/x [--traced]

Untraced, the only wrapper is one timer pair around each ``run_trial`` call,
which also works inside pool workers, followed by one timed run of the
calibration loop (``calibration.py``).  Traced (one process only), spans are
recorded around the public calls of every layer; see ``tracing.py``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import sys
import time
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from calibration import timed_calibration  # noqa: E402
from quantile_bandits import harness  # noqa: E402

_run_trial = harness.run_trial


class TimedTrial:
    """Picklable stand-in for ``run_trial`` that runs the calibration loop
    after each trial and appends one line per trial, ``<index> <seconds>
    <calibration seconds> <calibration CPU seconds> <peak rss kB>``, to a
    file of the calling process."""

    def __init__(self, out_dir: str) -> None:
        self.out_dir = out_dir

    def __call__(self, config, index):
        t0 = time.perf_counter()
        result = _run_trial(config, index)
        elapsed = time.perf_counter() - t0
        cal_s, cal_cpu_s = timed_calibration()
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        with open(os.path.join(self.out_dir, f"times.{os.getpid()}.txt"), "a") as fh:
            fh.write(f"{index} {elapsed!r} {cal_s!r} {cal_cpu_s!r} {rss}\n")
        return result


def _cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _read_times(out: Path, trials: int) -> tuple[dict[str, list[float]], float]:
    """Per-trial seconds, calibration seconds and calibration CPU seconds by
    index, and the summed peak RSS (MB) of the pool workers that ran them
    (0 when every trial ran in this process)."""
    times = {key: [float("nan")] * trials for key in ("trial_s", "cal_s", "cal_cpu_s")}
    worker_kb = 0
    for path in sorted(out.glob("times.*.txt")):
        peak = 0
        for line in path.read_text().splitlines():
            index, *seconds, rss = line.split()
            for key, value in zip(times, seconds, strict=True):
                times[key][int(index)] = float(value)
            peak = max(peak, int(rss))
        if int(path.name.split(".")[1]) != os.getpid():
            worker_kb += peak
    return times, worker_kb / 1024.0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--config", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trials", type=int, required=True)
    ap.add_argument("--threads", type=int, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--traced", action="store_true")
    args = ap.parse_args(argv)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    cfg = replace(harness.config_from_file(args.config), seed=args.seed, trials=args.trials,
                  threads=args.threads, out_csv=str(out / "trials.csv"),
                  out_summary=str(out / "summary.json"))
    record: dict = {"trials": args.trials, "threads": args.threads}

    if args.traced:
        import tracing

        store = tracing.SpanStore()
        tracer = tracing.Tracer(store)
        tracer.install()
        t0 = time.perf_counter()
        span = store.open(tracing.RUN)
        try:
            report = harness.run_experiment(cfg)
        finally:
            store.close(span)
            tracer.uninstall()
        record["wall_s"] = time.perf_counter() - t0
        a = store.arrays()
        trial_spans = a["name"] == store.names.index(tracing.TRIAL)
        record["trial_s"] = (a["end"] - a["start"])[trial_spans].tolist()
        record["unwrapped"] = tracer.missing
        record["layers"] = tracing.layer_metrics(store, tracer.trial_results, report)
        store.save(out / "spans.npz")
    else:
        harness.run_trial = TimedTrial(str(out))
        cpu0 = _cpu_seconds()
        t0 = time.perf_counter()
        try:
            report = harness.run_experiment(cfg)
        finally:
            harness.run_trial = _run_trial
        record["wall_s"] = time.perf_counter() - t0
        record["cpu_s"] = _cpu_seconds() - cpu0
        times, worker_mb = _read_times(out, args.trials)
        record.update(times)
        own_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        record["peak_rss_mb"] = own_mb + worker_mb
    if len(record["trial_s"]) != args.trials or any(map(math.isnan, record["trial_s"])):
        raise RuntimeError("run_experiment did not pass every trial through harness.run_trial")
    record["report"] = report.to_dict()
    (out / "measure.json").write_text(json.dumps(record) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
