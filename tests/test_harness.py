"""Experiment harness: configs, determinism, CSV artifacts, aggregation."""

import ast
import csv
import json
import math
import multiprocessing
import os
import re
import signal
import subprocess
import sys
import threading
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from quantile_bandits import (
    AggregateReport,
    ExperimentConfig,
    config_from_dict,
    config_from_file,
    mix_seed,
    run_experiment,
    run_trial,
)
from quantile_bandits import cli, grouped, harness
from quantile_bandits.grouped import required_arm_count
from quantile_bandits.harness import CSV_COLUMNS

BENCH = Path(__file__).resolve().parent.parent / "bench"
README = BENCH.parent / "README.md"


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


INSTANCE = {
    "name": "pair",
    "alpha": 0.5,
    "family": {"kind": "bernoulli"},
    "groups": [
        {"id": "hi", "atoms": [[0.7, 1.0]]},
        {"id": "lo", "atoms": [[0.3, 1.0]]},
    ],
}


def small_config(tmp_path, **over):
    data = {
        "instance": INSTANCE,
        "eps": 0.2,
        "delta_gap": 0.2,
        "delta": 0.1,
        "trials": 8,
        "seed": 1234,
        "out_csv": str(tmp_path / "trials.csv"),
        "out_summary": str(tmp_path / "summary.json"),
    }
    data.update(over)
    return config_from_dict(data)


class TestSeedMixing:
    def test_deterministic_and_distinct(self):
        a = mix_seed(42, 0)
        assert a == mix_seed(42, 0)
        assert len({mix_seed(42, i) for i in range(1000)}) == 1000
        assert mix_seed(42, 0) != mix_seed(43, 0)

    def test_64_bit_range(self):
        for i in range(100):
            assert 0 <= mix_seed(2**63, i) < 2**64


class TestConfigValidation:
    def test_field_paths_in_errors(self):
        with pytest.raises(ValueError, match="config.instance"):
            config_from_dict({"eps": 0.2, "delta_gap": 0.1})
        with pytest.raises(ValueError, match="delta_gap"):
            config_from_dict({"instance": INSTANCE, "eps": 0.2})
        with pytest.raises(ValueError, match=r"groups\[1\]"):
            bad = dict(INSTANCE, groups=[INSTANCE["groups"][0], {"id": "x"}])
            config_from_dict({"instance": bad, "eps": 0.2, "delta_gap": 0.1})

    def test_malformed_values_name_their_field(self):
        base = {"instance": INSTANCE, "eps": 0.2, "delta_gap": 0.1}
        string_mean = dict(INSTANCE, groups=[{"id": "hi", "atoms": [["0.7", 1.0]]}])
        for over, field in (({"eps": "x"}, r"config\.eps:"),
                            ({"eps": "0.2"}, r"config\.eps: expected a number, got '0\.2'"),
                            ({"instance": string_mean},
                             r"config\.instance\.groups\[0\]\.atoms\[0\]\[0\]: "
                             r"expected a number"),
                            ({"instance_file": 5},
                             r"config\.instance_file: expected a path string, got 5"),
                            ({"trials": "many"}, r"config\.trials:"),
                            ({"delta": None}, r"config\.delta:"),
                            ({"eps": [0.2, "x"]}, r"config\.eps\[1\]: expected a number"),
                            ({"eps": []}, r"config\.eps: expected a nonempty list of numbers"),
                            ({"delta_gap": ["y"]}, r"config\.delta_gap\[0\]: expected a number"),
                            ({"trials": 2.9}, r"config\.trials: expected an integer"),
                            ({"trials": True}, r"config\.trials: expected an integer"),
                            ({"seed": 1.5}, r"config\.seed: expected an integer"),
                            ({"threads": False}, r"config\.threads: expected an integer"),
                            ({"delta": True}, r"config\.delta: expected a number"),
                            ({"delta": 10**400}, r"config\.delta: expected a number"),
                            ({"out_csv": 5}, r"config\.out_csv: expected a path string"),
                            ({"out_summary": ["s.json"]},
                             r"config\.out_summary: expected a path string"),
                            ({"instance_file": "inst.json"},
                             r"config\.instance_file: not allowed beside config\.instance")):
            with pytest.raises(ValueError, match=field):
                config_from_dict(dict(base, **over))
        # JSON text may spell NaN and the infinities; none passes as a number
        instance = json.dumps(INSTANCE)
        nan_mean = instance.replace("[[0.7, 1.0]]", "[[NaN, 1.0]]")
        inf_mass = instance.replace("[[0.3, 1.0]]", "[[0.3, Infinity]]")
        for inst, rest, field in (
                (instance, '"eps": 0.2, "delta_gap": NaN', r"config\.delta_gap"),
                (instance, '"eps": 0.2, "delta_gap": Infinity', r"config\.delta_gap"),
                (instance, '"eps": -Infinity, "delta_gap": 0.1', r"config\.eps"),
                (instance, '"eps": 0.2, "delta_gap": 0.1, "delta": NaN', r"config\.delta"),
                (instance, '"eps": [0.2], "delta_gap": [NaN]', r"config\.delta_gap\[0\]"),
                (nan_mean, '"eps": 0.2, "delta_gap": 0.1',
                 r"config\.instance\.groups\[0\]\.atoms\[0\]\[0\]"),
                (inf_mass, '"eps": 0.2, "delta_gap": 0.1',
                 r"config\.instance\.groups\[1\]\.atoms\[0\]\[1\]")):
            data = json.loads(f'{{"instance": {inst}, {rest}}}')
            with pytest.raises(ValueError, match=field + ": expected a finite number, got "):
                config_from_dict(data)

    def test_unknown_fields_rejected(self):
        base = {"instance": INSTANCE, "eps": 0.2, "delta_gap": 0.1}
        for key, value in (("trails", 3), ("c", 2.0), ("alpha", 0.3), ("noiseless", True),
                           ("schedule", {"eps": [0.2], "delta_gap": [0.1]})):
            with pytest.raises(ValueError, match=rf"config\.{key}: unknown field"):
                config_from_dict(dict(base, **{key: value}))

    def test_integral_numbers_accepted(self):
        cfg = config_from_dict({"instance": INSTANCE, "eps": 0.2, "delta_gap": 0.1,
                                "trials": 3.0, "seed": 7.0})
        assert cfg.trials == 3 and isinstance(cfg.trials, int)
        assert cfg.seed == 7 and isinstance(cfg.seed, int)

    def test_omitted_fields_take_the_dataclass_defaults(self):
        inst = config_from_dict({"instance": INSTANCE, "eps": 0.2, "delta_gap": 0.1}).instance
        assert config_from_dict({"instance": INSTANCE, "eps": 0.2, "delta_gap": 0.1}) == \
            ExperimentConfig(inst, (0.2,), (0.1,))

    def test_scalar_tolerances_are_a_one_epoch_schedule(self):
        cfg = config_from_dict({"instance": INSTANCE, "eps": 0.2, "delta_gap": 0.1})
        assert (cfg.eps_schedule, cfg.gap_schedule) == ((0.2,), (0.1,))
        assert (cfg.final_eps, cfg.final_gap) == (0.2, 0.1)

    def test_schedule_lengths_must_match(self):
        inst = config_from_dict({"instance": INSTANCE, "eps": 0.2, "delta_gap": 0.1}).instance
        for eps, gap in (((0.2, 0.15), (0.1,)), ((), ())):
            with pytest.raises(ValueError, match="eps and delta_gap schedules"):
                ExperimentConfig(instance=inst, eps_schedule=eps, gap_schedule=gap)
        with pytest.raises(ValueError, match=r"config: schedule\[1\]"):
            config_from_dict({"instance": INSTANCE, "delta": 0.1,
                              "eps": [0.2, 0.05], "delta_gap": [0.2, 0.1]})
        # a number beside a list is one epoch beside several
        with pytest.raises(ValueError, match=r"config: eps and delta_gap schedules .*"
                                             r"got 2 and 1 epochs"):
            config_from_dict({"instance": INSTANCE, "eps": [0.2, 0.15], "delta_gap": 0.1})

    def test_readme_configs_parse(self):
        blocks = re.findall(r"```json\n(.*?)```", README.read_text(), re.S)
        assert len(blocks) == 2
        cfgs = [config_from_dict(json.loads(block)) for block in blocks]
        assert [len(cfg.eps_schedule) for cfg in cfgs] == [1, 2]

    def test_tolerances_validated_eagerly(self):
        with pytest.raises(ValueError):
            config_from_dict({"instance": INSTANCE, "eps": 0.2, "delta_gap": 0.1,
                              "delta": 0.5})  # delta > eps

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="nope.json"):
            config_from_file(tmp_path / "nope.json")
        with pytest.raises(FileNotFoundError, match=re.escape(str(tmp_path))):
            config_from_file(tmp_path)  # a directory

    @pytest.mark.parametrize("build, message", [
        (lambda inst: ExperimentConfig(inst, (0.2,), (0.1,), trials=-1),
         "trials must be nonnegative"),
        (lambda inst: ExperimentConfig(inst, (0.2,), (0.1,), threads=0),
         "threads must be at least 1"),
        (lambda inst: config_from_dict({"instance_file": "missing.json", "eps": 0.2,
                                        "delta_gap": 0.1}),
         r"config\.instance_file: no such file"),
        (lambda inst: config_from_dict({"instance_file": ".", "eps": 0.2, "delta_gap": 0.1}),
         r"config\.instance_file: no such file: \.$"),
        (lambda inst: config_from_dict({"instance": INSTANCE, "schedule": {
            "eps": [0.2], "delta_gap": [0.1]}}),
         r"config\.schedule: unknown field"),
    ])
    def test_rejects_invalid(self, build, message):
        inst = config_from_dict({"instance": INSTANCE, "eps": 0.2, "delta_gap": 0.1}).instance
        with pytest.raises(ValueError, match=message):
            build(inst)

    def test_instance_file_reference(self, tmp_path):
        inst_path = tmp_path / "inst.json"
        inst_path.write_text(json.dumps(INSTANCE))
        cfg = config_from_dict({"instance_file": "inst.json", "eps": 0.2, "delta_gap": 0.1},
                               base_dir=tmp_path)
        assert cfg.instance.name == "pair"


class TestDeterminism:
    def test_repeat_runs_byte_identical(self, tmp_path):
        cfg = small_config(tmp_path)
        run_experiment(cfg)
        first = (tmp_path / "trials.csv").read_bytes()
        run_experiment(cfg)
        assert (tmp_path / "trials.csv").read_bytes() == first

    def test_thread_count_invariant(self, tmp_path):
        cfg1 = small_config(tmp_path / "a")
        run_experiment(cfg1)
        cfg8 = small_config(tmp_path / "b", threads=8)
        run_experiment(cfg8)
        assert (tmp_path / "a" / "trials.csv").read_bytes() == \
            (tmp_path / "b" / "trials.csv").read_bytes()

    def test_trial_stream_independent_of_order(self, tmp_path):
        cfg = small_config(tmp_path)
        direct = run_trial(cfg, 5)
        again = run_trial(cfg, 5)
        assert direct.total_pulls == again.total_pulls
        assert direct.chosen_group == again.chosen_group


_RUN_TRIAL = harness.run_trial
CONTRACT = Path(__file__).resolve().parent / "contract"


class _RecordingTrial:
    """Stand-in for ``run_trial`` that records the running pid, the index and
    the live thread count of each trial in ``out_dir``, then waits until
    ``processes`` processes have each run one, so that every process gets a
    trial however the scheduler orders them.  Every wait ends at a deadline,
    so a missing process fails an assertion instead of hanging.

    ``fault`` ("raise in caller", "raise in child" or "kill in child") makes
    the first trial of one process fail once every process has its trial."""

    def __init__(self, out_dir: Path, processes: int, fault: str | None = None):
        self.out_dir = out_dir
        self.processes = processes
        self.fault = fault
        self.caller = os.getpid()
        self.deadline = time.monotonic() + 5.0
        out_dir.mkdir(parents=True)

    def _wait(self, done) -> None:
        while not done() and time.monotonic() < self.deadline:
            time.sleep(0.002)

    def __call__(self, config, index):
        # one empty file a trial: its name is all there is to read, so it
        # cannot be seen half written
        (self.out_dir / f"{os.getpid()} {index} {threading.active_count()}").touch()
        self._wait(lambda: len(self.runs()) >= self.processes)
        if self.fault is None:
            return _RUN_TRIAL(config, index)
        action, where = self.fault.split(" in ")
        if (where == "caller") == (os.getpid() == self.caller):
            if action == "kill":
                os.kill(os.getpid(), signal.SIGKILL)
            raise ValueError(f"trial {index} failed in the {where}")
        if self.fault == "raise in caller":
            # the child's trial outlasts the test unless the caller stops it
            self._wait(lambda: False)
        elif self.fault == "raise in child":
            # the child has moved the counter past the trials and exited
            self._wait(lambda: not multiprocessing.active_children())
        return _RUN_TRIAL(config, index)

    def runs(self) -> dict[int, list[tuple[int, int]]]:
        """``{pid: [(index, live threads), ...]}`` for every process that ran a trial."""
        runs: dict[int, list[tuple[int, int]]] = {}
        for path in self.out_dir.iterdir():
            pid, index, threads = map(int, path.name.split())
            runs.setdefault(pid, []).append((index, threads))
        return runs


def _exit_holding_the_counter(run, config, counter, conn):
    """A child's target that takes the trial counter's lock and exits inside it."""
    counter.get_lock().acquire()
    os._exit(3)


@pytest.fixture
def deadline():
    """Fail a test that runs past 10 s instead of stalling the suite."""
    def expire(signum, frame):
        raise TimeoutError("test ran past its 10 s deadline")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(10)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


@pytest.mark.usefixtures("deadline")
class TestPool:
    @pytest.mark.parametrize("threads, trials, processes", [(64, 2, 2), (2, 8, 2), (3, 3, 3)])
    def test_never_more_workers_than_trials(self, tmp_path, monkeypatch, threads, trials,
                                            processes):
        # the calling process is one of the workers: threads T starts T - 1 children
        monkeypatch.setattr(harness, "_usable_cpus", lambda: 64)
        recorder = _RecordingTrial(tmp_path / "runs", processes)
        monkeypatch.setattr(harness, "run_trial", recorder)
        live = threading.active_count()
        run_experiment(small_config(tmp_path / "pool", threads=threads, trials=trials))
        runs = recorder.runs()
        assert sorted(i for rows in runs.values() for i, _ in rows) == list(range(trials))
        assert os.getpid() in runs
        assert len(set(runs) - {os.getpid()}) == processes - 1  # distinct child pids
        # no thread in the caller, while its trials run or after
        assert {n for _, n in runs[os.getpid()]} == {live} == {threading.active_count()}
        assert multiprocessing.active_children() == []
        monkeypatch.setattr(harness, "run_trial", _RUN_TRIAL)
        run_experiment(small_config(tmp_path / "serial", trials=trials))
        assert ((tmp_path / "pool" / "trials.csv").read_bytes()
                == (tmp_path / "serial" / "trials.csv").read_bytes())

    def test_one_trial_runs_in_process(self, tmp_path, monkeypatch):
        monkeypatch.setattr(harness, "_usable_cpus", lambda: 64)
        recorder = _RecordingTrial(tmp_path / "runs", 1)
        monkeypatch.setattr(harness, "run_trial", recorder)
        run_experiment(small_config(tmp_path, threads=64, trials=1))
        assert recorder.runs() == {os.getpid(): [(0, threading.active_count())]}

    def test_never_more_workers_than_usable_cpus(self, tmp_path, monkeypatch):
        monkeypatch.setattr(harness, "_usable_cpus", lambda: 2)
        recorder = _RecordingTrial(tmp_path / "runs", 2)
        monkeypatch.setattr(harness, "run_trial", recorder)
        run_experiment(small_config(tmp_path, threads=64, trials=64))
        runs = recorder.runs()
        assert sorted(i for rows in runs.values() for i, _ in rows) == list(range(64))
        assert os.getpid() in runs and len(set(runs) - {os.getpid()}) == 1


@pytest.mark.usefixtures("deadline")
class TestWorkerFailures:
    # a failed child stops every process taking trials, and a failed caller
    # stops the child mid-trial: 2 trials run; a dead child stops nobody
    @pytest.mark.parametrize("fault, error, message, trials_run", [
        ("raise in caller", ValueError, r"^trial \d+ failed in the caller$", 2),
        ("raise in child", ValueError, r"^trial \d+ failed in the child$", 2),
        ("kill in child", ChildProcessError,
         r"^trial process \d+ exited with code -9 before sending its results$", 8),
    ])
    def test_run_raises_and_leaves_no_process(self, tmp_path, monkeypatch, fault, error,
                                              message, trials_run):
        monkeypatch.setattr(harness, "_usable_cpus", lambda: 64)
        recorder = _RecordingTrial(tmp_path / "runs", 2, fault)
        monkeypatch.setattr(harness, "run_trial", recorder)
        with pytest.raises(error, match=message):
            run_experiment(small_config(tmp_path, threads=2, trials=8))
        assert not (tmp_path / "trials.csv").exists()
        assert multiprocessing.active_children() == []
        assert sum(map(len, recorder.runs().values())) == trials_run

    def test_child_dying_inside_the_counter_lock_raises(self, tmp_path, monkeypatch):
        # a child that exits while it holds the trial counter's lock never
        # releases it; the caller's first trial waits for the child to be
        # gone, and its next wait for the lock ends in ChildProcessError,
        # not a hang past the deadline
        monkeypatch.setattr(harness, "_usable_cpus", lambda: 64)
        monkeypatch.setattr(harness, "_child", _exit_holding_the_counter)

        def after_the_child(config, index):
            end = time.monotonic() + 5.0
            while multiprocessing.active_children() and time.monotonic() < end:
                time.sleep(0.002)
            return _RUN_TRIAL(config, index)

        monkeypatch.setattr(harness, "run_trial", after_the_child)
        with pytest.raises(ChildProcessError, match=r"^trial process \d+ exited with code 3 "
                                                    r"and left the trial counter locked$"):
            run_experiment(small_config(tmp_path, threads=2, trials=8))
        assert not (tmp_path / "trials.csv").exists()
        assert multiprocessing.active_children() == []

    def test_cli_exits_2_when_a_child_dies(self, tmp_path, monkeypatch, capsys):
        # ChildProcessError is an OSError, which cli.main reports as an error
        monkeypatch.setattr(harness, "_usable_cpus", lambda: 64)
        monkeypatch.setattr(harness, "run_trial",
                            _RecordingTrial(tmp_path / "runs", 2, "kill in child"))
        path = tmp_path / "exp.json"
        path.write_text(json.dumps({"instance": INSTANCE, "eps": 0.2, "delta_gap": 0.2,
                                    "delta": 0.1, "trials": 8, "seed": 1234}))
        out = tmp_path / "out"
        assert cli.main(["run", "--config", str(path), "--out", str(out), "--threads", "2"]) == 2
        assert re.fullmatch(r"error: trial process \d+ exited with code -9 "
                            r"before sending its results\n", capsys.readouterr().err)
        assert not (out / "trials.csv").exists()
        assert multiprocessing.active_children() == []


def _run_in_subprocess(code: str) -> str:
    env = dict(os.environ)
    src = str(Path(harness.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60, check=True)
    return proc.stdout


@pytest.mark.parametrize("method", ["spawn", "forkserver"])
def test_children_write_the_same_bytes_under_every_start_method(tmp_path, method):
    # the children receive run_trial and the config pickled, not inherited by fork
    config = CONTRACT / "gaussian-pwl-schedule.json"
    code = f"""
import multiprocessing
from dataclasses import replace
from quantile_bandits import harness
multiprocessing.set_start_method({method!r})
harness._usable_cpus = lambda: 2
config = harness.config_from_file({str(config)!r})
for threads in (1, 2):
    harness.run_experiment(replace(config, threads=threads, out_summary=None,
                                   out_csv={str(tmp_path)!r} + f"/{{threads}}.csv"))
print(len(multiprocessing.active_children()))
"""
    assert _run_in_subprocess(code).strip() == "0"
    committed = (CONTRACT / "gaussian-pwl-schedule.trials.csv").read_bytes()
    for threads in (1, 2):
        assert (tmp_path / f"{threads}.csv").read_bytes() == committed


def test_importing_the_package_loads_no_process_pool(tmp_path):
    # the process modules load only when a run starts more than one worker
    code = f"""
import sys
import quantile_bandits
from quantile_bandits import harness
names = ("multiprocessing", "concurrent.futures")
print(*(name in sys.modules for name in names))
harness.run_experiment(harness.config_from_dict({{
    "instance": {INSTANCE!r}, "eps": 0.2, "delta_gap": 0.2, "delta": 0.1,
    "trials": 2, "threads": 1, "out_csv": {str(tmp_path / "trials.csv")!r}}}))
print(*(name in sys.modules for name in names))
"""
    assert _run_in_subprocess(code).split() == ["False"] * 4


def test_no_module_imports_a_private_name_of_a_sibling():
    # a name that another module needs is public where it is defined
    found = []
    for path in sorted(Path(harness.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                found += [f"{path.name}: .{node.module} {alias.name}" for alias in node.names
                          if alias.name.startswith("_")]
    assert found == []


class TestArtifacts:
    def test_csv_schema_and_row_count(self, tmp_path):
        cfg = small_config(tmp_path)
        run_experiment(cfg)
        rows = read_rows(tmp_path / "trials.csv")
        assert len(rows) == 8
        assert list(rows[0].keys()) == ["trial", "instance_id", "chosen_group", "success",
                                        "total_pulls", "rounds", "event_a", "max_bucket_size"]
        assert [r["trial"] for r in rows] == [str(i) for i in range(8)]
        assert all(r["instance_id"] == "pair" for r in rows)

    def test_ids_with_commas_and_quotes_round_trip(self, tmp_path):
        inst = dict(INSTANCE, name='p,q "r"', groups=[{"id": "hi,1", "atoms": [[0.7, 1.0]]},
                                                       {"id": "lo", "atoms": [[0.3, 1.0]]}])
        report = run_experiment(small_config(tmp_path, instance=inst, trials=2))
        rows = read_rows(tmp_path / "trials.csv")
        assert [list(r) for r in rows] == [list(CSV_COLUMNS)] * 2
        assert [(r["instance_id"], r["chosen_group"]) for r in rows] == [('p,q "r"', "hi,1")] * 2
        assert report.success_rate == 1.0

    def test_summary_recomputable_from_csv(self, tmp_path):
        cfg = small_config(tmp_path)
        report = run_experiment(cfg)
        rows = read_rows(tmp_path / "trials.csv")
        succ = np.mean([int(r["success"]) for r in rows])
        pulls = [int(r["total_pulls"]) for r in rows]
        assert report.success_rate == pytest.approx(succ)
        assert report.mean_pulls == pytest.approx(np.mean(pulls))
        assert report.max_pulls == max(pulls)
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["trials"] == 8
        assert summary["success_rate"] == pytest.approx(report.success_rate)

    def test_zero_trials_marked_undefined(self, tmp_path):
        cfg = small_config(tmp_path, trials=0)
        report = run_experiment(cfg)
        assert report.trials == 0
        assert report.success_rate is None
        assert json.loads((tmp_path / "summary.json").read_text())["success_rate"] == "undefined"
        assert (tmp_path / "trials.csv").read_text().strip().count("\n") == 0  # header only

    def test_schedule_config_runs(self, tmp_path):
        cfg = small_config(tmp_path)
        cfg = config_from_dict({
            "instance": INSTANCE,
            "eps": [0.2, 0.15], "delta_gap": [0.2, 0.1],
            "delta": 0.1, "trials": 3, "seed": 7,
            "out_csv": str(tmp_path / "sched.csv"),
        })
        assert (cfg.eps_schedule, cfg.gap_schedule) == ((0.2, 0.15), (0.2, 0.1))
        report = run_experiment(cfg)
        assert report.trials == 3
        assert report.success_rate == 1.0  # 0.4 median gap is easy

    def test_one_value_lists_are_the_scalar_run(self, tmp_path):
        rows = {}
        for name, eps, gap in (("scalar", 0.2, 0.1), ("list", [0.2], [0.1]), ("mixed", [0.2], 0.1)):
            run_experiment(small_config(tmp_path / name, eps=eps, delta_gap=gap))
            rows[name] = (tmp_path / name / "trials.csv").read_bytes()
        assert rows["list"] == rows["mixed"] == rows["scalar"]

    WORST_CASE = {"hard2-fine": 101981.77571763034, "three-group": 81458.10932456367,
                  "pwl-wide-pool": 343311.94089313556}

    @pytest.mark.parametrize("workload,rows,bound_grouped", [
        ("hard2-fine", 2, 461304.74503470655),
        ("three-group", 4, 255473.02115058483),
        ("pwl-wide-pool", 40, 97642.60263435828),
    ])
    def test_rows_and_bound_match_bench_reference(self, tmp_path, workload, rows, bound_grouped):
        # trials.csv bytes are the behavioural contract: a prefix of each
        # benchmark workload's committed reference rows, run in one process,
        # and its grouped and worst-case bounds to the last bit (per-group
        # sums, then 3*eps*N)
        cfg = replace(config_from_file(BENCH / "workloads" / f"{workload}.json"),
                      trials=rows, threads=1, out_csv=str(tmp_path / "trials.csv"))
        report = run_experiment(cfg)
        got = (tmp_path / "trials.csv").read_text().splitlines()
        reference = (BENCH / "reference" / f"{workload}.csv").read_text().splitlines()
        assert got == reference[:rows + 1]
        assert report.bound_grouped == bound_grouped
        assert report.bound_worst_case == self.WORST_CASE[workload]

    def test_report_fields_complete(self, tmp_path):
        report = run_experiment(small_config(tmp_path))
        assert isinstance(report, AggregateReport)
        assert report.bound_grouped > 0
        assert report.bound_worst_case > 0
        assert 0.0 <= report.event_a_rate <= 1.0
        assert 0.0 <= report.partition_bound_rate <= 1.0
        assert report.wall_clock_s > 0

    @pytest.mark.parametrize("overflowing_epoch, rate", [(None, 1.0), (0, 0.0), (1, 0.0)])
    def test_each_epoch_load_meets_its_own_cap(self, monkeypatch, overflowing_epoch, rate):
        # the cap 3 * eps * n grows as eps shrinks, so a coarse first epoch
        # whose largest bucket overflows its own cap can still fit the last
        # epoch's; the trial must count as outside the bound all the same
        # equal groups: both survive the first epoch, so the second one runs
        twins = dict(INSTANCE, groups=[{"id": "a", "atoms": [[0.5, 1.0]]},
                                       {"id": "b", "atoms": [[0.5, 1.0]]}])
        cfg = config_from_dict({"instance": twins, "delta": 0.1, "trials": 3,
                                "eps": [0.3, 0.15], "delta_gap": [0.3, 0.3]})
        caps = [3.0 * eps * required_arm_count(eps, cfg.delta, 2) for eps in cfg.eps_schedule]
        assert math.floor(caps[0]) + 1 <= caps[1]
        epochs, oracles = [], grouped._epoch_oracles

        def overflow(instance, groups, js, means, alpha, eps):
            sandwiched, largest = oracles(instance, groups, js, means, alpha, eps)
            k = cfg.eps_schedule.index(eps)
            epochs.append(k)
            return sandwiched, math.floor(caps[k]) + 1 if k == overflowing_epoch else largest

        monkeypatch.setattr(grouped, "_epoch_oracles", overflow)
        assert run_experiment(cfg).partition_bound_rate == rate
        assert epochs == [0, 1] * 3
