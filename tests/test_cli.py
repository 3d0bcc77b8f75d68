"""Command-line interface: subcommands, exit codes, artifacts."""

import argparse
import json
import re
from pathlib import Path

import pytest

from quantile_bandits import cli, grouped, hardness, harness
from quantile_bandits.cli import build_parser, main
from quantile_bandits.bounds import bound_pulls_finite
from quantile_bandits.elimination import gap_profile
from quantile_bandits.harness import config_from_file

SCHEDULE = Path(__file__).resolve().parent / "contract" / "gaussian-pwl-schedule.json"
README = Path(__file__).resolve().parent.parent / "README.md"

CONFIG_FLAGS = {"--config", "--seed", "--alpha", "--eps", "--delta", "--delta-gap"}
TRIAL_FLAGS = {"--trials", "--out", "--threads"}

INSTANCE = {
    "name": "pair",
    "alpha": 0.5,
    "family": {"kind": "bernoulli"},
    "groups": [
        {"id": "hi", "atoms": [[0.7, 1.0]]},
        {"id": "lo", "atoms": [[0.3, 1.0]]},
    ],
}


@pytest.fixture
def schedule_path(tmp_path):
    path = tmp_path / "sched.json"
    path.write_text(json.dumps({
        "instance": INSTANCE, "eps": [0.2, 0.15], "delta_gap": [0.2, 0.1],
        "delta": 0.1, "trials": 2, "seed": 3,
    }))
    return path


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "exp.json"
    path.write_text(json.dumps({
        "instance": INSTANCE, "eps": 0.2, "delta_gap": 0.2, "delta": 0.1,
        "trials": 4, "seed": 99,
    }))
    return path


class TestRun:
    def test_run_writes_artifacts(self, config_path, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["run", "--config", str(config_path), "--out", str(out)])
        assert code == 0
        assert (out / "trials.csv").exists()
        assert (out / "summary.json").exists()
        payload = json.loads(capsys.readouterr().out)
        assert payload["trials"] == 4

    def test_missing_config_names_path(self, tmp_path, capsys):
        # a directory is no config file either
        for path in ("does/not/exist.json", str(tmp_path)):
            assert main(["run", "--config", path]) == 2
            assert f"error: config file not found: {path}" in capsys.readouterr().err

    def test_unknown_subcommand_nonzero(self, capsys):
        assert main(["frobnicate"]) != 0
        # a grid over tolerances is a loop over run
        assert main(["sweep", "--config", "exp.json"]) == 2
        assert "invalid choice: 'sweep'" in capsys.readouterr().err

    def test_flag_overrides(self, config_path, capsys):
        code = main(["run", "--config", str(config_path), "--trials", "2", "--seed", "5"])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["trials"] == 2

    def test_malformed_schedule_is_an_error_not_a_traceback(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        for schedule, message in (
                ({"eps": [0.2, "x"], "delta_gap": [0.2, 0.1]},
                 "error: config.eps[1]: expected a number, got 'x'"),
                ({"eps": [0.2, 0.15], "delta_gap": 0.1}, "got 2 and 1 epochs"),
                ({"schedule": {"eps": [0.2], "delta_gap": [0.2]}},
                 "error: config.schedule: unknown field")):
            path.write_text(json.dumps(dict(schedule, instance=INSTANCE)))
            assert main(["run", "--config", str(path)]) == 2
            assert message in capsys.readouterr().err

    def test_eps_override_on_schedule_config(self, schedule_path, capsys):
        # --eps alone leaves a two-epoch delta_gap schedule beside one eps
        assert main(["run", "--config", str(schedule_path), "--eps", "0.2"]) == 2
        err = capsys.readouterr().err
        assert "eps and delta_gap schedules" in err and "got 1 and 2 epochs" in err
        code = main(["run", "--config", str(schedule_path), "--eps", "0.2",
                     "--delta-gap", "0.2", "--trials", "2"])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["trials"] == 2

    def test_noiseless_is_a_family_not_a_flag(self, config_path, tmp_path, capsys):
        data = json.loads(config_path.read_text())
        flagged, quiet = tmp_path / "flagged.json", tmp_path / "quiet.json"
        flagged.write_text(json.dumps(dict(data, noiseless=True)))
        noiseless = dict(INSTANCE, family={"kind": "noiseless"})
        quiet.write_text(json.dumps(dict(data, instance=noiseless)))
        assert main(["run", "--config", str(flagged)]) == 2
        assert "error: config.noiseless: unknown field" in capsys.readouterr().err
        assert main(["run", "--config", str(quiet), "--out", str(tmp_path / "quiet")]) == 0
        assert main(["run", "--config", str(config_path), "--out", str(tmp_path / "noisy")]) == 0
        quiet_csv, noisy_csv = ((tmp_path / d / "trials.csv").read_bytes()
                                for d in ("quiet", "noisy"))
        assert quiet_csv != noisy_csv

    def test_bad_alpha_is_an_error_not_a_traceback(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"instance": dict(INSTANCE, alpha=[0.5]),
                                    "eps": 0.2, "delta_gap": 0.2}))
        assert main(["run", "--config", str(path)]) == 2
        assert "error: config.instance.alpha: expected a number" in capsys.readouterr().err

    @pytest.mark.parametrize("config, message", [
        ({"instance_file": 5}, "error: config.instance_file: expected a path string, got 5"),
        ({"instance": INSTANCE, "eps": "0.2"}, "error: config.eps: expected a number, got '0.2'"),
        ({"instance": INSTANCE, "delta_gap": float("nan")},
         "error: config.delta_gap: expected a finite number, got nan"),
        ({"instance_file": "."}, "error: config.instance_file: no such file: "),
    ])
    def test_mistyped_field_exits_2(self, tmp_path, capsys, config, message):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(dict({"eps": 0.2, "delta_gap": 0.2}, **config)))
        assert main(["run", "--config", str(path)]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("where", ["flag", "config"])
    def test_output_path_under_a_file_exits_2_before_any_trial(self, config_path, tmp_path,
                                                                monkeypatch, capsys, where):
        afile = tmp_path / "afile"
        afile.write_text("")
        monkeypatch.setattr(harness, "run_trial", lambda *args: pytest.fail("a trial ran"))
        argv = ["run", "--config", str(config_path)]
        if where == "flag":
            argv += ["--out", str(afile)]
        else:
            data = json.loads(config_path.read_text())
            config_path.write_text(json.dumps(dict(data, out_csv=str(afile / "trials.csv"))))
        assert main(argv) == 2
        assert str(afile) in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["trials.csv", "summary.json"])
    def test_output_file_that_is_a_directory_exits_2_before_any_trial(
            self, config_path, tmp_path, monkeypatch, capsys, name):
        out = tmp_path / "out"
        (out / name).mkdir(parents=True)
        calls, run_trial = [], harness.run_trial

        def record(*args):
            calls.append(args)
            return run_trial(*args)

        monkeypatch.setattr(harness, "run_trial", record)
        assert main(["run", "--config", str(config_path), "--out", str(out)]) == 2
        assert str(out / name) in capsys.readouterr().err
        assert calls == []
        assert sorted(p.name for p in out.iterdir()) == [name]

    def test_failed_run_keeps_earlier_outputs(self, config_path, tmp_path, monkeypatch, capsys):
        out = tmp_path / "out"
        out.mkdir()
        for name in ("trials.csv", "summary.json"):
            (out / name).write_text("earlier\n")

        def fail(*args):
            raise ValueError("trial failed")

        monkeypatch.setattr(harness, "run_trial", fail)
        assert main(["run", "--config", str(config_path), "--out", str(out)]) == 2
        assert "trial failed" in capsys.readouterr().err
        assert [(out / name).read_text() for name in ("trials.csv", "summary.json")] == \
            ["earlier\n"] * 2

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_nonfinite_delta_gap_flag_exits_2(self, config_path, capsys, value):
        assert main(["run", "--config", str(config_path), "--delta-gap", value]) == 2
        assert "gap must be positive and finite" in capsys.readouterr().err

    def test_numeric_flags_still_parse_from_strings(self, config_path, capsys):
        # argparse converts the flags; only JSON values go through the number check
        assert main(["run", "--config", str(config_path), "--eps", "0.2", "--delta", "0.1",
                     "--delta-gap", "0.2", "--alpha", "0.5", "--trials", "2"]) == 0
        assert json.loads(capsys.readouterr().out)["trials"] == 2

    def test_alpha_flag_is_the_config_alpha(self, tmp_path, capsys):
        # at alpha 0.3 the groups' 0.7-quantiles are 0.8 and 0.6; at 0.5
        # their medians are 0.3 and 0.4
        instance = dict(INSTANCE, groups=[
            {"id": "hi", "atoms": [[0.3, 0.5], [0.8, 0.5]]},
            {"id": "lo", "atoms": [[0.4, 0.5], [0.6, 0.5]]}])
        config = {"eps": 0.1, "delta_gap": 0.1, "delta": 0.05, "trials": 2, "seed": 5}
        runs = {}
        for name, alpha, flags in (("flag", 0.5, ["--alpha", "0.3"]), ("file", 0.3, []),
                                   ("half", 0.5, [])):
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(dict(config, instance=dict(instance, alpha=alpha))))
            out = tmp_path / name
            assert main(["run", "--config", str(path), *flags, "--out", str(out)]) == 0
            runs[name] = (out / "trials.csv").read_bytes()
        assert runs["flag"] == runs["file"] != runs["half"]


class TestBound:
    def test_prints_bound_values(self, config_path, capsys):
        code = main(["bound", "--config", str(config_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "finite-arm gap bound" in out
        assert "grouped reservoir bound" in out
        assert "worst-case bound" in out

    def test_schedule_config_prints_schedule_bound(self, schedule_path, capsys):
        # the same four lines as a one-epoch config, with one arm count per epoch
        assert main(["bound", "--config", str(schedule_path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(":")[0] for line in lines] == [
            "arms requested per group", "finite-arm gap bound (one sampled draw, seed 3)",
            "grouped reservoir bound", "worst-case bound"]
        assert lines[0] == "arms requested per group: 47, 82"

    def test_finite_bound_scores_the_first_epoch_draw(self, monkeypatch, capsys):
        # trial 0's first epoch is the one-epoch run at the schedule's first tolerances
        assert main(["bound", "--config", str(SCHEDULE)]) == 0
        schedule = capsys.readouterr().out.splitlines()
        assert main(["bound", "--config", str(SCHEDULE), "--eps", "0.25", "--delta-gap", "0.3"]) == 0
        first = capsys.readouterr().out.splitlines()
        assert schedule[0] == "arms requested per group: 39, 60"
        assert first[0] == "arms requested per group: 39"
        assert schedule[1] == first[1] == "finite-arm gap bound (one sampled draw, seed 7): 9276.53"
        # each override plans the epochs anew: the config's delta is 0.05, a
        # smaller one asks for more arms, and an alpha that leaves eps outside
        # (delta, min(alpha, 1 - alpha)) fails before any draw
        assert main(["bound", "--config", str(SCHEDULE), "--delta", "0.01"]) == 0
        assert capsys.readouterr().out.splitlines()[0] == "arms requested per group: 52, 80"
        monkeypatch.setattr(cli, "request_arms", None)
        assert main(["bound", "--config", str(SCHEDULE), "--alpha", "0.2"]) == 2
        assert "schedule[0]: need delta < eps" in capsys.readouterr().err

    def test_finite_bound_scores_the_draw_run_makes(self, monkeypatch, capsys):
        # bound rebuilds trial 0's first-epoch draw on its own; score the one
        # run_trial actually makes and compare
        cfg = config_from_file(SCHEDULE)
        draws, sample = [], grouped.request_arms

        def record(*args):
            draws.append(sample(*args))
            return draws[-1]

        monkeypatch.setattr(grouped, "request_arms", record)
        harness.run_trial(cfg, 0)
        groups, _, means = draws[0]
        profile = gap_profile(groups, means, cfg.instance.alpha, cfg.gap_schedule[0])
        finite = bound_pulls_finite(profile, means.size, cfg.delta)
        assert main(["bound", "--config", str(SCHEDULE)]) == 0
        assert capsys.readouterr().out.splitlines()[1] == \
            f"finite-arm gap bound (one sampled draw, seed 7): {finite:.6g}"


def parser_flags():
    """Each subcommand's option strings, without help."""
    subparsers = next(action for action in build_parser()._actions
                      if isinstance(action, argparse._SubParsersAction))
    return {name: {opt for action in sub._actions for opt in action.option_strings} - {"-h", "--help"}
            for name, sub in subparsers.choices.items()}


def readme_flags(text):
    """The README's ``| subcommand | flags |`` table as {subcommand: flags}."""
    table = text.split("| subcommand | flags |\n|---|---|\n", 1)[1].split("\n\n", 1)[0]
    flags = {}
    for row in table.splitlines():
        names, options = row.strip("|").split("|")
        for name in re.findall(r"`([^`]+)`", names):
            flags[name] = set(options.strip().strip("`").split())
    return flags


def test_each_subcommand_takes_exactly_its_flags():
    assert parser_flags() == {
        "run": CONFIG_FLAGS | TRIAL_FLAGS,
        "bound": CONFIG_FLAGS,
        "verify-lb": {"--eps", "--delta-gap", "--d-range"},
        "make-lb": {"--eps", "--delta-gap", "--groups", "--out"},
    }


def test_readme_flag_table_is_the_parser():
    assert readme_flags(README.read_text()) == parser_flags()


@pytest.mark.parametrize("argv", [
    ["bound", "--config", "exp.json", "--out", "x"],
    ["make-lb", "--eps", "0.2", "--delta-gap", "0.2", "--out", "x", "--scale", "4"],
    ["run", "--config", "exp.json", "--noiseless"],
    ["verify-lb", "--drift-limit", "0.5"],
])
def test_flags_a_subcommand_does_not_read_exit_2(argv, capsys):
    assert main(argv) == 2
    assert "unrecognized arguments" in capsys.readouterr().err


class TestVerifyLb:
    def test_default_grid_passes(self, capsys):
        code = main(["verify-lb"])
        assert code == 0
        out = capsys.readouterr().out
        assert "PASS" in out

    def test_single_point(self, capsys):
        code = main(["verify-lb", "--eps", "0.2", "--delta-gap", "0.2"])
        assert code == 0

    def test_flags_not_given_keep_the_verifier_defaults(self, monkeypatch, capsys):
        calls, verify = [], cli.verify_drift

        def record(*args, **kwargs):
            calls.append((args, kwargs))
            return verify(*args, **kwargs)

        monkeypatch.setattr(cli, "verify_drift", record)
        assert main(["verify-lb"]) == 0
        assert main(["verify-lb", "--d-range", "3"]) == 0
        assert calls == [((), {}), ((), {"d_values": range(-3, 4)})]

    @pytest.mark.parametrize("args", [["--eps", ","], ["--delta-gap", ","], ["--d-range", "-1"]])
    def test_empty_grid_is_an_error(self, args, capsys):
        assert main(["verify-lb", *args]) == 2
        captured = capsys.readouterr()
        assert "must all be nonempty" in captured.err and "PASS" not in captured.out

    def test_impossible_limit_fails(self, monkeypatch, capsys):
        monkeypatch.setattr(hardness, "DRIFT_LIMIT", 0.5)
        assert main(["verify-lb", "--eps", "0.2", "--delta-gap", "0.2"]) == 1
        out = capsys.readouterr().out
        assert "(limit 0.5)" in out and "FAIL" in out


class TestMakeLb:
    def test_emits_instance_configs(self, tmp_path, capsys):
        out = tmp_path / "lb"
        code = main(["make-lb", "--eps", "0.2", "--delta-gap", "0.2",
                     "--groups", "3", "--out", str(out)])
        assert code == 0
        files = sorted(out.glob("*.json"))
        assert len(files) == 3
        payload = json.loads(files[0].read_text())
        assert payload["alpha"] == 0.5
        assert payload["success_eps"] == pytest.approx(0.05)
        assert len(payload["groups"]) == 3

    def test_emitted_file_loads_as_instance_file(self, tmp_path, capsys):
        assert main(["make-lb", "--eps", "0.2", "--delta-gap", "0.2", "--out", str(tmp_path)]) == 0
        path = tmp_path / "exp.json"
        path.write_text(json.dumps({"instance_file": "hard2.json", "eps": 0.2, "delta_gap": 0.2,
                                    "delta": 0.1, "trials": 1}))
        capsys.readouterr()
        assert main(["bound", "--config", str(path)]) == 0
        assert "grouped reservoir bound" in capsys.readouterr().out

    def test_bad_params_rejected(self, tmp_path, capsys):
        code = main(["make-lb", "--eps", "0.3", "--delta-gap", "0.2",
                     "--out", str(tmp_path)])
        assert code == 2
        assert "eps" in capsys.readouterr().err
        # an output path under a file
        afile = tmp_path / "afile"
        afile.write_text("")
        assert main(["make-lb", "--eps", "0.2", "--delta-gap", "0.2", "--out", str(afile)]) == 2
        assert str(afile) in capsys.readouterr().err
