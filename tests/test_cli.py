"""Command-line interface: argument plumbing, CSV artefacts, exit codes."""
import csv
import dataclasses
import importlib.metadata
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import paretoloc.cli
import paretoloc.validate
from paretoloc.cli import ConfigError, _build_experiment, _load_config_file, build_parser, main
from paretoloc.fusion import ParetoConfig
from paretoloc.models import RangeNoiseModel, SensorNoiseModel
from paretoloc.simulate import ExperimentConfig, make_scenario, run_experiment
from paretoloc.validate import CheckResult

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def test_parser_requires_subcommand():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_parser_knows_all_subcommands():
    parser = build_parser()
    for argv in (
        ["run"],
        ["sweep", "--parameter", "speed", "--values", "0.1"],
        ["crlb"],
        ["validate-lemmas"],
    ):
        args = parser.parse_args(argv)
        assert callable(args.func)


def test_python_dash_m_paretoloc_runs_the_cli_from_a_checkout(tmp_path):
    # with the package on the path (PYTHONPATH=src) and not installed,
    # `python -m paretoloc` is the `paretoloc` command
    src = Path(paretoloc.cli.__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src), env.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-m", "paretoloc", "--help"], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("usage: paretoloc ")
    assert "validate-lemmas" in done.stdout


def test_run_writes_trace_and_summary(tmp_path, capsys):
    out = tmp_path / "trace.csv"
    code = main(
        [
            "run",
            "--scenario",
            "A",
            "--steps",
            "40",
            "--runs",
            "2",
            "--estimators",
            "fusion,ekf",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 41
    assert rows[0][:3] == ["k", "truth_x1", "truth_x2"]
    with open(str(out) + ".summary.csv", newline="") as fh:
        srows = list(csv.reader(fh))
    assert srows[0] == ["estimator", "rmse_m", "p95_err_m", "runs", "excluded"]
    assert [r[0] for r in srows[1:]] == ["fusion", "ekf"]
    printed = capsys.readouterr().out
    assert "fusion: rmse =" in printed and "ekf: rmse =" in printed


def test_sweep_writes_long_format_csv(tmp_path):
    out = tmp_path / "sweep.csv"
    code = main(
        [
            "sweep",
            "--parameter",
            "speed",
            "--values",
            "0.1,0.3",
            "--steps",
            "30",
            "--runs",
            "2",
            "--estimators",
            "ekf",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == [
        "parameter",
        "value",
        "estimator",
        "rmse_m",
        "p95_err_m",
        "runs",
        "excluded",
    ]
    assert len(rows) == 3
    assert rows[1][:3] == ["speed", "0.1", "ekf"]
    assert rows[2][:3] == ["speed", "0.3", "ekf"]
    assert float(rows[1][3]) > 0.0


def test_crlb_defaults_to_cv_scenario(tmp_path, capsys):
    out = tmp_path / "crlb.csv"
    code = main(
        ["crlb", "--steps", "8", "--ensemble", "120", "--out", str(out)]
    )
    assert code == 0
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["k", "parcrlb", "pcrlb", "pcrlb_lb", "pcrlb_ub"]
    assert len(rows) == 9
    assert float(rows[1][1]) > 0.0
    assert "parametric" in capsys.readouterr().out


def test_crlb_on_cv_reads_the_cv_block_of_a_config_file(tmp_path, capsys):
    # the posterior bound rolls out the same CV model the EKF-CV filter
    # uses: a config file's cv block, also on the CV scenario
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"cv": {"sigma1_sq": 1e-17, "sigma2_sq": 1e-17}}))
    argv = ["crlb", "--scenario", "CV", "--steps", "60", "--ensemble", "200"]
    assert main(argv) == 0
    default = capsys.readouterr().out.splitlines()
    assert main(argv + ["--config", str(cfg)]) == 0
    quiet = capsys.readouterr().out.splitlines()
    # three step lines and the bracket's share of steps
    assert len(default) == len(quiet) == 4
    # step 0 is the shared prior; the later posterior lines move
    assert quiet[0] == default[0]
    for line, base in zip(quiet[1:3], default[1:3]):
        assert line.split("posterior")[0] == base.split("posterior")[0]
        assert line.split("posterior")[1] != base.split("posterior")[1]


def test_crlb_takes_the_scenario_of_a_config_file(tmp_path, capsys):
    # CV is crlb's scenario only when neither the file nor a flag names one
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"scenario": "A"}))
    argv = ["crlb", "--steps", "20", "--ensemble", "100"]
    assert main([*argv, "--scenario", "A"]) == 0
    flag = capsys.readouterr().out
    assert main([*argv, "--config", str(cfg)]) == 0
    assert capsys.readouterr().out == flag
    assert main(argv) == 0
    assert capsys.readouterr().out != flag


def test_crlb_prints_each_step_once_and_a_bracket_only_where_it_holds(tmp_path, capsys):
    out = tmp_path / "crlb.csv"
    assert main(["crlb", "--steps", "200", "--ensemble", "1000", "--out", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()[1:]
    with open(out, newline="") as fh:
        rows = [[float(v) for v in row] for row in list(csv.reader(fh))[1:]]
    holds = [math.isfinite(ub) and lb <= post <= ub for _, _, post, lb, ub in rows]
    assert [line.split(":")[0] for line in lines[:3]] == ["k = 0", "k = 100", "k = 199"]
    for line, k in zip(lines, (0, 100, 199)):
        assert ("[" in line) == holds[k]
        assert ("(bracket does not hold)" in line) != holds[k]
    # the default CV run holds its bracket at every step
    assert lines[3] == "a finite bracket [lb, ub] holds at 200 of 200 steps" == (
        f"a finite bracket [lb, ub] holds at {sum(holds)} of 200 steps"
    )
    # two steps print k = 1 once
    assert main(["crlb", "--steps", "2", "--ensemble", "50"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines[:-1]] == ["k = 0", "k = 1"]


@pytest.mark.parametrize(
    "argv, settings, field",
    [
        (["run"], {"kappa": float("nan")}, "kappa"),
        (["crlb"], {"kappa": float("nan")}, "kappa"),
        (["run"], {"sigma_phi": float("inf")}, "sigma_phi"),
        (["run"], {"cv": {"sigma1_sq": float("nan")}}, "sigma1_sq"),
        (["crlb"], {"cv": {"sigma4_sq": float("inf")}}, "sigma4_sq"),
        (["run"], {"anchors": [[0, 0], [4, 0], [0, 4], [4, float("nan")]]}, "anchor positions"),
    ],
)
def test_non_finite_model_settings_exit_before_any_run(
    argv, settings, field, tmp_path, monkeypatch, capsys
):
    def must_not_run(config, *args, **kwargs):
        raise AssertionError("an experiment ran despite a config error")

    monkeypatch.setattr(paretoloc.cli, "run_experiment", must_not_run)
    monkeypatch.setattr(paretoloc.cli, "crlb_traces", must_not_run)
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(settings))
    assert main([*argv, "--config", str(cfg)]) == 2
    captured = capsys.readouterr()
    assert f"config error: {field} must be finite" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "settings, field",
    [
        ({"sigma_v": 0}, "sigma_v"),
        ({"sigma_phi": 0}, "sigma_phi"),
        ({"cv": {"sigma1_sq": 0}}, "sigma1_sq"),
        # 1/sigma^2 is 0 or past the largest double: the bound raised
        # ZeroDivisionError (1e-300) or OverflowError (1e300)
        ({"sigma_v": 1e-300}, "sigma_v"),
        ({"sigma_v": 1e300}, "sigma_v"),
        ({"sigma_phi": 1e-300}, "sigma_phi"),
        ({"sigma_phi": 1e300}, "sigma_phi"),
        ({"cv": {"sigma3_sq": 1e-320}}, "sigma3_sq"),
    ],
)
def test_crlb_with_a_zero_noise_setting_exits_before_any_bound(
    settings, field, tmp_path, monkeypatch, capsys
):
    def must_not_run(config, *args, **kwargs):
        raise AssertionError("a bound ran despite a config error")

    monkeypatch.setattr(paretoloc.cli, "crlb_traces", must_not_run)
    cfg = tmp_path / "zero.json"
    cfg.write_text(json.dumps(settings))
    assert main(["crlb", "--config", str(cfg), "--steps", "20"]) == 2
    captured = capsys.readouterr()
    assert f"config error: the bounds invert {field}" in captured.err
    assert captured.out == ""


def test_run_with_a_zero_speed_noise_still_runs(tmp_path, capsys):
    # no estimator divides by sigma_v
    cfg = tmp_path / "zero.json"
    cfg.write_text(json.dumps({"sigma_v": 0}))
    assert main(["run", "--config", str(cfg), "--steps", "20", "--runs", "2"]) == 0
    assert "excluded 0/2" in capsys.readouterr().out


@pytest.mark.parametrize("flag", [["--runs", "7"], ["--estimators", "ekf"]])
def test_crlb_rejects_the_monte_carlo_flags(flag, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["crlb", "--steps", "5", *flag])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err


def test_bare_run_builds_the_library_default_experiment():
    # the CLI passes on only what a file or a flag sets
    config = _build_experiment(build_parser().parse_args(["run"]))
    default = ExperimentConfig(trajectory=make_scenario("A"))
    assert config.range_model == RangeNoiseModel()
    assert config.sensor_model == SensorNoiseModel()
    assert config.anchors is default.anchors
    assert config.cv_filter is None
    assert (config.estimators, config.runs, config.seed) == (
        default.estimators, default.runs, default.seed
    )
    pareto = ParetoConfig()
    for field in dataclasses.fields(ParetoConfig):
        if field.name not in ("initial_speed", "initial_heading"):
            want, got = getattr(pareto, field.name), getattr(config.pareto, field.name)
            np.testing.assert_array_equal(got, want, err_msg=field.name)
    # the fusion's kinematic prior is the track's initial state
    assert (config.pareto.initial_speed, config.pareto.initial_heading) == (
        config.trajectory.speed, config.trajectory.heading
    )


def test_config_file_and_flag_precedence(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {
                "scenario": "B",
                "amax": 0.3,
                "steps": 30,
                "runs": 1,
                "estimators": ["ekf"],
                "sigma_v": 0.02,
            }
        )
    )
    out = tmp_path / "trace.csv"
    # the command line wins over the file where both specify a value
    code = main(
        ["run", "--config", str(cfg), "--steps", "20", "--out", str(out)]
    )
    assert code == 0
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 21
    assert rows[0][3:6] == ["ekf_x1", "ekf_x2", "ekf_err"]


def test_config_file_validation(tmp_path):
    bad_key = tmp_path / "bad.json"
    bad_key.write_text(json.dumps({"scenario": "A", "wind": 3}))
    assert main(["run", "--config", str(bad_key)]) == 2

    not_object = tmp_path / "list.json"
    not_object.write_text("[1, 2]")
    assert main(["run", "--config", str(not_object)]) == 2

    bad_cv = tmp_path / "cv.json"
    bad_cv.write_text(json.dumps({"cv": {"sigma9_sq": 1.0}}))
    assert main(["run", "--config", str(bad_cv)]) == 2

    assert main(["run", "--config", str(tmp_path / "missing.json")]) == 2

    with pytest.raises(ConfigError):
        _load_config_file(str(bad_key))


def test_bad_settings_exit_with_config_error(tmp_path, capsys):
    assert main(["run", "--estimators", "kalman", "--steps", "10"]) == 2
    assert "config error" in capsys.readouterr().err

    start_cfg = tmp_path / "start.json"
    start_cfg.write_text(json.dumps({"start": [1.0]}))
    assert main(["run", "--config", str(start_cfg)]) == 2

    noise_cfg = tmp_path / "noise.json"
    noise_cfg.write_text(json.dumps({"sigma0_sq": -1.0}))
    assert main(["run", "--config", str(noise_cfg)]) == 2


@pytest.mark.parametrize(
    "argv, settings",
    [
        (["run"], {"scenario": 3}),
        (["run"], {"steps": 30.5}),
        (["run"], {"start": "ab"}),
        (["run"], {"estimators": 5}),
        (["run"], {"runs": 2.5}),
        (["run"], {"seed": 1.5}),
        (["run"], {"seed": -1}),
        (["run", "--seed", "-1"], None),
        (["sweep", "--parameter", "speed", "--values", "0.1", "--seed", "-1"], None),
        (["crlb", "--seed", "-1"], None),
        (["run"], {"estimators": []}),
        (["run"], {"estimators": ["fusion", "fusion"]}),
        (["run", "--estimators", ","], None),
        (["run", "--estimators", "fusion,ekf,fusion"], None),
    ],
)
def test_mistyped_settings_exit_with_config_error(argv, settings, tmp_path, monkeypatch, capsys):
    def must_not_run(config, *args, **kwargs):
        raise AssertionError("an experiment ran despite a config error")

    monkeypatch.setattr(paretoloc.cli, "run_experiment", must_not_run)
    monkeypatch.setattr(paretoloc.cli, "crlb_traces", must_not_run)
    if settings is not None:
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(settings))
        argv = [*argv, "--config", str(cfg)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert "config error" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["--scenario", "B", "--amax", "-1"],
        ["--scenario", "B", "--amax", "nan"],
        ["--scenario", "B", "--speed", "inf"],
        ["--scenario", "A", "--T", "nan"],
    ],
)
def test_bad_trajectory_settings_exit_with_config_error(argv, capsys):
    assert main(["run", "--steps", "10", "--runs", "2", *argv]) == 2
    captured = capsys.readouterr()
    assert "config error" in captured.err
    assert "rmse" not in captured.out


@pytest.mark.parametrize(
    "settings",
    [
        {"rho": 1.5},
        {"rho": -0.5},
        {"rho": float("nan")},
        {"heading": float("nan")},
    ],
)
def test_bad_config_values_exit_with_config_error(settings, tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(settings))
    argv = ["run", "--config", str(cfg), "--steps", "10", "--runs", "2"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert "config error" in captured.err
    assert "rmse" not in captured.out


@pytest.mark.parametrize(
    "settings", [{"mode": "mse"}, {"fixed_rho": 0.5}, {"mode": "fixed", "rho": 0.3}]
)
def test_the_retired_weight_keys_are_unknown_config_keys(settings, tmp_path, monkeypatch, capsys):
    def must_not_run(config, *args, **kwargs):
        raise AssertionError("an experiment ran despite a config error")

    monkeypatch.setattr(paretoloc.cli, "run_experiment", must_not_run)
    cfg = tmp_path / "old.json"
    cfg.write_text(json.dumps(settings))
    assert main(["run", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "unknown config keys" in err
    assert all(key in err for key in settings if key != "rho")


def test_a_rho_setting_runs_fusion_at_that_weight(tmp_path):
    cfg, out = tmp_path / "rho.json", tmp_path / "trace.csv"
    cfg.write_text(json.dumps({"rho": 0.3}))
    argv = ["run", "--config", str(cfg), "--steps", "30", "--runs", "2", "--estimators", "fusion"]
    assert _build_experiment(build_parser().parse_args(argv)).pareto.rho == 0.3
    assert main([*argv, "--out", str(out)]) == 0
    with open(out, newline="") as fh:
        written = np.array([row[3:5] for row in list(csv.reader(fh))[1:]], dtype=float)
    spec = make_scenario("A", steps=30)
    for rho in (0.3, None):
        pareto = ParetoConfig(rho=rho, initial_speed=spec.speed, initial_heading=spec.heading)
        result = run_experiment(
            ExperimentConfig(trajectory=spec, estimators=("fusion",), runs=2, pareto=pareto)
        )
        # the trace holds 10 significant digits
        same = np.allclose(written, result.estimate_traces["fusion"], rtol=1e-9, atol=0.0)
        assert same == (rho == 0.3), rho


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "--scenario", "B", "--parameter", "amax", "--values", "0.5,-1"],
        ["sweep", "--scenario", "B", "--parameter", "amax", "--values", "0.1,abc"],
        ["sweep", "--scenario", "A", "--parameter", "T", "--values", "0.1,0"],
        ["sweep", "--scenario", "A", "--parameter", "amax", "--values", "0.1,0.9"],
        ["run", "--scenario", "A", "--amax", "-1", "--estimators", "fusion"],
        ["run", "--scenario", "A", "--amax", "0.5"],
        ["run", "--scenario", "CV", "--amax", "0.5"],
        ["crlb", "--amax", "0.5"],
    ],
)
def test_bad_sweep_values_and_stray_amax_exit_before_any_run(argv, monkeypatch, capsys):
    def must_not_run(config, *args, **kwargs):
        raise AssertionError("an experiment ran despite a config error")

    monkeypatch.setattr(paretoloc.cli, "run_experiment", must_not_run)
    monkeypatch.setattr(paretoloc.cli, "crlb_traces", must_not_run)
    runs = [] if argv[0] == "crlb" else ["--runs", "1"]
    assert main([*argv, *runs, "--steps", "10"]) == 2
    captured = capsys.readouterr()
    assert "config error" in captured.err
    assert captured.out == ""


def test_amax_in_a_config_file_needs_scenario_b(tmp_path, capsys):
    cfg = tmp_path / "amax.json"
    cfg.write_text(json.dumps({"scenario": "A", "amax": 0.3}))
    assert main(["run", "--config", str(cfg), "--steps", "10", "--runs", "1"]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("ensemble", ["0", "-3"])
def test_crlb_rejects_an_empty_ensemble(ensemble, capsys):
    assert main(["crlb", "--steps", "5", "--ensemble", ensemble]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("samples", ["nan", "inf", "-5", "0"])
def test_validate_lemmas_rejects_bad_samples(samples, monkeypatch, capsys):
    def checks_must_not_run(scale=1.0, verbose=True):
        raise AssertionError(f"oracle suite ran at scale {scale}")

    monkeypatch.setattr(paretoloc.validate, "run_all_checks", checks_must_not_run)
    assert main(["validate-lemmas", "--samples", samples]) == 2
    assert "config error" in capsys.readouterr().err


def test_validate_lemmas_exit_codes(monkeypatch):
    seen = {}

    def fake_checks(scale=1.0, verbose=True):
        seen["scale"] = scale
        return [
            CheckResult(name="a", passed=True, detail="", data={}),
            CheckResult(name="b", passed=True, detail="", data={}),
        ]

    monkeypatch.setattr(paretoloc.validate, "run_all_checks", fake_checks)
    assert main(["validate-lemmas", "--samples", "250000"]) == 0
    assert seen["scale"] == pytest.approx(0.25)

    def failing_checks(scale=1.0, verbose=True):
        return [CheckResult(name="a", passed=False, detail="off", data={})]

    monkeypatch.setattr(paretoloc.validate, "run_all_checks", failing_checks)
    assert main(["validate-lemmas"]) == 1


def test_console_entry_point_is_wired(capsys):
    # the declaration the repo ships: pyproject.toml [project.scripts]
    tomllib = pytest.importorskip("tomllib")
    with open(PYPROJECT, "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert scripts == {"paretoloc": "paretoloc.cli:main"}

    module_name, _, attr = scripts["paretoloc"].partition(":")
    target = getattr(importlib.import_module(module_name), attr)
    assert target is main
    with pytest.raises(SystemExit) as exc:
        target(["--help"])
    assert exc.value.code == 0
    assert "usage: paretoloc" in capsys.readouterr().out

    # an installed copy must carry the same entry point in its metadata
    try:
        dist = importlib.metadata.distribution("paretoloc")
    except importlib.metadata.PackageNotFoundError:
        return
    targets = [
        ep.value
        for ep in dist.entry_points
        if ep.group == "console_scripts" and ep.name == "paretoloc"
    ]
    assert targets == [scripts["paretoloc"]]


def _excluded_counts(stdout: str) -> dict:
    """estimator -> excluded count, from the summary lines of `run`."""
    counts = {}
    for line in stdout.splitlines():
        name, sep, rest = line.partition(": rmse =")
        if sep:
            counts[name] = int(rest.rpartition("excluded ")[2].split("/")[0])
    return counts


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("kappa", [50.0, 5.0])
def test_run_with_excluded_runs_exits_one(kappa, tmp_path, capsys):
    # range noise that grows as exp(kappa r) ruins whole runs; the summary
    # still prints, and the exit code and stderr say that runs were lost
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"kappa": kappa}))
    code = main(
        ["run", "--scenario", "B", "--runs", "3", "--steps", "60", "--config", str(config)]
    )
    captured = capsys.readouterr()
    counts = _excluded_counts(captured.out)
    assert code == 1
    assert counts["fusion"] == 3
    lines = [line for line in captured.err.splitlines() if "runs excluded" in line]
    assert lines == [
        f"{name}: {n}/3 runs excluded (a step raised or gave a non-finite estimate)"
        for name, n in counts.items()
        if n
    ]


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_run_traces_each_largest_error_to_its_run_and_step(tmp_path, capsys):
    # a finite but absurd error (the EKF at about 8e61 cm here) still prints
    # as an RMSE; the line under it names the run and step that carry it
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"kappa": 50.0}))
    argv = ["run", "--scenario", "B", "--runs", "3", "--steps", "60", "--config", str(config)]
    assert main(argv) == 1
    lines = capsys.readouterr().out.splitlines() + [""]
    result = run_experiment(_build_experiment(build_parser().parse_args(argv)))
    largest = {}
    for name in result.estimators:
        at = next(i for i, line in enumerate(lines) if line.startswith(f"{name}: rmse ="))
        found = re.fullmatch(r"  max \|error\| = (\S+) cm at run (\d+), step (\d+)", lines[at + 1])
        if result.excluded[name] == result.runs:
            assert found is None, lines[at + 1]
            continue
        errors = result.errors[name]
        run, step = int(found[2]), int(found[3])
        assert errors[run, step] == np.nanmax(errors)
        assert float(found[1]) == pytest.approx(errors[run, step] * 100.0, rel=1e-3)
        largest[name] = float(found[1])
    assert largest["ekf"] > 1e60


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_sweep_with_excluded_runs_exits_one_and_names_no_nan_best(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"kappa": 50.0}))
    argv = ["sweep", "--scenario", "B", "--runs", "3", "--steps", "60", "--config", str(config),
            "--parameter", "amax", "--values", "0.1,0.5"]
    assert main(argv + ["--estimators", "fusion,wls"]) == 1
    captured = capsys.readouterr()
    assert "amax = 0.1: no estimator finished" in captured.out
    assert "amax = 0.5: no estimator finished" in captured.out
    assert "nan" not in captured.out
    assert "amax = 0.5: wls: 3/3 runs excluded" in captured.err

    # with one estimator left standing, the best is the finite one, and
    # its absurd size is traced to the run and step that carry it
    assert main(argv) == 1
    captured = capsys.readouterr()
    for line in captured.out.splitlines():
        assert "best ekf (" in line and "nan" not in line
        assert line.endswith("; max |error| = 8.338e+61 cm at run 0, step 0)")


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "argv, failure",
    [
        (["crlb", "--T", "1e100"], "crlb: a bound is not finite at 198 of 200 steps, first at k = 1"),
        (
            ["crlb", "--T", "1e154", "--steps", "3", "--ensemble", "2"],
            "crlb: a bound is not finite at 2 of 3 steps, first at k = 1",
        ),
    ],
    ids=["crlb-1e100", "crlb-1e154"],
)
def test_a_huge_step_period_exits_one_and_names_the_failure(argv, failure, capsys):
    # the track fits, but the bounds run into inf: crlb counts the steps
    assert main(argv) == 1
    lines = capsys.readouterr().err.splitlines()
    assert any(line.startswith(failure) for line in lines), lines


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_a_range_noise_that_overflows_on_the_rollouts_leaves_the_bounds_quiet(tmp_path, capsys):
    # kappa = 1000 overflows exp(kappa r) on every rollout: the bounds
    # print as before, with no numpy warning from the range noise
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"kappa": 1000}))
    assert main(["crlb", "--config", str(config)]) == 0
    captured = capsys.readouterr()
    assert captured.out.splitlines() == [
        "k = 0: parametric 141.42 cm, posterior 141.42 cm [141.42, 141.42]",
        "k = 100: parametric 141.63 cm, posterior 141.51 cm [141.51, 141.51]",
        "k = 199: parametric 141.84 cm, posterior 141.60 cm [141.60, 141.60]",
        "a finite bracket [lb, ub] holds at 200 of 200 steps",
    ]
    assert captured.err == ""


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_a_tiny_pwl_step_period_runs_without_a_traceback(capsys):
    # the breakpoint stride is about 2e300 steps: the ramp was sized by
    # it, not by the 20 steps it integrates, and numpy refused the size
    argv = ["run", "--scenario", "B", "--T", "1e-300", "--steps", "20", "--runs", "2"]
    assert main(argv) in (0, 1, 2)
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, failure",
    [
        (["run", "--scenario", "A", "--T", "1e307", "--steps", "300", "--runs", "1"],
         "T = 1e+307 takes the linear track of 300 steps"),
        (["sweep", "--parameter", "T", "--values", "0.1,1e307", "--runs", "1"],
         "T = 1e+307 takes the linear track of 300 steps"),
        (["crlb", "--scenario", "A", "--T", "1e307", "--ensemble", "2"],
         "T = 1e+307 takes the linear track of 300 steps"),
        (["crlb", "--T", "1e307", "--ensemble", "2"], "T = 1e+307 takes the cv track of 200 steps"),
        (["run", "--scenario", "B", "--T", "1e155", "--steps", "5", "--runs", "1"],
         "T = 1e+155 takes the pwl track of 5 steps"),
        # the track's squares would overflow: a run kept a 3.9e155 cm EKF
        # row, or excluded every run, behind numpy warnings
        (["run", "--T", "1e155", "--steps", "5", "--runs", "2"],
         "T = 1e+155 takes the linear track of 5 steps"),
        (["run", "--scenario", "A", "--T", "1e200", "--steps", "3", "--runs", "1"],
         "T = 1e+200 takes the linear track of 3 steps"),
        (["sweep", "--parameter", "T", "--values", "0.1,1e155", "--steps", "5", "--runs", "2"],
         "T = 1e+155 takes the linear track of 5 steps"),
        (["crlb", "--T", "1e155", "--steps", "3", "--ensemble", "2"],
         "T = 1e+155 takes the cv track of 3 steps"),
    ],
    ids=[
        "run-1e307", "sweep-1e307", "crlb-A-1e307", "crlb-CV-1e307", "run-B-1e155",
        "run-1e155", "run-A-1e200", "sweep-1e155", "crlb-1e155",
    ],
)
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_a_track_past_the_largest_double_is_a_config_error(argv, failure, capsys):
    # T times the track's duration takes it so far that its squared
    # distances would pass the largest double (for "pwl", T^2 counts as
    # well): the spec is refused before anything is drawn
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: step period {failure} past the largest double"), err


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "--scenario", "A", "--T", "1e150", "--steps", "5", "--runs", "2"],
        ["sweep", "--parameter", "T", "--values", "0.1,1e150", "--steps", "5", "--runs", "2"],
    ],
    ids=["run", "sweep"],
)
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_a_track_whose_range_noise_variance_overflows_is_a_config_error(argv, monkeypatch, capsys):
    # the track fits in a double, but one dead-reckoned step takes the
    # prediction 3.5e149 m from it, where sigma0^2 exp(kappa r) overflows:
    # the run printed numpy overflow warnings and excluded every run
    monkeypatch.setattr(paretoloc.cli, "run_experiment", None)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(
        "config error: the range-noise variance overflows on the linear track of 5 steps "
        "at T = 1e+150 s: a dead-reckoned prediction one step of T (speed + 5 sigma_v) "
        "= 3.5e+149 m past the track reaches 4.95e+149 m from an anchor"
    ), captured.err


@pytest.mark.parametrize(
    "command",
    [["run"], ["sweep", "--parameter", "speed", "--values", "0.1,0.2"]],
    ids=["run", "sweep"],
)
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_a_pwl_start_outside_its_box_is_a_config_error(command, tmp_path, monkeypatch, capsys):
    # the track steers into its box from a start 1.4e6 m from the anchors,
    # where sigma0^2 exp(kappa r) overflows: the run printed a numpy
    # overflow warning, excluded every run of every estimator and exited 1
    cfg = tmp_path / "far.json"
    cfg.write_text(json.dumps({"start": [1e6, 1e6]}))
    monkeypatch.setattr(paretoloc.cli, "run_experiment", None)
    argv = [*command, "--scenario", "B", "--steps", "20", "--runs", "2", "--config", str(cfg)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(
        "config error: the range-noise variance overflows on the pwl track of 20 steps"
    ), captured.err


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_a_linear_start_outside_its_box_is_folded_in_and_runs(tmp_path, capsys):
    # scenario A reflects its straight line into the box, start included
    cfg = tmp_path / "far.json"
    cfg.write_text(json.dumps({"start": [1e6, 1e6]}))
    argv = ["run", "--scenario", "A", "--steps", "20", "--runs", "2", "--config", str(cfg)]
    assert main(argv) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_a_track_inside_the_range_noise_bound_runs(capsys):
    # T = 2800 s is just inside scenario A's bound at 5 steps (2880 s)
    assert main(["run", "--scenario", "A", "--T", "2800", "--steps", "5", "--runs", "2"]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize(
    "argv, t_step",
    [
        (["run", "--scenario", "B", "--T", "10", "--runs", "2", "--estimators", "fusion,ekf"], "10"),
        (["sweep", "--scenario", "B", "--parameter", "T", "--values", "0.1,2.5", "--runs", "1"], "2.5"),
        (["crlb", "--scenario", "B", "--T", "2.5", "--ensemble", "2"], "2.5"),
    ],
    ids=["run-B-10", "sweep-B-2.5", "crlb-B-2.5"],
)
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_a_pwl_step_past_the_breakpoint_period_is_a_config_error(argv, t_step, capsys):
    # the run at T = 10 excluded both fusion runs and kept a 1231 m EKF
    # RMSE: the steering aims at 2 s segments and the track left its cell
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(
        f"config error: step period T = {t_step} s is longer than the pwl track's "
        "breakpoint period of 2 s"
    ), captured.err


_ALL_ESTIMATORS = "fusion,mse,wls,dr,ekf,ukf,lckf,ekf-cv"


@pytest.mark.parametrize(
    "argv",
    [
        *(
            ["run", "--scenario", scenario, "--estimators", _ALL_ESTIMATORS,
             "--runs", "3", "--steps", "60"]
            for scenario in ("A", "B", "CV")
        ),
        ["sweep", "--scenario", "B", "--parameter", "amax", "--values", "0.25,0.75",
         "--estimators", _ALL_ESTIMATORS, "--runs", "3", "--steps", "60"],
        ["crlb", "--scenario", "CV", "--steps", "50", "--ensemble", "100"],
        ["crlb", "--scenario", "B", "--steps", "50", "--ensemble", "100"],
        ["validate-lemmas", "--samples", "20000"],
    ],
    ids=["run-A", "run-B", "run-CV", "sweep-B", "crlb-CV", "crlb-B", "validate-lemmas"],
)
def test_default_paths_raise_no_warning_and_no_floating_point_error(argv, tmp_path, capsys):
    # every warning is an error, and so is an overflow, an invalid
    # operation or a division by zero anywhere numpy does not silence it
    if argv[0] != "validate-lemmas":
        argv = [*argv, "--out", str(tmp_path / "out.csv")]
    with warnings.catch_warnings(), np.errstate(over="raise", invalid="raise", divide="raise"):
        warnings.simplefilter("error")
        assert main(argv) == 0
    assert capsys.readouterr().err == ""


_FAR_ANCHORS = {
    "1e300": [[0, 0], [1e300, 0], [0, 1e300], [1e300, 1e300]],
    "1e308": [[-1e308, -1e308], [1e308, -1e308], [-1e308, 1e308], [1e308, 1e308]],
}
_PROBE_COMMANDS = {
    "run": ["run", "--steps", "20", "--runs", "2"],
    "sweep": ["sweep", "--parameter", "speed", "--values", "0.1", "--steps", "20", "--runs", "2"],
    "crlb": ["crlb", "--steps", "20", "--ensemble", "50"],
}


@pytest.mark.parametrize("anchors", list(_FAR_ANCHORS))
@pytest.mark.parametrize("scenario", ["A", "B", "CV"])
@pytest.mark.parametrize("command", list(_PROBE_COMMANDS))
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_far_anchors_are_a_config_error_that_names_the_bound(
    command, scenario, anchors, tmp_path, capsys
):
    # anchors at 1e300 m overflowed the distinctness check's norms (a numpy
    # warning; crlb then printed bounds and exited 0), and at 1e308 m the
    # collinearity check's differences, which read "anchors are collinear"
    cfg = tmp_path / "far.json"
    cfg.write_text(json.dumps({"anchors": _FAR_ANCHORS[anchors]}))
    argv = [*_PROBE_COMMANDS[command], "--scenario", scenario, "--config", str(cfg)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(
        "config error: anchor coordinates must be within +/-3.35e+153 m"
    ), captured.err


def _probe_table(command, scenario):
    """ROADMAP item 16's single-key configs of one command and scenario."""
    keys = ["T", "speed", "heading", "sigma0_sq", "kappa", "sigma_v", "sigma_phi", "rho",
            "beta_clip"] + (["amax"] if scenario == "B" else [])
    values = [0.0, 1e-300, -1e-300, 1e300, -1.0, math.inf, math.nan]
    table = [{key: value} for key in keys for value in values]
    table += [{"start": [1e300, 1e300]}, {"start": [math.nan, 0.0]}]
    table += [{"anchors": anchors} for anchors in _FAR_ANCHORS.values()]
    if scenario == "CV":
        table += [
            {"cv": {key: value}}
            for key in sorted(paretoloc.cli._CV_KEYS) for value in (1e-300, 1e300, math.inf)
        ]
    return table


@pytest.mark.parametrize("scenario", ["A", "B", "CV"])
@pytest.mark.parametrize("command", list(_PROBE_COMMANDS))
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_every_extreme_single_key_config_exits_cleanly(command, scenario, tmp_path, capsys):
    # each key at 0, +-1e-300, 1e300, -1, inf and nan, a far or NaN start,
    # the far anchor sets and (CV) extreme process variances: exit 0, 1 or
    # 2 with no numpy warning, and an exit 1 names its failure on stderr
    cfg = tmp_path / "probe.json"
    failures = []
    table = _probe_table(command, scenario)
    for settings in table:
        cfg.write_text(json.dumps(settings))
        try:
            code = main([*_PROBE_COMMANDS[command], "--scenario", scenario, "--config", str(cfg)])
        except Exception as exc:  # a warning turned error, or a traceback
            code = f"{type(exc).__name__}: {exc}"
        err = capsys.readouterr().err
        if code not in (0, 1, 2) or (code == 1 and not err.strip()):
            failures.append((settings, code))
    assert len(table) == {"A": 67, "B": 74, "CV": 79}[scenario]
    assert failures == []
