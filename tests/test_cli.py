"""Command-line interface: argument plumbing, CSV artefacts, exit codes."""
import csv
import importlib.metadata
import json
from pathlib import Path

import numpy as np
import pytest

import paretoloc.cli
import paretoloc.validate
from paretoloc.cli import ConfigError, _load_config_file, build_parser, main
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


def test_crlb_rejects_unknown_model(capsys):
    assert main(["crlb", "--model", "turn", "--steps", "4"]) == 2
    assert "config error" in capsys.readouterr().err


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
        {"mode": "fixed", "fixed_rho": 1.5},
        {"mode": "fixed", "fixed_rho": -0.5},
        {"mode": "fixed", "fixed_rho": float("nan")},
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
    assert main([*argv, "--runs", "1", "--steps", "10"]) == 2
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
