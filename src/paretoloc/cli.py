"""Command-line front end: experiments, sweeps, bound traces, validation.

Subcommands
-----------
run             one experiment; writes the per-step trace CSV and a
                summary CSV, prints the summary table
sweep           re-runs the experiment over a parameter grid; writes a
                long-format summary CSV
crlb            parametric / posterior bound traces as CSV
validate-lemmas closed-form-vs-Monte-Carlo oracle suite

Exit codes: 0 success; 1 a failed oracle check, or a `run`/`sweep` with
an excluded (run, estimator) pair; 2 bad usage or config.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import sys

import numpy as np

from .fusion import ParetoConfig
from .models import (
    DEFAULT_ANCHORS,
    AnchorSet,
    CvProcessModel,
    RangeNoiseModel,
    SensorNoiseModel,
)
from .simulate import (
    SUMMARY_HEADER,
    ExperimentConfig,
    crlb_traces,
    make_scenario,
    run_experiment,
    summary_rows,
    sweep_configs,
    write_crlb,
    write_run_trace,
    write_summary,
)

_CONFIG_KEYS = {
    "scenario",
    "estimators",
    "seed",
    "runs",
    "steps",
    "T",
    "speed",
    "heading",
    "amax",
    "start",
    "anchors",
    "sigma0_sq",
    "kappa",
    "sigma_v",
    "sigma_phi",
    "mode",
    "fixed_rho",
    "beta_clip",
    "cv",
}

_CV_KEYS = {"sigma1_sq", "sigma2_sq", "sigma3_sq", "sigma4_sq"}


class ConfigError(Exception):
    """Malformed configuration (bad key, bad value, unreadable file)."""


def _load_config_file(path: str) -> dict:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config file must hold a JSON object")
    unknown = set(raw) - _CONFIG_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    if "cv" in raw:
        if not isinstance(raw["cv"], dict) or set(raw["cv"]) - _CV_KEYS:
            raise ConfigError(f"cv block must only hold {sorted(_CV_KEYS)}")
    return raw


def _build_experiment(args) -> ExperimentConfig:
    settings: dict = {}
    if args.config:
        settings.update(_load_config_file(args.config))
    for key in ("scenario", "seed", "runs", "steps", "T", "speed", "amax"):
        value = getattr(args, key.replace("-", "_"), None)
        if value is not None:
            settings[key] = value
    if args.estimators is not None:
        settings["estimators"] = [e.strip() for e in args.estimators.split(",") if e.strip()]

    scenario = settings.get("scenario", "A")
    overrides = {}
    for key, attr in (("steps", "steps"), ("T", "T"), ("speed", "speed")):
        if key in settings:
            overrides[attr] = settings[key]
    if "amax" in settings:
        # only the accelerating track has an acceleration cap to set
        if scenario.upper() != "B":
            raise ConfigError(f"amax applies only to scenario B, not {scenario}")
        overrides["a_max"] = settings["amax"]
    try:
        spec = make_scenario(scenario, **overrides)
        if "heading" in settings:
            spec = dataclasses.replace(spec, heading=float(settings["heading"]))
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc
    if "start" in settings:
        start = np.asarray(settings["start"], dtype=float)
        if start.shape != (2,):
            raise ConfigError("start must be [x1, x2]")
        spec = dataclasses.replace(spec, start=start)

    try:
        range_model = RangeNoiseModel(
            sigma0_sq=float(settings.get("sigma0_sq", 0.0625)),
            kappa=float(settings.get("kappa", 0.25)),
        )
        sensor_model = SensorNoiseModel(
            sigma_v=float(settings.get("sigma_v", 0.05)),
            sigma_phi=float(settings.get("sigma_phi", np.pi / 8.0)),
        )
        pareto = ParetoConfig(
            mode=settings.get("mode", "knee"),
            fixed_rho=float(settings.get("fixed_rho", 0.5)),
            beta_clip=float(settings.get("beta_clip", 0.99)),
            initial_speed=spec.speed,
            initial_heading=spec.heading,
        )
        anchors = (
            AnchorSet(np.asarray(settings["anchors"], dtype=float))
            if "anchors" in settings
            else DEFAULT_ANCHORS
        )
        cv_filter = None
        if "cv" in settings:
            cv_filter = CvProcessModel(T=spec.T, **{k: float(v) for k, v in settings["cv"].items()})
        return ExperimentConfig(
            trajectory=spec,
            anchors=anchors,
            range_model=range_model,
            sensor_model=sensor_model,
            pareto=pareto,
            cv_filter=cv_filter,
            estimators=tuple(settings.get("estimators", ("fusion", "ekf", "ukf", "lckf"))),
            runs=int(settings.get("runs", 10)),
            seed=int(settings.get("seed", 0)),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _report_excluded(result, label: str = "") -> bool:
    """One stderr line per estimator with excluded runs; True if any."""
    excluded = [name for name in result.estimators if result.excluded[name]]
    for name in excluded:
        print(
            f"{label}{name}: {result.excluded[name]}/{result.runs} runs excluded "
            "(a step raised or gave a non-finite estimate)",
            file=sys.stderr,
        )
    return bool(excluded)


def _cmd_run(args) -> int:
    config = _build_experiment(args)
    result = run_experiment(config)
    if args.out:
        write_run_trace(args.out, result)
        summary_path = args.out + ".summary.csv"
        write_summary(summary_path, result)
        print(f"trace written to {args.out}, summary to {summary_path}")
    for name in result.estimators:
        print(
            f"{name}: rmse = {result.rmse[name] * 100.0:.2f} cm, "
            f"p95 = {result.p95[name] * 100.0:.2f} cm, "
            f"excluded {result.excluded[name]}/{result.runs}"
        )
    return 1 if _report_excluded(result) else 0


def _cmd_sweep(args) -> int:
    config = _build_experiment(args)
    try:
        values = [float(v) for v in args.values.split(",") if v.strip()]
        experiments = sweep_configs(config, args.parameter, values)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if not experiments:
        raise ConfigError("no sweep values given")
    rows = [(value, run_experiment(cfg)) for value, cfg in experiments]
    if args.out:
        with open(args.out, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["parameter", "value", *SUMMARY_HEADER])
            for value, result in rows:
                for row in summary_rows(result):
                    writer.writerow([args.parameter, f"{value:.10g}", *row])
        print(f"sweep written to {args.out}")
    any_excluded = False
    for value, result in rows:
        label = f"{args.parameter} = {value:g}: "
        finished = {name: r for name, r in result.rmse.items() if math.isfinite(r)}
        if finished:
            best = min(finished, key=finished.get)
            print(f"{label}best {best} ({finished[best] * 100.0:.2f} cm)")
        else:
            print(f"{label}no estimator finished")
        any_excluded |= _report_excluded(result, label)
    return 1 if any_excluded else 0


def _cmd_crlb(args) -> int:
    if args.ensemble < 1:
        raise ConfigError("--ensemble must be at least 1")
    args.scenario = args.scenario or "CV"
    config = _build_experiment(args)
    traces = crlb_traces(config, steps=args.steps, n_ensemble=args.ensemble)
    if args.out:
        write_crlb(
            args.out,
            traces["parcrlb"],
            traces["pcrlb"],
            traces["pcrlb_lb"],
            traces["pcrlb_ub"],
        )
        print(f"bound traces written to {args.out}")
    n = len(traces["parcrlb"])
    for k in (0, n // 2, n - 1):
        print(
            f"k = {k}: parametric {traces['parcrlb'][k] * 100.0:.2f} cm, "
            f"posterior {traces['pcrlb'][k] * 100.0:.2f} cm "
            f"[{traces['pcrlb_lb'][k] * 100.0:.2f}, {traces['pcrlb_ub'][k] * 100.0:.2f}]"
        )
    return 0


def _cmd_validate(args) -> int:
    from .validate import run_all_checks

    if not 0.0 < args.samples < math.inf:
        raise ConfigError("--samples must be finite and positive")
    scale = args.samples / 1e6
    results = run_all_checks(scale=scale, verbose=True)
    return 0 if all(r.passed for r in results) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="paretoloc",
        description="Sensor-fusion localization experiments and bounds",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--scenario", choices=["A", "B", "CV"], default=None,
                       help="trajectory preset: A linear, B accelerating, CV rollout")
        p.add_argument("--estimators", default=None,
                       help="comma list: fusion,mse,wls,dr,ekf,ukf,lckf,ekf-cv")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--runs", type=int, default=None)
        p.add_argument("--steps", type=int, default=None)
        p.add_argument("--T", type=float, default=None, help="step period, s")
        p.add_argument("--speed", type=float, default=None, help="initial speed, m/s")
        p.add_argument("--amax", type=float, default=None,
                       help="acceleration cap for scenario B, m/s^2")
        p.add_argument("--config", default=None, help="JSON config file")
        p.add_argument("--out", default=None, help="output CSV path")

    p_run = sub.add_parser("run", help="run one experiment")
    add_common(p_run)
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="sweep a trajectory parameter")
    add_common(p_sweep)
    p_sweep.add_argument("--parameter", choices=["speed", "amax", "T"], required=True)
    p_sweep.add_argument("--values", required=True, help="comma list of values")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_crlb = sub.add_parser("crlb", help="bound traces")
    add_common(p_crlb)
    p_crlb.add_argument("--ensemble", type=int, default=1000,
                        help="rollout ensemble size for the posterior bound")
    p_crlb.set_defaults(func=_cmd_crlb)

    p_val = sub.add_parser("validate-lemmas", help="closed-form-vs-MC oracle suite")
    p_val.add_argument("--samples", type=float, default=1e6,
                       help="MC sample budget for the heaviest checks")
    p_val.set_defaults(func=_cmd_validate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
