"""Command-line front end: experiments, sweeps, bound traces, validation.

Subcommands
-----------
run             one experiment; writes the per-step trace CSV and a
                summary CSV, prints the summary table
sweep           re-runs the experiment over a parameter grid; writes a
                long-format summary CSV
crlb            parametric / posterior bound traces as CSV
validate-lemmas closed-form-vs-Monte-Carlo oracle suite

Exit codes: 0 success; 1 a failed oracle check, an excluded `run`/`sweep`
(run, estimator) pair or a non-finite `crlb` bound; 2 bad usage or config.
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
from .models import AnchorSet, CvProcessModel, RangeNoiseModel, SensorNoiseModel
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

# config keys that set a `TrajectorySpec` field, and the field each sets
_TRAJECTORY_KEYS = {key: key for key in ("T", "speed", "heading", "start")} | {"amax": "a_max"}
# config keys that set the field of the same name in the range model, the
# sensor model, the `ParetoConfig`, the `ExperimentConfig` and (inside the
# "cv" block) the `CvProcessModel`
_RANGE_KEYS = ("sigma0_sq", "kappa")
_SENSOR_KEYS = ("sigma_v", "sigma_phi")
_PARETO_KEYS = ("rho", "beta_clip")
_RUN_KEYS = ("runs", "seed")
_CV_KEYS = {"sigma1_sq", "sigma2_sq", "sigma3_sq", "sigma4_sq"}

_CONFIG_KEYS = {
    "scenario", "estimators", "steps", "anchors", "cv",
    *_TRAJECTORY_KEYS, *_RANGE_KEYS, *_SENSOR_KEYS, *_PARETO_KEYS, *_RUN_KEYS,
}


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


def _given(settings: dict, keys, cast=float) -> dict:
    """`cast` of each of `keys` that `settings` holds.  A key it lacks is
    not passed on, so the library default of that field holds."""
    return {key: cast(settings[key]) for key in keys if key in settings}


def _integer(value) -> int:
    """`value` as an int; a fraction is an error, not truncated."""
    if not float(value).is_integer():
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


def _name_list(text: str) -> list:
    return [name.strip() for name in text.split(",") if name.strip()]


def _build_experiment(args) -> ExperimentConfig:
    """The experiment of the config file and the flags, the flags winning.
    The scenario is the subcommand's `default_scenario` when neither names
    one."""
    settings: dict = {}
    if args.config:
        settings.update(_load_config_file(args.config))
    for key in ("scenario", "estimators", "seed", "runs", "steps", "T", "speed", "amax"):
        value = getattr(args, key, None)
        if value is not None:
            settings[key] = value

    scenario = settings.get("scenario", args.default_scenario)
    if not isinstance(scenario, str):
        raise ConfigError(f"scenario must be A, B or CV, not {scenario!r}")
    # only the accelerating track has an acceleration cap to set
    if "amax" in settings and scenario.upper() != "B":
        raise ConfigError(f"amax applies only to scenario B, not {scenario}")
    try:
        spec = dataclasses.replace(
            make_scenario(scenario),
            **{field: settings[key] for key, field in _TRAJECTORY_KEYS.items() if key in settings},
            **_given(settings, ("steps",), _integer),
        )
        experiment = _given(settings, _RUN_KEYS, _integer)
        if "estimators" in settings:
            experiment["estimators"] = settings["estimators"]
        if "anchors" in settings:
            experiment["anchors"] = AnchorSet(np.asarray(settings["anchors"], dtype=float))
        if "cv" in settings:
            experiment["cv_filter"] = CvProcessModel(**_given(settings["cv"], _CV_KEYS))
        return ExperimentConfig(
            trajectory=spec,
            range_model=RangeNoiseModel(**_given(settings, _RANGE_KEYS)),
            sensor_model=SensorNoiseModel(**_given(settings, _SENSOR_KEYS)),
            pareto=ParetoConfig(
                **_given(settings, _PARETO_KEYS),
                initial_speed=spec.speed,
                initial_heading=spec.heading,
            ),
            **experiment,
        )
    except (TypeError, ValueError) as exc:
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


def _largest_error(errors: np.ndarray) -> str:
    """The largest error over the included runs and the run and step where
    it occurs, so that a finite but absurd result can be traced there."""
    run, step = np.unravel_index(np.nanargmax(errors), errors.shape)
    return f"max |error| = {errors[run, step] * 100.0:.4g} cm at run {run}, step {step}"


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
        if result.excluded[name] < result.runs:
            print(f"  {_largest_error(result.errors[name])}")
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
            print(
                f"{label}best {best} ({finished[best] * 100.0:.2f} cm; "
                f"{_largest_error(result.errors[best])})"
            )
        else:
            print(f"{label}no estimator finished")
        any_excluded |= _report_excluded(result, label)
    return 1 if any_excluded else 0


def _cmd_crlb(args) -> int:
    if args.ensemble < 1:
        raise ConfigError("--ensemble must be at least 1")
    config = _build_experiment(args)
    try:
        traces = crlb_traces(config, n_ensemble=args.ensemble)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if args.out:
        write_crlb(args.out, traces)
        print(f"bound traces written to {args.out}")
    n = len(traces["parcrlb"])
    lb, pcrlb, ub = traces["pcrlb_lb"], traces["pcrlb"], traces["pcrlb_ub"]
    # a bracket is printed only where it is finite and holds
    holds = traces["bracket_ok"]
    for k in sorted({0, n // 2, n - 1}):
        bracket = (
            f"[{lb[k] * 100.0:.2f}, {ub[k] * 100.0:.2f}]" if holds[k] else "(bracket does not hold)"
        )
        print(
            f"k = {k}: parametric {traces['parcrlb'][k] * 100.0:.2f} cm, "
            f"posterior {pcrlb[k] * 100.0:.2f} cm {bracket}"
        )
    print(f"a finite bracket [lb, ub] holds at {int(holds.sum())} of {n} steps")
    failed = ~(np.isfinite(traces["parcrlb"]) & np.isfinite(pcrlb))
    if failed.any():
        print(f"crlb: a bound is not finite at {failed.sum()} of {n} steps, "
              f"first at k = {np.argmax(failed)}", file=sys.stderr)
    return 1 if failed.any() else 0


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

    def add_experiment(p, default_scenario="A"):
        p.set_defaults(default_scenario=default_scenario)
        p.add_argument("--scenario", choices=["A", "B", "CV"],
                       help="trajectory preset: A linear, B accelerating, CV rollout "
                            f"(default {default_scenario})")
        p.add_argument("--seed", type=int)
        p.add_argument("--steps", type=int)
        p.add_argument("--T", type=float, help="step period, s")
        p.add_argument("--speed", type=float, help="initial speed, m/s")
        p.add_argument("--amax", type=float, help="acceleration cap for scenario B, m/s^2")
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--out", help="output CSV path")

    def add_monte_carlo(p):
        add_experiment(p)
        p.add_argument("--estimators", type=_name_list,
                       help="comma list: fusion,mse,wls,dr,ekf,ukf,lckf,ekf-cv")
        p.add_argument("--runs", type=int)

    p_run = sub.add_parser("run", help="run one experiment")
    add_monte_carlo(p_run)
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="sweep a trajectory parameter")
    add_monte_carlo(p_sweep)
    p_sweep.add_argument("--parameter", choices=["speed", "amax", "T"], required=True)
    p_sweep.add_argument("--values", required=True, help="comma list of values")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_crlb = sub.add_parser("crlb", help="bound traces")
    add_experiment(p_crlb, default_scenario="CV")
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
