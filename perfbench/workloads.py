"""The benchmark's workloads: inputs from a seed, the timed body, and the
correctness gate that counts attempted and failed operations.

Each workload calls only the public `paretoloc` API.  `build` is the
set-up a user pays before the first call (it runs in the fresh
interpreters that `setup_s` times); `body` is the timed pass.
"""

from __future__ import annotations

import dataclasses
import math
import sys
from dataclasses import dataclass, field

import numpy as np

import paretoloc as pl
from paretoloc import validate

DEFAULT_SEED = 0
# Outputs at DEFAULT_SEED must match perfbench/reference.json to this
# relative tolerance.  It admits a change of summation order (about 1e-15)
# and rejects any change of the estimators' or bounds' arithmetic.
REFERENCE_RTOL = 1e-9

# Shape of `paretoloc crlb` and `paretoloc validate-lemmas` at their defaults.
BOUND_STEPS = 200
BOUND_ENSEMBLE = 1000
ORACLE_SCALE = 1.0
# The oracle suite's check names, in the order of validate.ALL_CHECKS.
CHECK_NAMES = (
    "noise-cov-inverse",
    "ranging-bias",
    "ranging-second-moment",
    "dr-moments",
    "optimal-beta",
    "trig-moments",
    "fisher-blocks",
    "ratio-bounds",
    "gershgorin-ordering",
    "recursion-identities",
)


@dataclass(slots=True)
class Tally:
    """Operations attempted and failed, with a line for each failure."""

    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def record(self, ok: bool, problem: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(problem)


@dataclass(frozen=True)
class McWorkload:
    """`run_experiment` on one scenario; an operation is a (run, estimator) pair."""

    name: str
    scenario: str
    scenario_args: dict
    estimators: tuple
    runs: int
    # Estimator subsets re-run on the same seed; their per-step errors
    # must equal the full run's bit for bit (paired noise).
    probe_subsets: tuple = ()

    def build(self, seed: int) -> pl.ExperimentConfig:
        spec = pl.make_scenario(self.scenario, **self.scenario_args)
        return pl.ExperimentConfig(
            trajectory=spec,
            pareto=pl.ParetoConfig(initial_speed=spec.speed, initial_heading=spec.heading),
            estimators=self.estimators,
            runs=self.runs,
            seed=seed,
        )

    def body(self, config: pl.ExperimentConfig) -> pl.RunResult:
        return pl.run_experiment(config)

    def run_steps(self, config: pl.ExperimentConfig) -> int:
        """Run-steps summed over estimators, per pass."""
        return config.runs * config.trajectory.steps * len(config.estimators)

    def verify(self, config, result: pl.RunResult, tally: Tally) -> None:
        # run_experiment marks exclusions by NaN at step 0 only, so every
        # step of every row is checked here.
        for name in result.estimators:
            for run in range(result.runs):
                tally.record(
                    bool(np.all(np.isfinite(result.errors[name][run]))),
                    f"{name} run {run}: excluded or non-finite error",
                )

    def probe(self, config, result: pl.RunResult, tally: Tally) -> None:
        for subset in self.probe_subsets:
            alone = pl.run_experiment(dataclasses.replace(config, estimators=subset))
            for name in subset:
                tally.record(
                    np.array_equal(alone.errors[name], result.errors[name], equal_nan=True),
                    f"paired noise broken: {name} run alone differs from the full run",
                )

    def digest(self, result: pl.RunResult) -> dict:
        return {f"rmse.{name}": [result.rmse[name]] for name in result.estimators}

    def layer_metrics(self, result: pl.RunResult, stats: dict) -> dict:
        rows = [np.all(np.isfinite(e), axis=1) for e in result.errors.values()]
        included = sum(int(r.sum()) for r in rows)
        return {"simulate.runs_included_ratio": (included / (result.runs * len(rows)), "ratio")}

    def report(self, config, result: pl.RunResult) -> list:
        rmse = "  ".join(f"{n} {result.rmse[n] * 100.0:.4f}" for n in result.estimators)
        return [f"seeded RMSE (cm, seed {config.seed}): {rmse}"]


@dataclass(frozen=True)
class BoundsWorkload:
    """`crlb_traces` on CV, then the oracle suite.

    An operation is an oracle check or a nominal bound step (both the
    parametric and the posterior bound finite).
    """

    name: str

    def build(self, seed: int) -> pl.ExperimentConfig:
        spec = pl.make_scenario("CV")
        return pl.ExperimentConfig(trajectory=spec, cv_filter=spec.cv, seed=seed)

    def body(self, config: pl.ExperimentConfig) -> tuple:
        traces = pl.crlb_traces(config, steps=BOUND_STEPS, n_ensemble=BOUND_ENSEMBLE)
        # The suite draws from its own fixed per-check seeds, exactly as
        # `paretoloc validate-lemmas` does; the workload seed drives the
        # posterior-bound ensemble.
        checks = validate.run_all_checks(scale=ORACLE_SCALE, verbose=False)
        return traces, checks

    def run_steps(self, config) -> None:
        return None

    def verify(self, config, output: tuple, tally: Tally) -> None:
        traces, checks = output
        for check in checks:
            tally.record(check.passed, f"oracle check {check.name} failed: {check.detail}")
        for k, (par, post) in enumerate(zip(traces["parcrlb"], traces["pcrlb"])):
            tally.record(
                math.isfinite(par) and math.isfinite(post),
                f"non-finite nominal bound at step {k}: parcrlb {par}, pcrlb {post}",
            )

    def probe(self, config, output: tuple, tally: Tally) -> None:
        pass

    def digest(self, output: tuple) -> dict:
        traces, _ = output
        return {key: [float(v) for v in traces[key]] for key in ("parcrlb", "pcrlb")}

    def layer_metrics(self, output: tuple, stats: dict) -> dict:
        traces, checks = output
        metrics = {
            "crlb.bracket_valid_frac": (_bracket_valid_frac(traces), "ratio"),
            "crlb.sandwich_ok_frac": (float(np.mean(traces["sandwich_ok"])), "ratio"),
            "validate.checks_passed": (int(sum(c.passed for c in checks)), "count"),
        }
        # Inclusive time of each check, matched to its result by suite order.
        seconds = {}
        for fn, check in zip(validate.ALL_CHECKS, checks):
            entry = stats.get(f"validate.{fn.__name__}")
            seconds[check.name] = entry.total_s if entry else 0.0
        for name in CHECK_NAMES:
            if name not in seconds:
                print(f"warning: oracle check {name} not found; reporting 0 s", file=sys.stderr)
            metrics[f"validate.{name}.s"] = (seconds.get(name, 0.0), "s")
        return metrics

    def report(self, config, output: tuple) -> list:
        traces, checks = output
        n = len(traces["pcrlb"])
        valid = round(_bracket_valid_frac(traces) * n)
        sandwich = int(np.sum(traces["sandwich_ok"]))
        small = validate.check_dr_moments(scale=0.25)
        return [
            f"bounds (cm, seed {config.seed}): parcrlb[-1] {traces['parcrlb'][-1] * 100:.4f}  "
            f"pcrlb[-1] {traces['pcrlb'][-1] * 100:.4f}",
            f"oracle checks passed: {sum(c.passed for c in checks)}/{len(checks)}",
            f"known defect: posterior bracket valid (finite ub, lb <= bound <= ub) "
            f"at {valid}/{n} steps",
            f"known defect: MC information inside the Gershgorin pair at {sandwich}/{n} steps",
            f"known defect: dr-moments at scale 0.25 (not part of the workload, not "
            f"counted): {'PASS' if small.passed else 'FAIL'} - {small.detail}",
        ]


def _bracket_valid_frac(traces: dict) -> float:
    lb, bound, ub = traces["pcrlb_lb"], traces["pcrlb"], traces["pcrlb_ub"]
    valid = np.isfinite(ub) & (lb <= bound) & (bound <= ub)
    return float(np.mean(valid))


WORKLOADS = {
    w.name: w
    for w in (
        McWorkload(
            name="mc-shootout-B",
            scenario="B",
            scenario_args={"steps": 300, "T": 0.1, "a_max": 0.5},
            estimators=pl.simulate.KNOWN_ESTIMATORS,
            runs=10,
            probe_subsets=(("fusion",), ("ekf",)),
        ),
        McWorkload(
            name="track-A",
            scenario="A",
            scenario_args={"steps": 3000},
            estimators=("fusion", "mse", "wls", "dr"),
            runs=1,
        ),
        BoundsWorkload(name="bounds-oracles"),
    )
}


def compare_reference(reference: dict, digest: dict, tally: Tally) -> None:
    """One operation per reference entry; a missing or differing entry fails."""
    for key, expected in reference.items():
        got = digest.get(key)
        ok = got is not None and len(got) == len(expected) and bool(
            np.allclose(got, expected, rtol=REFERENCE_RTOL, atol=0.0)
        )
        tally.record(ok, f"{key} differs from the reference at seed {DEFAULT_SEED}")
