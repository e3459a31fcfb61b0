"""Acceptance gate: fourteen criteria, one test (one pass/fail line) each.

Criteria 1-6 are end-to-end Monte Carlo targets on the scenario presets;
criteria 7-14 are the closed-form-vs-Monte-Carlo oracle suite at full
sample budget.  Heavy experiment results are shared through
session-scoped fixtures.  Every tolerance is stated at the assert.
"""
import dataclasses

import numpy as np
import pytest

from paretoloc.crlb import parcrlb_trace
from paretoloc.simulate import (
    ExperimentConfig,
    Scene,
    gen_trajectory,
    run_experiment,
    scenario_cv,
    scenario_linear,
    scenario_pwl,
    sweep,
)
from paretoloc.validate import run_all_checks

KF_BASELINES = ("ekf", "ukf", "lckf")


def _per_step_rmse(errors: np.ndarray) -> np.ndarray:
    return np.sqrt(np.mean(errors**2, axis=0))


# ---------------------------------------------------------------------------
# shared heavy runs
# ---------------------------------------------------------------------------


@pytest.fixture(scope="session")
def linear_track_result():
    """Scenario A: slow straight track, default noise models, 10 runs."""
    config = ExperimentConfig(
        trajectory=scenario_linear(steps=300, T=0.1, speed=0.1),
        estimators=("fusion",),
        runs=10,
        seed=0,
    )
    return run_experiment(config)


@pytest.fixture(scope="session")
def accel_track_result():
    """Scenario B: capped random acceleration, 10 runs."""
    config = ExperimentConfig(
        trajectory=scenario_pwl(steps=300, T=0.1, a_max=0.5),
        estimators=("fusion",),
        runs=10,
        seed=0,
    )
    return run_experiment(config)


@pytest.fixture(scope="session")
def ordering_sweeps():
    """Paired fusion-vs-KF sweeps: speed at T = 0.5 s, a_max at T = 0.1 s."""
    speed_cfg = ExperimentConfig(
        trajectory=scenario_linear(steps=120, T=0.5),
        estimators=("fusion",) + KF_BASELINES,
        runs=40,
        seed=0,
    )
    amax_cfg = ExperimentConfig(
        trajectory=scenario_pwl(steps=300, T=0.1),
        estimators=("fusion",) + KF_BASELINES,
        runs=40,
        seed=0,
    )
    return {
        "speed": sweep(speed_cfg, "speed", [0.05, 0.1, 0.2, 0.35, 0.5]),
        "amax": sweep(amax_cfg, "amax", [0.1, 0.25, 0.5, 0.75, 1.0]),
    }


@pytest.fixture(scope="session")
def cv_ordering_result():
    """Model-matched scenario: CV rollouts, 200 paired runs."""
    config = ExperimentConfig(
        trajectory=scenario_cv(),
        estimators=("fusion", "lckf", "ekf-cv"),
        runs=200,
        seed=0,
    )
    return run_experiment(config)


@pytest.fixture(scope="session")
def bound_vs_rmse_cases():
    """Four trajectory configurations, 100 runs each, with the parametric
    bound evaluated along each configuration's noise-free reference path."""
    estimators = ("fusion", "wls", "dr", "ekf", "ukf", "lckf")
    cases = [
        ("linear V=0.5", scenario_linear(steps=300, T=0.1, speed=0.5)),
        ("linear V=1.0", scenario_linear(steps=300, T=0.1, speed=1.0)),
        ("pwl amax=0.3", scenario_pwl(steps=300, T=0.1, a_max=0.3)),
        ("pwl amax=1.0", scenario_pwl(steps=300, T=0.1, a_max=1.0)),
    ]
    out = []
    for name, traj in cases:
        config = ExperimentConfig(
            trajectory=traj, estimators=estimators, runs=100, seed=0
        )
        result = run_experiment(config)
        reference = dataclasses.replace(traj, kind="linear")
        truth = gen_trajectory(reference)
        _, bound = parcrlb_trace(Scene.from_config(config), truth)
        out.append((name, result, bound))
    return out


@pytest.fixture(scope="session")
def oracle_suite():
    """Full-budget closed-form-vs-MC checks, keyed by name."""
    return {r.name: r for r in run_all_checks(scale=1.0, verbose=False)}


# ---------------------------------------------------------------------------
# quantitative criteria
# ---------------------------------------------------------------------------


def test_criterion_01_linear_track_rmse_band(linear_track_result):
    rmse_cm = linear_track_result.rmse["fusion"] * 100.0
    assert 2.5 <= rmse_cm <= 6.0, (
        f"fused RMSE on the slow linear track is {rmse_cm:.2f} cm, "
        f"outside the accepted [2.5, 6.0] cm band"
    )


def test_criterion_02_linear_track_error_cdf(linear_track_result):
    errors = linear_track_result.errors["fusion"].ravel()
    fraction = float(np.mean(errors < 0.07))
    assert fraction >= 0.90, (
        f"only {fraction:.4f} of pooled step errors fall below 7 cm "
        f"(need >= 0.90)"
    )


def test_criterion_03_accel_track_rmse_band(accel_track_result):
    rmse_cm = accel_track_result.rmse["fusion"] * 100.0
    assert 3.5 <= rmse_cm <= 8.5, (
        f"fused RMSE on the accelerating track is {rmse_cm:.2f} cm, "
        f"outside the accepted [3.5, 8.5] cm band"
    )


def _paired_rmse_gap(result, a: str, b: str):
    """Mean and standard error of per-run RMSE(a) - RMSE(b).

    Runs excluded for either estimator are dropped, so with no exclusions
    the mean equals ``result.rmse[a] - result.rmse[b]``.
    """
    per_run_rmse = {
        name: np.sqrt(np.mean(result.errors[name] ** 2, axis=1))
        for name in (a, b)
    }
    diff = per_run_rmse[a] - per_run_rmse[b]
    diff = diff[np.isfinite(diff)]
    return float(diff.mean()), float(diff.std(ddof=1) / np.sqrt(diff.size))


def test_criterion_04_fusion_beats_kf_on_both_sweeps(ordering_sweeps):
    # paired per-run RMSE differences; fail where fusion is worse than a
    # KF by more than 2 standard errors (the convention of criterion 06)
    report = []
    failed = False
    for parameter, rows in ordering_sweeps.items():
        for value, result in rows:
            cells = []
            for name in KF_BASELINES:
                diff, se = _paired_rmse_gap(result, "fusion", name)
                worse = diff > 2.0 * se
                failed = failed or worse
                cells.append(
                    f"{name} {diff * 100.0:+.3f} ± {se * 100.0:.3f}"
                    f"{' VIOLATION' if worse else ''}"
                )
            report.append(f"{parameter}={value:g}: " + ", ".join(cells))
    assert not failed, (
        "fusion - KF RMSE (cm, paired over runs, ± 1 SE); fusion must not "
        "be worse than any Kalman baseline by more than 2 SE at any swept "
        "value on either sweep:\n" + "\n".join(report)
    )


def test_criterion_05_cv_track_per_step_ordering(cv_ordering_result):
    result = cv_ordering_result
    burn = 10
    ekf_cv = _per_step_rmse(result.errors["ekf-cv"])[burn:]
    fused = _per_step_rmse(result.errors["fusion"])[burn:]
    lckf = _per_step_rmse(result.errors["lckf"])[burn:]
    lower = float(np.mean(ekf_cv <= fused))
    upper = float(np.mean(fused <= lckf))
    assert lower >= 0.80 and upper >= 0.80, (
        f"per-step ordering after burn-in: ekf-cv <= fusion at {lower:.3f}, "
        f"fusion <= lckf at {upper:.3f} of steps (need >= 0.80 each)"
    )


def test_criterion_06_parametric_bound_below_all_rmse(bound_vs_rmse_cases):
    report = []
    worst = np.inf
    for name, result, bound in bound_vs_rmse_cases:
        for estimator in result.estimators:
            err_sq = result.errors[estimator] ** 2  # (runs, steps)
            rmse = np.sqrt(err_sq.mean(axis=0))
            se_mse = err_sq.std(axis=0, ddof=1) / np.sqrt(err_sq.shape[0])
            se_rmse = se_mse / (2.0 * np.maximum(rmse, 1e-12))
            slack = np.min(rmse + 2.0 * se_rmse - bound[: rmse.size])
            worst = min(worst, slack)
            if slack < 0.0:
                report.append(f"{name} / {estimator}: slack {slack * 100.0:.2f} cm")
    assert worst >= 0.0, (
        "the parametric bound exceeded an estimator's per-step RMSE "
        "(beyond 2 MC standard errors):\n" + "\n".join(report)
    )


# ---------------------------------------------------------------------------
# oracle-suite criteria
# ---------------------------------------------------------------------------


def test_criterion_07_range_noise_inverse_oracle(oracle_suite):
    check = oracle_suite["noise-cov-inverse"]
    assert check.passed, check.detail


def test_criterion_08_wls_bias_and_second_moment_oracles(oracle_suite):
    bias = oracle_suite["ranging-bias"]
    second = oracle_suite["ranging-second-moment"]
    assert bias.passed and second.passed, f"{bias.detail}; {second.detail}"


def test_criterion_09_dead_reckoning_moment_oracle(oracle_suite):
    check = oracle_suite["dr-moments"]
    assert check.passed, check.detail
    # the speed-power variant must be measurably wrong at every grid
    # point with nonzero speed, confirming which closed form the
    # estimator has to use
    expected_rejections = check.data["axis_points"] * 3 // 4
    assert check.data["variant_rejected"] == expected_rejections, (
        "the rejected second-moment variant should fail Monte Carlo at "
        f"all nonzero-speed grid points: {check.detail}"
    )


def test_criterion_10_beta_optimiser_oracle(oracle_suite):
    check = oracle_suite["optimal-beta"]
    assert check.passed, check.detail


def test_criterion_11_trig_moment_oracle(oracle_suite):
    check = oracle_suite["trig-moments"]
    assert check.passed, check.detail


def test_criterion_12_ratio_bracket_and_series_oracle(oracle_suite):
    check = oracle_suite["ratio-bounds"]
    assert check.passed, check.detail


def test_criterion_13_gershgorin_ordering_oracle(oracle_suite):
    check = oracle_suite["gershgorin-ordering"]
    assert check.passed, check.detail


def test_criterion_14_recursion_identity_oracle(oracle_suite):
    check = oracle_suite["recursion-identities"]
    assert check.passed, check.detail
