"""Trajectory generation, paired Monte Carlo experiments, CSV output.

The load-bearing invariant: every generated state's speed/heading
describe the displacement of the interval ending at that step, so
noise-free dead reckoning must replay the exact path — bounces, ramps
and all.  The experiment harness is checked for seed determinism and for
noise pairing across estimator subsets.
"""
import ast
import csv
import dataclasses
import math
import os
import re
import subprocess
import sys
import types
import warnings
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

import paretoloc
from paretoloc import deadreckoning, fusion, simulate
from paretoloc.crlb import parcrlb_trace, pcrlb_bounds
from paretoloc.deadreckoning import MeasurementFrame, dr_predict, measurement_frames
from paretoloc.filters import (
    cv_init,
    ekf_cv_step,
    ekf_step,
    lckf_step,
    position_init,
    ukf_step,
)
from paretoloc.fusion import ParetoConfig, fusion_step, init_fusion
from paretoloc.models import (
    CvProcessModel,
    DEFAULT_ANCHORS,
    RangeNoiseModel,
    SensorNoiseModel,
    SensorStreams,
    cv_rollout,
    cv_transition,
    draw_measurements,
    range_variance,
)
from paretoloc.ranging import build_geometry, noise_cov_inverse, wls_estimate
from paretoloc.simulate import (
    ARENA_BOUNDS,
    BREAKPOINT_PERIOD,
    ExperimentConfig,
    KNOWN_ESTIMATORS,
    Scene,
    TrajectorySpec,
    _fold,
    _next_breakpoint_accel,
    crlb_traces,
    draw_run,
    gen_trajectory,
    make_scenario,
    run_experiment,
    scenario_cv,
    scenario_linear,
    scenario_pwl,
    sweep,
    sweep_configs,
    write_crlb,
    write_run_trace,
    write_summary,
)


# ---------------------------------------------------------------------------
# trajectory generation
# ---------------------------------------------------------------------------


def test_reflect_folds_into_interval():
    assert _fold(2.5, 0.0, 4.0) == 2.5
    assert _fold(5.2, 0.0, 4.0) == pytest.approx(2.8)
    assert _fold(-0.6, 0.0, 4.0) == pytest.approx(0.6)
    # two walls crossed: the value folds twice
    assert _fold(9.0, 0.0, 4.0) == pytest.approx(1.0)
    # one interval per axis of an (n, 2) path
    folded = _fold(np.array([[5.2, 9.0], [-0.6, 1.5]]), np.array([0.0, 1.0]), np.array([4.0, 2.0]))
    assert_allclose(folded, [[2.8, 1.0], [0.6, 1.5]])


@pytest.mark.parametrize("widths", [2, 3, 7, 8])
@pytest.mark.parametrize("side", [1.0, -1.0])
def test_reflect_many_widths_out_counts_every_wall(widths, side):
    # `widths` whole widths past one wall plus 1.0: that many reflections,
    # so an odd count leaves the point 1.0 inside the wall it crossed and
    # an even count mirrors it to 1.0 inside the opposite wall
    lo, hi = 0.4, 3.6
    wall, inward = (hi, -1.0) if side > 0 else (lo, 1.0)
    value = wall + side * ((widths - 1) * (hi - lo) + 1.0)
    odd = widths % 2 == 1
    near = wall + inward * 1.0 if odd else (lo + hi) - (wall + inward * 1.0)
    assert _fold(value, lo, hi) == pytest.approx(near, abs=1e-9)
    # one wall fewer mirrors the point to the other side
    assert _fold(value - side * (hi - lo), lo, hi) == pytest.approx(lo + hi - near, abs=1e-9)


def test_reflect_far_outside_does_not_hang():
    assert 0.4 <= _fold(1e9, 0.4, 3.6) <= 3.6
    assert 0.4 <= _fold(-1e9, 0.4, 3.6) <= 3.6
    pos, _, _ = gen_trajectory(scenario_linear(steps=5, speed=1e9), np.random.default_rng(0))
    (x_lo, x_hi), (y_lo, y_hi) = ARENA_BOUNDS
    assert np.all((pos[:, 0] >= x_lo) & (pos[:, 0] <= x_hi))
    assert np.all((pos[:, 1] >= y_lo) & (pos[:, 1] <= y_hi))
    with pytest.raises(ValueError):
        _fold(1.0, 2.0, 2.0)
    with pytest.raises(ValueError):
        _fold(np.array([1.0, 1.0]), np.array([0.0, 2.0]), np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        _fold(float("inf"), 0.0, 1.0)
    with pytest.raises(ValueError):
        _fold(np.array([0.5, float("nan")]), 0.0, 1.0)


def _dr_replay(positions, speed, heading, t_step):
    """Positions rebuilt from each step's own chord kinematics."""
    pos = [positions[0]]
    for v, phi in zip(speed[1:], heading[1:]):
        pos.append(pos[-1] + t_step * v * np.array([math.cos(phi), math.sin(phi)]))
    return np.array(pos)


@pytest.mark.parametrize(
    "spec",
    [
        TrajectorySpec(kind="linear", steps=120, speed=0.3, heading=0.7),
        TrajectorySpec(
            kind="linear", steps=400, speed=0.9, heading=0.7, bounds=ARENA_BOUNDS
        ),
        TrajectorySpec(kind="pwl", steps=150, speed=0.2, a_max=0.6, bounds=ARENA_BOUNDS),
        TrajectorySpec(
            kind="pwl",
            steps=300,
            start=np.array([2.0, 2.0]),
            speed=0.2,
            a_max=0.8,
            bounds=ARENA_BOUNDS,
        ),
    ],
    ids=["linear-free", "linear-bouncing", "pwl-free", "pwl-contained"],
)
def test_chord_kinematics_replay_the_path_exactly(spec):
    truth, speed, heading = gen_trajectory(spec, np.random.default_rng(3))
    assert truth.shape == (spec.steps, 2)
    assert speed.shape == heading.shape == (spec.steps,)
    assert_allclose(_dr_replay(truth, speed, heading, spec.T), truth, atol=1e-9)


def test_cv_rollout_follows_model_kinematics():
    cv = CvProcessModel(sigma1_sq=1e-18, sigma2_sq=1e-18, sigma3_sq=1e-18, sigma4_sq=1e-18)
    spec = TrajectorySpec(kind="cv", steps=50, speed=0.3, heading=0.5, cv=cv)
    pos, speed, heading = gen_trajectory(spec, np.random.default_rng(0))
    # displacement at k uses the k-1 state's speed/heading (model form)
    step = spec.T * speed[:-1, None] * np.stack([np.cos(heading[:-1]), np.sin(heading[:-1])], -1)
    assert_allclose(pos[1:], pos[:-1] + step, atol=1e-7)


def test_cv_trajectory_is_the_rollout_of_one():
    spec = scenario_cv(steps=80)
    cv = spec.cv
    sig = np.sqrt([cv.sigma1_sq, cv.sigma2_sq, cv.sigma3_sq, cv.sigma4_sq])
    x0 = np.array([spec.start[0], spec.start[1], spec.speed, spec.heading])
    for seed in range(5):
        pos, speed, heading = gen_trajectory(spec, np.random.default_rng(seed))
        rollout = cv_rollout(cv, spec.T, x0, spec.steps, np.random.default_rng(seed), ensemble=1)
        np.testing.assert_array_equal(np.column_stack([pos, speed, heading]), rollout[:, 0])
        # oracle: one transition and one draw of 4 per step
        rng, state, loop = np.random.default_rng(seed), x0, [x0]
        for _ in range(1, spec.steps):
            state = cv_transition(state, spec.T) + rng.normal(0.0, 1.0, size=4) * sig
            loop.append(state)
        np.testing.assert_array_equal(rollout[:, 0], loop)


def test_cv_rollout_of_an_ensemble_advances_every_member_in_place_order():
    cv = CvProcessModel(sigma1_sq=1e-4, sigma2_sq=2e-4, sigma3_sq=3e-4, sigma4_sq=4e-4)
    sig = np.sqrt([cv.sigma1_sq, cv.sigma2_sq, cv.sigma3_sq, cv.sigma4_sq])
    x0, t_step = np.array([0.5, 1.6, 0.15, 0.3]), 0.1
    rollout = cv_rollout(cv, t_step, x0, 30, np.random.default_rng(4), ensemble=7)
    assert rollout.shape == (30, 7, 4)
    # oracle: the whole ensemble rolled in place, one (ensemble, 4) draw per step
    rng, ensemble = np.random.default_rng(4), np.tile(x0, (7, 1))
    np.testing.assert_array_equal(rollout[0], ensemble)
    for k in range(1, 30):
        c, s = np.cos(ensemble[:, 3]), np.sin(ensemble[:, 3])
        ensemble[:, 0] += t_step * ensemble[:, 2] * c
        ensemble[:, 1] += t_step * ensemble[:, 2] * s
        ensemble += rng.normal(0.0, 1.0, size=ensemble.shape) * sig[None, :]
        np.testing.assert_array_equal(rollout[k], ensemble)


def test_bouncing_linear_track_stays_inside_and_keeps_speed():
    spec = TrajectorySpec(
        kind="linear", steps=500, speed=1.2, heading=0.9, bounds=ARENA_BOUNDS
    )
    pos, speed, _ = gen_trajectory(spec, np.random.default_rng(0))
    (x_lo, x_hi), (y_lo, y_hi) = ARENA_BOUNDS
    assert np.all((pos[:, 0] >= x_lo) & (pos[:, 0] <= x_hi))
    assert np.all((pos[:, 1] >= y_lo) & (pos[:, 1] <= y_hi))
    speeds = speed[1:]
    # a wall hit shortens that step's chord, never lengthens it
    assert np.all(speeds <= spec.speed + 1e-9)
    assert np.median(speeds) == pytest.approx(spec.speed)


def test_pwl_acceleration_cap_limits_velocity_increments():
    spec = TrajectorySpec(kind="pwl", steps=200, speed=0.2, a_max=0.4, bounds=ARENA_BOUNDS)
    pos, _, _ = gen_trajectory(spec, np.random.default_rng(8))
    vel = np.diff(pos, axis=0) / spec.T
    accel = np.linalg.norm(np.diff(vel, axis=0), axis=1) / spec.T
    assert np.max(accel) <= spec.a_max + 1e-9
    duration = (spec.steps - 1) * spec.T
    assert np.max(np.linalg.norm(vel, axis=1)) <= spec.speed + spec.a_max * duration


def test_contained_pwl_keeps_long_runs_in_coverage():
    for seed in range(4):
        spec = TrajectorySpec(
            kind="pwl",
            steps=600,
            start=np.array([2.0, 2.0]),
            speed=0.2,
            a_max=1.0,
            bounds=ARENA_BOUNDS,
        )
        pos, _, _ = gen_trajectory(spec, np.random.default_rng(seed))
        # the steering is soft (velocity targets, not walls): overshoot
        # past the inset margin is fine, an unbounded walk-off is not
        assert np.all(pos >= -0.8) and np.all(pos <= 4.8)
        assert np.all(np.abs(pos.mean(axis=0) - 2.0) < 1.5)


def test_gen_trajectory_is_seed_deterministic():
    spec = TrajectorySpec(kind="pwl", steps=60, a_max=0.5, bounds=ARENA_BOUNDS)
    a = gen_trajectory(spec, np.random.default_rng(5))
    b = gen_trajectory(spec, np.random.default_rng(5))
    for part_a, part_b in zip(a, b):
        np.testing.assert_array_equal(part_a, part_b)


# The per-step loops that `gen_trajectory` and `_chord_states` replaced,
# kept as the oracle of the array passes.


def _reflect(value, lo, hi):
    """Fold a scalar into [lo, hi] by wall reflections; returns (value, sign)."""
    width = hi - lo
    if value < lo:
        folded, sign = _reflect(-value, -hi, -lo)
        return -folded, sign
    value -= 2.0 * width * ((value - lo) // (2.0 * width))
    sign = 1.0
    if value > hi:
        value, sign = 2.0 * hi - value, -1.0
    return min(max(value, lo), hi), sign


def _chord_states_loop(pos, t_step, speed0, heading0):
    n = len(pos)
    speed, heading = np.empty(n), np.empty(n)
    speed[0], heading[0] = speed0, heading0
    for k in range(1, n):
        delta = pos[k] - pos[k - 1]
        norm = float(np.linalg.norm(delta))
        speed[k] = norm / t_step
        heading[k] = math.atan2(delta[1], delta[0]) if norm > 1e-12 else heading[k - 1]
    return pos, speed, heading


def _trajectory_loop(spec, rng):
    """"linear" and "pwl" tracks, one step per iteration."""
    n, t_step = spec.steps, spec.T
    vel0 = spec.speed * np.array([math.cos(spec.heading), math.sin(spec.heading)])
    pos = np.empty((n, 2))
    pos[0] = spec.start
    if spec.kind == "linear":
        v = vel0.copy()
        for k in range(1, n):
            p = pos[k - 1] + t_step * v
            for ax, (lo, hi) in enumerate(spec.bounds or ()):
                p[ax], sign = _reflect(p[ax], lo, hi)
                v[ax] *= sign
            pos[k] = p
        return _chord_states_loop(pos, t_step, spec.speed, spec.heading)
    stride = max(1, int(round(BREAKPOINT_PERIOD / t_step)))
    accel = np.empty(((n - 1) // stride + 2, 2))
    vel = np.empty((n, 2))
    vel[0] = vel0
    accel[0] = np.zeros(2)
    accel[1] = _next_breakpoint_accel(rng, accel[0], pos[0], vel[0], spec)
    seg = 0
    for k in range(n - 1):
        if k // stride > seg:
            seg = k // stride
            accel[seg + 1] = _next_breakpoint_accel(rng, accel[seg], pos[k], vel[k], spec)
        frac = (k - seg * stride) / stride
        a_k = accel[seg] + frac * (accel[seg + 1] - accel[seg])
        frac1 = (k + 1 - seg * stride) / stride
        a_k1 = accel[seg] + frac1 * (accel[seg + 1] - accel[seg])
        pos[k + 1] = pos[k] + vel[k] * t_step + t_step**2 * (2.0 * a_k + a_k1) / 6.0
        vel[k + 1] = vel[k] + 0.5 * t_step * (a_k + a_k1)
    return _chord_states_loop(pos, t_step, spec.speed, spec.heading)


# A walled track folds its unfolded straight line once, where the loop
# reflected step by step, so the two round differently; on a 3000-step
# track they differed by 2.3e-12 m, 3.6e-11 m/s and 5.1e-12 rad.
WALL_TOL = 1e-10


@pytest.mark.parametrize(
    "spec, atol",
    [
        (TrajectorySpec(kind="pwl", steps=150, speed=0.2, a_max=0.6, bounds=ARENA_BOUNDS), 0.0),
        (TrajectorySpec(kind="pwl", steps=101, speed=0.2, a_max=0.6, bounds=ARENA_BOUNDS), 0.0),
        (TrajectorySpec(kind="pwl", steps=60, T=2.0, speed=0.2, bounds=ARENA_BOUNDS), 0.0),
        (scenario_pwl(steps=60, T=2.0), 0.0),
        (scenario_pwl(), 0.0),
        (make_scenario("B", T=0.3, steps=101), 0.0),
        (TrajectorySpec(kind="linear", steps=120, speed=0.3, heading=0.7), 0.0),
        (TrajectorySpec(kind="linear", steps=20, speed=0.0, heading=0.7), 0.0),
        (dataclasses.replace(scenario_cv(), kind="linear"), 0.0),
        (scenario_linear(), 0.0),
        (scenario_linear(steps=3000), WALL_TOL),
        (
            TrajectorySpec(kind="linear", steps=400, speed=0.9, heading=0.7, bounds=ARENA_BOUNDS),
            WALL_TOL,
        ),
    ],
    ids=[
        "pwl-free",
        "pwl-free-whole-strides",
        "pwl-free-stride-1",
        "pwl-contained-stride-1",
        "B",
        "B-T0.3-stride-7",
        "linear-free",
        "linear-still",
        "crlb-cv-as-linear",
        "A",
        "A-3000",
        "linear-bouncing",
    ],
)
def test_trajectories_are_the_per_step_loop(spec, atol):
    for seed in range(30):
        rng, loop_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        arrays = gen_trajectory(spec, rng)
        loop = _trajectory_loop(spec, loop_rng)
        for got, want in zip(arrays, loop):
            if atol == 0.0:
                np.testing.assert_array_equal(got, want)
            else:
                assert_allclose(got, want, rtol=0.0, atol=atol)
        # the same draws, so the run's later streams are the same too
        assert rng.bit_generator.state == loop_rng.bit_generator.state


def test_trajectory_spec_validation():
    with pytest.raises(ValueError):
        TrajectorySpec(kind="spiral")
    with pytest.raises(ValueError):
        TrajectorySpec(steps=1)
    with pytest.raises(ValueError):
        TrajectorySpec(T=0.0)


def _assert_held_track_is_finite(spec):
    # a held track squares its chords without overflow: positions, chord
    # speeds and headings are finite, and numpy warns of nothing
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        track = gen_trajectory(spec, np.random.default_rng(0))
    assert all(np.isfinite(part).all() for part in track)


@pytest.mark.parametrize(
    "kind, steps, t_held, t_refused",
    [
        # reach |start| + t |speed| with t = (steps - 1) T, speed 0.1, at
        # most sqrt(largest double) / 4 = 3.35e153 m
        ("linear", 300, 1e152, 1e153),
        ("cv", 300, 1e152, 1e153),
    ],
)
def test_trajectory_spec_refuses_a_track_past_the_largest_double(kind, steps, t_held, t_refused):
    spec = TrajectorySpec(kind=kind, steps=steps, T=t_held, speed=0.1)
    if kind != "cv":
        _assert_held_track_is_finite(spec)
    with pytest.raises(ValueError, match=re.escape(f"step period T = {t_refused:g} takes the {kind}")):
        TrajectorySpec(kind=kind, steps=steps, T=t_refused, speed=0.1)
    with pytest.raises(ValueError, match="past the largest double"):
        dataclasses.replace(spec, T=t_refused)


@pytest.mark.parametrize(
    "steps, a_held, a_refused",
    [
        # "pwl" adds a_max t^2 / 2 to the reach; at the longest step period
        # it may take, T = BREAKPOINT_PERIOD, t^2 / 2 is 2 (steps - 1)^2
        (300, 1e148, 2e148),
        (2, 1e153, 2e153),
    ],
)
def test_a_pwl_track_past_the_largest_double_is_refused(steps, a_held, a_refused):
    spec = TrajectorySpec(
        kind="pwl", steps=steps, T=BREAKPOINT_PERIOD, speed=0.1, a_max=a_held, bounds=ARENA_BOUNDS
    )
    _assert_held_track_is_finite(spec)
    with pytest.raises(ValueError, match=re.escape("step period T = 2 takes the pwl")):
        dataclasses.replace(spec, a_max=a_refused)
    # past the reach bound, the reach is named before the step period
    with pytest.raises(ValueError, match=re.escape("step period T = 1e+155 takes the pwl")):
        dataclasses.replace(spec, T=1e155, a_max=0.5)


def test_a_pwl_step_period_past_the_breakpoint_period_is_refused():
    # a segment lasts max(1, round(2 s / T)) steps, and its steering aims
    # at a 2 s segment: at T = 10 s scenario B went 244 m from the centre
    # of its 3.2 m cell
    assert BREAKPOINT_PERIOD == 2.0
    make_scenario("B", T=2.0)
    for t_step in (2.5, 10.0):
        with pytest.raises(ValueError, match=f"T = {t_step:g} s is longer than the pwl track's breakpoint period of 2 s"):
            make_scenario("B", T=t_step)
        # the other kinds have no breakpoints
        make_scenario("A", T=t_step)
        make_scenario("CV", T=t_step)


@pytest.mark.parametrize(
    "field, value",
    [
        ("T", math.nan),
        ("a_max", -1.0),
        ("a_max", math.inf),
        ("a_max", math.nan),
        ("T", -0.1),
        ("steps", 1),
        ("T", math.inf),
        ("speed", math.nan),
        ("speed", math.inf),
        ("heading", math.nan),
        ("heading", -math.inf),
        ("steps", 30.5),
        ("steps", 30.0),
        ("start", [1.0]),
        ("bounds", ((1.0, 1.0), (0.4, 3.6))),
        ("bounds", ((3.6, 0.4), (0.4, 3.6))),
        ("bounds", ((0.4, 3.6), (0.4, math.inf))),
        ("bounds", ((0.4, math.nan), (0.4, 3.6))),
        ("bounds", (0.4, 3.6)),
        ("bounds", ((0.4, 3.6), (0.4,))),
        ("T", -math.inf),
        ("a_max", -math.inf),
        ("speed", -math.inf),
        ("heading", math.inf),
        ("start", [math.nan, 2.0]),
    ],
)
def test_trajectory_spec_rejects_bad_settings(field, value):
    # a "pwl" track needs bounds, so each case gives them unless it sets them
    with pytest.raises(ValueError):
        TrajectorySpec(kind="pwl", **({"bounds": ARENA_BOUNDS} | {field: value}))
    with pytest.raises(ValueError):
        dataclasses.replace(TrajectorySpec(kind="pwl", bounds=ARENA_BOUNDS), **{field: value})


def test_a_pwl_track_without_bounds_is_refused():
    with pytest.raises(ValueError, match="bounds"):
        TrajectorySpec(kind="pwl")
    with pytest.raises(ValueError, match="bounds"):
        dataclasses.replace(scenario_pwl(), bounds=None)


# ---------------------------------------------------------------------------
# experiment harness
# ---------------------------------------------------------------------------


def _small_config(**overrides):
    defaults = dict(
        trajectory=TrajectorySpec(
            kind="linear",
            steps=60,
            start=np.array([1.0, 1.5]),
            speed=0.3,
            heading=0.6,
            bounds=ARENA_BOUNDS,
        ),
        estimators=("fusion", "ekf"),
        runs=3,
        seed=0,
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


def test_experiment_config_validation():
    with pytest.raises(ValueError):
        _small_config(estimators=("fusion", "kalman"))
    with pytest.raises(ValueError):
        _small_config(runs=0)
    for bad in (
        {"runs": 2.5},
        {"seed": -1},
        {"seed": 1.5},
        {"estimators": ()},
        {"estimators": ("fusion", "ekf", "fusion")},
    ):
        with pytest.raises(ValueError):
            _small_config(**bad)
    with pytest.raises(ValueError, match="'ekf' is named twice"):
        _small_config(estimators=("ekf", "fusion", "ekf"))


def test_run_experiment_shapes_and_summary_consistency():
    config = _small_config()
    result = run_experiment(config)
    assert result.estimators == ("fusion", "ekf")
    assert result.runs == 3 and result.steps == 60
    assert result.truth_trace.shape == (60, 2)
    for name in result.estimators:
        err = result.errors[name]
        assert err.shape == (3, 60)
        assert result.excluded[name] == 0
        assert not np.any(np.isnan(err))
        assert result.rmse[name] == pytest.approx(
            float(np.mean(np.sqrt(np.mean(err**2, axis=1))))
        )
        assert result.p95[name] == pytest.approx(
            float(np.percentile(err.ravel(), 95.0))
        )
        assert result.estimate_traces[name].shape == (60, 2)
        # first-run trace consistent with first-run errors
        re_err = np.linalg.norm(
            result.estimate_traces[name] - result.truth_trace, axis=1
        )
        assert_allclose(re_err, err[0], atol=1e-12)


def test_run_experiment_is_deterministic():
    a = run_experiment(_small_config())
    b = run_experiment(_small_config())
    for name in a.estimators:
        assert_allclose(a.errors[name], b.errors[name], atol=0.0)


def test_noise_pairing_survives_estimator_subsetting():
    # the same seed must feed each estimator the same measurement
    # sequences no matter which other estimators run alongside
    both = run_experiment(_small_config(estimators=("fusion", "ekf")))
    alone = run_experiment(_small_config(estimators=("ekf",)))
    assert_allclose(both.errors["ekf"], alone.errors["ekf"], atol=0.0)


@pytest.mark.parametrize("seed", [0, 5])
def test_each_estimator_alone_is_the_full_set_bit_for_bit(seed):
    # an estimator's frames, with their displacements and input
    # covariances, do not depend on which estimators run beside it
    config = _small_config(
        trajectory=make_scenario("B", steps=80), estimators=KNOWN_ESTIMATORS, runs=4, seed=seed
    )
    full = run_experiment(config)
    for name in KNOWN_ESTIMATORS:
        alone = run_experiment(dataclasses.replace(config, estimators=(name,)))
        np.testing.assert_array_equal(alone.errors[name], full.errors[name], err_msg=name)
        np.testing.assert_array_equal(
            alone.estimate_traces[name], full.estimate_traces[name], err_msg=name
        )
        assert alone.excluded[name] == full.excluded[name] == 0


def test_frames_are_built_once_per_batch_not_once_per_step(monkeypatch):
    builds, terms = [], []
    original_build, original_terms = simulate.measurement_frames, deadreckoning.input_terms

    def counted_build(*args, **kwargs):
        builds.append(1)
        return original_build(*args, **kwargs)

    def counted_terms(speed, *args):
        terms.append(np.shape(speed))
        return original_terms(speed, *args)

    monkeypatch.setattr(simulate, "measurement_frames", counted_build)
    monkeypatch.setattr(deadreckoning, "input_terms", counted_terms)
    config = _small_config(estimators=KNOWN_ESTIMATORS, runs=3)
    run_experiment(config)
    # one batch per stack of estimators sharing kernels ("fusion" with
    # "mse" as two blocks of rows, then one for each other estimator),
    # which all read one set of frame terms, formed once per experiment
    # on the runs' measurements, not once per stack or on a block's copy
    stacks = simulate._stacks(simulate._estimators(), KNOWN_ESTIMATORS)
    assert len(stacks) == 7 and len(stacks[0]) == 2
    assert len(builds) == len(stacks)
    assert terms == [(config.trajectory.steps, config.runs)]


def test_the_pareto_set_up_is_built_once_per_track_not_once_per_step(monkeypatch):
    built, headings = [], []
    original_rows, original_init = fusion._pareto_rows, deadreckoning.HeadingMoments.__init__

    def counted_rows(configs, rows):
        built.append((tuple(configs), rows))
        return original_rows(configs, rows)

    def counted_init(self, *args, **kwargs):
        headings.append(1)
        original_init(self, *args, **kwargs)

    monkeypatch.setattr(fusion, "_pareto_rows", counted_rows)
    monkeypatch.setattr(deadreckoning.HeadingMoments, "__init__", counted_init)
    for steps in (20, 60):
        built.clear()
        headings.clear()
        config = _small_config(
            trajectory=scenario_pwl(steps=steps), estimators=KNOWN_ESTIMATORS, runs=3
        )
        run_experiment(config)
        # one stack of Pareto rows ("fusion" and "mse", two blocks of 3
        # rows): one set of per-row settings and one heading moment, at
        # any number of steps
        mse = dataclasses.replace(config.pareto, rho=0.5)
        assert built == [((config.pareto, mse), 6)]
        assert headings == [1]


@pytest.mark.parametrize("field", ["sigma_v", "sigma_phi"])
def test_an_experiment_refuses_a_sensor_noise_whose_square_overflows(field):
    # sigma^2 overflowed in the dead-reckoning terms, and every run of
    # every estimator was excluded: building the experiment refuses it,
    # also at kappa = 0, where no range noise overflows on the track
    flat = RangeNoiseModel(kappa=0.0)
    with pytest.raises(ValueError, match=f"{field} must have a finite square"):
        _small_config(range_model=flat, sensor_model=SensorNoiseModel(**{field: 1e300}))
    # (1e154)^2 is a double
    _small_config(range_model=flat, sensor_model=SensorNoiseModel(**{field: 1e154}))


def test_each_run_is_the_same_alone_and_in_a_batch():
    one = run_experiment(_small_config(estimators=KNOWN_ESTIMATORS, runs=1))
    six = run_experiment(_small_config(estimators=KNOWN_ESTIMATORS, runs=6))
    for name in KNOWN_ESTIMATORS:
        np.testing.assert_array_equal(one.errors[name][0], six.errors[name][0], err_msg=name)
        np.testing.assert_array_equal(
            one.estimate_traces[name], six.estimate_traces[name], err_msg=name
        )


def test_a_failing_run_is_excluded_alone(monkeypatch):
    config = _small_config(estimators=("fusion", "ekf"), runs=4)
    clean = run_experiment(config)
    marked = draw_run(config, 2)[1]  # run 2's measured ranges (steps, M)

    def step(scene, state, frame):
        if frame.k == 10 and np.any(np.all(frame.ranges == marked[10], axis=-1)):
            raise np.linalg.LinAlgError("forced failure of run 2")
        return ekf_step(scene, state, frame)

    monkeypatch.setattr(simulate, "ekf_step", step)
    forced = run_experiment(config)
    assert forced.excluded == {"fusion": 0, "ekf": 1}
    assert np.all(np.isnan(forced.errors["ekf"][2]))
    keep = [0, 1, 3]
    np.testing.assert_array_equal(forced.errors["ekf"][keep], clean.errors["ekf"][keep])
    np.testing.assert_array_equal(forced.errors["fusion"], clean.errors["fusion"])
    np.testing.assert_array_equal(forced.estimate_traces["ekf"], clean.estimate_traces["ekf"])
    ok = np.sqrt(np.mean(clean.errors["ekf"][keep] ** 2, axis=1))
    assert forced.rmse["ekf"] == pytest.approx(float(np.mean(ok)), rel=1e-12)


@pytest.mark.parametrize(
    "kernel", ["fusion_step", "ekf_step", "ukf_step", "lckf_step", "ekf_cv_step"]
)
def test_the_engine_calls_the_kernel_the_module_names_at_run_time(kernel, monkeypatch):
    # a tracer or a test replaces the module's kernel name before a run:
    # the run calls the replacement once per step after the first
    original = getattr(simulate, kernel)
    steps = []

    def counted(scene, state, frame):
        steps.append(frame.k)
        return original(scene, state, frame)

    monkeypatch.setattr(simulate, kernel, counted)
    config = _small_config(estimators=KNOWN_ESTIMATORS, runs=2)
    run_experiment(config)
    assert steps == list(range(1, config.trajectory.steps))


@pytest.mark.parametrize("runs", [1, 6])
@pytest.mark.parametrize("rho", [None, 0.3, 0.5], ids=["knee", "fixed", "mse"])
def test_stacked_pareto_estimators_match_each_alone(rho, runs, monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(len(args[1].estimate))
        return fusion_step(*args, **kwargs)

    config = _small_config(
        trajectory=scenario_pwl(steps=60),
        pareto=ParetoConfig(rho=rho),
        estimators=("fusion", "mse"),
        runs=runs,
    )
    monkeypatch.setattr(simulate, "fusion_step", counted)
    both = run_experiment(config)
    # one kernel call per step advances both estimators' rows
    assert calls == [2 * runs] * (config.trajectory.steps - 1)
    for name in ("fusion", "mse"):
        alone = run_experiment(dataclasses.replace(config, estimators=(name,)))
        np.testing.assert_array_equal(both.errors[name], alone.errors[name], err_msg=name)
        np.testing.assert_array_equal(
            both.estimate_traces[name], alone.estimate_traces[name], err_msg=name
        )


@pytest.mark.parametrize("runs", [1, 7])
def test_wls_over_blocks_of_steps_matches_the_per_step_loop(runs, monkeypatch):
    rows = []

    def counted(geometry, measured_ranges, weight):
        rows.append(len(measured_ranges))
        return wls_estimate(geometry, measured_ranges, weight)

    config = _small_config(trajectory=scenario_pwl(steps=300), estimators=("wls",), runs=runs)
    monkeypatch.setattr(simulate, "wls_estimate", counted)
    result = run_experiment(config)
    per_call = simulate.STATELESS_BLOCK_ROWS // runs
    assert rows[:-1] == [per_call * runs] * (len(rows) - 1)
    assert len(rows) == math.ceil(300 / per_call) and sum(rows) == 300 * runs

    geometry = build_geometry(config.anchors)
    for run in range(runs):
        positions, ranges, _, _ = draw_run(config, run)
        loop = []
        for k in range(len(ranges)):
            r = np.maximum(ranges[k], 0.0)
            weight = noise_cov_inverse(r, range_variance(r, config.range_model))
            loop.append(wls_estimate(geometry, ranges[k], weight))
        err = np.linalg.norm(np.array(loop) - positions, axis=-1)
        np.testing.assert_array_equal(result.errors["wls"][run], err)


def test_a_failing_row_of_a_stack_is_excluded_alone(monkeypatch):
    config = _small_config(estimators=("fusion", "mse"), runs=4)
    clean = run_experiment(config)
    marked = draw_run(config, 2)[1]  # run 2's measured ranges (steps, M)
    stacked = []

    def step(scene, state, frame):
        weights = [pareto.rho for pareto in scene.paretos]
        stacked.append(len(weights) > 1)
        size = len(frame.speed) // len(weights)
        for block, rho in enumerate(weights):
            ranges = frame.ranges[block * size : (block + 1) * size]
            if rho == 0.5 and frame.k == 10 and np.any(np.all(ranges == marked[10], axis=-1)):
                raise np.linalg.LinAlgError("forced failure of run 2 of mse")
        return fusion_step(scene, state, frame)

    monkeypatch.setattr(simulate, "fusion_step", step)
    forced = run_experiment(config)
    assert stacked[0]
    assert forced.excluded == {"fusion": 0, "mse": 1}
    assert np.all(np.isnan(forced.errors["mse"][2]))
    keep = [0, 1, 3]
    np.testing.assert_array_equal(forced.errors["mse"][keep], clean.errors["mse"][keep])
    np.testing.assert_array_equal(forced.errors["fusion"], clean.errors["fusion"])
    for name in ("fusion", "mse"):
        np.testing.assert_array_equal(forced.estimate_traces[name], clean.estimate_traces[name])


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_non_finite_runs_are_excluded_and_counted():
    # Range noise growing as exp(5 r) swamps the ranging at the cell's far
    # anchors: every estimator diverges to a non-finite value in some run,
    # usually after step 0, with no numpy warning.
    config = _small_config(
        trajectory=scenario_linear(steps=60),
        range_model=RangeNoiseModel(kappa=5.0),
        estimators=KNOWN_ESTIMATORS,
        runs=3,
    )
    result = run_experiment(config)
    for name in KNOWN_ESTIMATORS:
        err = result.errors[name]
        finite = np.all(np.isfinite(err), axis=1)
        assert np.all(finite | np.all(np.isnan(err), axis=1)), name
        assert result.excluded[name] == int(np.sum(~finite)) >= 1, name
        if np.any(finite):
            per_run = np.sqrt(np.mean(err[finite] ** 2, axis=1))
            assert result.rmse[name] == pytest.approx(float(np.mean(per_run)), rel=1e-12)
            assert np.isfinite(result.p95[name]), name
        else:
            assert math.isnan(result.rmse[name]) and math.isnan(result.p95[name]), name
        if not finite[0]:
            assert np.all(np.isnan(result.estimate_traces[name])), name


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_estimates_that_drift_out_are_excluded_without_a_numpy_warning():
    # At T = 3 s the CV track ends 90 m from the anchor cell.  The range
    # noise variance of a WLS fix out there overflows, so every fusion, mse
    # and wls run turns non-finite: each is a counted exclusion, and the
    # overflow behind it is no RuntimeWarning.
    config = ExperimentConfig(
        trajectory=scenario_cv(T=3.0), estimators=KNOWN_ESTIMATORS, runs=2
    )
    result = run_experiment(config)
    lost = {"fusion", "mse", "wls"}
    assert result.excluded == {name: 2 if name in lost else 0 for name in KNOWN_ESTIMATORS}
    for name in KNOWN_ESTIMATORS:
        assert np.isnan(result.errors[name]).all() == (name in lost), name


def _one_run_trace(name, config, ranges, speed, heading):
    """Estimates (steps, 2) of one estimator on one run, from the public
    kernels called on a batch of one run per step."""
    pareto = config.pareto
    if name == "mse":
        pareto = dataclasses.replace(pareto, rho=0.5)
    scene = Scene(
        anchors=config.anchors,
        range_model=config.range_model,
        sensor_model=config.sensor_model,
        T=config.trajectory.T,
        paretos=(pareto,),
    )
    terms = MeasurementFrame.of(scene, ranges[:, None], speed[:, None], heading[:, None])
    frames = list(measurement_frames(terms))

    def fix(frame):
        r = np.maximum(frame.ranges, 0.0)
        weight = noise_cov_inverse(r, range_variance(r, config.range_model))
        return wls_estimate(scene.geometry, frame.ranges, weight)

    if name in ("fusion", "mse"):
        state = init_fusion(scene, frames[0])
        out = [state.estimate]
        for frame in frames[1:]:
            state = fusion_step(scene, state, frame)
            out.append(state.estimate)
    elif name == "wls":
        out = [fix(frame) for frame in frames]
    elif name == "dr":
        out = [fix(frames[0])]
        for frame in frames[1:]:
            out.append(dr_predict(out[-1], frame))
    elif name == "ekf-cv":
        state = cv_init(scene, fix(frames[0]), frames[0].speed, frames[0].heading)
        out = [state.mean[:, :2]]
        for frame in frames[1:]:
            state = ekf_cv_step(scene, state, frame)
            out.append(state.mean[:, :2])
    else:
        step = {"ekf": ekf_step, "ukf": ukf_step, "lckf": lckf_step}[name]
        state = position_init(scene, fix(frames[0]))
        out = [state.mean]
        for frame in frames[1:]:
            state = step(scene, state, frame)
            out.append(state.mean)
    return np.concatenate(out)


@pytest.mark.parametrize("name", KNOWN_ESTIMATORS)
def test_scalar_steps_reproduce_the_batched_engine(name):
    # each run stepped alone (a batch of one) gives the engine's bits
    config = _small_config(estimators=KNOWN_ESTIMATORS, runs=3)
    result = run_experiment(config)
    for run in range(config.runs):
        positions, ranges, speed, heading = draw_run(config, run)
        trace = _one_run_trace(name, config, ranges, speed, heading)
        np.testing.assert_array_equal(
            np.linalg.norm(trace - positions, axis=-1), result.errors[name][run]
        )
        if run == 0:
            np.testing.assert_array_equal(trace, result.estimate_traces[name])


def test_draw_run_is_the_trajectory_and_measurements_of_its_streams():
    config = _small_config(trajectory=scenario_pwl(steps=80), seed=5)
    for run in (0, 2):
        traj_seq, sensor_seq = np.random.SeedSequence((config.seed, run)).spawn(2)
        positions, true_speed, true_heading = gen_trajectory(
            config.trajectory, np.random.default_rng(traj_seq)
        )
        measured = draw_measurements(
            positions, true_speed, true_heading, config.anchors, config.range_model,
            config.sensor_model, SensorStreams.from_seed(sensor_seq),
        )
        drawn = draw_run(config, run)
        np.testing.assert_array_equal(drawn[0], positions)
        for got, want in zip(drawn[1:], measured):
            np.testing.assert_array_equal(got, want)


def test_all_known_estimators_produce_finite_errors():
    config = _small_config(estimators=KNOWN_ESTIMATORS, runs=2)
    result = run_experiment(config)
    for name in KNOWN_ESTIMATORS:
        assert np.isfinite(result.rmse[name]), name
        assert result.rmse[name] < 2.0, name


def test_sweep_varies_one_parameter_without_touching_config():
    config = _small_config(runs=2)
    out = sweep(config, "speed", [0.1, 0.4])
    assert [v for v, _ in out] == [0.1, 0.4]
    assert config.trajectory.speed == 0.3
    for _, result in out:
        assert set(result.rmse) == {"fusion", "ekf"}
    # amax maps onto the acceleration cap of an accelerating track
    pwl = _small_config(
        trajectory=scenario_pwl(steps=50), estimators=("ekf",), runs=2
    )
    out = sweep(pwl, "amax", [0.2])
    assert out[0][0] == 0.2
    with pytest.raises(ValueError):
        sweep(config, "wind", [1.0])


@pytest.mark.parametrize(
    "trajectory, parameter, values",
    [
        (scenario_pwl(steps=50), "amax", [0.5, -1.0]),
        (scenario_linear(steps=50), "T", [0.1, 0.0]),
        (scenario_linear(steps=50), "speed", [0.1, math.nan]),
        (scenario_linear(steps=50), "amax", [0.1, 0.9]),
        (scenario_cv(steps=50), "amax", [0.1]),
    ],
)
def test_sweep_checks_every_value_before_the_first_run(trajectory, parameter, values, monkeypatch):
    def must_not_run(config):
        raise AssertionError("an experiment ran before every value was checked")

    monkeypatch.setattr(simulate, "run_experiment", must_not_run)
    config = _small_config(trajectory=trajectory, runs=1)
    with pytest.raises(ValueError):
        sweep(config, parameter, values)


@pytest.mark.parametrize(
    "cv_filter", [None, CvProcessModel(sigma1_sq=1e-5, sigma2_sq=1e-5)]
)
def test_a_t_sweep_on_cv_moves_the_rollout_and_the_filter_model(cv_filter):
    # the CV model steps at the trajectory's T: a swept T changes how far
    # the rollout goes and the scene's period, which the EKF-CV filter
    # predicts over and the bounds step at
    config = ExperimentConfig(trajectory=make_scenario("CV", steps=50), cv_filter=cv_filter)
    travel = []
    for value, cfg in sweep_configs(config, "T", [0.05, 0.2]):
        pos, _, _ = gen_trajectory(cfg.trajectory, np.random.default_rng(0))
        travel.append(float(np.linalg.norm(pos[-1] - pos[0])))
        assert Scene.from_config(cfg).T == value
    # the same draws at the base T = 0.1 go 0.740 m
    assert travel == pytest.approx([0.3715, 1.4775], abs=1e-4)


def test_scene_cv_model_steps_at_the_scene_period():
    # the scene keeps the given variances, and its T is the one period of
    # the EKF-CV and the bounds: `crlb_traces` at two periods equals the
    # bounds taken on scenes that differ in T alone
    cv = CvProcessModel(sigma1_sq=1e-6, sigma2_sq=2e-6, sigma3_sq=3e-6, sigma4_sq=4e-6)
    assert Scene(T=0.2, cv=cv).cv == cv
    assert Scene(T=0.3).cv == CvProcessModel()
    for t_step in (0.05, 0.3):
        spec = scenario_cv(steps=20, T=t_step, cv=cv)
        config = ExperimentConfig(trajectory=spec, seed=2)
        traces = crlb_traces(config, n_ensemble=5)
        scene = Scene(T=t_step, cv=cv)
        truth = gen_trajectory(dataclasses.replace(spec, kind="linear"), np.random.default_rng(0))
        post = pcrlb_bounds(
            scene, spec.start, spec.speed, spec.heading, 20, 5,
            rng=np.random.default_rng(np.random.SeedSequence((2, 0x6372))),
        )
        np.testing.assert_array_equal(traces["parcrlb"], parcrlb_trace(scene, truth)[1])
        np.testing.assert_array_equal(traces["pcrlb"], post.bound)


@pytest.mark.parametrize("value", [0.0, -0.1])
def test_scene_rejects_a_step_period_that_is_not_positive(value):
    with pytest.raises(ValueError, match="step period T must be finite and positive"):
        Scene(T=value)


# ---------------------------------------------------------------------------
# presets
# ---------------------------------------------------------------------------


def test_scenario_presets():
    a = make_scenario("A")
    assert a.kind == "linear" and a.bounds == ARENA_BOUNDS
    b = make_scenario("b", a_max=0.7)
    assert b.kind == "pwl" and b.a_max == 0.7
    cv = make_scenario("CV")
    assert cv.kind == "cv" and cv.cv is not None
    assert make_scenario("a", speed=0.4).speed == 0.4
    assert scenario_linear().steps == 300
    assert scenario_cv().heading == pytest.approx(np.pi / 12.0)
    with pytest.raises(ValueError):
        make_scenario("D")


def test_default_anchor_cell_is_shared():
    config = ExperimentConfig()
    assert config.anchors is DEFAULT_ANCHORS
    assert config.anchors.m == 8


# ---------------------------------------------------------------------------
# CSV output
# ---------------------------------------------------------------------------


def test_write_run_trace_and_summary(tmp_path):
    result = run_experiment(_small_config(runs=2))
    trace_path = tmp_path / "trace.csv"
    write_run_trace(trace_path, result)
    with open(trace_path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == [
        "k",
        "truth_x1",
        "truth_x2",
        "fusion_x1",
        "fusion_x2",
        "fusion_err",
        "ekf_x1",
        "ekf_x2",
        "ekf_err",
    ]
    assert len(rows) == 1 + result.steps
    assert float(rows[1][1]) == pytest.approx(result.truth_trace[0, 0])
    assert float(rows[5][8]) == pytest.approx(result.errors["ekf"][0, 4])

    summary_path = tmp_path / "summary.csv"
    write_summary(summary_path, result)
    with open(summary_path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["estimator", "rmse_m", "p95_err_m", "runs", "excluded"]
    assert rows[1][0] == "fusion"
    assert float(rows[1][1]) == pytest.approx(result.rmse["fusion"])
    assert rows[2][3] == "2" and rows[2][4] == "0"


def test_write_crlb(tmp_path):
    path = tmp_path / "crlb.csv"
    traces = {
        "parcrlb": np.array([0.5, 0.4]),
        "pcrlb": np.array([0.45, 0.35]),
        "pcrlb_lb": np.array([0.4, 0.3]),
        "pcrlb_ub": np.array([0.5, 0.4]),
        "sandwich_ok": np.array([True, False]),
    }
    write_crlb(path, traces)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["k", "parcrlb", "pcrlb", "pcrlb_lb", "pcrlb_ub"]
    assert rows[2] == ["1", "0.4", "0.35", "0.3", "0.4"]


def test_crlb_traces_small():
    config = ExperimentConfig(
        trajectory=scenario_cv(steps=10), estimators=("ekf",), runs=1, seed=4
    )
    out = crlb_traces(config, n_ensemble=150)
    assert set(out) == {"parcrlb", "pcrlb", "pcrlb_lb", "pcrlb_ub", "bracket_ok", "sandwich_ok"}
    for key in ("parcrlb", "pcrlb", "pcrlb_lb", "pcrlb_ub"):
        assert out[key].shape == (10,)
    assert np.all(out["parcrlb"] > 0.0) and np.all(np.isfinite(out["parcrlb"]))
    assert np.all(out["pcrlb"] > 0.0) and np.all(np.isfinite(out["pcrlb"]))
    finite = np.isfinite(out["pcrlb_ub"])
    assert np.all(out["pcrlb_lb"][finite] <= out["pcrlb_ub"][finite] + 1e-12)
    assert out["sandwich_ok"].dtype == bool
    lb, bound, ub = out["pcrlb_lb"], out["pcrlb"], out["pcrlb_ub"]
    np.testing.assert_array_equal(out["bracket_ok"], finite & (lb <= bound) & (bound <= ub))


def test_import_and_a_run_do_not_load_scipy_special():
    # numpy is the one run-time dependency: the package, a Monte Carlo run,
    # the bound traces and the oracle suite load no scipy at all
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src), env.get("PYTHONPATH")) if p)
    script = (
        "import sys, paretoloc as pl\n"
        "from paretoloc.validate import run_all_checks\n"
        "spec = pl.make_scenario('B', steps=20)\n"
        "pl.run_experiment(pl.ExperimentConfig(trajectory=spec, runs=2,"
        " estimators=pl.simulate.KNOWN_ESTIMATORS))\n"
        "print('scipy.special' in sys.modules)\n"
        "cv = pl.make_scenario('CV', steps=20)\n"
        "pl.crlb_traces(pl.ExperimentConfig(trajectory=cv), n_ensemble=50)\n"
        "run_all_checks(scale=0.02, verbose=False)\n"
        "print('scipy' in sys.modules)\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr[-2000:]
    assert done.stdout.split() == ["False", "False"]


def test_src_imports_no_scipy():
    # every import statement of the package, at module level or inside a
    # function
    src = Path(__file__).resolve().parent.parent / "src" / "paretoloc"
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            assert not any(m.split(".")[0] == "scipy" for m in modules), (path.name, node.lineno)


def _package_modules_imported(tree):
    """The package's modules that a module's import statements name, by a
    relative import or by the package name."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            parts = [alias.name.split(".") for alias in node.names]
            yield from (p[1] for p in parts if p[0] == "paretoloc" and len(p) > 1)
        elif isinstance(node, ast.ImportFrom):
            parts = (node.module or "").split(".")
            if node.level == 0:
                if parts[0] != "paretoloc":
                    continue
                parts = parts[1:]
            if parts and parts[0]:
                yield parts[0]
            else:
                yield from (alias.name for alias in node.names)


def test_only_the_oracle_suite_imports_the_ratio_lemmas():
    # `crlb` is the bound path alone: the ratio lemmas live in `ratios`,
    # which only `validate` reads, and `crlb` reads neither of the two
    src = Path(__file__).resolve().parent.parent / "src" / "paretoloc"
    imports = {
        path.stem: set(_package_modules_imported(ast.parse(path.read_text())))
        for path in sorted(src.glob("*.py"))
    }
    assert {name for name, modules in imports.items() if "ratios" in modules} == {"validate"}
    assert not imports["crlb"] & {"ratios", "validate"}, imports["crlb"]


def test_src_modules_use_every_name_they_import():
    # every name an import statement binds, at module level or inside a
    # function, is read somewhere in its module; `__init__` re-exports
    # its imports and `from __future__` binds nothing
    src = Path(__file__).resolve().parent.parent / "src" / "paretoloc"
    for path in sorted(src.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imported, used = {}, set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    imported[alias.asname or alias.name] = node.lineno
            elif isinstance(node, ast.Name):
                used.add(node.id)
        unused = {name: line for name, line in imported.items() if name not in used}
        assert not unused, (path.name, unused)


def test_no_src_function_falls_back_to_an_unseeded_generator():
    # a function that draws takes its generator from its caller: no
    # parameter named rng defaults to None
    src = Path(__file__).resolve().parent.parent / "src" / "paretoloc"
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            positional = node.args.posonlyargs + node.args.args
            defaults = list(zip(positional[len(positional) - len(node.args.defaults):],
                                node.args.defaults))
            defaults += zip(node.args.kwonlyargs, node.args.kw_defaults)
            for arg, default in defaults:
                unseeded = isinstance(default, ast.Constant) and default.value is None
                assert not (arg.arg == "rng" and unseeded), (path.name, node.lineno)


def test_the_cli_holds_no_copy_of_the_range_noise_rule():
    # `ExperimentConfig` refuses a track whose range noise overflows, so
    # every command and library entry point refuses it when it is built;
    # cli.py neither imports the rule nor wraps it again
    cli = Path(__file__).resolve().parent.parent / "src" / "paretoloc" / "cli.py"
    names = set()
    for node in ast.walk(ast.parse(cli.read_text())):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            names.add(node.name)
    assert not {name for name in names if "require_finite_range_noise" in name}


def test_the_engine_has_one_failure_path():
    # the frame terms cannot raise (the sensor model refuses a sigma whose
    # square overflows), so the per-row fallback of `_track_runs` is the
    # engine's one exception handler, and `_track` reads its block count
    # from the scene it is handed
    tree = ast.parse(Path(simulate.__file__).read_text())
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    assert not any(isinstance(node, ast.Try) for node in ast.walk(functions["run_experiment"]))
    assert [arg.arg for arg in functions["_track"].args.args] == ["kernels", "scene", "terms"]


def test_the_reciprocal_rule_and_the_frame_type_have_one_home():
    # the bounds refuse a noise setting they invert, so no CLI function
    # calls the rule; one frame type carries the measurements and their
    # terms from the draws to the kernels
    src = Path(__file__).resolve().parent.parent / "src" / "paretoloc"
    called = {
        getattr(node.func, "id", getattr(node.func, "attr", None))
        for node in ast.walk(ast.parse((src / "cli.py").read_text()))
        if isinstance(node, ast.Call)
    }
    assert "require_invertible_noise" not in called
    for path in sorted(src.glob("*.py")):
        # a class, function or import carries `name`, a variable `id`
        for node in ast.walk(ast.parse(path.read_text())):
            assert "FrameTerms" not in (getattr(node, "name", None), getattr(node, "id", None))


def test_every_src_function_and_class_has_a_program_caller():
    # every module-level function and class of the package is named, as a
    # Name or an Attribute, somewhere in src/, demos/ or perfbench/ outside
    # its own definition
    root = Path(__file__).resolve().parent.parent
    definitions = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    defined = {}
    for path in sorted((root / "src" / "paretoloc").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, definitions):
                defined[node.name] = path.name
    referenced = set()
    for folder in ("src/paretoloc", "demos", "perfbench"):
        for path in sorted((root / folder).glob("*.py")):
            for top in ast.parse(path.read_text()).body:
                own = top.name if isinstance(top, definitions) else None
                for node in ast.walk(top):
                    if isinstance(node, ast.Name):
                        name = node.id
                    elif isinstance(node, ast.Attribute):
                        name = node.attr
                    else:
                        continue
                    if name != own:
                        referenced.add(name)
    unused = {name: module for name, module in defined.items() if name not in referenced}
    assert not unused, unused


def test_the_package_namespace_is_what_programs_import_from_it():
    # the public names of `paretoloc` are exactly those that README's
    # Python blocks, demos/, the CLI and perfbench/ take from the package
    # itself (`from paretoloc import X`, `pl.X`, `paretoloc.X`); a
    # submodule is reached as an attribute, not a re-export
    root = Path(__file__).resolve().parent.parent
    submodules = {path.stem for path in (root / "src" / "paretoloc").glob("*.py")}
    programs = [*sorted((root / "demos").glob("*.py")), root / "src" / "paretoloc" / "cli.py",
                *sorted((root / "perfbench").glob("*.py"))]
    sources = [path.read_text() for path in programs]
    sources += re.findall(r"```python\n(.*?)```", (root / "README.md").read_text(), flags=re.S)
    imported = set()
    for source in sources:
        tree = ast.parse(source)
        aliases = {"paretoloc"} | {
            alias.asname or alias.name
            for node in ast.walk(tree) if isinstance(node, ast.Import)
            for alias in node.names if alias.name == "paretoloc"
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "paretoloc" and not node.level:
                imported |= {alias.name for alias in node.names}
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id in aliases):
                imported.add(node.attr)
    imported = {name for name in imported if not name.startswith("_")} - submodules
    public = {
        name for name, value in vars(paretoloc).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == imported


@pytest.mark.parametrize(
    "scenario, kappa, box_gap, speed",
    [("A", 0.25, 3.6, 0.1), ("B", 50.0, 3.6, 0.5), ("CV", 0.25, None, 0.15)],
)
def test_the_range_noise_bound_allows_one_dead_reckoned_step_past_the_track(
    scenario, kappa, box_gap, speed
):
    # anchors on the corners and edges of [0, 4]^2; A and B keep to the box
    # [0.4, 3.6]^2, whose farthest point from an anchor is 3.6 away per
    # coordinate; the unbounded CV track is bounded by its reach
    # 1.6 + 4 T 0.15 about the origin, 4 + reach per coordinate.  B's step
    # takes the V_CAP disk's 0.5 m/s.  The range may grow by one step of
    # T (speed + 5 * 0.05) per coordinate before 0.0625 exp(kappa r)
    # reaches the square root of the largest double.
    r_max = (0.5 * math.log(sys.float_info.max) - math.log(0.0625)) / kappa
    per_coordinate = r_max / math.sqrt(2.0)
    if box_gap is None:  # 4 + 1.6 + 4 T 0.15 + T (0.15 + 0.25)
        t_max = (per_coordinate - 5.6) / (4.0 * 0.15 + speed + 0.25)
    else:
        t_max = (per_coordinate - box_gap) / (speed + 0.25)

    def config(t_step):
        return ExperimentConfig(
            trajectory=dataclasses.replace(make_scenario(scenario), steps=5, T=t_step),
            range_model=RangeNoiseModel(kappa=kappa),
        )

    # the experiment runs the rule when it is built
    config(0.999 * t_max)
    with pytest.raises(ValueError, match="the range-noise variance overflows"):
        config(1.001 * t_max)
