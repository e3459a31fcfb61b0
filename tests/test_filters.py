"""Kalman-filter baselines.

Strongest oracle here: on a *linear* measurement function the unscented
update must reproduce the covariance-form Kalman update exactly (the
sigma-point transform of an affine map is exact), so the two are compared
to near-machine precision.  The nonlinear filters are checked by noise-free
tracking and by hand-built single steps.
"""
import ast
import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from paretoloc import crlb, filters, simulate
from paretoloc.deadreckoning import MeasurementFrame, measurement_frames
from paretoloc.filters import (
    _cholesky,
    _kalman_update,
    _sigma_point_buffer,
    _sigma_points,
    _unscented_correct,
    cv_init,
    ekf_cv_step,
    ekf_step,
    lckf_step,
    position_init,
    ukf_step,
)
from paretoloc.models import (
    CV_PRIOR_VARIANCES,
    MIN_RANGE,
    AnchorSet,
    CvProcessModel,
    RangeNoiseModel,
    SensorNoiseModel,
    SensorStreams,
    anchor_directions,
    cv_transition,
    cv_transition_jacobian,
    draw_measurements,
    range_variance,
    true_ranges,
)
from paretoloc.ranging import RangingScratch, noise_cov_inverse, ranging_layer, wls_estimate
from paretoloc.simulate import ExperimentConfig, Scene, draw_run, make_scenario

ANCHORS = AnchorSet(
    np.array([[0.0, 0.0], [4.0, 0.0], [0.0, 4.0], [4.0, 4.0], [2.0, 0.0]])
)
QUIET_RANGES = RangeNoiseModel(sigma0_sq=1e-10, kappa=0.0)
QUIET_SENSORS = SensorNoiseModel(sigma_v=0.0, sigma_phi=0.0)
POSITION_STEPS = [ekf_step, ukf_step, lckf_step]


def _frame(scene, ranges, speed, heading):
    """One run's measurements of one step as a batch of one."""
    speed, heading = (np.reshape(x, (1, 1)) for x in (speed, heading))
    (frame,) = measurement_frames(
        MeasurementFrame.of(scene, np.reshape(ranges, (1, 1, -1)), speed, heading)
    )
    return frame


def _random_spd(rng, n):
    a = rng.normal(size=(n, n))
    return a @ a.T + n * np.eye(n)


def numerical_jacobian(f, x, h_scale=1e-6):
    """Central-difference Jacobian of f at x (oracle for the analytic forms).

    Per-component step h_i = max(h_scale, h_scale * |x_i|); row i holds
    the partials of output i.
    """
    x = np.asarray(x, dtype=float)
    h = np.maximum(h_scale, h_scale * np.abs(x))
    columns = []
    for j in range(x.size):
        xp, xm = x.copy(), x.copy()
        xp[j] += h[j]
        xm[j] -= h[j]
        columns.append((np.asarray(f(xp)) - np.asarray(f(xm))) / (2.0 * h[j]))
    return np.stack(columns, axis=-1)


def unscented_update(state, z, h, variances):
    """Unscented measurement update of `state` through a measurement function h."""
    buffer = _sigma_point_buffer(state.mean.shape[:-1], state.mean.shape[-1])
    points, weights = _sigma_points(state.mean, state.covariance, buffer)
    z_points = np.array([h(p) for p in points])
    return _unscented_correct(state, points, weights, z_points, z, variances)


def test_sigma_points_reconstruct_moments():
    rng = np.random.default_rng(0)
    for n in (2, 4):
        mean = rng.normal(size=n)
        cov = _random_spd(rng, n)
        points, weights = _sigma_points(mean, cov, _sigma_point_buffer((), n))
        assert points.shape == (2 * n + 1, n)
        assert weights.sum() == pytest.approx(1.0)
        assert_allclose(weights @ points, mean, atol=1e-12)
        centered = points - mean
        assert_allclose(
            centered.T @ (weights[:, None] * centered), cov, atol=1e-10
        )


def test_cholesky_retries_a_failing_member_once_with_jitter():
    # the stack's factorisation fails on its singular middle member; each
    # member is then factored alone, and only that one gets the jitter
    scale = 3.0
    stack = np.array(
        [[[2.0, 0.5], [0.5, 1.0]], [[1.0, 1.0], [1.0, 1.0]], [[4.0, -1.0], [-1.0, 3.0]]]
    )
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.cholesky(scale * stack[1])
    factors = _cholesky(stack, scale)
    assert factors.shape == (3, 2, 2)
    for i in (0, 2):
        np.testing.assert_array_equal(factors[i], np.linalg.cholesky(scale * stack[i]))
    np.testing.assert_array_equal(
        factors[1], np.linalg.cholesky(scale * (stack[1] + 1e-12 * np.eye(2)))
    )
    # a member that the jitter does not make positive definite still fails
    indefinite = stack.copy()
    indefinite[1] = [[1.0, 0.0], [0.0, -1.0]]
    with pytest.raises(np.linalg.LinAlgError):
        _cholesky(indefinite, scale)


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_unscented_update_linear_case_equals_kalman(seed):
    # affine h: the unscented update and the exact Kalman update, in the
    # covariance form the EKF-CV keeps, must agree
    rng = np.random.default_rng(seed)
    n, m = 4, 3
    start = cv_init(Scene(), [0.0, 0.0], 0.0, 0.0)
    prior = dataclasses.replace(start, mean=rng.normal(size=n), covariance=_random_spd(rng, n))
    h_mat = rng.normal(size=(m, n))
    offset = rng.normal(size=m)
    variances = rng.uniform(0.5, 2.0, size=m)
    z = rng.normal(size=m)

    posterior = unscented_update(prior, z, lambda x: h_mat @ x + offset, variances)

    kalman = _kalman_update(prior, h_mat, z - h_mat @ prior.mean - offset, variances)
    assert_allclose(posterior.mean, kalman.mean, atol=1e-8)
    assert_allclose(posterior.covariance, kalman.covariance, atol=1e-8)


def test_numerical_jacobian_against_analytic():
    def f(x):
        return np.array([math.sin(x[0]) * x[1], x[0] ** 2, math.exp(0.5 * x[1])])

    x = np.array([0.7, -1.2])
    expected = np.array(
        [
            [math.cos(x[0]) * x[1], math.sin(x[0])],
            [2.0 * x[0], 0.0],
            [0.0, 0.5 * math.exp(0.5 * x[1])],
        ]
    )
    assert_allclose(numerical_jacobian(f, x), expected, atol=1e-7)


def test_cv_transition_jacobian_matches_numerical():
    state = np.array([1.0, 2.0, 0.6, 0.9])
    assert_allclose(
        cv_transition_jacobian(state, 0.1),
        numerical_jacobian(lambda x: cv_transition(x, 0.1), state),
        atol=1e-7,
    )


def test_stacked_cv_transition_jacobian_equals_per_row_calls():
    # the EKF-CV step calls the Jacobian once on its (R, 4) batch: each
    # row must carry the bits of the single-state call, and the
    # central-difference oracle's values
    t_step = 0.1
    rng = np.random.default_rng(8)
    states = np.column_stack(
        [rng.uniform(-5.0, 5.0, (64, 2)), rng.uniform(0.0, 2.0, 64), rng.uniform(-4.0, 4.0, 64)]
    )
    stacked = cv_transition_jacobian(states, t_step)
    assert stacked.shape == (64, 4, 4)
    for row, state in enumerate(states):
        np.testing.assert_array_equal(stacked[row], cv_transition_jacobian(state, t_step))
        assert_allclose(
            stacked[row], numerical_jacobian(lambda x: cv_transition(x, t_step), state), atol=1e-7
        )
    grid = cv_transition_jacobian(states.reshape(8, 8, 4), t_step)
    np.testing.assert_array_equal(grid, stacked.reshape(8, 8, 4, 4))


def test_inits():
    p = position_init(Scene(), [1.0, 2.0])
    assert_allclose(p.mean, [1.0, 2.0])
    np.testing.assert_array_equal(p.covariance, np.diag(CV_PRIOR_VARIANCES[:2]))
    c = cv_init(Scene(), [1.0, 2.0], 0.3, 0.4)
    assert_allclose(c.mean, [1.0, 2.0, 0.3, 0.4])
    assert_allclose(
        c.covariance, np.diag([1.0, 1.0, 0.25, (np.pi / 4.0) ** 2])
    )


def test_ekf_zero_innovation_keeps_predicted_mean():
    # measurements exactly at the predicted ranges: the update must not
    # move the mean, only shrink the covariance
    v, phi, t_step = 0.4, 0.3, 0.1
    scene = Scene(anchors=ANCHORS, sensor_model=QUIET_SENSORS, T=t_step)
    state = position_init(scene, [[1.3, 0.8]])
    np.testing.assert_array_equal(state.covariance, [np.diag(CV_PRIOR_VARIANCES[:2])])
    pred_pos = state.mean[0] + t_step * v * np.array([math.cos(phi), math.sin(phi)])
    frame = _frame(scene, true_ranges(pred_pos, ANCHORS), v, phi)
    out = ekf_step(scene, state, frame)
    assert_allclose(out.mean[0], pred_pos, atol=1e-10)
    assert np.all(np.linalg.eigvalsh(out.covariance[0]) > 0.0)
    assert np.trace(out.covariance[0]) < np.trace(state.covariance[0])


def _track(step, steps=40, start=(1.0, 1.2), init_offset=(0.4, -0.3)):
    """Drive a filter with noise-free measurements from an offset start.

    The assumed sensor noise is small but nonzero so the gain stays
    bounded away from zero (a zero-process-noise filter grows
    overconfident and freezes its transient error).
    """
    t_step, v, phi = 0.1, 0.3, 0.5
    scene = Scene(
        anchors=ANCHORS,
        range_model=QUIET_RANGES,
        sensor_model=SensorNoiseModel(sigma_v=1e-3, sigma_phi=1e-3),
        T=t_step,
    )
    pos = np.array(start, dtype=float)
    state = position_init(scene, [np.array(start) + np.array(init_offset)])
    for k in range(1, steps + 1):
        pos = pos + t_step * v * np.array([math.cos(phi), math.sin(phi)])
        frame = _frame(scene, true_ranges(pos, ANCHORS), v, phi)
        state = step(scene, state, frame)
    return state, pos


@pytest.mark.parametrize("step", POSITION_STEPS)
def test_position_filters_lock_onto_noise_free_truth(step):
    state, pos = _track(step)
    assert_allclose(state.mean[0], pos, atol=1e-4)


def test_ekf_cv_locks_onto_noise_free_truth():
    t_step, v, phi = 0.1, 0.3, 0.5
    cv = CvProcessModel(sigma1_sq=1e-8, sigma2_sq=1e-8, sigma3_sq=1e-8, sigma4_sq=1e-8)
    scene = Scene(
        anchors=ANCHORS, range_model=QUIET_RANGES, sensor_model=QUIET_SENSORS, T=t_step, cv=cv
    )
    pos = np.array([1.0, 1.2])
    state = cv_init(scene, [pos + np.array([0.3, -0.2])], speed=[0.0], heading=[0.0])
    for k in range(1, 40):
        pos = pos + t_step * v * np.array([math.cos(phi), math.sin(phi)])
        frame = _frame(scene, true_ranges(pos, ANCHORS), v, phi)
        state = ekf_cv_step(scene, state, frame)
    assert_allclose(state.mean[0, :2], pos, atol=1e-4)
    assert state.mean[0, 2] == pytest.approx(v, abs=1e-4)
    assert state.mean[0, 3] == pytest.approx(phi, abs=1e-4)


@pytest.mark.parametrize("t_step", [0.05, 0.1, 0.5])
def test_ekf_cv_predicts_over_the_scene_period(t_step):
    # measurements exactly at the state moved on by `cv_transition` over
    # the scene's T: a filter predicting over any other period would see
    # a non-zero innovation and move its mean off the transition
    scene = Scene(anchors=ANCHORS, sensor_model=QUIET_SENSORS, T=t_step)
    mean = np.array([1.3, 0.8, 0.4, 0.3])
    pred = cv_transition(mean, t_step)
    frame = _frame(scene, true_ranges(pred[:2], ANCHORS), pred[2], pred[3])
    out = ekf_cv_step(scene, cv_init(scene, [mean[:2]], mean[2:3], mean[3:]), frame)
    assert_allclose(out.mean[0], pred, atol=1e-12)


@pytest.mark.parametrize("step", POSITION_STEPS)
def test_noisy_steps_keep_covariance_positive(step):
    scene = Scene(anchors=ANCHORS, T=0.1)
    range_model, sensor_model = scene.range_model, scene.sensor_model
    streams = SensorStreams.from_seed(7)
    state = position_init(scene, [[1.5, 1.5]])
    pos = np.array([1.5, 1.5])
    for k in range(1, 25):
        pos = pos + 0.03 * np.array([1.0, 0.5])
        frame = _frame(
            scene,
            *draw_measurements(pos[None], [0.3], [0.46], ANCHORS, range_model, sensor_model, streams),
        )
        state = step(scene, state, frame)
        cov = state.covariance[0]
        assert_allclose(cov, cov.T, atol=1e-12)
        assert np.all(np.linalg.eigvalsh(cov) > 0.0)
    assert np.linalg.norm(state.mean[0] - pos) < 0.5


def test_ekf_beats_memoryless_wls():
    # filtering with memory must beat the per-step WLS fix it ingests
    t_step, v, phi = 0.1, 0.3, 0.5
    scene = Scene(anchors=ANCHORS, T=t_step)
    range_model, sensor_model = scene.range_model, scene.sensor_model
    streams = SensorStreams.from_seed(42)
    pos = np.array([1.0, 1.2])
    state = position_init(scene, [pos])
    ekf_sq, wls_sq = [], []
    for k in range(1, 300):
        pos = pos + t_step * v * np.array([math.cos(phi), math.sin(phi)])
        if not (0.2 < pos[0] < 3.8 and 0.2 < pos[1] < 3.8):
            phi += math.pi / 2.0
        frame = _frame(
            scene,
            *draw_measurements(pos[None], [v], [phi], ANCHORS, range_model, sensor_model, streams),
        )
        state = ekf_step(scene, state, frame)
        r_true = true_ranges(pos, ANCHORS)
        w = noise_cov_inverse(r_true, range_variance(r_true, range_model))
        fix = wls_estimate(scene.geometry, frame.ranges[0], w)
        ekf_sq.append(np.sum((state.mean[0] - pos) ** 2))
        wls_sq.append(np.sum((fix - pos) ** 2))
    assert math.sqrt(np.mean(ekf_sq)) < 0.6 * math.sqrt(np.mean(wls_sq))


def _recording_range_variance(monkeypatch, module) -> list:
    """Record every range array `module` hands to `range_variance`."""
    seen = []

    def spy(r, model):
        seen.append(np.array(r, dtype=float))
        return range_variance(r, model)

    monkeypatch.setattr(module, "range_variance", spy)
    return seen


def test_a_position_on_an_anchor_gets_the_one_range_floor(monkeypatch):
    # the filters and the bounds divide by the same floored range: at an
    # anchor, range MIN_RANGE and a zero direction, so nothing is NaN
    scene = Scene(anchors=ANCHORS)
    on_anchor = ANCHORS.positions[1]
    r, u = anchor_directions(on_anchor, ANCHORS)
    assert r[1] == MIN_RANGE and np.all(u[1] == 0.0)
    assert np.all(r[[0, 2, 3, 4]] == true_ranges(on_anchor, ANCHORS)[[0, 2, 3, 4]])

    seen = _recording_range_variance(monkeypatch, filters)
    # zero speed: the prediction stays on the anchor
    frame = _frame(scene, true_ranges(on_anchor, ANCHORS), [[0.0]], [[0.3]])
    for step in (ekf_step, ukf_step):
        assert np.isfinite(step(scene, position_init(scene, on_anchor[None]), frame).mean).all()
    start = cv_init(scene, on_anchor[None], [0.0], [0.3])
    assert np.isfinite(ekf_cv_step(scene, start, frame).mean).all()
    assert [x.min() for x in seen] == [MIN_RANGE] * 3

    seen = _recording_range_variance(monkeypatch, crlb)
    state = np.array([*on_anchor, 0.2, 0.3])
    assert np.isfinite(crlb.measurement_information(scene, state)).all()
    assert np.isfinite(crlb.pi_bracket(scene, on_anchor[None])).all()
    assert [x.min() for x in seen] == [MIN_RANGE] * 2


def _covariance_form_update(mean, cov, h, innovation, r_cov):
    """Textbook Kalman update, one np.linalg.solve on the innovation
    covariance S: the oracle of the information-form steps."""
    s = h @ cov @ h.mT + r_cov
    gain = np.linalg.solve(s, h @ cov).mT  # P H^T S^-1, S and P symmetric
    return mean + (gain @ innovation[..., None])[..., 0], cov - gain @ s @ gain.mT


def _ekf_oracle(scene, mean, cov, frame):
    mean, cov = mean + frame.displacement, cov + frame.input_cov
    diff = mean[..., None, :] - scene.anchors.positions
    r_hat = np.maximum(np.linalg.norm(diff, axis=-1), MIN_RANGE)
    variances = scene.range_model.sigma0_sq * np.exp(scene.range_model.kappa * r_hat)
    r_cov = variances[..., None] * np.eye(r_hat.shape[-1])
    return _covariance_form_update(mean, cov, diff / r_hat[..., None], frame.ranges - r_hat, r_cov)


def _lckf_oracle(scene, mean, cov, frame):
    # the WLS fix and its error covariance G^-1 as a position reading
    # with H = I
    mean, cov = mean + frame.displacement, cov + frame.input_cov
    r_hat = np.linalg.norm(mean[..., None, :] - scene.anchors.positions, axis=-1)
    variances = scene.range_model.sigma0_sq * np.exp(scene.range_model.kappa * r_hat)
    scratch = RangingScratch.of(scene.geometry, r_hat.shape[:-1])
    fix, _, r_cov = ranging_layer(scene.geometry, r_hat, variances, frame.ranges, scratch)
    # the covariance-form LC-KF floored this noise's eigenvalues at 1e-12;
    # the information form has no floor, so none may have been active
    assert np.linalg.eigvalsh(0.5 * (r_cov + r_cov.mT)).min() > 1e-12
    return _covariance_form_update(mean, cov, np.eye(2), fix - mean, r_cov)


def _relative_gap(got, want):
    """Largest |got - want| of each row over the row's largest |want|."""
    axes = tuple(range(1, want.ndim))
    return (np.abs(got - want).max(axis=axes) / np.abs(want).max(axis=axes)).max()


@pytest.mark.parametrize("scenario", ["A", "B", "CV"])
@pytest.mark.parametrize("step, oracle", [(ekf_step, _ekf_oracle), (lckf_step, _lckf_oracle)])
def test_information_form_steps_track_the_covariance_form(scenario, step, oracle):
    # the information-form filter and the covariance-form oracle run side
    # by side, each on its own state, over the same 300 frames of 4 runs
    config = ExperimentConfig(trajectory=make_scenario(scenario, steps=300), runs=4)
    scene = Scene.from_config(config)
    for seed in range(3):
        draws = [draw_run(dataclasses.replace(config, seed=seed), run) for run in range(4)]
        positions, ranges, speed, heading = (np.stack(part, axis=1) for part in zip(*draws))
        frames = measurement_frames(MeasurementFrame.of(scene, ranges, speed, heading))
        state = position_init(scene, positions[0])
        mean, cov = state.mean, state.covariance
        next(frames)
        for frame in frames:
            state = step(scene, state, frame)
            mean, cov = oracle(scene, mean, cov, frame)
            assert _relative_gap(state.mean, mean) < 1e-9
            assert _relative_gap(state.covariance, cov) < 1e-9


def _track_arrays(track):
    """Every array a KfTrack holds: its buffers and its range-noise constants."""
    values = [getattr(track, field.name) for field in dataclasses.fields(track)]
    model = track.range_model
    return [x for x in values if isinstance(x, np.ndarray)] + [model.sigma0_sq, model.kappa]


@pytest.mark.parametrize("name", ["ekf", "ukf", "lckf", "ekf-cv"])
def test_the_kalman_tracks_scratch_buffers_are_scratch_only(name):
    # A step writes the track's scratch (the UKF's sigma points, the
    # EKF-CV's Jacobians, innovation and variances) before it reads it,
    # and no state holds a view of it: one state stepped twice with one
    # frame gives the same state, two tracks share no buffer, no state's
    # mean or covariance shares memory with its track, every state keeps
    # its values while later steps run, and each row of the batch steps as
    # that row alone does, bit for bit.
    kernels = simulate._estimators()[name]
    config = ExperimentConfig(trajectory=make_scenario("B", steps=40), runs=4, seed=3)
    scene = Scene.from_config(config)
    _, ranges, speed, heading = (
        np.stack(part, axis=1) for part in zip(*(draw_run(config, run) for run in range(4)))
    )
    terms = MeasurementFrame.of(scene, ranges, speed, heading)
    frames = list(measurement_frames(terms))
    singles = [list(measurement_frames(terms.rows(slice(run, run + 1)))) for run in range(4)]
    state = kernels.init(scene, frames[0])
    other = kernels.init(scene, frames[0])
    alone = [kernels.init(scene, one[0]) for one in singles]
    buffers = _track_arrays(state.track)
    assert len(buffers) == (3 if name != "ekf-cv" else 6)
    others = _track_arrays(other.track) + [x for one in alone for x in _track_arrays(one.track)]
    for a in buffers:
        assert not any(np.shares_memory(a, b) for b in others)
    history = [state]
    for k in range(1, len(frames)):
        again = kernels.step(scene, state, frames[k])
        state = kernels.step(scene, state, frames[k])
        np.testing.assert_array_equal(again.mean, state.mean, err_msg=f"step {k}")
        np.testing.assert_array_equal(again.covariance, state.covariance, err_msg=f"step {k}")
        assert state.track is history[0].track
        for x in (state.mean, state.covariance):
            assert not any(np.shares_memory(x, b) for b in buffers)
        for run, one in enumerate(singles):
            alone[run] = kernels.step(scene, alone[run], one[k])
            np.testing.assert_array_equal(state.mean[run], alone[run].mean[0])
            np.testing.assert_array_equal(state.covariance[run], alone[run].covariance[0])
        history.append(state)
    snapshots = [(s.mean.copy(), s.covariance.copy()) for s in history]
    for k in range(1, len(frames)):
        kernels.step(scene, history[k - 1], frames[k])
    for s, (mean, cov) in zip(history, snapshots, strict=True):
        np.testing.assert_array_equal(s.mean, mean)
        np.testing.assert_array_equal(s.covariance, cov)


def test_the_kalman_steps_build_no_set_up():
    # What a Kalman step reads and never changes is built once per track
    # by the init kernels (`KfTrack`): the four step kernels, and every
    # function of filters.py they call, call none of np.tile, np.eye,
    # np.zeros and np.concatenate; and filters.py calls no np.cos or
    # np.sin, since the CV transition's trig lives once in models.py
    tree = ast.parse(Path(filters.__file__).read_text())
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}

    def numpy_names(node):
        return {
            sub.attr for sub in ast.walk(node)
            if isinstance(sub, ast.Attribute)
            and isinstance(sub.value, ast.Name) and sub.value.id == "np"
        }

    reached, todo = set(), ["ekf_step", "ukf_step", "lckf_step", "ekf_cv_step"]
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            todo += [
                call.func.id for call in ast.walk(functions[name])
                if isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
                and call.func.id in functions
            ]
    assert reached >= {"_input_driven_predict", "_kalman_update", "_sigma_points", "_cholesky"}
    for name in reached:
        assert not numpy_names(functions[name]) & {"tile", "eye", "zeros", "concatenate"}, name
    assert not numpy_names(tree) & {"cos", "sin"}
