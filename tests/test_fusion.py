"""Per-axis fused estimator: recursions, beta selection, online stepping.

The bias/variance recursion formulas are checked against a direct
ensemble simulation of the error model they describe; the beta
optimisers against brute-force grid minimisation of the exact objective.
"""
import math
import warnings
from types import SimpleNamespace

import dataclasses

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_allclose

from paretoloc.deadreckoning import dr_second_moment, measurement_frames
from paretoloc.fusion import (
    AxisContext,
    FusionState,
    ParetoConfig,
    _pareto_update,
    _row_blocks,
    approximate_kinematics,
    bias_recursion,
    error_variance,
    fuse,
    fusion_step,
    init_fusion,
    optimal_beta,
    select_rho,
)
from paretoloc.models import (
    AnchorSet,
    RangeNoiseModel,
    SensorNoiseModel,
    SensorStreams,
    draw_measurements,
    true_ranges,
)
from paretoloc.simulate import Scene
from paretoloc.validate import _mse_beta, _second_moment_terms


def _context(v=0.4, phi=0.6, sigma_v=0.05, sigma_phi=math.pi / 8.0, axis=0):
    trig = math.cos(phi) if axis == 0 else math.sin(phi)
    return AxisContext(
        ranging_mean=0.03,
        ranging_second=0.02,
        prev_bias=-0.01,
        prev_variance=0.004,
        dr_true_first=v * trig,
        heading_attenuation=math.exp(-0.5 * sigma_phi**2),
        dr_second=dr_second_moment(v, sigma_v, phi, sigma_phi, axis=axis),
        T=0.1,
    )


def test_fuse_is_convex_combination():
    out = fuse(0.25, [1.0, 2.0], [3.0, 6.0])
    assert_allclose(out, [1.5, 3.0])
    assert_allclose(fuse([0.0, 1.0], [1.0, 2.0], [3.0, 6.0]), [1.0, 6.0])


def test_recursion_matches_error_ensemble():
    # simulate w' = (1-b) w_r + b (w_k + T (V~ trig(phi~) - V trig(phi)))
    # with the exact noise models the closed forms describe
    v, phi, sigma_v, sigma_phi = 0.4, 0.6, 0.05, math.pi / 8.0
    ctx = _context(v, phi, sigma_v, sigma_phi)
    m = ctx.moments()
    beta = 0.7
    rng = np.random.default_rng(11)
    n = 500000
    w_r = rng.normal(ctx.ranging_mean, math.sqrt(m.sigma_vr_sq), size=n)
    w_k = rng.normal(ctx.prev_bias, math.sqrt(ctx.prev_variance), size=n)
    v_meas = v + rng.normal(0.0, sigma_v, size=n)
    phi_meas = phi + rng.normal(0.0, sigma_phi, size=n)
    dr_err = ctx.T * (v_meas * np.cos(phi_meas) - v * math.cos(phi))
    w_next = (1.0 - beta) * w_r + beta * (w_k + dr_err)

    se_mean = w_next.std(ddof=1) / math.sqrt(n)
    assert abs(w_next.mean() - bias_recursion(beta, m)) < 4.0 * se_mean
    assert w_next.var(ddof=1) == pytest.approx(error_variance(beta, m), rel=0.01)
    # raw second moment through the quadratic coefficients
    a_k, b_k = _second_moment_terms(ctx)
    predicted = beta**2 * a_k + 2.0 * beta * b_k + ctx.ranging_second
    assert np.mean(w_next**2) == pytest.approx(predicted, rel=0.01)


def test_second_moment_terms_closed_forms():
    ctx = _context()
    a_k, b_k = _second_moment_terms(ctx)
    m = ctx.moments()
    assert m.eta == m.sigma_vr_sq + ctx.prev_variance + m.sigma_vv_sq
    assert a_k == pytest.approx(m.gamma**2 + m.eta, rel=1e-12)
    assert b_k == pytest.approx(ctx.ranging_mean * m.gamma - m.sigma_vr_sq, rel=1e-12)


def test_optimal_beta_matches_grid():
    config = ParetoConfig(beta_clip=1.0)
    grid = np.arange(-1.0, 1.0 + 1e-4, 1e-4)
    rng = np.random.default_rng(5)
    for _ in range(10):
        ctx = _context(
            v=rng.uniform(0.0, 1.0), phi=rng.uniform(-math.pi, math.pi)
        )
        m = ctx.moments()
        rho = float(rng.uniform(0.0, 1.0))
        mu = (1.0 - grid) * m.ranging_mean + grid * (m.prev_bias + m.drift)
        var = (1.0 - grid) ** 2 * m.sigma_vr_sq + grid**2 * (m.prev_variance + m.sigma_vv_sq)
        brute = grid[int(np.argmin(rho * mu**2 + (1.0 - rho) * var))]
        assert optimal_beta(rho, ctx, config) == pytest.approx(brute, abs=2e-4)


def test_optimal_beta_validation_and_clip():
    ctx = _context()
    with pytest.raises(ValueError):
        optimal_beta(1.5, ctx, ParetoConfig())
    # gamma = -m_r + prev_bias + drift = -0.1 with m_r = 0.2 makes the
    # rho = 1 stationary point -m_r / gamma = 2, so the cap must bite
    clipped = AxisContext(
        ranging_mean=0.2,
        ranging_second=0.05,
        prev_bias=0.1,
        prev_variance=0.004,
        dr_true_first=0.0,
        heading_attenuation=1.0,
        dr_second=0.0025,
        T=0.1,
    )
    assert optimal_beta(1.0, clipped, ParetoConfig()) == pytest.approx(0.99)
    # no variance and no bias drift: the objective has no curvature
    with pytest.warns(RuntimeWarning, match="degenerate"):
        degenerate = AxisContext(0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.1)
        assert optimal_beta(0.5, degenerate, ParetoConfig()) == 0.0


@given(
    ranging_mean=st.floats(-0.3, 0.3),
    sigma_vr_sq=st.floats(1e-4, 0.25),
    prev_bias=st.floats(-0.3, 0.3),
    prev_variance=st.floats(1e-6, 0.04),
    dr_true_first=st.floats(-1.0, 1.0),
    attenuation=st.floats(0.3, 1.0),
    sigma_vv_sq=st.floats(1e-8, 0.01),
    beta_clip=st.floats(0.5, 1.0),
)
def test_paper_form_mse_beta_equals_even_weighting(
    ranging_mean, sigma_vr_sq, prev_bias, prev_variance, dr_true_first, attenuation,
    sigma_vv_sq, beta_clip,
):
    # "mse" mode runs optimal_beta at rho = 1/2; the paper's own form
    # minimises beta^2 a_k + 2 beta b_k and must give the same beta
    t_step = 0.1
    dr_first = dr_true_first * attenuation
    ctx = AxisContext(
        ranging_mean=ranging_mean,
        ranging_second=sigma_vr_sq + ranging_mean**2,
        prev_bias=prev_bias,
        prev_variance=prev_variance,
        dr_true_first=dr_true_first,
        heading_attenuation=attenuation,
        dr_second=dr_first**2 + sigma_vv_sq / t_step**2,
        T=t_step,
    )
    config = ParetoConfig(beta_clip=beta_clip)
    a_k, b_k = _second_moment_terms(ctx)
    assert _mse_beta(a_k, b_k, config) == pytest.approx(optimal_beta(0.5, ctx, config), abs=1e-9)


def test_select_rho_minimises_balance_gap():
    config = ParetoConfig()
    ctx = _context()
    rho_star = select_rho(ctx.moments(), config)
    assert 0.0 <= rho_star <= 1.0

    def gap(rho):
        beta = optimal_beta(rho, ctx, config)
        mu = bias_recursion(beta, ctx.moments())
        var = error_variance(beta, ctx.moments())
        return (var - mu**2) ** 2

    chosen = gap(rho_star)
    for rho in config.rho_grid:
        assert chosen <= gap(float(rho)) + 1e-18


def _per_block_moments(ctx):
    """Drift and variance terms evaluated from the context's fields."""
    dr_first = ctx.dr_true_first * ctx.heading_attenuation
    return SimpleNamespace(
        ranging_mean=ctx.ranging_mean,
        prev_bias=ctx.prev_bias,
        prev_variance=ctx.prev_variance,
        drift=ctx.T * ctx.dr_true_first * (ctx.heading_attenuation - 1.0),
        sigma_vr_sq=ctx.ranging_second - ctx.ranging_mean**2,
        sigma_vv_sq=ctx.T**2 * (ctx.dr_second - dr_first**2),
    )


def _per_block_recursions(beta, m):
    """Tracked bias and variance after a step with `beta`."""
    bias = (1.0 - beta) * m.ranging_mean + beta * m.prev_bias + beta * m.drift
    variance = (1.0 - beta) ** 2 * m.sigma_vr_sq + beta**2 * m.prev_variance + beta**2 * m.sigma_vv_sq
    return bias, variance


def _per_block_beta(rho, m, config):
    """beta of `optimal_beta`'s formula, and where its objective has no
    curvature."""
    gamma = -m.ranging_mean + m.prev_bias + m.drift
    eta = m.sigma_vr_sq + m.prev_variance + m.sigma_vv_sq
    num = 2.0 * (1.0 - rho) * m.sigma_vr_sq - 2.0 * rho * gamma * m.ranging_mean
    den = 2.0 * (1.0 - rho) * eta + 2.0 * rho * gamma**2
    degenerate = den <= 0.0
    xi = np.where(degenerate, 0.0, num / np.where(degenerate, 1.0, den))
    return np.clip(xi, -config.beta_clip, config.beta_clip), degenerate


def _context_fields(ctx, index):
    """The context with `index` applied to its array fields; T and the
    heading attenuation are shared by all rows."""
    fields = (getattr(ctx, f.name) for f in dataclasses.fields(AxisContext))
    return AxisContext(*(x[index] if isinstance(x, np.ndarray) else x for x in fields))


def _per_block_step(ctx, configs):
    """Oracle of one step's Pareto update: each block gets its own context
    rows; a knee block scans a context rebuilt along a trailing grid axis
    and gathers beta from the scan, the other blocks solve beta at their
    rho.  Returns (rho, beta, bias, variance, warned), with `warned` set
    when a fixed or mse row has no curvature."""
    rows = len(ctx.ranging_mean)
    rho, beta = np.empty((rows, 2)), np.empty((rows, 2))
    warned = False
    for part, config in _row_blocks(configs, rows):
        block = _context_fields(ctx, part)
        if config.mode == "knee":
            grid = _per_block_moments(_context_fields(block, (..., None)))
            betas, _ = _per_block_beta(config.rho_grid, grid, config)
            mu, var = _per_block_recursions(betas, grid)
            best = np.argmin((var - mu**2) ** 2, axis=-1)
            flat = betas.reshape(-1, config.rho_grid.size)
            rho[part] = config.rho_grid[best]
            beta[part] = flat[np.arange(flat.shape[0]), best.reshape(-1)].reshape(best.shape)
        else:
            fixed = config.fixed_rho if config.mode == "fixed" else 0.5
            rho[part] = fixed
            beta[part], degenerate = _per_block_beta(fixed, _per_block_moments(block), config)
            warned |= bool(np.any(degenerate))
    return (rho, beta, *_per_block_recursions(beta, _per_block_moments(ctx)), warned)


@st.composite
def _stacked_contexts(draw):
    """1-3 blocks of 1-3 rows under knee, fixed and mse configs; some rows
    have every moment zero, so their beta objective has no curvature."""
    configs = draw(
        st.lists(
            st.builds(
                ParetoConfig,
                mode=st.sampled_from(("knee", "fixed", "mse")),
                beta_clip=st.floats(0.0, 1.0, exclude_min=True),
                fixed_rho=st.floats(0.0, 1.0),
            ),
            min_size=1,
            max_size=3,
        )
    )
    rows = len(configs) * draw(st.integers(1, 3))
    zero = draw(arrays(np.bool_, (rows, 1)))

    def moment(lo, hi):
        return np.where(zero, 0.0, draw(arrays(np.float64, (rows, 2), elements=st.floats(lo, hi))))

    mean = moment(-0.3, 0.3)
    ctx = AxisContext(
        ranging_mean=mean,
        ranging_second=mean**2 + moment(0.0, 0.25),
        prev_bias=moment(-0.3, 0.3),
        prev_variance=moment(0.0, 0.04),
        dr_true_first=moment(-1.0, 1.0),
        heading_attenuation=draw(st.floats(0.3, 1.0)),
        dr_second=moment(0.0, 1.0),
        T=draw(st.floats(0.01, 1.0)),
    )
    return ctx, configs


@given(_stacked_contexts())
def test_pareto_update_equals_the_per_block_composition(case):
    ctx, configs = case
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got = _pareto_update(ctx, configs)
    *expected, warned = _per_block_step(ctx, configs)
    for name, a, b in zip(("rho", "beta", "bias", "variance"), got, expected):
        np.testing.assert_array_equal(a, b, err_msg=name)
    assert [str(w.message) for w in caught] == (
        ["degenerate beta objective (zero curvature); falling back to beta = 0"] if warned else []
    )


def test_pareto_config_validation():
    with pytest.raises(ValueError):
        ParetoConfig(mode="balanced")
    with pytest.raises(ValueError):
        ParetoConfig(beta_clip=0.0)
    for rho in (-0.1, 1.5, math.nan, math.inf):
        with pytest.raises(ValueError):
            ParetoConfig(mode="fixed", fixed_rho=rho)
    assert ParetoConfig(mode="fixed", fixed_rho=1.0).fixed_rho == 1.0


def test_approximate_kinematics_cases():
    v, phi = approximate_kinematics(None, [1.0, 1.0], 0.1, 0.7, 0.2)
    assert (v, phi) == (0.7, 0.2)
    v, phi = approximate_kinematics([0.0, 0.0], [0.3, 0.4], 0.1, 0.0, 0.0)
    assert v == pytest.approx(5.0)
    assert phi == pytest.approx(math.atan2(0.4, 0.3))
    v, phi = approximate_kinematics([1.0, 1.0], [1.0, 1.0], 0.1, 0.5, 0.9)
    assert v == 0.0 and phi == 0.9


ANCHORS = AnchorSet(np.array([[0.0, 0.0], [4.0, 0.0], [0.0, 4.0], [4.0, 4.0], [2.0, 0.0]]))


def _one_run_frames(scene, positions, speed, heading, seed):
    """Measurement frames of one run, each a batch of one."""
    ranges, speed, heading = draw_measurements(
        positions, speed, heading, ANCHORS, scene.range_model, scene.sensor_model,
        SensorStreams.from_seed(seed),
    )
    return list(measurement_frames(scene, ranges[:, None], speed[:, None], heading[:, None]))


def _run_sequence(range_model, sensor_model, steps=40, seed=23, mode="knee"):
    scene = Scene(
        anchors=ANCHORS,
        range_model=range_model,
        sensor_model=sensor_model,
        paretos=(ParetoConfig(mode=mode, initial_speed=0.3, initial_heading=0.5),),
    )
    vel = 0.3 * np.array([math.cos(0.5), math.sin(0.5)])
    truth = np.array([1.0, 1.2]) + np.arange(steps)[:, None] * (0.1 * vel)
    frames = _one_run_frames(scene, truth, np.full(steps, 0.3), np.full(steps, 0.5), seed)
    state = init_fusion(scene, frames[0])
    for frame in frames[1:]:
        state = fusion_step(scene, state, frame)
    return state, truth


def test_fusion_step_tracks_noise_free_motion():
    # vanishing noise on every sensor: the fused estimate must follow the
    # true trajectory to numerical precision
    state, truth = _run_sequence(
        RangeNoiseModel(sigma0_sq=1e-12, kappa=0.0),
        SensorNoiseModel(sigma_v=0.0, sigma_phi=0.0),
    )
    assert_allclose(state.estimate, truth[-1:], atol=1e-4)


def test_fusion_step_modes_run_and_differ():
    knee, _ = _run_sequence(RangeNoiseModel(), SensorNoiseModel(), mode="knee")
    mse, _ = _run_sequence(RangeNoiseModel(), SensorNoiseModel(), mode="mse")
    assert np.all(np.isfinite(knee.estimate)) and np.all(np.isfinite(mse.estimate))
    assert not np.allclose(knee.estimate, mse.estimate)
    assert np.all(np.abs(knee.last_beta) <= 0.99)
    assert np.all((knee.last_rho >= 0.0) & (knee.last_rho <= 1.0))


def test_fusion_step_does_not_mutate_input():
    scene = Scene(anchors=ANCHORS)
    f0, f1 = _one_run_frames(scene, np.array([[1.0, 1.0], [1.01, 1.0]]), [0.1, 0.1], [0.0, 0.0], 3)
    state = init_fusion(scene, f0)
    before = state.estimate.copy()
    out = fusion_step(scene, state, f1)
    assert out is not state
    assert_allclose(state.estimate, before, atol=0.0)
    assert_allclose(out.prev_estimate, before, atol=0.0)


def test_init_fusion_populates_moments():
    scene = Scene(anchors=ANCHORS)
    (frame,) = measurement_frames(scene, true_ranges([[[1.5, 2.0]]], ANCHORS), [[0.1]], [[0.0]])
    state = init_fusion(scene, frame)
    assert state.prev_estimate is None
    assert state.error_variance.shape == (1, 2)
    assert np.all(state.error_variance > 0.0)
    # clean ranges: the bootstrap solve is the true position
    assert_allclose(state.estimate, [[1.5, 2.0]], atol=1e-8)


def test_mse_mode_is_fixed_rho_one_half_bit_for_bit():
    # the "mse" mode has no beta formula of its own: a batch stepped under
    # mode="mse" and under mode="fixed", fixed_rho=0.5 carries the same bits
    range_model, sensor_model = RangeNoiseModel(), SensorNoiseModel()
    runs, steps = 5, 40
    headings = np.linspace(0.2, 2.0, runs)
    truth = np.array([1.0, 1.2]) + 0.03 * np.arange(steps)[:, None, None] * np.stack(
        [np.cos(headings), np.sin(headings)], axis=-1
    )
    draws = [
        draw_measurements(
            truth[:, run], np.full(steps, 0.3), np.full(steps, headings[run]),
            ANCHORS, range_model, sensor_model, SensorStreams.from_seed(run),
        )
        for run in range(runs)
    ]
    ranges, speed, heading = (np.stack(part, axis=1) for part in zip(*draws))
    frames = list(measurement_frames(Scene(anchors=ANCHORS), ranges, speed, heading))
    mse = ParetoConfig(mode="mse", initial_speed=0.3)
    fixed = ParetoConfig(mode="fixed", fixed_rho=0.5, initial_speed=0.3)
    states = []
    for config in (mse, fixed):
        scene = Scene(anchors=ANCHORS, paretos=(config,))
        state = init_fusion(scene, frames[0])
        for frame in frames[1:]:
            state = fusion_step(scene, state, frame)
        states.append(state)
    assert np.all(np.isfinite(states[0].estimate))
    for field in dataclasses.fields(FusionState):
        np.testing.assert_array_equal(
            getattr(states[0], field.name), getattr(states[1], field.name), err_msg=field.name
        )
