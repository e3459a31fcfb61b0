"""Per-axis fused estimator: recursions, beta selection, online stepping.

The bias/variance recursion formulas are checked against a direct
ensemble simulation of the error model they describe; the beta
optimisers against brute-force grid minimisation of the exact objective.
"""
import dataclasses
import math
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_allclose

from paretoloc.deadreckoning import dr_predict, dr_second_moment, heading_vector, measurement_frames
from paretoloc.fusion import (
    ParetoConfig,
    ParetoMoments,
    _pareto_rows,
    _pareto_update,
    _row_blocks,
    approximate_kinematics,
    axis_moments,
    bias_recursion,
    error_variance,
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
    range_variance,
    true_ranges,
)
from paretoloc.ranging import RangingScratch, ranging_layer
from paretoloc.simulate import ExperimentConfig, Scene, draw_run, make_scenario, run_experiment
from paretoloc.validate import _mse_beta, _second_moment_terms


def _inputs(v=0.4, phi=0.6, sigma_v=0.05, sigma_phi=math.pi / 8.0, axis=0):
    """`axis_moments` arguments of one axis at a fixed operating point."""
    trig = math.cos(phi) if axis == 0 else math.sin(phi)
    return dict(
        ranging_mean=0.03,
        ranging_variance=0.02 - 0.03**2,
        prev_bias=-0.01,
        prev_variance=0.004,
        dr_true_first=v * trig,
        heading_attenuation=math.exp(-0.5 * sigma_phi**2),
        dr_second=dr_second_moment(v, sigma_v, phi, sigma_phi, axis=axis),
        T=0.1,
    )


def test_recursion_matches_error_ensemble():
    # simulate w' = (1-b) w_r + b (w_k + T (V~ trig(phi~) - V trig(phi)))
    # with the exact noise models the closed forms describe
    v, phi, sigma_v, sigma_phi = 0.4, 0.6, 0.05, math.pi / 8.0
    inputs = _inputs(v, phi, sigma_v, sigma_phi)
    m = axis_moments(**inputs)
    beta = 0.7
    rng = np.random.default_rng(11)
    n = 500000
    w_r = rng.normal(m.ranging_mean, math.sqrt(m.sigma_vr_sq), size=n)
    w_k = rng.normal(m.prev_bias, math.sqrt(m.prev_variance), size=n)
    v_meas = v + rng.normal(0.0, sigma_v, size=n)
    phi_meas = phi + rng.normal(0.0, sigma_phi, size=n)
    dr_err = inputs["T"] * (v_meas * np.cos(phi_meas) - v * math.cos(phi))
    w_next = (1.0 - beta) * w_r + beta * (w_k + dr_err)

    se_mean = w_next.std(ddof=1) / math.sqrt(n)
    assert abs(w_next.mean() - bias_recursion(beta, m)) < 4.0 * se_mean
    assert w_next.var(ddof=1) == pytest.approx(error_variance(beta, m), rel=0.01)
    # raw second moment through the quadratic coefficients
    a_k, b_k = _second_moment_terms(**inputs)
    predicted = beta**2 * a_k + 2.0 * beta * b_k + m.sigma_vr_sq + m.ranging_mean**2
    assert np.mean(w_next**2) == pytest.approx(predicted, rel=0.01)


def test_second_moment_terms_closed_forms():
    inputs = _inputs()
    a_k, b_k = _second_moment_terms(**inputs)
    m = axis_moments(**inputs)
    assert m.eta == m.sigma_vr_sq + m.prev_variance + m.sigma_vv_sq
    assert a_k == pytest.approx(m.gamma**2 + m.eta, rel=1e-12)
    assert b_k == pytest.approx(m.ranging_mean * m.gamma - m.sigma_vr_sq, rel=1e-12)


def test_optimal_beta_matches_grid():
    config = ParetoConfig(beta_clip=1.0)
    grid = np.arange(-1.0, 1.0 + 1e-4, 1e-4)
    rng = np.random.default_rng(5)
    for _ in range(10):
        m = axis_moments(**_inputs(v=rng.uniform(0.0, 1.0), phi=rng.uniform(-math.pi, math.pi)))
        rho = float(rng.uniform(0.0, 1.0))
        mu = (1.0 - grid) * m.ranging_mean + grid * (m.prev_bias + m.drift)
        var = (1.0 - grid) ** 2 * m.sigma_vr_sq + grid**2 * (m.prev_variance + m.sigma_vv_sq)
        brute = grid[int(np.argmin(rho * mu**2 + (1.0 - rho) * var))]
        assert optimal_beta(rho, m, config) == pytest.approx(brute, abs=2e-4)


def test_optimal_beta_validation_and_clip():
    with pytest.raises(ValueError):
        optimal_beta(1.5, axis_moments(**_inputs()), ParetoConfig())
    # gamma = -m_r + prev_bias + drift = -0.1 with m_r = 0.2 makes the
    # rho = 1 stationary point -m_r / gamma = 2, so the cap must bite
    clipped = axis_moments(
        ranging_mean=0.2,
        ranging_variance=0.05 - 0.2**2,
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
        degenerate = axis_moments(0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.1)
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
    # the "mse" estimator runs optimal_beta at rho = 1/2; the paper's own
    # form minimises beta^2 a_k + 2 beta b_k and must give the same beta
    t_step = 0.1
    dr_first = dr_true_first * attenuation
    inputs = dict(
        ranging_mean=ranging_mean,
        ranging_variance=sigma_vr_sq,
        prev_bias=prev_bias,
        prev_variance=prev_variance,
        dr_true_first=dr_true_first,
        heading_attenuation=attenuation,
        dr_second=dr_first**2 + sigma_vv_sq / t_step**2,
        T=t_step,
    )
    config = ParetoConfig(beta_clip=beta_clip)
    a_k, b_k = _second_moment_terms(**inputs)
    assert _mse_beta(a_k, b_k, config) == pytest.approx(
        optimal_beta(0.5, axis_moments(**inputs), config), abs=1e-9
    )


def test_select_rho_minimises_balance_gap():
    # a knee row and a row at rho = 0.3 over the same moments: the step
    # copies each element's moments to its candidates, the knee element
    # keeps the first grid point of smallest (sigma^2 - mu^2)^2, and the
    # set element its own rho
    config = ParetoConfig()
    axes = [_inputs(axis=axis) for axis in (0, 1)]
    ctx = {key: np.array([[axes[0][key], axes[1][key]]] * 2) for key in axes[0]}
    ctx.update(heading_attenuation=axes[0]["heading_attenuation"], T=axes[0]["T"])
    m = axis_moments(**ctx)
    pareto = _pareto_rows((config, ParetoConfig(rho=0.3)), 2)
    rho, beta, _, _ = _pareto_update(m, pareto)
    grid = config.rho_grid
    # the workspace: the knee row's two elements tiled grid-major, then
    # the set row's two
    knee = np.stack(m)[:, 0][:, None, :]
    knee_moments = pareto.workspace[:, : grid.size * 2].reshape(8, grid.size, 2)
    np.testing.assert_array_equal(knee_moments, np.broadcast_to(knee, (8, grid.size, 2)))
    np.testing.assert_array_equal(pareto.workspace[:, grid.size * 2 :], np.stack(m)[:, 1])
    np.testing.assert_array_equal(np.stack(pareto.moments), pareto.workspace)
    # the gather index lays out the step's stacked (8, rows, 2) moments
    np.testing.assert_array_equal(np.stack(m).take(pareto.gather), pareto.workspace)
    assert pareto.gather.shape == (8, grid.size * 2 + 2)
    candidate_beta = optimal_beta(pareto.rho, pareto.moments, config)
    pick = select_rho(
        bias_recursion(candidate_beta, pareto.moments),
        error_variance(candidate_beta, pareto.moments),
        pareto,
    )
    assert pick.shape == (2, 2)
    np.testing.assert_array_equal(pareto.rho[pick], rho)
    np.testing.assert_array_equal(candidate_beta[pick], beta)
    assert np.all(rho[1] == 0.3)

    for axis in (0, 1):
        m_axis = axis_moments(**axes[axis])

        def gap(rho):
            beta = optimal_beta(rho, m_axis, config)
            mu = bias_recursion(beta, m_axis)
            var = error_variance(beta, m_axis)
            return (var - mu**2) ** 2

        gaps = np.array([gap(float(r)) for r in grid])
        assert rho[0, axis] == grid[np.argmin(gaps)]
        assert np.all(gaps[grid < rho[0, axis]] > gap(rho[0, axis]))


def _per_block_moments(ctx):
    """Drift and variance terms evaluated from the `axis_moments`
    arguments `ctx`."""
    dr_first = ctx["dr_true_first"] * ctx["heading_attenuation"]
    return SimpleNamespace(
        ranging_mean=ctx["ranging_mean"],
        prev_bias=ctx["prev_bias"],
        prev_variance=ctx["prev_variance"],
        drift=ctx["T"] * ctx["dr_true_first"] * (ctx["heading_attenuation"] - 1.0),
        sigma_vr_sq=ctx["ranging_variance"],
        sigma_vv_sq=np.maximum(ctx["T"] ** 2 * (ctx["dr_second"] - dr_first**2), 0.0),
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
    """The arguments `ctx` with `index` applied to the arrays; T and the
    heading attenuation are shared by all rows."""
    return {key: x[index] if isinstance(x, np.ndarray) else x for key, x in ctx.items()}


def _per_block_step(ctx, configs):
    """Oracle of one step's Pareto update: each block gets its own rows of
    the `axis_moments` arguments `ctx`; a knee block scans them rebuilt
    along a trailing grid axis and gathers beta from the scan, the other
    blocks solve beta at their rho.  Returns (rho, beta, bias, variance,
    warned), with `warned` set when a row at a set rho has no curvature."""
    rows = len(ctx["ranging_mean"])
    rho, beta = np.empty((rows, 2)), np.empty((rows, 2))
    warned = False
    for part, config in _row_blocks(configs, rows):
        block = _context_fields(ctx, part)
        if config.rho is None:
            grid = _per_block_moments(_context_fields(block, (..., None)))
            betas, _ = _per_block_beta(config.rho_grid, grid, config)
            mu, var = _per_block_recursions(betas, grid)
            best = np.argmin((var - mu**2) ** 2, axis=-1)
            flat = betas.reshape(-1, config.rho_grid.size)
            rho[part] = config.rho_grid[best]
            beta[part] = flat[np.arange(flat.shape[0]), best.reshape(-1)].reshape(best.shape)
        else:
            rho[part] = config.rho
            beta[part], degenerate = _per_block_beta(config.rho, _per_block_moments(block), config)
            warned |= bool(np.any(degenerate))
    return (rho, beta, *_per_block_recursions(beta, _per_block_moments(ctx)), warned)


_STACKS = {
    "knee": (ParetoConfig(),),
    "mse": (ParetoConfig(rho=0.5),),
    "knee+mse": (ParetoConfig(), ParetoConfig(rho=0.5)),
    "knee+rho0.3": (ParetoConfig(), ParetoConfig(rho=0.3)),
    "clip0.5": (ParetoConfig(beta_clip=0.5), ParetoConfig(rho=0.5)),
    "mse+knee": (ParetoConfig(rho=0.5), ParetoConfig()),
    "knee+knee0.5": (ParetoConfig(), ParetoConfig(beta_clip=0.5)),
    "knee+knee0.7+mse": (ParetoConfig(), ParetoConfig(beta_clip=0.7), ParetoConfig(rho=0.5)),
    "knee+mse+knee": (ParetoConfig(), ParetoConfig(rho=0.5), ParetoConfig()),
}


@st.composite
def _stacked_contexts(draw):
    """1-3 blocks of 1-3 rows under knee, set-rho and rho = 1/2 configs,
    or under one of `_STACKS`; some rows have every moment zero, so their
    beta objective has no curvature."""
    configs = draw(
        st.one_of(
            st.lists(
                st.builds(
                    ParetoConfig,
                    beta_clip=st.floats(0.0, 1.0, exclude_min=True),
                    rho=st.one_of(st.none(), st.floats(0.0, 1.0), st.just(0.5)),
                ),
                min_size=1,
                max_size=3,
            ),
            st.sampled_from(list(_STACKS.values())),
        )
    )
    rows = len(configs) * draw(st.integers(1, 3))
    zero = draw(arrays(np.bool_, (rows, 1)))

    def moment(lo, hi):
        return np.where(zero, 0.0, draw(arrays(np.float64, (rows, 2), elements=st.floats(lo, hi))))

    ctx = dict(
        ranging_mean=moment(-0.3, 0.3),
        ranging_variance=moment(0.0, 0.25),
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
        got = _pareto_update(
            axis_moments(**ctx), _pareto_rows(configs, len(ctx["ranging_mean"]))
        )
    *expected, warned = _per_block_step(ctx, configs)
    for name, a, b in zip(("rho", "beta", "bias", "variance"), got, expected):
        np.testing.assert_array_equal(a, b, err_msg=name)
    assert [str(w.message) for w in caught] == (
        ["degenerate beta objective (zero curvature); falling back to beta = 0"] if warned else []
    )


def test_pareto_config_validation():
    with pytest.raises(ValueError):
        ParetoConfig(beta_clip=0.0)
    for rho in (-0.1, 1.5, math.nan, math.inf):
        with pytest.raises(ValueError):
            ParetoConfig(rho=rho)
    assert ParetoConfig(rho=1.0).rho == 1.0 and ParetoConfig(rho=0.0).rho == 0.0
    assert ParetoConfig().rho is None


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


def _run_sequence(range_model, sensor_model, steps=40, seed=23, rho=None):
    scene = Scene(
        anchors=ANCHORS,
        range_model=range_model,
        sensor_model=sensor_model,
        paretos=(ParetoConfig(rho=rho, initial_speed=0.3, initial_heading=0.5),),
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
    knee, _ = _run_sequence(RangeNoiseModel(), SensorNoiseModel(), rho=None)
    mse, _ = _run_sequence(RangeNoiseModel(), SensorNoiseModel(), rho=0.5)
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


def test_fusion_step_blends_the_wls_fix_and_the_dead_reckoned_prediction():
    # per axis, estimate = (1 - beta) x_r + beta x_v with the beta the step
    # reports, x_r the WLS fix at ranges from x_v, and x_v the
    # dead-reckoned prediction; beta = 0 and beta = 1 give x_r and x_v
    scene = Scene(anchors=ANCHORS)
    truth = np.array([[1.0, 1.0], [1.02, 1.01], [1.04, 1.02]])
    frames = _one_run_frames(scene, truth, [0.2] * 3, [0.45] * 3, 7)
    state = init_fusion(scene, frames[0])
    for frame in frames[1:]:
        out = fusion_step(scene, state, frame)
        x_v = dr_predict(state.estimate, frame)
        r_ap = true_ranges(x_v, scene.anchors)
        scratch = RangingScratch.of(scene.geometry, r_ap.shape[:-1])
        x_r = ranging_layer(
            scene.geometry, r_ap, range_variance(r_ap, scene.range_model), frame.ranges, scratch
        )[0]
        beta = out.last_beta
        assert np.all((beta != 0.0) & (x_r != x_v))
        np.testing.assert_array_equal(out.estimate, (1.0 - beta) * x_r + beta * x_v)
        state = out


def test_mse_is_fusion_at_rho_one_half_bit_for_bit():
    # the "mse" estimator has no beta formula of its own: it is the fused
    # estimator at ParetoConfig(rho=0.5), error for error
    spec = make_scenario("B", steps=60)
    knee = ExperimentConfig(
        trajectory=spec, estimators=("fusion", "mse"), runs=5, seed=2,
        pareto=ParetoConfig(initial_speed=spec.speed, initial_heading=spec.heading),
    )
    half = dataclasses.replace(knee, pareto=dataclasses.replace(knee.pareto, rho=0.5))
    both, at_half = run_experiment(knee), run_experiment(half)
    assert np.all(np.isfinite(both.errors["mse"])) and both.excluded["mse"] == 0
    for result in (both, at_half):
        np.testing.assert_array_equal(result.errors["mse"], at_half.errors["fusion"])
        np.testing.assert_array_equal(
            result.estimate_traces["mse"], at_half.estimate_traces["fusion"]
        )
    assert not np.array_equal(both.errors["mse"], both.errors["fusion"])


# The fused step as it was when every step built its own Pareto set-up:
# each block's rho, beta_clip and warn mask from `scene.paretos`, the
# knee grid's shape, and the heading attenuations and speed variance
# from the sensor model.  The kernel, which builds them once per track,
# must step the same states bit for bit.


def _reference_beta(rho, m, beta_clip, warn=None):
    w_var, w_bias = 2.0 * (1.0 - rho), 2.0 * rho
    num = w_var * m.sigma_vr_sq - w_bias * m.gamma * m.ranging_mean
    den = w_var * m.eta + w_bias * m.gamma**2
    degenerate = den <= 0.0
    if warn is not None and np.count_nonzero(degenerate & warn):
        warnings.warn(
            "degenerate beta objective (zero curvature); falling back to beta = 0",
            RuntimeWarning,
        )
    xi = np.where(degenerate, 0.0, num / np.where(degenerate, 1.0, den))
    return np.clip(xi, -beta_clip, beta_clip)


def _reference_select_rho(m, beta_clip, rho_grid):
    # the knee scan as it was: the candidates along a leading axis, shaped
    # (n,) + (1,) * ndim against array moments, one rho per element
    betas = _reference_beta(rho_grid, m, beta_clip)
    mu, var = bias_recursion(betas, m), error_variance(betas, m)
    return rho_grid.flat[np.argmin((var - mu**2) ** 2, axis=0)]


def _reference_pareto_update(m, configs):
    rows = len(m.ranging_mean)
    rho, beta_clip = np.empty((rows, 2)), np.empty((rows, 1))
    warn = np.zeros((rows, 1), dtype=bool)
    for part, config in _row_blocks(configs, rows):
        beta_clip[part] = config.beta_clip
        if config.rho is None:
            block = ParetoMoments(*(x[part] for x in m))
            grid = config.rho_grid.reshape((-1,) + (1,) * np.ndim(block.ranging_mean))
            rho[part] = _reference_select_rho(block, config.beta_clip, grid)
        else:
            rho[part] = config.rho
            warn[part] = True
    beta = _reference_beta(rho, m, beta_clip, warn)
    return rho, beta, bias_recursion(beta, m), error_variance(beta, m)


def _reference_step(scene, state, frame):
    T, sigma_v, sigma_phi = scene.T, scene.sensor_model.sigma_v, scene.sensor_model.sigma_phi
    v_ap, phi_ap = approximate_kinematics(
        state.prev_estimate, state.estimate, T, state.last_speed, state.last_heading
    )
    x_v = dr_predict(state.estimate, frame)
    r_ap = true_ranges(x_v, scene.anchors)
    scratch = RangingScratch.of(scene.geometry, r_ap.shape[:-1])
    x_r, r_bias, r_cov = ranging_layer(
        scene.geometry, r_ap, range_variance(r_ap, scene.range_model), frame.ranges, scratch
    )
    v, phi = v_ap[..., None], phi_ap[..., None]
    # E{cos^2} on axis 0 and E{sin^2} on axis 1 of a N(phi, sigma_phi^2) heading
    double_angle = np.cos(2.0 * phi) * (1.0 - 2.0 * np.arange(2))
    square = 0.5 + 0.5 * double_angle * math.exp(-2.0 * sigma_phi**2)
    m = axis_moments(
        ranging_mean=r_bias,
        ranging_variance=r_cov.diagonal(0, -2, -1),
        prev_bias=state.bias_estimate,
        prev_variance=state.error_variance,
        dr_true_first=v * heading_vector(phi_ap),
        heading_attenuation=math.exp(-0.5 * sigma_phi**2),
        dr_second=(v**2 + sigma_v**2) * square,
        T=T,
    )
    rho, beta, bias, variance = _reference_pareto_update(m, scene.paretos)
    return dataclasses.replace(
        state,
        estimate=(1.0 - beta) * x_r + beta * x_v,
        prev_estimate=state.estimate,
        bias_estimate=bias,
        error_variance=variance,
        last_speed=v_ap,
        last_heading=phi_ap,
        last_beta=beta,
        last_rho=rho,
    )


_STATE_FIELDS = (
    "estimate", "prev_estimate", "bias_estimate", "error_variance",
    "last_speed", "last_heading", "last_beta", "last_rho",
)


def _stepped_beside_the_reference(scenario, paretos, trajectory_args=(), **models):
    """Step the kernel and `_reference_step` side by side over 3 runs of 80
    steps of `scenario` (with `trajectory_args` set), one block of rows
    per ParetoConfig, requiring the same state and the same warnings at
    every step.  Returns the warning count, the kernel's betas
    (steps, rows, 2) and its speeds (steps, rows)."""
    config = ExperimentConfig(
        trajectory=make_scenario(scenario, steps=80, **dict(trajectory_args)),
        runs=3,
        seed=3,
        **models,
    )
    scene = dataclasses.replace(Scene.from_config(config), paretos=paretos)
    draws = [draw_run(config, run) for run in range(config.runs)]
    _, ranges, speed, heading = (
        np.concatenate((np.stack(part, axis=1),) * len(paretos), axis=1) for part in zip(*draws)
    )
    frames = measurement_frames(scene, ranges, speed, heading)
    new = old = init_fusion(scene, next(frames))
    warned, betas, speeds = 0, [], []
    for frame in frames:
        caught = []
        for step, state in ((fusion_step, new), (_reference_step, old)):
            with warnings.catch_warnings(record=True) as record:
                warnings.simplefilter("always")
                caught.append((step(scene, state, frame), [str(w.message) for w in record]))
        (new, new_warnings), (old, old_warnings) = caught
        for name in _STATE_FIELDS:
            np.testing.assert_array_equal(
                getattr(new, name), getattr(old, name), err_msg=f"{name} at step {frame.k}"
            )
        assert new_warnings == old_warnings, frame.k
        warned += len(new_warnings)
        betas.append(new.last_beta)
        speeds.append(new.last_speed)
    return warned, np.array(betas), np.array(speeds)


def _snapshot(state):
    return {name: np.copy(getattr(state, name)) for name in _STATE_FIELDS}


def _assert_state(state, snapshot, what):
    for name, value in snapshot.items():
        np.testing.assert_array_equal(getattr(state, name), value, err_msg=f"{name}, {what}")


@pytest.mark.parametrize("stack", ["knee+mse", "knee+rho0.3"])
def test_the_tracks_scratch_buffers_are_scratch_only(stack):
    # A step writes the track's scratch (the moment workspace and the
    # ranging layer's buffers) before it reads it, and no state holds a
    # view of it: one state stepped twice with one frame gives the same
    # state, two tracks of one scene stepped interleaved give each what it
    # gives alone, and every state keeps its values while later steps run.
    config = ExperimentConfig(trajectory=make_scenario("B", steps=40), runs=3, seed=3)
    scene = dataclasses.replace(Scene.from_config(config), paretos=_STACKS[stack])
    blocks = len(scene.paretos)
    tracks = []
    for runs in (range(3), range(3, 6)):
        _, ranges, speed, heading = (
            np.stack(part, axis=1) for part in zip(*(draw_run(config, run) for run in runs))
        )
        tracks.append(list(measurement_frames(scene, ranges, speed, heading, blocks=blocks)))
    alone = []
    for frames in tracks:
        state = init_fusion(scene, frames[0])
        alone.append([_snapshot(state)])
        for frame in frames[1:]:
            state = fusion_step(scene, state, frame)
            alone[-1].append(_snapshot(state))
    states = [init_fusion(scene, frames[0]) for frames in tracks]
    history = [[state] for state in states]
    for k in range(1, len(tracks[0])):
        for track, frames in enumerate(tracks):
            state = history[track][-1]
            again = fusion_step(scene, state, frames[k])
            history[track].append(fusion_step(scene, state, frames[k]))
            _assert_state(again, alone[track][k], f"track {track} stepped twice at step {k}")
        for track in range(2):
            for j, state in enumerate(history[track]):
                _assert_state(state, alone[track][j], f"track {track}, step {j}, after step {k}")
    assert history[0][-1].track is history[0][0].track is not history[1][0].track


@pytest.mark.parametrize("stack", list(_STACKS))
@pytest.mark.parametrize("scenario", ["A", "B", "CV"])
def test_fusion_step_is_the_per_step_set_up_bit_for_bit(scenario, stack):
    warned, betas, _ = _stepped_beside_the_reference(scenario, _STACKS[stack])
    assert warned == 0
    if stack == "clip0.5":
        # the knee block's cap binds, and the mse block's betas pass it
        assert np.any(np.abs(betas[:, :3]) == 0.5) and np.any(np.abs(betas[:, 3:]) > 0.5)


@pytest.mark.parametrize("stack", ["knee", "knee+rho0.3"])
@pytest.mark.parametrize("scenario", ["A", "B", "CV"])
def test_a_zero_curvature_row_warns_only_at_a_set_rho(scenario, stack):
    # Range noise of 1e-100 m^2 and noise-free speed and heading: the
    # displacement variance, zero but for rounding, is clamped at 0, so no
    # row loses its curvature (unclamped, it came out negative at some
    # steps and outweighed the others, and beta fell back to 0).
    paretos = _STACKS[stack]
    warned, betas, _ = _stepped_beside_the_reference(
        scenario,
        paretos,
        range_model=RangeNoiseModel(sigma0_sq=1e-100, kappa=0.0),
        sensor_model=SensorNoiseModel(sigma_v=0.0, sigma_phi=0.0),
    )
    assert warned == 0 and np.all(betas != 0.0)
    # A row with every moment zero has no curvature at any rho: its beta
    # is 0, and only a set-rho block warns.
    rows = 3 * len(paretos)
    ctx = {key: np.full((rows, 2), value) for key, value in _inputs().items()}
    ctx.update(heading_attenuation=ctx["heading_attenuation"][0, 0], T=ctx["T"][0, 0])
    for key in ("ranging_mean", "ranging_variance", "prev_bias", "prev_variance",
                "dr_true_first", "dr_second"):
        ctx[key][::3] = 0.0
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got = _pareto_update(axis_moments(**ctx), _pareto_rows(paretos, rows))
    *expected, warned = _per_block_step(ctx, paretos)
    for name, a, b in zip(("rho", "beta", "bias", "variance"), got, expected):
        np.testing.assert_array_equal(a, b, err_msg=name)
    assert np.all(got[1][::3] == 0.0) and np.all(got[1][1::3] != 0.0)
    assert warned == (stack == "knee+rho0.3") == bool(caught)


@pytest.mark.parametrize("stack", ["knee", "knee+rho0.3", "mse"])
def test_a_still_track_steps_as_the_per_step_set_up_bit_for_bit(stack):
    # A node standing on the linear track, noise-free ranges and motion:
    # from the second step every row's two estimates coincide to rounding,
    # so the kinematics take the still rows' speed 0 and previous heading.
    warned, _, speeds = _stepped_beside_the_reference(
        "A",
        _STACKS[stack],
        trajectory_args={"speed": 0.0},
        range_model=RangeNoiseModel(sigma0_sq=1e-100, kappa=0.0),
        sensor_model=SensorNoiseModel(sigma_v=0.0, sigma_phi=0.0),
    )
    assert warned == 0 and np.count_nonzero(speeds[1:] == 0.0) == speeds[1:].size


def test_approximate_kinematics_is_the_masked_formula_bit_for_bit():
    # still rows (a step under 1e-12 m) keep speed 0 and their fallback
    # heading, moving rows take norm / T and atan2, in any mix of the two
    rng = np.random.default_rng(5)
    prev_prev = rng.uniform(-3.0, 3.0, (40, 2))
    fallback = rng.uniform(-math.pi, math.pi, 40)
    for still in ([], [3], [0, 7, 8, 39], list(range(40))):
        prev = prev_prev + rng.normal(0.0, 0.1, (40, 2))
        prev[still] = prev_prev[still] + rng.uniform(-1e-13, 1e-13, (len(still), 2))
        prev[still[:1]] = prev_prev[still[:1]]
        delta = prev - prev_prev
        norm = np.sqrt((delta * delta).sum(axis=-1))
        mask = norm < 1e-12
        assert np.count_nonzero(mask) == len(still)
        speed, heading = approximate_kinematics(prev_prev, prev, 0.1, 0.0, fallback)
        np.testing.assert_array_equal(speed, np.where(mask, 0.0, norm / 0.1))
        np.testing.assert_array_equal(
            heading, np.where(mask, fallback, np.arctan2(delta[:, 1], delta[:, 0]))
        )


_MOMENT_ARGS = (
    "ranging_mean", "ranging_variance", "prev_bias", "prev_variance", "dr_true_first",
    "dr_second",
)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("stack", ["knee+rho0.3", "knee+mse+knee", "mse+knee"])
def test_a_non_finite_row_leaves_the_other_rows_as_the_per_block_scan_has_them(stack, bad):
    # One row per block of the stack holds a non-finite moment, and one
    # row of each block has every moment zero (no curvature).  Under the
    # tracking's errstate, every row is the per-block scan's, bit for bit
    # (NaN where it has NaN), and the step warns as that scan does.
    paretos = _STACKS[stack]
    rows = 4 * len(paretos)
    inputs = [_inputs(v=0.1 * row, phi=0.3 * row, axis=row % 2) for row in range(rows)]
    for key in _MOMENT_ARGS:
        ctx = {name: np.array([[x[name]] * 2 for x in inputs]) for name in _MOMENT_ARGS}
        ctx.update(heading_attenuation=inputs[0]["heading_attenuation"], T=inputs[0]["T"])
        for name in _MOMENT_ARGS:
            ctx[name][3::4] = 0.0
        ctx[key][1::4, 0] = bad
        caught = []
        for update in (
            lambda m: _pareto_update(m, _pareto_rows(paretos, rows)),
            lambda m: _reference_pareto_update(m, paretos),
        ):
            with warnings.catch_warnings(record=True) as record, np.errstate(all="ignore"):
                warnings.simplefilter("always")
                caught.append((update(axis_moments(**ctx)), [str(w.message) for w in record]))
        (got, got_warnings), (expected, expected_warnings) = caught
        for name, a, b in zip(("rho", "beta", "bias", "variance"), got, expected):
            np.testing.assert_array_equal(a, b, err_msg=f"{name} with {key} = {bad}")
            assert np.all(np.isfinite(a[0::4])) and np.all(np.isfinite(a[2::4])), (name, key)
        assert got_warnings == expected_warnings, key
        # the zero row of the set block
        assert len(got_warnings) == 1, key


def test_noise_free_motion_runs_without_a_degenerate_beta_objective():
    # 49 "degenerate beta objective" warnings while sigma_vv^2 could round
    # below 0; the RMSE at 1e-12 m^2 moved from 1.57395e-7 to 1.57400e-7
    config = ExperimentConfig(
        trajectory=make_scenario("B", steps=60),
        estimators=("mse",),
        runs=2,
        seed=0,
        range_model=RangeNoiseModel(sigma0_sq=1e-100, kappa=0.0),
        sensor_model=SensorNoiseModel(sigma_v=0.0, sigma_phi=0.0),
    )
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = run_experiment(config)
    assert [str(w.message) for w in caught] == []
    assert result.excluded["mse"] == 0 and np.isfinite(result.rmse["mse"])

