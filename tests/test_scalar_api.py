"""The closed forms that the fused step calls take its 0-d constants and
keep the scalar API: on Python floats and on arrays they give the bits of
their formulas written out with Python-float literals (below), and on
float inputs they return the types those formulas return, so that no 0-d
array reaches a scalar caller."""
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from paretoloc import deadreckoning, fusion, models, ranging
from paretoloc.deadreckoning import dr_second_moment, measurement_frames
from paretoloc.fusion import (
    ParetoConfig,
    approximate_kinematics,
    axis_moments,
    bias_recursion,
    error_variance,
    init_fusion,
    optimal_beta,
)
from paretoloc.models import RangeNoiseModel, _constant, range_variance, true_ranges
from paretoloc.ranging import noise_cov_inverse
from paretoloc.simulate import Scene

# The formulas as they read with Python-float literals and float scene
# values, each temporary a new array.


def _axis_moments(rm, rv, pb, pv, dr_true_first, attenuation, dr_second, T):
    drift = T * dr_true_first * (attenuation - 1.0)
    dr_first = dr_true_first * attenuation
    sigma_vv_sq = np.maximum(T**2 * (dr_second - dr_first**2), 0.0)
    return rm, pb, pv, drift, rv, sigma_vv_sq, -rm + pb + drift, rv + pv + sigma_vv_sq


def _bias_recursion(beta, m):
    return (1.0 - beta) * m[0] + beta * m[1] + beta * m[3]


def _error_variance(beta, m):
    return (1.0 - beta) ** 2 * m[4] + beta**2 * m[2] + beta**2 * m[5]


def _optimal_beta(rho, m, cap):
    rm, _, _, _, svr, _, gamma, eta = m
    w_var, w_bias = 2.0 * (1.0 - rho), 2.0 * rho
    num = w_var * svr - w_bias * gamma * rm
    den = w_var * eta + w_bias * gamma**2
    degenerate = den <= 0.0
    xi = np.where(degenerate, 0.0, num) / np.where(degenerate, 1.0, den)
    return np.minimum(np.maximum(xi, -cap), cap)[()]


def _approximate_kinematics(prev_prev, prev, T, fallback_speed, fallback_heading):
    delta = np.asarray(prev, dtype=float) - np.asarray(prev_prev, dtype=float)
    norm = np.sqrt((delta * delta).sum(axis=-1))
    speed, heading = norm / T, np.arctan2(delta[..., 1], delta[..., 0])
    still = norm < 1e-12
    speed, heading = np.where(still, 0.0, speed), np.where(still, fallback_heading, heading)
    return speed[()], heading[()]


def _range_variance(r, sigma0_sq, kappa):
    out = sigma0_sq * np.exp(kappa * np.asarray(r, dtype=float))
    return float(out) if out.ndim == 0 else out


def _noise_cov_inverse(r, var):
    d = 4.0 * r**2 * var + 2.0 * var**2
    d_inv = 1.0 / d[..., :-1]
    g = d[..., -1:] * d_inv
    g = g / (1.0 + g.sum(axis=-1, keepdims=True))
    return (np.eye(d_inv.shape[-1]) - g[..., :, None]) * d_inv[..., None, :]


def _dr_second_moment(v, sigma_v, phi, sigma_phi, axis):
    sign = 1.0 - 2.0 * np.asarray(axis)
    square = 0.5 + 0.5 * (np.cos(2.0 * phi) * sign) * math.exp(-2.0 * sigma_phi**2)
    return (v**2 + sigma_v**2) * square


def _same(got, want):
    """The same bits, and for a scalar the same type."""
    if np.ndim(want) == 0:
        assert type(got) is type(want), (type(got), type(want))
    else:
        assert type(got) is np.ndarray and got.shape == np.shape(want)
    np.testing.assert_array_equal(got, want)


_SMALL = st.floats(-2.0, 2.0, allow_subnormal=False)
_POSITIVE = st.floats(1e-4, 1.0)


def _values(draw, rows, elements):
    """A float (rows None) or a (rows, 2) array of `elements`."""
    if rows is None:
        return draw(elements)
    return np.array([[draw(elements) for _ in range(2)] for _ in range(rows)])


@settings(deadline=None, max_examples=60)
@given(data=st.data(), rows=st.sampled_from([None, 1, 2, 5]))
def test_the_closed_forms_keep_their_bits_and_scalar_types(data, rows):
    # the constants they read cannot be written
    assert len(_CONSTANTS) == 15
    for name, constant in _CONSTANTS.items():
        _assert_read_only(name, constant)
    draw = data.draw
    T = draw(st.floats(1e-3, 2.0))
    attenuation = draw(st.floats(0.3, 1.0))
    args = [
        _values(draw, rows, _SMALL), _values(draw, rows, _POSITIVE),
        _values(draw, rows, _SMALL), _values(draw, rows, _POSITIVE),
        _values(draw, rows, _SMALL), attenuation, _values(draw, rows, _POSITIVE), T,
    ]
    m, want = axis_moments(*args), _axis_moments(*args)
    for got, expected in zip(m, want, strict=True):
        _same(got, expected)
    beta = _values(draw, rows, st.floats(-0.99, 0.99))
    _same(bias_recursion(beta, m), _bias_recursion(beta, want))
    _same(error_variance(beta, m), _error_variance(beta, want))
    rho = draw(st.floats(0.0, 1.0))
    cap = draw(st.sampled_from([0.5, 0.99, 1.0]))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # a zero-curvature element
        _same(optimal_beta(rho, m, ParetoConfig(beta_clip=cap)), _optimal_beta(rho, want, cap))

    # positions (2,) for one track, (rows, 2) for a stack; some rows still
    shape = (2,) if rows is None else (rows, 2)
    size = math.prod(shape)
    prev = np.array(draw(st.lists(_SMALL, min_size=size, max_size=size))).reshape(shape)
    step = prev * draw(st.sampled_from([0.0, 1e-14, 0.3]))
    if rows is not None:
        step[: draw(st.integers(0, rows))] = 0.0
    prev_prev = prev - step
    fallback = (0.7, 0.2) if rows is None else (np.full(rows, 0.7), np.linspace(-1.0, 1.0, rows))
    want = _approximate_kinematics(prev_prev, prev, T, *fallback)
    for period in (T, _constant(T)):  # a float, or a track's 0-d T
        for got, expected in zip(approximate_kinematics(prev_prev, prev, period, *fallback), want):
            _same(got, expected)

    # ranges (M,) or (rows, M) to 5 anchors, and a float range
    model = RangeNoiseModel(draw(st.floats(1e-3, 1.0)), draw(st.floats(0.0, 2.0)))
    anchors = models.AnchorSet([[0.0, 0.0], [4.0, 0.0], [4.0, 4.0], [0.0, 4.0], [1.0, 2.5]])
    r = true_ranges(prev, anchors)
    for noise in (model, model.as_constants()):
        var = range_variance(r, noise)
        _same(var, _range_variance(r, model.sigma0_sq, model.kappa))
        _same(range_variance(float(r.flat[0]), noise),
              _range_variance(float(r.flat[0]), model.sigma0_sq, model.kappa))
        _same(noise_cov_inverse(r, var), _noise_cov_inverse(r, var))

    v = abs(_values(draw, rows, _SMALL))
    phi = _values(draw, rows, st.floats(-math.pi, math.pi))
    axis = draw(st.sampled_from([0, 1])) if rows is None else np.arange(2)
    sigma_v, sigma_phi = draw(st.floats(0.0, 0.5)), draw(st.floats(0.0, 1.0))
    _same(dr_second_moment(v, sigma_v, phi, sigma_phi, axis),
          _dr_second_moment(v, sigma_v, phi, sigma_phi, axis))


def _constants():
    """Every module's 0-d constants and a track's, by name."""
    scene = Scene()
    (frame,) = measurement_frames(scene, np.full((1, 2, 8), 2.0), np.ones((1, 2)), np.zeros((1, 2)))
    track = init_fusion(scene, frame).track
    constants = {
        f"{module.__name__}.{name}": value
        for module in (models, ranging, deadreckoning, fusion)
        for name, value in vars(module).items()
        if isinstance(value, np.ndarray) and value.ndim == 0
    }
    constants.update({
        "track.T": track.T,
        "track.range_model.sigma0_sq": track.range_model.sigma0_sq,
        "track.range_model.kappa": track.range_model.kappa,
        "track.displacement.sigma_v_sq": track.displacement.sigma_v_sq,
        "track.displacement.second_attenuation": track.displacement.second_attenuation,
    })
    return constants


_CONSTANTS = _constants()


def _assert_read_only(name, constant):
    assert constant.ndim == 0 and constant.dtype == np.float64, name
    before = float(constant)
    for write in (
        lambda: constant.__setitem__((), 1.0),
        lambda: constant.__iadd__(1.0),
        lambda: np.multiply(constant, 2.0, out=constant),
    ):
        with pytest.raises(ValueError, match="read-only"):
            write()
    assert float(constant) == before, name
