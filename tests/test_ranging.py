"""WLS trilateration: closed-form weights, bias, and error correlation.

The second-order results are checked against brute-force sampling of the
differenced squared-range noise at a fixed operating point; tolerances
are stated next to each comparison.
"""
import numpy as np
import pytest
from numpy.testing import assert_allclose

from paretoloc.models import AnchorSet, RangeNoiseModel, range_variance, true_ranges
from paretoloc.ranging import (
    build_geometry,
    noise_cov_inverse,
    ranging_bias,
    ranging_layer,
    ranging_second_moment,
    wls_estimate,
)

ANCHORS = AnchorSet(
    np.array([[0.0, 0.0], [5.0, 0.5], [4.5, 4.0], [0.5, 5.0], [2.5, 2.5]])
)
POSITION = np.array([1.3, 0.7])
MODEL = RangeNoiseModel(sigma0_sq=0.04, kappa=0.3)


def _operating_point():
    geometry = build_geometry(ANCHORS)
    r = true_ranges(POSITION, ANCHORS)
    var = range_variance(r, MODEL)
    return geometry, r, var


def _sample_noise(rng, n, r, var):
    """Differenced squared-range noise b_l straight from its definition."""
    w = rng.normal(0.0, np.sqrt(var), size=(n, r.size))
    return (w[:, -1] ** 2 + 2.0 * r[-1] * w[:, -1])[:, None] - (
        w[:, :-1] ** 2 + 2.0 * r[:-1] * w[:, :-1]
    )


def test_build_geometry_rows():
    geometry, _, _ = _operating_point()
    s = ANCHORS.positions
    assert_allclose(geometry.design_matrix, 2.0 * (s[:-1] - s[-1]))
    assert_allclose(
        geometry.offset_vector,
        np.sum(s[:-1] ** 2, axis=1) - np.sum(s[-1] ** 2),
    )


def test_build_geometry_rejects_collinear():
    with pytest.raises(ValueError):
        AnchorSet(np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [3.0, 0.0]]))


def test_noise_cov_inverse_is_exact_inverse():
    # the rank-one shortcut must invert the explicitly built covariance
    _, r, var = _operating_point()
    d = np.diag(4.0 * r[:-1] ** 2 * var[:-1] + 2.0 * var[:-1] ** 2)
    p = 4.0 * r[-1] ** 2 * var[-1] + 2.0 * var[-1] ** 2
    cov = d + p * np.ones((r.size - 1, r.size - 1))
    w = noise_cov_inverse(r, var)
    assert_allclose(w @ cov, np.eye(r.size - 1), atol=1e-10)
    assert_allclose(w, w.T, atol=1e-12)


def test_noise_cov_inverse_validation():
    with pytest.raises(ValueError):
        noise_cov_inverse([1.0, 2.0], [0.1, 0.1, 0.1])
    with pytest.raises(ValueError):
        noise_cov_inverse([1.0, 2.0, 3.0, 4.0], [0.1, 0.0, 0.1, 0.1])


def test_wls_estimate_exact_on_clean_ranges():
    geometry, r, var = _operating_point()
    w = noise_cov_inverse(r, var)
    assert_allclose(wls_estimate(geometry, r, w), POSITION, atol=1e-10)


def test_wls_estimate_any_spd_weight():
    # clean ranges solve exactly under any positive-definite weighting
    geometry, r, _ = _operating_point()
    assert_allclose(
        wls_estimate(geometry, r, np.eye(r.size - 1)), POSITION, atol=1e-10
    )


def test_ranging_bias_matches_sampling():
    geometry, r, var = _operating_point()
    w = noise_cov_inverse(r, var)
    rng = np.random.default_rng(101)
    n = 400000
    b = _sample_noise(rng, n, r, var)
    atw = geometry.design_matrix.T @ w
    errors = b @ np.linalg.solve(atw @ geometry.design_matrix, atw).T
    se = errors.std(axis=0, ddof=1) / np.sqrt(n)
    gap = np.abs(errors.mean(axis=0) - ranging_bias(geometry, w, var))
    assert np.all(gap < 4.0 * se)


def test_noise_second_moment_and_error_correlation_match_sampling():
    geometry, r, var = _operating_point()
    w = noise_cov_inverse(r, var)
    rng = np.random.default_rng(202)
    n = 400000
    b = _sample_noise(rng, n, r, var)
    atw = geometry.design_matrix.T @ w
    errors = b @ np.linalg.solve(atw @ geometry.design_matrix, atw).T
    mc = errors.T @ errors / n
    closed = ranging_second_moment(geometry, w, r, var)
    # 2% relative Frobenius at n = 4e5
    assert np.linalg.norm(mc - closed) / np.linalg.norm(closed) < 0.02


def test_ranging_layer_moments_are_a_valid_covariance():
    geometry, r, var = _operating_point()
    _, bias, corr = ranging_layer(geometry, r, var, r)
    w = noise_cov_inverse(r, var)
    assert_allclose(bias, ranging_bias(geometry, w, var), atol=1e-12)
    assert_allclose(corr, ranging_second_moment(geometry, w, r, var), atol=1e-12)
    assert np.all(np.diag(corr) - bias**2 > 0.0)
    # raw correlation minus squared bias must stay a valid covariance
    cov = corr - np.outer(bias, bias)
    assert np.linalg.eigvalsh(cov).min() > 0.0


def test_wls_error_scale_matches_prediction():
    # end-to-end: noisy measured ranges through the estimator itself
    geometry, r, var = _operating_point()
    rng = np.random.default_rng(303)
    n = 20000
    w = noise_cov_inverse(r, var)
    correlation = ranging_second_moment(geometry, w, r, var)
    est = np.array(
        [
            wls_estimate(geometry, r + rng.normal(0.0, np.sqrt(var)), w)
            for _ in range(n)
        ]
    )
    err = est - POSITION
    mc = err.T @ err / n
    assert_allclose(
        np.diag(mc), np.diag(correlation), rtol=0.05
    )


def test_ranging_layer_matches_the_separate_moments_per_run():
    # One stacked solve with G^{-1} + bias bias^T for the correlation must
    # agree with the general-weight formulas run by run, and with its own
    # single-run form.
    geometry = build_geometry(ANCHORS)
    rng = np.random.default_rng(3)
    positions = rng.uniform(0.5, 4.5, size=(5, 2))
    r = true_ranges(positions, ANCHORS)
    var = range_variance(r, MODEL)
    measured = r + rng.normal(0.0, np.sqrt(var))
    fix, bias, corr = ranging_layer(geometry, r, var, measured)
    assert fix.shape == (5, 2) and bias.shape == (5, 2) and corr.shape == (5, 2, 2)
    for run in range(5):
        w = noise_cov_inverse(r[run], var[run])
        assert_allclose(fix[run], wls_estimate(geometry, measured[run], w), rtol=1e-10)
        assert_allclose(bias[run], ranging_bias(geometry, w, var[run]), rtol=1e-10)
        assert_allclose(
            corr[run], ranging_second_moment(geometry, w, r[run], var[run]), rtol=1e-10
        )
        single = ranging_layer(geometry, r[run], var[run], measured[run])
        for stacked, one in zip((fix, bias, corr), single):
            np.testing.assert_array_equal(stacked[run], one)
