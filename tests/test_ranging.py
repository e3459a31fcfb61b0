"""WLS trilateration: closed-form weights, bias, and error correlation.

The second-order results are checked against brute-force sampling of the
differenced squared-range noise at a fixed operating point; tolerances
are stated next to each comparison.  `ranging_layer`'s shortcut
E{w w^T} = G^{-1} + bias bias^T is checked against the long form: the
noise mean and raw second moment written out entry by entry and mapped
through the WLS solve under any weight.
"""
import numpy as np
import pytest
from numpy.testing import assert_allclose

from paretoloc.models import AnchorSet, RangeNoiseModel, range_variance, true_ranges
from paretoloc.ranging import (
    build_geometry,
    noise_cov_inverse,
    ranging_layer,
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


def _noise_raw_second_moment(r, var):
    """E{b b^T} of the differenced squared-range noise, entry by entry.

    With M the reference anchor:
        C_ll = 3 s_M^4 + 4 r_M^2 s_M^2 + 3 s_l^4 + 4 r_l^2 s_l^2 - 2 s_M^2 s_l^2,
        C_lj = 3 s_M^4 - s_M^2 s_j^2 + 4 r_M^2 s_M^2 - s_l^2 s_M^2 + s_l^2 s_j^2.
    """
    vm, rm = var[-1], r[-1]
    n = r.size - 1
    c = np.empty((n, n))
    for l in range(n):
        for j in range(n):
            if l == j:
                c[l, l] = (
                    3.0 * vm**2 + 4.0 * rm**2 * vm + 3.0 * var[l] ** 2
                    + 4.0 * r[l] ** 2 * var[l] - 2.0 * vm * var[l]
                )
            else:
                c[l, j] = (
                    3.0 * vm**2 - vm * var[j] + 4.0 * rm**2 * vm
                    - var[l] * vm + var[l] * var[j]
                )
    return c


def _moments_through_solve(geometry, weight, r, var):
    """WLS error bias and raw correlation for any weight W: the noise
    mean and raw second moment mapped through L = (A^T W A)^{-1} A^T W."""
    atw = geometry.design_matrix.T @ weight
    left = np.linalg.solve(atw @ geometry.design_matrix, atw)
    bias = left @ (var[-1] - var[:-1])
    return bias, left @ _noise_raw_second_moment(r, var) @ left.T


def test_build_geometry_rows():
    geometry, _, _ = _operating_point()
    s = ANCHORS.positions
    assert_allclose(geometry.design_matrix, 2.0 * (s[:-1] - s[-1]))
    assert_allclose(
        geometry.offset_vector,
        np.sum(s[:-1] ** 2, axis=1) - np.sum(s[-1] ** 2),
    )


def test_anchor_set_rejects_collinear_anchors():
    with pytest.raises(ValueError, match="collinear"):
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
    # the shortcut the estimators use, and the long form
    shortcut = ranging_layer(geometry, r, var, r)[1]
    long_form = _moments_through_solve(geometry, w, r, var)[0]
    for bias in (shortcut, long_form):
        assert np.all(np.abs(errors.mean(axis=0) - bias) < 4.0 * se)


def test_noise_second_moment_and_error_correlation_match_sampling():
    geometry, r, var = _operating_point()
    w = noise_cov_inverse(r, var)
    rng = np.random.default_rng(202)
    n = 400000
    b = _sample_noise(rng, n, r, var)
    atw = geometry.design_matrix.T @ w
    errors = b @ np.linalg.solve(atw @ geometry.design_matrix, atw).T
    mc = errors.T @ errors / n
    # the raw noise second moment itself, entry by entry
    c_mc = b.T @ b / n
    c_closed = _noise_raw_second_moment(r, var)
    assert np.linalg.norm(c_mc - c_closed) / np.linalg.norm(c_closed) < 0.02
    # 2% relative Frobenius at n = 4e5, for the long form and for the
    # shortcut the estimators use, G^-1 + bias bias^T
    _, bias, cov = ranging_layer(geometry, r, var, r)
    shortcut = cov + np.outer(bias, bias)
    for closed in (_moments_through_solve(geometry, w, r, var)[1], shortcut):
        assert np.linalg.norm(mc - closed) / np.linalg.norm(closed) < 0.02


def test_ranging_layer_moments_are_a_valid_covariance():
    geometry, r, var = _operating_point()
    _, bias, cov = ranging_layer(geometry, r, var, r)
    long_bias, long_corr = _moments_through_solve(geometry, noise_cov_inverse(r, var), r, var)
    assert_allclose(bias, long_bias, atol=1e-12)
    # the long form's raw correlation minus squared bias is the covariance
    assert_allclose(cov, long_corr - np.outer(long_bias, long_bias), atol=1e-12)
    assert_allclose(cov, cov.T, rtol=1e-15, atol=0.0)
    assert np.linalg.eigvalsh(cov).min() > 0.0


def test_wls_error_scale_matches_prediction():
    # end-to-end: noisy measured ranges through the estimator itself
    geometry, r, var = _operating_point()
    rng = np.random.default_rng(303)
    n = 20000
    w = noise_cov_inverse(r, var)
    _, bias, cov = ranging_layer(geometry, r, var, r)
    est = np.array(
        [
            wls_estimate(geometry, r + rng.normal(0.0, np.sqrt(var)), w)
            for _ in range(n)
        ]
    )
    err = est - POSITION
    mc = err.T @ err / n
    assert_allclose(
        np.diag(mc), np.diag(cov) + bias**2, rtol=0.05
    )


def test_ranging_layer_matches_the_separate_moments_per_run():
    # One stacked solve, with G^{-1} + bias bias^T for the correlation, must
    # agree with the general-weight long form run by run, and with its own
    # single-run form.
    geometry = build_geometry(ANCHORS)
    rng = np.random.default_rng(3)
    positions = rng.uniform(0.5, 4.5, size=(5, 2))
    r = true_ranges(positions, ANCHORS)
    var = range_variance(r, MODEL)
    measured = r + rng.normal(0.0, np.sqrt(var))
    fix, bias, cov = ranging_layer(geometry, r, var, measured)
    assert fix.shape == (5, 2) and bias.shape == (5, 2) and cov.shape == (5, 2, 2)
    for run in range(5):
        w = noise_cov_inverse(r[run], var[run])
        assert_allclose(fix[run], wls_estimate(geometry, measured[run], w), rtol=1e-10)
        long_bias, long_corr = _moments_through_solve(geometry, w, r[run], var[run])
        assert_allclose(bias[run], long_bias, rtol=1e-10)
        assert_allclose(cov[run] + np.outer(bias[run], bias[run]), long_corr, rtol=1e-10)
        single = ranging_layer(geometry, r[run], var[run], measured[run])
        for stacked, one in zip((fix, bias, cov), single):
            np.testing.assert_array_equal(stacked[run], one)


def _reference_ranging_layer(geometry, r, var, measured):
    # the closed forms as single expressions, each temporary a new array
    d = 4.0 * r**2 * var + 2.0 * var**2
    d_inv = 1.0 / d[..., :-1]
    g = d[..., -1:] * d_inv
    q = g.sum(axis=-1, keepdims=True)
    w = (np.eye(d_inv.shape[-1]) - (g / (1.0 + q))[..., :, None]) * d_inv[..., None, :]
    a_mat = geometry.design_matrix
    atw = a_mat.T @ w
    columns = np.empty(atw.shape[:-2] + (a_mat.shape[0], 2))
    columns[..., 0] = measured[..., -1:] ** 2 - measured[..., :-1] ** 2 + geometry.offset_vector
    columns[..., 1] = var[..., -1:] - var[..., :-1]
    rhs = np.empty(atw.shape[:-2] + (2, 4))
    rhs[..., :2] = atw @ columns
    rhs[..., 2:] = np.eye(2)
    solution = np.linalg.solve(atw @ a_mat, rhs)
    return w, solution[..., 0], solution[..., 1], solution[..., 2:]


@pytest.mark.parametrize("anchors", [4, 5, 8])
@pytest.mark.parametrize("shape", [(), (1,), (2,), (20,), (3, 4)])
def test_the_ranging_layer_in_place_is_its_closed_forms_bit_for_bit(shape, anchors):
    # the weights, the fix and its moments, and the range variances take
    # their temporaries in place, with the closed forms' operations in
    # their order: the same bits as the expressions written out
    rng = np.random.default_rng(anchors)
    anchor_set = AnchorSet(rng.uniform(-5.0, 5.0, (anchors, 2)))
    geometry = build_geometry(anchor_set)
    r = true_ranges(rng.uniform(-3.0, 3.0, shape + (2,)), anchor_set)
    var = range_variance(r, MODEL)
    np.testing.assert_array_equal(var, MODEL.sigma0_sq * np.exp(MODEL.kappa * r))
    measured = r + rng.normal(0.0, np.sqrt(var))
    w, *moments = _reference_ranging_layer(geometry, r, var, measured)
    np.testing.assert_array_equal(noise_cov_inverse(r, var), w)
    if len(shape) < 2:
        for got, expected in zip(ranging_layer(geometry, r, var, measured), moments):
            np.testing.assert_array_equal(got, expected)
    value = range_variance(float(r.flat[0]), MODEL)
    assert type(value) is float and value == MODEL.sigma0_sq * np.exp(MODEL.kappa * r.flat[0])
