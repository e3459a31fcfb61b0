"""Bound machinery: exact moments, information blocks, brackets, recursions.

Oracles, strongest first: deterministic k = 1 cases where every
expectation collapses to plain evaluation; quadrature of the log of a
noncentral chi-square density; scipy's independent ncx2 moment
implementation; the scalar information Riccati fixed point in closed
form; seeded Monte Carlo for the genuinely stochastic expectations.
"""
import math
from dataclasses import astuple

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import integrate, special, stats

from paretoloc.crlb import (
    SeriesDivergenceError,
    SeriesExpectation,
    _truncate_alternating,
    d11,
    d12,
    d22,
    default_prior_information,
    diag_bounds,
    diag_expectation_mc,
    diag_expectation_series,
    expected_log_ncx2,
    gershgorin_sandwich,
    measurement_information,
    ncx2_central_moments,
    offdiag_bounds,
    parcrlb_trace,
    pcrlb_bounds,
    pcrlb_recursion,
    pi_expectation_mc,
    position_error_bound,
    trig_moments,
)
from paretoloc.filters import cv_transition_jacobian
from paretoloc.models import (
    AnchorSet,
    CvProcessModel,
    RangeNoiseModel,
    SensorNoiseModel,
    TruthState,
    range_variance,
)

ANCHORS = AnchorSet(
    np.array([[0.0, 0.0], [4.0, 0.0], [0.0, 4.0], [4.0, 4.0]])
)
CV = CvProcessModel(
    T=0.1, sigma1_sq=1e-4, sigma2_sq=2e-4, sigma3_sq=4e-4, sigma4_sq=9e-4
)


# ---------------------------------------------------------------------------
# trigonometric random-walk moments
# ---------------------------------------------------------------------------


def test_trig_moments_initial_step_is_deterministic():
    tm = trig_moments(0.7, 0.9, 0.01, 0.02, k=1)
    assert tm.eps == 1.0
    assert tm.e_cos == pytest.approx(math.cos(0.9), rel=1e-15)
    assert tm.e_sin == pytest.approx(math.sin(0.9), rel=1e-15)
    assert tm.e_cos_sq == pytest.approx(math.cos(0.9) ** 2, rel=1e-12)
    assert tm.e_sin_cos == pytest.approx(math.sin(0.9) * math.cos(0.9), rel=1e-12)
    assert tm.e_v == 0.7
    assert tm.e_v_sq == pytest.approx(0.49, rel=1e-15)


def test_trig_moments_validation():
    with pytest.raises(ValueError):
        trig_moments(0.5, 0.0, 0.01, 0.01, k=0)


def test_trig_squares_always_sum_to_one():
    for k in (1, 2, 5, 50):
        tm = trig_moments(0.5, 1.3, 0.02, 0.05, k=k)
        assert tm.e_cos_sq + tm.e_sin_sq == pytest.approx(1.0, rel=1e-14)
        assert abs(tm.e_sin_cos) <= 0.5


@pytest.mark.parametrize("k", [3, 8])
def test_trig_moments_against_sampling(k):
    v0, phi0, s3, s4 = 0.6, 0.8, 4e-4, 9e-4
    tm = trig_moments(v0, phi0, s3, s4, k=k)
    rng = np.random.default_rng(100 + k)
    n = 400000
    v = rng.normal(v0, math.sqrt((k - 1) * s3), size=n)
    phi = rng.normal(phi0, math.sqrt((k - 1) * s4), size=n)
    for draw, closed in [
        (np.cos(phi), tm.e_cos),
        (np.sin(phi), tm.e_sin),
        (np.cos(phi) ** 2, tm.e_cos_sq),
        (np.sin(phi) * np.cos(phi), tm.e_sin_cos),
        (v**2, tm.e_v_sq),
    ]:
        se = draw.std(ddof=1) / math.sqrt(n)
        assert abs(draw.mean() - closed) < 5.0 * se + 1e-12


# ---------------------------------------------------------------------------
# information blocks
# ---------------------------------------------------------------------------


def test_d11_initial_step_equals_plain_quadratic_form():
    # k = 1: no randomness, so E{F^T Q^-1 F} is just F^T Q^-1 F
    v0, phi0 = 0.7, 1.1
    tm = trig_moments(v0, phi0, CV.sigma3_sq, CV.sigma4_sq, k=1)
    f = cv_transition_jacobian(np.array([0.0, 0.0, v0, phi0]), CV.T)
    expected = f.T @ np.linalg.inv(CV.q_matrix()) @ f
    assert_allclose(d11(tm, CV, corrected=True), expected, rtol=1e-12)


def test_d11_against_jacobian_sampling():
    v0, phi0, k = 0.6, 0.8, 5
    tm = trig_moments(v0, phi0, CV.sigma3_sq, CV.sigma4_sq, k=k)
    rng = np.random.default_rng(31)
    n = 200000
    v = rng.normal(v0, math.sqrt((k - 1) * CV.sigma3_sq), size=n)
    phi = rng.normal(phi0, math.sqrt((k - 1) * CV.sigma4_sq), size=n)
    q_inv = np.linalg.inv(CV.q_matrix())
    states = np.zeros((40000, 4))
    states[:, 2], states[:, 3] = v[:40000], phi[:40000]
    f = cv_transition_jacobian(states, CV.T)
    sampled = (f.swapaxes(-1, -2) @ q_inv @ f).mean(axis=0)
    closed = d11(tm, CV, corrected=True)
    assert np.linalg.norm(sampled - closed) < 0.01 * np.linalg.norm(closed)


def test_d11_corrected_flag_shifts_one_entry():
    tm = trig_moments(0.6, 0.8, CV.sigma3_sq, CV.sigma4_sq, k=5)
    diff = d11(tm, CV, corrected=True) - d11(tm, CV, corrected=False)
    expected = np.zeros((4, 4))
    expected[3, 3] = (
        CV.T**2
        * tm.e_v**2
        * (tm.e_sin_sq / CV.sigma1_sq + tm.e_cos_sq / CV.sigma2_sq)
    )
    assert_allclose(diff, expected, atol=1e-10)


def test_d12_is_minus_expected_jacobian_weighted():
    v0, phi0, k = 0.6, 0.8, 5
    tm = trig_moments(v0, phi0, CV.sigma3_sq, CV.sigma4_sq, k=k)
    # entry-wise E{F}: only the trig entries average, everything else is
    # constant in the transition Jacobian
    f_mean = np.eye(4)
    f_mean[0, 2] = CV.T * tm.e_cos
    f_mean[1, 2] = CV.T * tm.e_sin
    f_mean[0, 3] = -CV.T * v0 * tm.e_sin
    f_mean[1, 3] = CV.T * v0 * tm.e_cos
    assert_allclose(
        d12(tm, CV), -f_mean.T @ np.linalg.inv(CV.q_matrix()), rtol=1e-12
    )


def test_d22_structure():
    pi_mat = np.array([[3.0, 0.4], [0.4, 2.0]])
    sensors = SensorNoiseModel()
    out = d22(pi_mat, CV, sensors)
    q_inv = np.linalg.inv(CV.q_matrix())
    assert_allclose(out[:2, :2], q_inv[:2, :2] + pi_mat, rtol=1e-12)
    assert out[2, 2] == pytest.approx(q_inv[2, 2] + 1.0 / sensors.sigma_v**2)
    assert out[3, 3] == pytest.approx(q_inv[3, 3] + 1.0 / sensors.sigma_phi**2)
    assert out[0, 1] == pytest.approx(pi_mat[0, 1])


def test_pcrlb_recursion_without_coupling_returns_measurement_block():
    j_prev = np.diag([2.0, 3.0, 4.0, 5.0])
    d11_mat = np.diag([1.0, 1.0, 1.0, 1.0])
    d22_mat = np.diag([7.0, 8.0, 9.0, 10.0])
    out = pcrlb_recursion(j_prev, d11_mat, np.zeros((4, 4)), d22_mat)
    assert_allclose(out, d22_mat, atol=0.0)


def test_pcrlb_recursion_scalar_riccati_fixed_point():
    # scalar linear-Gaussian chain x' = a x + w, z = h x + v: the
    # information recursion must settle on the positive root of
    # q J^2 + (a^2 - 1 - h^2 q / r) J - a^2 h^2 / r = 0
    a, h, q, r = 0.95, 0.7, 0.04, 0.25
    d11_mat = np.array([[a**2 / q]])
    d12_mat = np.array([[-a / q]])
    d22_mat = np.array([[1.0 / q + h**2 / r]])
    j = np.array([[1.0]])
    for _ in range(400):
        j = pcrlb_recursion(j, d11_mat, d12_mat, d22_mat)
    b = a**2 - 1.0 - h**2 * q / r
    root = (-b + math.sqrt(b**2 + 4.0 * q * a**2 * h**2 / r)) / (2.0 * q)
    assert j[0, 0] == pytest.approx(root, rel=1e-9)


# ---------------------------------------------------------------------------
# noncentral chi-square helpers
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("lam", [0.0, 0.4, 2.5, 9.0])
def test_ncx2_central_moments_match_scipy(lam):
    moments = ncx2_central_moments(lam, 4)
    mean, var, skew, kurt = stats.ncx2.stats(df=1, nc=lam, moments="mvsk")
    assert moments[0] == 1.0 and moments[1] == 0.0
    assert moments[2] == pytest.approx(float(var), rel=1e-12)
    assert moments[3] == pytest.approx(float(skew) * float(var) ** 1.5, rel=1e-12)
    assert moments[4] == pytest.approx(
        (float(kurt) + 3.0) * float(var) ** 2, rel=1e-12
    )
    assert stats.ncx2.mean(df=1, nc=lam) == pytest.approx(1.0 + lam)
    with pytest.raises(ValueError):
        ncx2_central_moments(lam, -1)


@pytest.mark.parametrize("lam", [0.0, 0.3, 2.0, 10.0, 60.0])
def test_expected_log_ncx2_against_quadrature(lam):
    # X = Y^2 with Y ~ N(sqrt(lam), 1): integrate 2 ln|y| over the two
    # Gaussian branches (smooth apart from the integrable log at 0)
    s = math.sqrt(lam)
    val, err = integrate.quad(
        lambda y: 2.0
        * math.log(y)
        * (stats.norm.pdf(y - s) + stats.norm.pdf(y + s)),
        0.0,
        np.inf,
        limit=200,
    )
    assert err < 1e-6
    assert expected_log_ncx2(lam) == pytest.approx(val, abs=max(1e-9, 2.0 * err))
    with pytest.raises(ValueError):
        expected_log_ncx2(-0.1)


def kummer_a_derivative(z, max_terms=400):
    """Series sum_{n>=1} z^n / (n (1/2)_n): the confluent-hypergeometric
    a-derivative at a = 0, b = 1/2.

    Entire in z, but alternating with large terms for very negative z;
    meant for moderate |z|, as a second evaluation of `expected_log_ncx2`.
    """
    acc = 0.0
    term = 1.0  # z^n / (1/2)_n, built incrementally
    for n in range(1, max_terms + 1):
        term *= z / (0.5 + (n - 1))
        acc += term / n
        if abs(term / n) < 1e-17 * max(1.0, abs(acc)):
            break
    return acc


@pytest.mark.parametrize("lam", [0.1, 0.5, 2.0, 5.0, 12.0])
def test_expected_log_identity_with_kummer_series(lam):
    # two independent evaluations of the same expectation: the Poisson
    # digamma mixture and the hypergeometric parameter-derivative series
    via_series = (
        math.log(2.0) + special.digamma(0.5) - kummer_a_derivative(-lam / 2.0)
    )
    assert expected_log_ncx2(lam) == pytest.approx(via_series, abs=1e-12)


# ---------------------------------------------------------------------------
# ratio brackets and the asymptotic series
# ---------------------------------------------------------------------------


def test_diag_bounds_bracket_sampled_ratio():
    rng = np.random.default_rng(9)
    for mu_q, mu_z in [(0.5, 0.5), (2.0, 1.0), (3.0, 0.2), (1.0, 3.0)]:
        lb, ub = diag_bounds(mu_q, 1.0, mu_z, 1.0)
        assert 0.0 < lb <= ub == 1.0
        mc, se = diag_expectation_mc(mu_q, 1.0, mu_z, 1.0, n=300000, rng=rng)
        assert lb <= mc + 4.0 * se
        assert mc - 4.0 * se <= ub


def test_diag_bounds_scale_invariance_and_validation():
    base = diag_bounds(1.5, 0.8, 0.6, 0.4)
    scaled = diag_bounds(3.0, 1.6, 1.2, 0.8)
    assert base[0] == pytest.approx(scaled[0], rel=1e-12)
    with pytest.raises(ValueError):
        diag_bounds(1.0, 0.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        diag_bounds(1.0, 1.0, 0.0, -1.0)
    assert offdiag_bounds() == (-0.5, 0.5)


def _truncate_all_orders(terms):
    """Reference truncation over a fully evaluated term array."""
    mags = np.abs(terms)
    nonzero = np.nonzero(mags)[0]
    if nonzero.size == 0:
        return 0.0, len(terms), 0.0
    start = nonzero[0]
    if start + 1 < len(mags) and mags[start + 1] >= mags[start]:
        raise SeriesDivergenceError(
            "ratio-moment series diverges from the first term on; "
            "use diag_expectation_mc instead"
        )
    cut = len(mags)
    for i in range(start + 1, len(mags)):
        if mags[i] >= mags[i - 1]:
            cut = i
            break
    omitted = float(mags[cut]) if cut < len(mags) else float(mags[cut - 1])
    return float(np.sum(terms[:cut])), cut, omitted


def _series_all_orders(mu_q, sigma_q, mu_z, sigma_z, truncation=30,
                       mc_budget=200_000, rng=None):
    """Reference series that evaluates every outer order before truncating.

    Same draws and the same per-order arithmetic as the library, so the
    library's stop-at-the-cut evaluation must match it bit for bit.
    """
    lam_q = (mu_q / sigma_q) ** 2
    lam_z = (mu_z / sigma_q) ** 2
    scale = 1.0 + lam_q
    moments_q = ncx2_central_moments(lam_q, truncation)
    k = np.arange(1, truncation + 1)
    inner_terms = ((-1.0) ** k) * moments_q[1:] / scale**k
    inner_sum, inner_kept, inner_omitted = _truncate_all_orders(inner_terms)
    upsilon = (1.0 + lam_z) / scale * (1.0 + inner_sum)
    upsilon_err = (1.0 + lam_z) / scale * inner_omitted
    q = rng.normal(math.sqrt(lam_q), 1.0, size=mc_budget)
    z = rng.normal(math.copysign(math.sqrt(lam_z), mu_z), 1.0, size=mc_budget)
    f = z**2 / q**2
    denom = 1.0 + upsilon
    outer_terms_arr = np.zeros(truncation)
    outer_se = np.zeros(truncation)
    with np.errstate(over="ignore", invalid="ignore"):
        for kk in range(2, truncation + 1):
            centred = (f - upsilon) ** kk
            outer_terms_arr[kk - 1] = (-1.0) ** kk * centred.mean() / denom**kk
            outer_se[kk - 1] = centred.std(ddof=1) / math.sqrt(mc_budget) / denom**kk
    outer_sum, outer_kept, outer_omitted = _truncate_all_orders(outer_terms_arr)
    value = (1.0 + outer_sum) / denom
    error = (
        outer_omitted / 1.0
        + upsilon_err / denom**2
        + 3.0 * float(np.sum(outer_se[:outer_kept]))
    )
    return SeriesExpectation(
        value=float(value),
        error=float(error),
        upsilon=float(upsilon),
        inner_terms=inner_kept,
        outer_terms=outer_kept,
    )


def _outcome(fn, *args, **kwargs):
    """Bit patterns of every result field, or the divergence message."""
    try:
        result = fn(*args, **kwargs)
    except SeriesDivergenceError as exc:
        return ("diverges", str(exc))
    return tuple(np.float64(v).tobytes() for v in astuple(result))


def test_truncate_alternating():
    total, kept, omitted = _truncate_alternating(
        np.array([1.0, -0.5, 0.25, -0.4, 0.2])
    )
    assert total == pytest.approx(0.75)
    assert kept == 3
    assert omitted == pytest.approx(0.4)
    with pytest.raises(SeriesDivergenceError):
        _truncate_alternating(np.array([0.1, -0.2, 0.3]))
    assert _truncate_alternating(np.zeros(4)) == (0.0, 4, 0.0)


@pytest.mark.parametrize(
    "terms, expected",
    [
        ([0.0, 0.0, 1.0, -0.5, 0.6], (0.5, 4, 0.6)),  # leading zeros kept
        ([1.0, 0.0, 0.3, 0.1], (1.0, 2, 0.3)),  # zero right after the first
        ([1.0, math.nan, 0.3, 0.1], (math.nan, 4, 0.1)),  # NaN never cuts
        ([math.nan, 0.5, 0.6], (math.nan, 2, 0.6)),
        ([math.inf, 1.0, -0.5, 2.0], (math.inf, 3, 2.0)),
        ([1.0, -0.5, math.inf, 0.1], (0.5, 2, math.inf)),
        ([1.0, -0.5, 0.25, -0.125], (0.625, 4, 0.125)),  # no cut
        ([0.0, 2.0], (2.0, 2, 2.0)),
    ],
)
def test_truncate_alternating_edge_cases(terms, expected):
    got = _truncate_alternating(np.array(terms))
    assert np.array_equal(got, _truncate_all_orders(np.array(terms)), equal_nan=True)
    assert np.array_equal(got, expected, equal_nan=True)


@pytest.mark.parametrize(
    "terms", [[0.0, 1.0, 1.0], [math.inf, math.inf], [0.0, 1.0, math.inf]]
)
def test_truncate_alternating_divergence(terms):
    with pytest.raises(SeriesDivergenceError):
        _truncate_all_orders(np.array(terms))
    with pytest.raises(SeriesDivergenceError):
        _truncate_alternating(np.array(terms))


def test_truncate_alternating_sums_a_long_series_like_the_reference():
    # 30 kept terms: a running sum differs from numpy's pairwise sum
    # in the last bit here, so the kept sum must come from np.sum
    k = np.arange(30)
    terms = (-1.0) ** k * np.exp(-0.1 * k) / 3.0
    assert _truncate_alternating(iter(terms)) == _truncate_all_orders(terms)


def test_truncate_alternating_reads_no_term_past_the_cut():
    def terms():
        yield from (0.0, 1.0, -0.5, 0.25, -0.3)
        raise AssertionError("a term past the cut was requested")

    assert _truncate_alternating(terms()) == (0.75, 4, 0.3)


def test_series_matches_all_orders_reference_on_the_check_grid():
    grid = (0.5, 1.0, 2.0, 3.0, 5.0)
    outcomes = []
    for mu_q in grid:
        for mu_z in grid:
            args = (mu_q, 1.0, mu_z, 1.0)
            got = _outcome(
                diag_expectation_series, *args, rng=np.random.default_rng((29, 1))
            )
            want = _outcome(
                _series_all_orders, *args, rng=np.random.default_rng((29, 1))
            )
            assert got == want, args
            outcomes.append(got[0] == "diverges")
    assert 0 < sum(outcomes) < len(outcomes)


def test_series_matches_all_orders_reference_on_random_points():
    rng = np.random.default_rng(2024)
    diverged = 0
    for i in range(150):
        sigma = float(rng.uniform(0.2, 3.0))
        mu_q = float(rng.uniform(0.0, 8.0)) * sigma
        mu_z = float(rng.uniform(-8.0, 8.0)) * sigma
        truncation = int(rng.integers(1, 31))
        budget = int(rng.integers(200, 3000))
        rng_lib = np.random.default_rng((7, i))
        rng_ref = np.random.default_rng((7, i))
        got = _outcome(diag_expectation_series, mu_q, sigma, mu_z, sigma,
                       truncation=truncation, mc_budget=budget, rng=rng_lib)
        want = _outcome(_series_all_orders, mu_q, sigma, mu_z, sigma,
                        truncation=truncation, mc_budget=budget, rng=rng_ref)
        assert got == want, (mu_q, mu_z, sigma, truncation, budget)
        assert rng_lib.bit_generator.state == rng_ref.bit_generator.state
        diverged += got[0] == "diverges"
    assert 10 < diverged < 140


def test_series_expectation_agrees_with_sampling_where_it_converges():
    # strong mean separation: both stages produce decreasing terms (the
    # outer stage samples its moments, so the seed matters to the
    # keep/stop decision)
    series = diag_expectation_series(
        5.0, 1.0, 0.5, 1.0, rng=np.random.default_rng((29, 1))
    )
    mc, se = diag_expectation_mc(
        5.0, 1.0, 0.5, 1.0, n=400000, rng=np.random.default_rng(22)
    )
    assert series.inner_terms >= 2 and series.outer_terms >= 2
    assert abs(series.value - mc) <= series.error + 4.0 * se


def test_series_expectation_rejects_hard_regimes():
    with pytest.raises(SeriesDivergenceError):
        diag_expectation_series(1.0, 1.0, 0.5, 1.0, rng=np.random.default_rng(21))
    with pytest.raises(ValueError):
        diag_expectation_series(1.0, 1.0, 0.5, 0.7)
    with pytest.raises(ValueError):
        diag_expectation_series(1.0, 0.0, 0.5, 0.0)


# ---------------------------------------------------------------------------
# Gershgorin ordering
# ---------------------------------------------------------------------------


def _random_bracket_pair(rng, n=4):
    base = rng.normal(size=(n, n))
    base = 0.5 * (base + base.T)
    slack = np.abs(rng.normal(size=(n, n)))
    slack = 0.5 * (slack + slack.T)
    return base - slack, base + slack


def test_gershgorin_sandwich_produces_psd_ordered_pair():
    rng = np.random.default_rng(77)
    for _ in range(50):
        lb, ub = _random_bracket_pair(rng)
        out = gershgorin_sandwich(lb, ub)
        assert np.all(np.linalg.eigvalsh(out.j_lb_g) >= -1e-10)
        assert np.all(np.linalg.eigvalsh(out.j_ub_g) >= -1e-10)
        assert np.all(np.linalg.eigvalsh(out.j_ub_g - out.j_lb_g) >= -1e-10)
        # the upper matrix only ever moves up, and only on the diagonal
        off = ~np.eye(4, dtype=bool)
        assert_allclose(out.j_ub_g[off], ub[off], atol=1e-12)
        assert np.all(np.diag(out.j_ub_g) >= np.diag(ub) - 1e-12)
        # the lower off-diagonals shrink toward zero, never grow
        assert np.all(np.abs(out.j_lb_g[off]) <= np.abs(lb[off]) + 1e-12)
        assert_allclose(np.diag(out.j_lb_g), np.maximum(np.diag(lb), 0.0))


def test_gershgorin_sandwich_keeps_good_input_unchanged():
    lb = np.diag([5.0, 6.0, 7.0])
    ub = lb + np.eye(3)
    out = gershgorin_sandwich(lb, ub)
    assert_allclose(out.j_lb_g, lb, atol=0.0)
    assert_allclose(out.j_ub_g, ub, atol=0.0)


def test_gershgorin_sandwich_validation():
    good = np.eye(3)
    with pytest.raises(ValueError):
        gershgorin_sandwich(np.eye(3)[:2], np.eye(3)[:2])
    asym = np.eye(3)
    asym[0, 1] = 0.5
    with pytest.raises(ValueError):
        gershgorin_sandwich(asym, 2.0 * np.eye(3))
    with pytest.raises(ValueError):
        gershgorin_sandwich(2.0 * good, good)


# ---------------------------------------------------------------------------
# bound drivers
# ---------------------------------------------------------------------------


def test_position_error_bound_cases():
    assert position_error_bound(np.eye(4)) == pytest.approx(math.sqrt(2.0))
    assert position_error_bound(np.zeros((4, 4))) == float("inf")
    assert position_error_bound(np.diag([-1.0, -1.0, 1.0, 1.0])) == float("inf")


def test_default_prior_information():
    assert_allclose(
        default_prior_information(),
        np.diag([1.0, 1.0, 4.0, (4.0 / math.pi) ** 2]),
        rtol=1e-12,
    )


def test_pi_expectation_single_point_is_exact():
    pos = np.array([1.2, 0.9])
    model = RangeNoiseModel()
    pi_hat, se = pi_expectation_mc(pos[None, :], ANCHORS, model)
    expected = np.zeros((2, 2))
    for anchor in ANCHORS.positions:
        diff = pos - anchor
        r = np.linalg.norm(diff)
        d = diff / r
        expected += np.outer(d, d) / range_variance(r, model)
    assert_allclose(pi_hat, expected, rtol=1e-12)
    assert_allclose(se, np.zeros((2, 2)))


def test_measurement_information_structure():
    state = np.array([1.2, 0.9, 0.4, 0.7])
    model, sensors = RangeNoiseModel(), SensorNoiseModel()
    info = measurement_information(state, ANCHORS, model, sensors)
    pi_hat, _ = pi_expectation_mc(state[None, :2], ANCHORS, model)
    assert_allclose(info[:2, :2], pi_hat, rtol=1e-12)
    assert info[2, 2] == pytest.approx(1.0 / sensors.sigma_v**2)
    assert info[3, 3] == pytest.approx(1.0 / sensors.sigma_phi**2)
    assert np.all(info[:2, 2:] == 0.0) and np.all(info[2:, :2] == 0.0)
    assert np.all(np.linalg.eigvalsh(info) >= 0.0)


def _static_truth(steps=20):
    return [
        TruthState(position=np.array([1.5, 1.8]), speed=0.3, heading=0.4, k=k)
        for k in range(steps)
    ]


def test_parcrlb_trace_first_step_and_growth():
    model, sensors = RangeNoiseModel(), SensorNoiseModel()
    truth = _static_truth()
    j_seq, bound = parcrlb_trace(truth, ANCHORS, model, sensors, T=0.1)
    assert j_seq.shape == (20, 4, 4) and bound.shape == (20,)
    state0 = np.array([1.5, 1.8, 0.3, 0.4])
    expected0 = default_prior_information() + measurement_information(
        state0, ANCHORS, model, sensors
    )
    assert_allclose(j_seq[0], expected0, rtol=1e-12)
    assert bound[0] == pytest.approx(position_error_bound(expected0))
    # information accumulates: later bounds sit well below the first
    assert np.all(bound > 0.0) and np.all(np.isfinite(bound))
    assert bound[-1] < 0.5 * bound[0]


def test_parcrlb_trace_custom_prior():
    model, sensors = RangeNoiseModel(), SensorNoiseModel()
    truth = _static_truth(steps=3)
    strong = np.diag([1e4, 1e4, 1e4, 1e4])
    _, tight = parcrlb_trace(truth, ANCHORS, model, sensors, T=0.1, j0=strong)
    _, loose = parcrlb_trace(truth, ANCHORS, model, sensors, T=0.1)
    assert np.all(tight < loose)


@pytest.mark.parametrize("n_ensemble", [0, -3])
def test_pcrlb_bounds_rejects_an_empty_ensemble(n_ensemble):
    model, sensors = RangeNoiseModel(), SensorNoiseModel()
    with pytest.raises(ValueError, match="n_ensemble"):
        pcrlb_bounds(
            CV, ANCHORS, model, sensors, x0=[1.5, 1.8], v0=0.3, phi0=0.4, steps=6,
            n_ensemble=n_ensemble, rng=np.random.default_rng(13),
        )


def test_pcrlb_bounds_small_ensemble():
    model, sensors = RangeNoiseModel(), SensorNoiseModel()
    out = pcrlb_bounds(
        CV,
        ANCHORS,
        model,
        sensors,
        x0=[1.5, 1.8],
        v0=0.3,
        phi0=0.4,
        steps=6,
        n_ensemble=300,
        rng=np.random.default_rng(13),
    )
    assert out.j.shape == (6, 4, 4)
    for k in range(6):
        assert_allclose(out.j[k], out.j[k].T, atol=1e-9)
        gap = out.j_ub_g[k] - out.j_lb_g[k]
        assert np.all(np.linalg.eigvalsh(out.j_lb_g[k]) >= -1e-8)
        assert np.all(np.linalg.eigvalsh(gap) >= -1e-8)
    assert np.all(out.bound > 0.0)
    assert np.all(out.bound_lb <= out.bound_ub + 1e-12)
    assert out.sandwich_ok.dtype == bool
