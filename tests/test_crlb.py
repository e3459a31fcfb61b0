"""Bound machinery: exact moments, information blocks, brackets, recursions,
and the ratio lemmas of `paretoloc.ratios` that the oracle suite checks.

Oracles, strongest first: deterministic k = 1 cases where every
expectation collapses to plain evaluation; quadrature of the log of a
noncentral chi-square density; scipy's independent ncx2 moment
implementation; the scalar information Riccati fixed point in closed
form; seeded Monte Carlo for the genuinely stochastic expectations.
"""
import dataclasses
import math
import tracemalloc
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import array_shapes, arrays
from numpy.testing import assert_allclose
from scipy import integrate, special, stats

from paretoloc import ratios
from paretoloc.crlb import (
    _anchor_sum,
    _measurement_block,
    d11,
    d12,
    d22,
    default_prior_information,
    measurement_information,
    parcrlb_trace,
    pcrlb_bounds,
    pcrlb_recursion,
    pi_bracket,
    position_error_bound,
    trig_moments,
)
from paretoloc.filters import cv_init
from paretoloc.models import (
    DEFAULT_ANCHORS,
    AnchorSet,
    CvProcessModel,
    RangeNoiseModel,
    SensorNoiseModel,
    cv_rollout,
    cv_transition_jacobian,
    range_variance,
    symmetrize,
)
from paretoloc.ratios import (
    SeriesDivergenceError,
    SeriesExpectation,
    _mean_se,
    _normal,
    _truncate_alternating,
    diag_bounds,
    diag_expectation_mc,
    diag_expectation_series,
    expected_log_ncx2,
    ncx2_central_moments,
)
from paretoloc.simulate import (
    ExperimentConfig, Scene, crlb_traces, gen_trajectory, make_scenario, scenario_cv,
)
from paretoloc.validate import _corrected_d11

ANCHORS = AnchorSet(
    np.array([[0.0, 0.0], [4.0, 0.0], [0.0, 4.0], [4.0, 4.0]])
)
CV = CvProcessModel(sigma1_sq=1e-4, sigma2_sq=2e-4, sigma3_sq=4e-4, sigma4_sq=9e-4)
SCENE = Scene(anchors=ANCHORS, T=0.1, cv=CV)


# ---------------------------------------------------------------------------
# trigonometric random-walk moments
# ---------------------------------------------------------------------------


def test_trig_moments_initial_step_is_deterministic():
    tm = trig_moments(0.7, 0.9, 0.01, 0.02, k=1)
    assert tm.attenuation == 1.0
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
    f = cv_transition_jacobian(np.array([0.0, 0.0, v0, phi0]), SCENE.T)
    expected = f.T @ np.linalg.inv(CV.q_matrix()) @ f
    assert_allclose(_corrected_d11(SCENE, tm), expected, rtol=1e-12)


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
    f = cv_transition_jacobian(states, SCENE.T)
    sampled = (f.swapaxes(-1, -2) @ q_inv @ f).mean(axis=0)
    closed = _corrected_d11(SCENE, tm)
    assert np.linalg.norm(sampled - closed) < 0.01 * np.linalg.norm(closed)


def test_corrected_d11_shifts_one_entry():
    tm = trig_moments(0.6, 0.8, CV.sigma3_sq, CV.sigma4_sq, k=5)
    diff = _corrected_d11(SCENE, tm) - d11(SCENE, tm)
    expected = np.zeros((4, 4))
    expected[3, 3] = (
        SCENE.T**2
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
    f_mean[0, 2] = SCENE.T * tm.e_cos
    f_mean[1, 2] = SCENE.T * tm.e_sin
    f_mean[0, 3] = -SCENE.T * v0 * tm.e_sin
    f_mean[1, 3] = SCENE.T * v0 * tm.e_cos
    assert_allclose(
        d12(SCENE, tm), -f_mean.T @ np.linalg.inv(CV.q_matrix()), rtol=1e-12
    )


def test_d22_structure():
    pi_mat = np.array([[3.0, 0.4], [0.4, 2.0]])
    sensors = SCENE.sensor_model
    out = d22(SCENE, pi_mat)
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
# noncentral chi-square helpers (`ratios`)
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


@pytest.mark.parametrize("lam", [0.0, 0.3, 2.0, 10.0, 60.0, 1e4, 1e7])
def test_expected_log_ncx2_against_quadrature(lam):
    # X = (sqrt(lam) + Z)^2 with Z standard normal: integrate 2 ln|sqrt(lam) + z|
    # against the normal density over |z| <= 40 (the rest is below 1e-300),
    # with a break point at the integrable log singularity z = -sqrt(lam)
    s = math.sqrt(lam)
    val, err = integrate.quad(
        lambda z: 2.0 * math.log(abs(s + z)) * math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi),
        -40.0,
        40.0,
        points=[-s] if s < 40.0 else None,
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


def _scipy_expected_log_ncx2(lam):
    """The Poisson-mixture sum of `expected_log_ncx2` in scipy's special
    functions: the pmf from xlogy and gammaln, psi(n + 1/2) from digamma."""
    half = 0.5 * lam
    if half == 0.0:
        return float(special.digamma(0.5) + math.log(2.0))
    width = 12.0 * math.sqrt(half) + 25.0
    n = np.arange(max(0, int(half - width)), int(half + width) + 1)
    pmf = np.exp(special.xlogy(n, half) - special.gammaln(n + 1) - half)
    return float(np.sum(pmf * special.digamma(0.5 + n)) + math.log(2.0))


def test_expected_log_ncx2_is_the_scipy_mixture():
    # the tables stand in for scipy's special functions: measured 1.1e-13
    # at most; past 300 the asymptotic branch agrees with the mixture too
    lams = [0.0, 1e-12, 1e-6, *np.linspace(0.0, 300.0, 3001)[1:], 299.999, 300.0, 300.001]
    gaps = [abs(expected_log_ncx2(float(lam)) - _scipy_expected_log_ncx2(lam)) for lam in lams]
    assert max(gaps) <= 2e-13


def test_mixture_tables_cover_the_largest_index_the_mixture_reads():
    # at lam = 300, the largest the mixture branch takes, N reaches
    # 150 + 12 sqrt(150) + 25; the tables are built once at that size
    top = int(150.0 + 12.0 * math.sqrt(150.0) + 25.0)
    assert top == 321
    ln_factorial, digamma_half = ratios._mixture_tables()
    assert ratios._mixture_tables() is ratios._mixture_tables()
    assert len(ln_factorial) == len(digamma_half) > top
    assert expected_log_ncx2(300.0) == pytest.approx(_scipy_expected_log_ncx2(300.0), abs=2e-13)
    n = np.arange(len(ln_factorial))
    assert_allclose(ln_factorial, special.gammaln(n + 1), rtol=1e-14, atol=1e-14)
    assert_allclose(digamma_half, special.digamma(n + 0.5), rtol=1e-14, atol=0.0)


# ---------------------------------------------------------------------------
# ratio brackets and the asymptotic series (`ratios`)
# ---------------------------------------------------------------------------


def _ratio_samples(mu_q, sigma_q, mu_z, sigma_z, n, rng) -> tuple:
    """n samples each of q ~ N(mu_q, sigma_q^2), then z ~ N(mu_z, sigma_z^2)."""
    return rng.normal(mu_q, sigma_q, n), rng.normal(mu_z, sigma_z, n)


def test_diag_bounds_bracket_sampled_ratio():
    rng = np.random.default_rng(9)
    for mu_q, mu_z in [(0.5, 0.5), (2.0, 1.0), (3.0, 0.2), (1.0, 3.0)]:
        lb, ub = diag_bounds(mu_q, 1.0, mu_z, 1.0)
        assert 0.0 < lb <= ub == 1.0
        mc, se = diag_expectation_mc(rng.normal(mu_q, 1.0, 300000), rng.normal(mu_z, 1.0, 300000))
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


def _truncate_all_orders(terms):
    """Reference truncation over a fully evaluated term array."""
    mags = np.abs(terms)
    nonzero = np.nonzero(mags)[0]
    if nonzero.size == 0:
        return 0.0, len(terms), math.inf
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

    Same draws and the same per-order arithmetic as the library, the outer
    central moments included as a running product, so the library's
    stop-at-the-cut evaluation must match it bit for bit.
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
    f_gap = z**2 / q**2 - upsilon
    denom = 1.0 + upsilon
    outer_terms_arr = np.zeros(truncation)
    outer_se = np.zeros(truncation)
    centred = f_gap
    with np.errstate(over="ignore", invalid="ignore"):
        for kk in range(2, truncation + 1):
            centred = centred * f_gap
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
    # no nonzero term: nothing bounds the omitted part
    assert _truncate_alternating(np.zeros(4)) == (0.0, 4, math.inf)


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


def test_a_series_of_zero_terms_reports_an_unbounded_error(monkeypatch):
    # At truncation 1 the only inner and outer terms are first central
    # moments, both zero.  The value is then off the sampled ratio by about
    # eight standard errors, which an error of 0 would deny.
    monkeypatch.setattr(ratios, "SERIES_TRUNCATION", 1)
    monkeypatch.setattr(ratios, "SERIES_MC_BUDGET", 568)
    args = (1.0769, 0.4816, -2.1688, 0.4816)
    got = diag_expectation_series(*args, rng=np.random.default_rng(0))
    assert (got.inner_terms, got.outer_terms) == (1, 1)
    assert got.error == math.inf
    mc, se = diag_expectation_mc(*_ratio_samples(*args, 400_000, np.random.default_rng(0)))
    assert abs(got.value - mc) > 6.0 * se


def _series_cases():
    """(args, kwargs, rng seed): the 25 points of the `ratio-bounds` check
    grid at its seed and the module's truncation and budget ({}), then 150
    random points with a random truncation and budget."""
    grid = (0.5, 1.0, 2.0, 3.0, 5.0)
    cases = [((mu_q, 1.0, mu_z, 1.0), {}, (29, 1)) for mu_q in grid for mu_z in grid]
    rng = np.random.default_rng(2024)
    for i in range(150):
        sigma = float(rng.uniform(0.2, 3.0))
        mu_q = float(rng.uniform(0.0, 8.0)) * sigma
        mu_z = float(rng.uniform(-8.0, 8.0)) * sigma
        truncation = int(rng.integers(1, 31))
        budget = int(rng.integers(200, 3000))
        kwargs = {"truncation": truncation, "mc_budget": budget}
        cases.append(((mu_q, sigma, mu_z, sigma), kwargs, (7, i)))
    return cases


def _library_outcome(args, kwargs, rng):
    """`_outcome` of `diag_expectation_series` with a case's truncation and
    budget set on `ratios` for this call alone; {} keeps the module's."""
    with pytest.MonkeyPatch.context() as patch:
        if kwargs:
            patch.setattr(ratios, "SERIES_TRUNCATION", kwargs["truncation"])
            patch.setattr(ratios, "SERIES_MC_BUDGET", kwargs["mc_budget"])
        return _outcome(diag_expectation_series, *args, rng=rng)


def _diverged_matching_the_reference(cases):
    """How many of `cases` diverge, after asserting that the library and the
    all-orders reference give the same outcome and leave their generators
    in the same state."""
    diverged = 0
    for args, kwargs, seed in cases:
        rng_lib, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
        got = _library_outcome(args, kwargs, rng_lib)
        want = _outcome(_series_all_orders, *args, rng=rng_ref, **kwargs)
        assert got == want, (args, kwargs)
        assert rng_lib.bit_generator.state == rng_ref.bit_generator.state
        diverged += got[0] == "diverges"
    return diverged


def test_series_matches_all_orders_reference_on_the_check_grid():
    assert 0 < _diverged_matching_the_reference(_series_cases()[:25]) < 25


def test_series_matches_all_orders_reference_on_random_points():
    assert 10 < _diverged_matching_the_reference(_series_cases()[25:]) < 140


def test_running_powers_keep_the_outcomes_of_the_general_pow(monkeypatch):
    # x^kk as a running product rounds once per order where numpy's pow
    # rounds once; on these 175 cases no cut, divergence or kept count
    # moves, and value and error differ by 2.0e-16 relative at most
    running = [
        _library_outcome(args, kwargs, np.random.default_rng(seed))
        for args, kwargs, seed in _series_cases()
    ]
    monkeypatch.setattr(
        ratios, "_running_powers", lambda x, last: (x**kk for kk in range(2, last + 1))
    )
    converged = 0
    for (args, kwargs, seed), got in zip(_series_cases(), running):
        want = _library_outcome(args, kwargs, np.random.default_rng(seed))
        if want[0] == "diverges":
            assert got == want, args
            continue
        converged += 1
        got_fields = [np.frombuffer(b)[0] for b in got]
        want_fields = [np.frombuffer(b)[0] for b in want]
        # upsilon, inner_terms and outer_terms are exact; value and error
        # within a relative 1e-14
        assert got_fields[2:] == want_fields[2:], args
        assert_allclose(got_fields[:2], want_fields[:2], rtol=1e-14, atol=0.0)
    assert 40 < converged < 175


def test_mc_ratio_draws_the_stream_of_the_scaled_normals():
    # the samples are `_normal`'s, as the ratio-bounds check fills them
    rng, old_rng = np.random.default_rng(9), np.random.default_rng(9)
    got = diag_expectation_mc(_normal(rng, 1.5, 0.7, 5000), _normal(rng, -2.0, 0.7, 5000))
    q = old_rng.normal(1.5, 0.7, size=5000)
    z = old_rng.normal(-2.0, 0.7, size=5000)
    assert got == tuple(float(v) for v in _mean_se(q**2 / (q**2 + z**2)))
    assert rng.bit_generator.state == old_rng.bit_generator.state


def test_series_expectation_agrees_with_sampling_where_it_converges():
    # strong mean separation: both stages produce decreasing terms (the
    # outer stage samples its moments, so the seed matters to the
    # keep/stop decision)
    series = diag_expectation_series(
        5.0, 1.0, 0.5, 1.0, rng=np.random.default_rng((29, 1))
    )
    mc, se = diag_expectation_mc(*_ratio_samples(5.0, 1.0, 0.5, 1.0, 400000, np.random.default_rng(22)))
    assert series.inner_terms >= 2 and series.outer_terms >= 2
    assert abs(series.value - mc) <= series.error + 4.0 * se


def test_series_expectation_rejects_hard_regimes():
    with pytest.raises(SeriesDivergenceError):
        diag_expectation_series(1.0, 1.0, 0.5, 1.0, rng=np.random.default_rng(21))
    with pytest.raises(ValueError):
        diag_expectation_series(1.0, 1.0, 0.5, 0.7, rng=np.random.default_rng(21))
    with pytest.raises(ValueError):
        diag_expectation_series(1.0, 0.0, 0.5, 0.0, rng=np.random.default_rng(21))


# ---------------------------------------------------------------------------
# bound drivers
# ---------------------------------------------------------------------------


def test_position_error_bound_cases():
    assert position_error_bound(np.eye(4)) == pytest.approx(math.sqrt(2.0))
    assert position_error_bound(np.zeros((4, 4))) == float("inf")
    assert position_error_bound(np.diag([-1.0, -1.0, 1.0, 1.0])) == float("inf")


def test_stacked_position_error_bound_is_the_per_matrix_call_bit_for_bit():
    rng = np.random.default_rng(79)
    a = rng.normal(size=(30, 4, 4))
    j_stack = a @ a.mT + 0.1 * np.eye(4)
    j_stack[5] = np.diag([-1.0, -1.0, 1.0, 1.0])  # negative trace
    bound = position_error_bound(j_stack)
    assert bound.shape == (30,)
    for k in range(30):
        assert bound[k] == position_error_bound(j_stack[k])
    assert np.isinf(bound[5]) and np.isfinite(np.delete(bound, 5)).all()
    # a singular member reads inf at its index only, the rest keep their bits
    j_stack[11] = 0.0
    with_singular = position_error_bound(j_stack.reshape(3, 10, 4, 4))
    assert with_singular.shape == (3, 10)
    assert np.isinf(with_singular[1, 1])
    assert np.array_equal(np.delete(with_singular.ravel(), 11), np.delete(bound, 11))


def test_default_prior_information():
    assert_allclose(
        default_prior_information(),
        np.diag([1.0, 1.0, 4.0, (4.0 / math.pi) ** 2]),
        rtol=1e-12,
    )


def test_filter_and_bound_priors_share_one_covariance():
    # the EKF-CV start and the bounds' prior information are one constant
    cov = cv_init(SCENE, [0.0, 0.0], 0.3, 0.4).covariance
    np.testing.assert_array_equal(cov, np.diag([1.0, 1.0, 0.25, (math.pi / 4.0) ** 2]))
    np.testing.assert_array_equal(default_prior_information(), np.linalg.inv(cov))


def test_pi_expectation_single_point_is_exact():
    pos = np.array([1.2, 0.9])
    model = SCENE.range_model
    pi_hat = pi_bracket(SCENE, pos[None, :])[0]
    expected = np.zeros((2, 2))
    for anchor in ANCHORS.positions:
        diff = pos - anchor
        r = np.linalg.norm(diff)
        d = diff / r
        expected += np.outer(d, d) / range_variance(r, model)
    assert_allclose(pi_hat, expected, rtol=1e-12)


def test_measurement_information_structure():
    state = np.array([1.2, 0.9, 0.4, 0.7])
    sensors = SCENE.sensor_model
    info = measurement_information(SCENE, state)
    pi_hat = pi_bracket(SCENE, state[None, :2])[0]
    assert np.array_equal(info[:2, :2], pi_hat)
    assert info[2, 2] == pytest.approx(1.0 / sensors.sigma_v**2)
    assert info[3, 3] == pytest.approx(1.0 / sensors.sigma_phi**2)
    assert np.all(info[:2, 2:] == 0.0) and np.all(info[2:, :2] == 0.0)
    assert np.all(np.linalg.eigvalsh(info) >= 0.0)


def _static_truth(steps=20):
    return np.tile([1.5, 1.8], (steps, 1)), np.full(steps, 0.3), np.full(steps, 0.4)


def test_parcrlb_trace_first_step_and_growth():
    j_seq, bound = parcrlb_trace(SCENE, _static_truth())
    assert j_seq.shape == (20, 4, 4) and bound.shape == (20,)
    state0 = np.array([1.5, 1.8, 0.3, 0.4])
    expected0 = default_prior_information() + measurement_information(SCENE, state0)
    assert_allclose(j_seq[0], expected0, rtol=1e-12)
    assert bound[0] == pytest.approx(position_error_bound(expected0))
    # information accumulates: later bounds sit well below the first
    assert np.all(bound > 0.0) and np.all(np.isfinite(bound))
    assert bound[-1] < 0.5 * bound[0]


def _turning_truth(steps=25):
    heading = np.linspace(0.0, 2.5, steps)
    speed = np.linspace(0.1, 0.6, steps)
    positions = np.array([1.0, 1.0]) + np.cumsum(
        0.1 * speed[:, None] * np.stack([np.cos(heading), np.sin(heading)], -1), axis=0
    )
    return positions, speed, heading


def test_parcrlb_trace_follows_a_turning_path():
    # oracle: the recursion stepped with each state's own Jacobian
    steps = 25
    truth = _turning_truth(steps)
    j_seq, bound = parcrlb_trace(SCENE, truth)
    states = np.column_stack(truth)
    j = default_prior_information() + measurement_information(SCENE, states[0])
    np.testing.assert_array_equal(j_seq[0], j)
    for k in range(1, steps):
        f_inv = np.linalg.solve(cv_transition_jacobian(states[k - 1], 0.1), np.eye(4))
        j = f_inv.T @ j @ f_inv + measurement_information(SCENE, states[k])
        j = 0.5 * (j + j.T)
        np.testing.assert_array_equal(j_seq[k], j)
        assert bound[k] == position_error_bound(j)


def _matrix_product_information(state, anchors, model, sensors):
    """H^T R^{-1} H written as the matrix product over anchors."""
    diff = state[:2][None, :] - anchors.positions
    r = np.maximum(np.linalg.norm(diff, axis=1), 1e-12)
    d = diff / r[:, None]
    info = np.zeros((4, 4))
    info[:2, :2] = (d * (1.0 / range_variance(r, model))[:, None]).T @ d
    info[2, 2] = 1.0 / sensors.sigma_v**2
    info[3, 3] = 1.0 / sensors.sigma_phi**2
    return info


@pytest.mark.parametrize("track", ["turning", "scenario-cv"])
def test_parcrlb_trace_matches_the_matrix_product_recursion(track):
    # The bound takes every Pi from one `measurement_information` call on
    # the stacked states, which sums each Pi entry over anchors on its
    # own; the matrix product H^T R^{-1} H sums in another order, so the
    # two sequences agree to rounding only: 1e-14 relative per step
    # (4.2e-16 seen).
    model, sensors = RangeNoiseModel(), SensorNoiseModel()
    if track == "turning":
        truth, anchors = _turning_truth(), ANCHORS
    else:
        # the parametric path of `crlb_traces` on scenario CV
        truth = gen_trajectory(
            dataclasses.replace(scenario_cv(steps=200), kind="linear"), np.random.default_rng(0)
        )
        anchors = DEFAULT_ANCHORS
    j_seq, bound = parcrlb_trace(Scene(anchors=anchors, T=0.1), truth)
    states = np.column_stack(truth)
    for k in range(len(states)):
        info = _matrix_product_information(states[k], anchors, model, sensors)
        if k == 0:
            j = default_prior_information() + info
        else:
            f_inv = np.linalg.solve(cv_transition_jacobian(states[k - 1], 0.1), np.eye(4))
            j = f_inv.T @ j @ f_inv + info
            j = 0.5 * (j + j.T)
        assert np.max(np.abs(j_seq[k] - j)) <= 1e-14 * np.max(np.abs(j))
        assert bound[k] == pytest.approx(position_error_bound(j), rel=1e-14, abs=0.0)


def test_pcrlb_bounds_steps_are_the_recursion_steps():
    # Step 0 is the prior plus the measurement block at the initial
    # state; every later step is `pcrlb_recursion` on the previous
    # information and the MC measurement block of the same rollout, bit
    # for bit.
    x0, v0, phi0, steps, n_ensemble = [1.5, 1.8], 0.3, 0.4, 12, 150
    out = pcrlb_bounds(
        SCENE, x0=x0, v0=v0, phi0=phi0, steps=steps, n_ensemble=n_ensemble,
        rng=np.random.default_rng(21),
    )
    state0 = np.array([x0[0], x0[1], v0, phi0])
    rollout = cv_rollout(CV, 0.1, state0, steps, np.random.default_rng(21), n_ensemble)
    np.testing.assert_array_equal(
        out.j[0], default_prior_information() + measurement_information(SCENE, state0)
    )
    for i in range(1, steps):
        tm = trig_moments(v0, phi0, CV.sigma3_sq, CV.sigma4_sq, i)
        pi_hat = _pi_bracket_per_anchor(rollout[i, :, :2], ANCHORS, SCENE.range_model)[0]
        expected = pcrlb_recursion(out.j[i - 1], d11(SCENE, tm), d12(SCENE, tm), d22(SCENE, pi_hat))
        np.testing.assert_array_equal(out.j[i], expected)


@pytest.mark.parametrize("t_step", [0.05, 0.4])
def test_bounds_step_at_the_scene_period(t_step):
    # every transition term of both bounds is taken at `scene.T`: F and
    # E{F} are the Jacobian at that period, and the rollouts step at it
    scene = Scene(anchors=ANCHORS, T=t_step, cv=CV)
    x0, v0, phi0 = [1.5, 1.8], 0.3, 0.4
    tm = trig_moments(v0, phi0, CV.sigma3_sq, CV.sigma4_sq, k=1)
    f = cv_transition_jacobian(np.array([0.0, 0.0, v0, phi0]), t_step)
    q_inv = np.linalg.inv(CV.q_matrix())
    assert_allclose(_corrected_d11(scene, tm), f.T @ q_inv @ f, rtol=1e-12)
    assert_allclose(d12(scene, tm), -f.T @ q_inv, rtol=1e-12)
    truth = _turning_truth(3)
    j_seq, _ = parcrlb_trace(scene, truth)
    states = np.column_stack(truth)
    f_inv = np.linalg.inv(cv_transition_jacobian(states[0], t_step))
    expected = f_inv.T @ j_seq[0] @ f_inv + measurement_information(scene, states[1])
    assert_allclose(j_seq[1], expected, rtol=1e-12)
    out = pcrlb_bounds(scene, x0, v0, phi0, steps=3, n_ensemble=20, rng=np.random.default_rng(9))
    rollout = cv_rollout(CV, t_step, [*x0, v0, phi0], 3, np.random.default_rng(9), 20)
    for i in (1, 2):
        tm = trig_moments(v0, phi0, CV.sigma3_sq, CV.sigma4_sq, i)
        pi_hat = _pi_bracket_per_anchor(rollout[i, :, :2], ANCHORS, scene.range_model)[0]
        np.testing.assert_array_equal(
            out.j[i],
            pcrlb_recursion(out.j[i - 1], d11(scene, tm), d12(scene, tm), d22(scene, pi_hat)),
        )


def _pi_bracket_per_anchor(positions, anchors, range_model):
    """(Pi_MC, L, U) with the terms of each anchor formed one anchor at a
    time: w u u^T per sample for Pi_MC, w_min,m u u^T for L and
    w_max,m u u^T for U.  They are summed over the anchors along a
    contiguous last axis, as numpy sums a row, then averaged over the
    samples."""
    pos = np.atleast_2d(np.asarray(positions, dtype=float))
    terms = {"mc": [], "lo": [], "up": []}
    for anchor in anchors.positions:
        diff = pos - anchor[None, :]
        r = np.maximum(np.linalg.norm(diff, axis=1), 1e-12)
        w = 1.0 / range_variance(r, range_model)
        x, y = (diff / r[:, None]).T
        for key, weight in (("mc", w), ("lo", w.min()), ("up", w.max())):
            terms[key].append([weight * x**2, weight * x * y, weight * y**2])
    out = []
    for key in ("mc", "lo", "up"):
        e11, e12, e22 = np.stack(terms[key], axis=-1).sum(axis=-1)
        out.append([[e11.mean(), e12.mean()], [e12.mean(), e22.mean()]])
    return np.array(out)


def _pcrlb_bounds_per_step(scene, x0, v0, phi0, steps, n_ensemble, rng):
    """`pcrlb_bounds` one step and one recursion at a time, each bound taken
    inside the loop, D22 written out: the stacked recursions' oracle."""
    cv, sensor_model = scene.cv, scene.sensor_model
    rollout = cv_rollout(cv, scene.T, [x0[0], x0[1], v0, phi0], steps, rng, n_ensemble)
    q_inv = np.linalg.inv(cv.q_matrix())
    fields = {name: [] for name in ("j", "j_lb", "j_ub", "bound", "bound_lb",
                                    "bound_ub", "sandwich_ok")}
    for i in range(steps):
        ensemble = rollout[i, :1, :2] if i == 0 else rollout[i, :, :2]
        pis = pi_bracket(scene, ensemble)
        if i == 0:
            prior = default_prior_information()
            mats = [prior + _measurement_block(pi, sensor_model) for pi in pis]
        else:
            tm = trig_moments(v0, phi0, cv.sigma3_sq, cv.sigma4_sq, i)
            d11_mat, d12_mat = d11(scene, tm), d12(scene, tm)
            mats = [
                symmetrize(q_inv + _measurement_block(pi, sensor_model)
                           - d12_mat.T @ np.linalg.solve(prev + d11_mat, d12_mat))
                for pi, prev in zip(pis, mats)
            ]
        j, j_lb, j_ub = mats
        lo_gap = np.linalg.eigvalsh(j - j_lb).min()
        hi_gap = np.linalg.eigvalsh(j_ub - j).min()
        for name, value in (
            ("j", j), ("j_lb", j_lb), ("j_ub", j_ub),
            ("bound", position_error_bound(j)),
            ("bound_lb", position_error_bound(j_ub)),
            ("bound_ub", position_error_bound(j_lb)),
            ("sandwich_ok", bool(lo_gap >= -1e-9 and hi_gap >= -1e-9)),
        ):
            fields[name].append(value)
    return {name: np.array(values) for name, values in fields.items()}


@pytest.mark.parametrize("scenario, n_ensemble", [("CV", 1000), ("B", 300)])
def test_pcrlb_bounds_is_the_per_step_loop_bit_for_bit(scenario, n_ensemble):
    # the inputs `crlb_traces` hands `pcrlb_bounds` at seed 0, 200 steps
    spec = make_scenario(scenario, steps=200)
    scene = Scene.from_config(ExperimentConfig(trajectory=spec, seed=0))
    args = (scene, spec.start, spec.speed, spec.heading, 200, n_ensemble)
    seed = np.random.SeedSequence((0, 0x6372))
    out = pcrlb_bounds(*args, rng=np.random.default_rng(seed))
    expected = _pcrlb_bounds_per_step(*args, rng=np.random.default_rng(seed))
    for field in dataclasses.fields(out):
        value = getattr(out, field.name)
        assert value.dtype == expected[field.name].dtype, field.name
        assert np.array_equal(value, expected[field.name]), field.name
    if scenario == "CV":
        # `d11` omits V0^2 from its (4, 4) entry, so J + D11 is indefinite
        # early on and the recursions need not keep the PSD order there:
        # it fails at one step, and the position bracket holds throughout
        assert np.flatnonzero(~out.sandwich_ok).tolist() == [110]
    else:
        assert out.sandwich_ok.all()


@pytest.mark.parametrize("n_ensemble", [0, -3])
def test_pcrlb_bounds_rejects_an_empty_ensemble(n_ensemble):
    with pytest.raises(ValueError, match="n_ensemble"):
        pcrlb_bounds(
            SCENE, x0=[1.5, 1.8], v0=0.3, phi0=0.4, steps=6, n_ensemble=n_ensemble,
            rng=np.random.default_rng(13),
        )


@pytest.mark.parametrize(
    "name, steps, n_ensemble",
    [
        ("steps", 0, 10),
        ("steps", -1, 10),
        ("steps", 1.5, 10),
        ("steps", 6.0, 10),
        ("n_ensemble", 6, 2.5),
    ],
    ids=["steps-0", "steps-negative", "steps-fraction", "steps-float", "ensemble-fraction"],
)
def test_pcrlb_bounds_names_a_bad_steps_or_ensemble(name, steps, n_ensemble):
    # both must be integers of at least 1, and the message names the one
    # that is not
    with pytest.raises(ValueError, match=f"^{name} must be an integer"):
        pcrlb_bounds(
            SCENE, x0=[1.5, 1.8], v0=0.3, phi0=0.4, steps=steps, n_ensemble=n_ensemble,
            rng=np.random.default_rng(13),
        )


def test_pcrlb_bounds_runs_one_step_of_one_member():
    # the smallest valid call: the prior plus one measurement block
    out = pcrlb_bounds(
        SCENE, x0=[1.5, 1.8], v0=0.3, phi0=0.4, steps=1, n_ensemble=1,
        rng=np.random.default_rng(0),
    )
    state0 = np.array([1.5, 1.8, 0.3, 0.4])
    expected = default_prior_information() + measurement_information(SCENE, state0)
    assert out.j.shape == (1, 4, 4) and np.array_equal(out.j[0], expected)


@pytest.mark.parametrize(
    "field, sensor_settings, cv_settings",
    [
        ("sigma_v", {"sigma_v": 0.0}, {}),
        ("sigma_phi", {"sigma_phi": 0.0}, {}),
        ("sigma1_sq", {}, {"sigma1_sq": 0.0}),
        ("sigma4_sq", {}, {"sigma4_sq": 0.0}),
    ],
)
def test_bounds_name_a_zero_noise_setting_they_invert(field, sensor_settings, cv_settings):
    scene = Scene(
        anchors=ANCHORS,
        sensor_model=SensorNoiseModel(**sensor_settings),
        T=0.1,
        cv=dataclasses.replace(CV, **cv_settings),
    )
    with pytest.raises(ValueError, match=field):
        pcrlb_bounds(
            scene, x0=[1.5, 1.8], v0=0.3, phi0=0.4, steps=6, n_ensemble=10,
            rng=np.random.default_rng(13),
        )
    if sensor_settings:
        with pytest.raises(ValueError, match=field):
            parcrlb_trace(scene, _static_truth())
    else:
        # the parametric bound inverts no process noise
        assert np.isfinite(parcrlb_trace(scene, _static_truth())[1]).all()


def test_pcrlb_bounds_small_ensemble():
    out = pcrlb_bounds(
        SCENE,
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
        assert np.all(np.linalg.eigvalsh(out.j_ub[k] - out.j_lb[k]) >= -1e-8)
    assert np.all(out.bound > 0.0)
    assert np.all((out.bound_lb <= out.bound) & (out.bound <= out.bound_ub))
    assert out.sandwich_ok.dtype == bool and out.sandwich_ok.all()


def _bracket_ensemble(kind):
    rng = np.random.default_rng(43)
    if kind == "one-point":  # N = 1: every spread is 0, the degenerate branch
        return np.array([[1.3, 2.2]])
    if kind == "constant-x":  # degenerate on one axis only
        pos = rng.normal(2.0, 0.3, size=(200, 2))
        pos[:, 0] = 1.7
        return pos
    return rng.normal(2.0, 0.4, size=(1000, 2))


def _random_anchors(m):
    """m anchors drawn uniformly on [-5, 5]^2 (`AnchorSet` refuses a
    collinear draw)."""
    return AnchorSet(np.random.default_rng(m).uniform(-5.0, 5.0, size=(m, 2)))


@pytest.mark.parametrize(
    "anchors",
    [DEFAULT_ANCHORS, ANCHORS, *(_random_anchors(m) for m in (4, 7, 8, 9, 15, 16, 17))],
    ids=["default", "four", *(f"random-{m}" for m in (4, 7, 8, 9, 15, 16, 17))],
)
@pytest.mark.parametrize("kind", ["one-point", "constant-x", "wide"])
def test_pi_brackets_are_the_per_anchor_loop_bit_for_bit(anchors, kind):
    # the anchor sums run in numpy's pairwise order: in order under 8
    # anchors (4, 7), in blocks of eight from 8 on (8, 16), and then the
    # rest in order (9, 15, 17)
    positions = _bracket_ensemble(kind)
    pis = pi_bracket(Scene(anchors=anchors), positions)
    assert np.array_equal(pis, _pi_bracket_per_anchor(positions, anchors, RangeNoiseModel()))
    if kind == "one-point":
        # one sample is its own mean and extremes: the three are one matrix
        assert np.array_equal(pis[1], pis[0]) and np.array_equal(pis[2], pis[0])


@pytest.mark.parametrize("m", [*range(4, 21), 129, 300])
def test_the_anchor_sum_is_numpys_row_sum_bit_for_bit(m):
    # rows of m terms spread over 40 decades, where every change of order
    # shows; past 128 numpy splits a row in halves; a row of negative
    # zeros sums to +0.0
    rng = np.random.default_rng(m)
    rows = rng.standard_normal((3, 50, m)) * np.exp(rng.uniform(-46.0, 46.0, (3, 50, m)))
    rows[0, 0] = -0.0
    want = np.sum(rows, axis=-1)
    got = _anchor_sum(np.moveaxis(rows, -1, 0).copy())
    assert np.array_equal(got, want) and not np.signbit(got[0, 0])


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 300),
    spread=st.floats(1e-3, 10.0),
    n_anchors=st.integers(4, 10),
)
def test_pi_bracket_orders_random_ensembles(seed, n, spread, n_anchors):
    # L <= Pi_MC <= U in eigenvalues, from the per-anchor loop and from src
    rng = np.random.default_rng(seed)
    anchors = AnchorSet(rng.uniform(-5.0, 5.0, size=(n_anchors, 2)))
    positions = rng.normal(rng.uniform(-3.0, 3.0, size=2), spread, size=(n, 2))
    pis = pi_bracket(Scene(anchors=anchors), positions)
    expected = _pi_bracket_per_anchor(positions, anchors, RangeNoiseModel())
    assert_allclose(pis, expected, rtol=1e-12, atol=1e-12 * np.abs(expected).max())
    for mc, lo, up in (pis, expected):
        tol = 1e-12 * np.abs(up).max()
        assert np.linalg.eigvalsh(mc - lo).min() >= -tol
        assert np.linalg.eigvalsh(up - mc).min() >= -tol
        assert np.linalg.eigvalsh(lo).min() >= -tol


@pytest.mark.parametrize("scenario, n_ensemble", [("CV", 1000), ("A", 300), ("B", 300)])
def test_crlb_traces_bracket_is_finite_and_holds_at_every_step(scenario, n_ensemble):
    config = ExperimentConfig(trajectory=make_scenario(scenario, steps=200), seed=0)
    traces = crlb_traces(config, n_ensemble=n_ensemble)
    lb, bound, ub = traces["pcrlb_lb"], traces["pcrlb"], traces["pcrlb_ub"]
    assert np.isfinite(lb).all() and np.isfinite(ub).all()
    assert np.all((lb <= bound) & (bound <= ub))


def test_the_posterior_rollouts_start_at_the_tracks_folded_start():
    # A folds a far start into its box: the rollouts start where the track
    # does, so at k = 0 both bounds are the prior plus one measurement at
    # the same state, and the posterior carries range information
    spec = dataclasses.replace(make_scenario("A", steps=20), start=np.array([1e6, 1e6]))
    traces = crlb_traces(ExperimentConfig(trajectory=spec, seed=0), n_ensemble=50)
    assert traces["pcrlb"][0] == traces["parcrlb"][0]
    assert traces["bracket_ok"].all() and traces["pcrlb"].max() < 0.5


def test_crlb_traces_at_the_cli_defaults_peaks_at_most_9_mib():
    # CV, 200 steps, ensemble 1000: the rollout alone is 6.1 MiB, and the
    # bracket of one step at a time adds about 1.3 MiB; bracketing every
    # step at once would hold about 115 MB of product planes
    config = ExperimentConfig(trajectory=make_scenario("CV"), seed=0)
    tracemalloc.start()
    try:
        crlb_traces(config, n_ensemble=1000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 9 * 2**20, peak / 2**20


def test_pcrlb_bounds_one_point_ensembles_tie_at_every_step():
    # n_ensemble = 1: every step's three Pi are one matrix, so are the
    # three recursions, and the bracket closes on the bound
    spec = scenario_cv(steps=50)
    scene = Scene.from_config(ExperimentConfig(trajectory=spec, seed=0))
    out = pcrlb_bounds(
        scene, spec.start, spec.speed, spec.heading, 50, 1, rng=np.random.default_rng(5)
    )
    assert np.array_equal(out.j_lb, out.j) and np.array_equal(out.j_ub, out.j)
    assert np.array_equal(out.bound_lb, out.bound) and np.array_equal(out.bound_ub, out.bound)


_MOMENT_SAMPLES = arrays(
    np.float64,
    st.one_of(
        array_shapes(min_dims=1, max_dims=1, min_side=2, max_side=1000),
        array_shapes(min_dims=2, max_dims=3, min_side=2, max_side=12),
    ),
    elements=st.floats(-1e6, 1e6),
)


@given(_MOMENT_SAMPLES)
def test_mean_se_is_the_bits_of_mean_and_std(x):
    axis = None if x.ndim == 1 else 0
    mean, se = _mean_se(x, axis)
    expected_mean = x.mean(axis)
    assert type(mean) is type(expected_mean)
    assert np.array_equal(mean, expected_mean)
    assert np.array_equal(se, x.std(axis, ddof=1) / math.sqrt(x.shape[0]))
