"""Parametric and posterior Cramer-Rao bounds for the CV localization model.

Two bound flavours:

* Parametric bound: the trajectory is a deterministic unknown; with zero
  process noise the Fisher information propagates as
  J_k = F^{-T} J_{k-1} F^{-1} + H^T R^{-1} H evaluated on the true path.

* Posterior bound: the trajectory is a random CV-model rollout; the
  information recursion J_{k+1} = D22 - D21 (J_k + D11)^{-1} D12 needs
  expectations over the state distribution.  The transition-related
  blocks D11/D12 are available in closed form through the Gaussian trig
  moments of the heading random walk; the measurement block contains a
  bearing/weight expectation (Pi) that is estimated by Monte Carlo, or
  bracketed element-wise by moment bounds on ratios of squared
  Gaussians.  Element-wise brackets are turned into an eigenvalue-ordered
  pair by a Gershgorin-style diagonal adjustment.

Convention: gradients are stored as Jacobians F_ij = d f_i / d p_j; the
information recursions below are written for that convention.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np
from scipy import special

from .models import (
    AnchorSet,
    CvProcessModel,
    RangeNoiseModel,
    SensorNoiseModel,
    range_variance,
)

_EULER_GAMMA = float(np.euler_gamma)


# ---------------------------------------------------------------------------
# trig moments of the CV heading / speed random walks
# ---------------------------------------------------------------------------


@dataclass(slots=True)
class TrigMoments:
    """Exact moments of V_k ~ N(V0, (k-1) s3) and phi_k ~ N(phi0, (k-1) s4).

    Attributes
    ----------
    k : int
        Step index (1-based; k = 1 is the deterministic initial state).
    c0, s0 : float
        cos(phi0), sin(phi0).
    c0p, s0p : float
        cos(2 phi0), sin(2 phi0).
    eps : float
        First-harmonic attenuation exp(-(k-1) sigma4_sq / 2).
    e_v, e_v_sq : float
        E{V_k} and E{V_k^2}.
    """

    k: int
    c0: float
    s0: float
    c0p: float
    s0p: float
    eps: float
    e_v: float
    e_v_sq: float

    # Second-harmonic moments attenuate with exp(-2 (k-1) sigma4_sq),
    # i.e. eps**4 -- the fourth power, not the square.
    @property
    def e_cos(self) -> float:
        return self.c0 * self.eps

    @property
    def e_sin(self) -> float:
        return self.s0 * self.eps

    @property
    def e_cos_sq(self) -> float:
        return 0.5 + 0.5 * self.c0p * self.eps**4

    @property
    def e_sin_sq(self) -> float:
        return 0.5 - 0.5 * self.c0p * self.eps**4

    @property
    def e_sin_cos(self) -> float:
        return 0.5 * self.s0p * self.eps**4


def trig_moments(
    v0: float, phi0: float, sigma3_sq: float, sigma4_sq: float, k: int
) -> TrigMoments:
    """Moments of the speed / heading random walks after k - 1 noise steps.

    Raises
    ------
    ValueError
        If k < 1.
    """
    if k < 1:
        raise ValueError(f"step index must be >= 1, got {k}")
    return TrigMoments(
        k=k,
        c0=math.cos(phi0),
        s0=math.sin(phi0),
        c0p=math.cos(2.0 * phi0),
        s0p=math.sin(2.0 * phi0),
        eps=math.exp(-0.5 * (k - 1) * sigma4_sq),
        e_v=v0,
        e_v_sq=(k - 1) * sigma3_sq + v0**2,
    )


# ---------------------------------------------------------------------------
# posterior-bound blocks
# ---------------------------------------------------------------------------


def d11(tm: TrigMoments, cv: CvProcessModel, corrected: bool = False) -> np.ndarray:
    """Closed-form E{F^T Q^{-1} F} for the CV transition, shape (4, 4).

    The (4, 4) entry's speed-power prefactor is (k-1) sigma3_sq in the
    reference form reproduced here; the full second moment also carries
    V0^2 (pass corrected=True for E{V^2} = (k-1) sigma3_sq + V0^2).
    """
    t = cv.T
    i1, i2 = 1.0 / cv.sigma1_sq, 1.0 / cv.sigma2_sq
    i3, i4 = 1.0 / cv.sigma3_sq, 1.0 / cv.sigma4_sq
    v0 = tm.e_v
    eps = tm.eps
    v_sq = tm.e_v_sq if corrected else tm.e_v_sq - tm.e_v**2
    out = np.zeros((4, 4))
    out[0, 0] = i1
    out[1, 1] = i2
    out[0, 2] = out[2, 0] = t * tm.c0 * eps * i1
    out[0, 3] = out[3, 0] = -t * v0 * tm.s0 * eps * i1
    out[1, 2] = out[2, 1] = t * tm.s0 * eps * i2
    out[1, 3] = out[3, 1] = t * v0 * tm.c0 * eps * i2
    out[2, 2] = t**2 * (tm.e_cos_sq * i1 + tm.e_sin_sq * i2) + i3
    out[2, 3] = out[3, 2] = t**2 * v0 * tm.e_sin_cos * (i2 - i1)
    out[3, 3] = t**2 * v_sq * (tm.e_sin_sq * i1 + tm.e_cos_sq * i2) + i4
    return out


def d12(tm: TrigMoments, cv: CvProcessModel) -> np.ndarray:
    """Closed-form -E{F}^T Q^{-1} for the CV transition, shape (4, 4)."""
    t = cv.T
    i1, i2 = 1.0 / cv.sigma1_sq, 1.0 / cv.sigma2_sq
    i3, i4 = 1.0 / cv.sigma3_sq, 1.0 / cv.sigma4_sq
    v0 = tm.e_v
    eps = tm.eps
    out = np.zeros((4, 4))
    out[0, 0] = i1
    out[1, 1] = i2
    out[2, 0] = t * tm.c0 * eps * i1
    out[2, 1] = t * tm.s0 * eps * i2
    out[2, 2] = i3
    out[3, 0] = -t * v0 * tm.s0 * eps * i1
    out[3, 1] = t * v0 * tm.c0 * eps * i2
    out[3, 3] = i4
    return -out


def pi_expectation_mc(
    positions, anchors: AnchorSet, range_model: RangeNoiseModel
) -> tuple:
    """Monte Carlo estimate of the range-measurement position information.

    Pi = E{ sum_i sigma_ri^{-2} d_i d_i^T } with d_i the unit vector from
    anchor i to the node and sigma_ri^2 the range variance at the sample's
    range; the expectation runs over an ensemble of position samples.

    Parameters
    ----------
    positions : array_like
        Position ensemble, shape (N, 2).

    Returns
    -------
    (pi_hat, pi_se) : tuple of np.ndarray
        Entry-wise mean and standard error, both (2, 2).
    """
    pos = np.atleast_2d(np.asarray(positions, dtype=float))
    diff = pos[:, None, :] - anchors.positions[None, :, :]  # (N, M, 2)
    r = np.linalg.norm(diff, axis=2)
    r = np.maximum(r, 1e-12)
    w = 1.0 / range_variance(r, range_model)
    d = diff / r[..., None]
    e11 = np.sum(w * d[..., 0] ** 2, axis=1)
    e12 = np.sum(w * d[..., 0] * d[..., 1], axis=1)
    e22 = np.sum(w * d[..., 1] ** 2, axis=1)
    n = pos.shape[0]
    pi_hat = np.array([[e11.mean(), e12.mean()], [e12.mean(), e22.mean()]])
    if n > 1:
        se = np.array(
            [
                [e11.std(ddof=1), e12.std(ddof=1)],
                [e12.std(ddof=1), e22.std(ddof=1)],
            ]
        ) / math.sqrt(n)
    else:
        se = np.zeros((2, 2))
    return pi_hat, se


def d22(
    pi_mat: np.ndarray, cv: CvProcessModel, sensor_model: SensorNoiseModel
) -> np.ndarray:
    """Measurement-side information block Q^{-1} + blkdiag(Pi, R2^{-1})."""
    out = np.linalg.inv(cv.q_matrix())
    out[:2, :2] += pi_mat
    out[2, 2] += 1.0 / sensor_model.sigma_v**2
    out[3, 3] += 1.0 / sensor_model.sigma_phi**2
    return out


def pcrlb_recursion(
    j_prev: np.ndarray, d11_mat: np.ndarray, d12_mat: np.ndarray, d22_mat: np.ndarray
) -> np.ndarray:
    """One posterior-information step: D22 - D21 (J + D11)^{-1} D12.

    With D12 = 0 the result is exactly D22 (prior information cannot leak
    into the next step without transition coupling).
    """
    correction = d12_mat.T @ np.linalg.solve(j_prev + d11_mat, d12_mat)
    out = d22_mat - correction
    return 0.5 * (out + out.T)


# ---------------------------------------------------------------------------
# moment machinery for the element-wise Pi brackets
# ---------------------------------------------------------------------------


class SeriesDivergenceError(RuntimeError):
    """The asymptotic ratio-moment series shows no decreasing terms.

    The expansion is asymptotic, not convergent; when even the leading
    terms grow the partial sums carry no information.  Use the Monte
    Carlo estimator (`diag_expectation_mc`) instead.
    """


def ncx2_central_moments(lam: float, order: int) -> np.ndarray:
    """Central moments 0..order of a noncentral chi-square with 1 dof.

    Cumulants are kappa_n = 2^{n-1} (n-1)! (1 + n lam); central moments
    follow from the cumulant recursion with the first cumulant zeroed.
    """
    if order < 0:
        raise ValueError("order must be non-negative")
    kappa = np.zeros(order + 1)
    for n in range(2, order + 1):
        kappa[n] = 2.0 ** (n - 1) * math.factorial(n - 1) * (1.0 + n * lam)
    moments = np.zeros(order + 1)
    moments[0] = 1.0
    for n in range(1, order + 1):
        acc = 0.0
        for j in range(1, n + 1):
            acc += math.comb(n - 1, j - 1) * kappa[j] * moments[n - j]
        moments[n] = acc
    return moments


def expected_log_ncx2(lam: float) -> float:
    """E{ln X} for X ~ noncentral chi-square, 1 dof, noncentrality lam.

    Poisson-mixture representation: ln 2 + E_N{psi(1/2 + N)} with
    N ~ Poisson(lam / 2); the sum is truncated far into the Poisson tail
    so the result is exact to double precision for any lam.
    """
    if lam < 0.0:
        raise ValueError("noncentrality must be non-negative")
    half = 0.5 * lam
    if half == 0.0:
        return float(special.digamma(0.5) + math.log(2.0))
    width = 12.0 * math.sqrt(half) + 25.0
    lo = max(0, int(half - width))
    hi = int(half + width)
    n = np.arange(lo, hi + 1)
    # Poisson(half) pmf in the arithmetic of scipy.stats.poisson.pmf,
    # without importing scipy.stats (about 45 MB resident)
    pmf = np.exp(special.xlogy(n, half) - special.gammaln(n + 1) - half)
    return float(np.sum(pmf * special.digamma(0.5 + n)) + math.log(2.0))


def diag_bounds(
    mu_q: float, sigma_q: float, mu_z: float, sigma_z: float
) -> tuple:
    """Deterministic bracket for E{q^2 / (q^2 + z^2)}, q, z Gaussian.

    The ratio is invariant under common rescaling, so work at sigma_q = 1:
    the lower bound is the double-Jensen expression

        exp( E{ln q^2} - ln E{q^2 + z^2} ),

    with E{ln q^2} evaluated exactly for the noncentral chi-square; the
    upper bound is the trivial 1.

    Returns
    -------
    (lb, ub) : tuple of floats

    Raises
    ------
    ValueError
        If sigma_q <= 0 or sigma_z < 0.
    """
    if sigma_q <= 0.0:
        raise ValueError("sigma_q must be positive")
    if sigma_z < 0.0:
        raise ValueError("sigma_z must be non-negative")
    mu_qs = mu_q / sigma_q
    mu_zs = mu_z / sigma_q
    sig_zs = sigma_z / sigma_q
    alpha = expected_log_ncx2(mu_qs**2)
    lb = math.exp(alpha - math.log(1.0 + mu_qs**2 + sig_zs**2 + mu_zs**2))
    return lb, 1.0


def offdiag_bounds() -> tuple:
    """Bracket for E{q z / (q^2 + z^2)}: the ratio never leaves [-1/2, 1/2]."""
    return -0.5, 0.5


def diag_expectation_mc(
    mu_q: float,
    sigma_q: float,
    mu_z: float,
    sigma_z: float,
    n: int = 1_000_000,
    rng: np.random.Generator | None = None,
) -> tuple:
    """Monte Carlo E{q^2 / (q^2 + z^2)} with standard error."""
    rng = np.random.default_rng() if rng is None else rng
    q = rng.normal(mu_q, sigma_q, size=n)
    z = rng.normal(mu_z, sigma_z, size=n)
    t = q**2 / (q**2 + z**2)
    return float(t.mean()), float(t.std(ddof=1) / math.sqrt(n))


@dataclass(slots=True)
class SeriesExpectation:
    """Result of the ratio-moment series evaluation.

    Attributes
    ----------
    value : float
        Truncated-series value of E{q^2 / (q^2 + z^2)}.
    error : float
        Combined truncation + Monte Carlo error estimate (conservative,
        asymptotic-series convention: error of a truncated asymptotic
        series ~ first omitted term).
    upsilon : float
        The regularised E{z^2 / q^2} the outer series was built around.
    inner_terms, outer_terms : int
        Number of series terms kept in each stage.
    """

    value: float
    error: float
    upsilon: float
    inner_terms: int
    outer_terms: int


def _truncate_alternating(terms: Iterable[float]) -> tuple:
    """Partial sum of an asymptotic series truncated at the smallest term.

    Reads the terms one at a time and stops at the first one, after the
    first nonzero term, whose magnitude is not below its predecessor's;
    no later term is requested.  Leading zero terms are kept.  When no
    term is cut, the last term's magnitude stands in for the omitted one.

    Returns (sum_of_kept_terms, kept_count, first_omitted_magnitude).
    Raises SeriesDivergenceError when the leading terms never decrease.
    """
    kept: list = []
    start = None  # index of the first nonzero term
    for term in terms:
        mag = abs(term)
        if start is not None and mag >= prev:
            if len(kept) == start + 1:
                raise SeriesDivergenceError(
                    "ratio-moment series diverges from the first term on; "
                    "use diag_expectation_mc instead"
                )
            return float(np.sum(kept)), len(kept), float(mag)
        if start is None and mag != 0.0:
            start = len(kept)
        kept.append(term)
        prev = mag
    if start is None:
        return 0.0, len(kept), 0.0
    return float(np.sum(kept)), len(kept), float(prev)


def diag_expectation_series(
    mu_q: float,
    sigma_q: float,
    mu_z: float,
    sigma_z: float,
    truncation: int = 30,
    mc_budget: int = 200_000,
    rng: np.random.Generator | None = None,
) -> SeriesExpectation:
    """Asymptotic-series evaluation of E{q^2 / (q^2 + z^2)}.

    Stage 1 regularises E{z^2 / q^2} through the central-moment series of
    the squared Gaussians (exact noncentral chi-square moments); stage 2
    expands the target around it with doubly-noncentral-F central
    moments, which have no tractable closed form and are estimated by
    Monte Carlo.  Both stages are asymptotic: terms are kept only while
    they decrease, and the first omitted term enters the error estimate.
    Outer orders past that first omitted term are not evaluated.

    Requires sigma_z == sigma_q (the common scale the expansion assumes).

    Raises
    ------
    SeriesDivergenceError
        If a stage shows no decreasing leading terms.
    """
    if sigma_q <= 0.0:
        raise ValueError("sigma_q must be positive")
    if not math.isclose(sigma_q, sigma_z, rel_tol=1e-9, abs_tol=0.0):
        raise ValueError("the expansion assumes sigma_z == sigma_q")
    rng = np.random.default_rng() if rng is None else rng

    lam_q = (mu_q / sigma_q) ** 2
    lam_z = (mu_z / sigma_q) ** 2
    scale = 1.0 + lam_q  # E{q^2} at unit noise scale

    moments_q = ncx2_central_moments(lam_q, truncation)
    k = np.arange(1, truncation + 1)
    inner_terms = ((-1.0) ** k) * moments_q[1:] / scale**k
    inner_sum, inner_kept, inner_omitted = _truncate_alternating(inner_terms)
    upsilon = (1.0 + lam_z) / scale * (1.0 + inner_sum)
    upsilon_err = (1.0 + lam_z) / scale * inner_omitted

    # Outer stage: central moments of z^2/q^2 around upsilon, by MC.
    q = rng.normal(math.sqrt(lam_q), 1.0, size=mc_budget)
    z = rng.normal(math.copysign(math.sqrt(lam_z), mu_z), 1.0, size=mc_budget)
    f = z**2 / q**2
    denom = 1.0 + upsilon
    outer_se: list = []

    def outer_terms():
        # The first central moment is zero by construction of the
        # expansion point; only k >= 2 carries information.
        outer_se.append(0.0)
        yield 0.0
        for kk in range(2, truncation + 1):
            centred = (f - upsilon) ** kk
            outer_se.append(centred.std(ddof=1) / math.sqrt(mc_budget) / denom**kk)
            yield (-1.0) ** kk * centred.mean() / denom**kk

    # High orders of the heavy-tailed ratio overflow to inf; the
    # truncation rule and the error estimate absorb that, so the
    # overflow warning itself carries no information.
    with np.errstate(over="ignore"):
        outer_sum, outer_kept, outer_omitted = _truncate_alternating(outer_terms())

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


# ---------------------------------------------------------------------------
# Gershgorin ordering of element-wise information brackets
# ---------------------------------------------------------------------------


@dataclass(slots=True)
class FisherBounds:
    """Element-wise information brackets and their eigenvalue-ordered form.

    Attributes
    ----------
    j_lb_elem, j_ub_elem : np.ndarray
        Entry-wise lower / upper brackets of an information matrix.
    j_lb_g, j_ub_g : np.ndarray
        Adjusted matrices satisfying 0 <= j_lb_g <= j_ub_g in the
        positive-semidefinite order.
    epsilon : float
        Slack used in the diagonal adjustments.
    """

    j_lb_elem: np.ndarray
    j_ub_elem: np.ndarray
    j_lb_g: np.ndarray
    j_ub_g: np.ndarray
    epsilon: float


def gershgorin_sandwich(
    j_lb_elem: np.ndarray, j_ub_elem: np.ndarray, epsilon: float = 1e-6
) -> FisherBounds:
    """Turn entry-wise information brackets into a PSD-ordered pair.

    Upper matrix: any diagonal entry not exceeding its off-diagonal
    absolute row/column sum is raised to that sum plus epsilon, which
    makes the matrix diagonally dominant (hence PSD) without lowering any
    entry below the upper bracket.

    Lower matrix: negative diagonal entries are clamped to zero (a valid
    lower bracket for any PSD target), and rows that are not diagonally
    dominant get their off-diagonal entries deflated by a per-row factor
    c_i = diag_i / rowsum_i - epsilon (clamped to [0, 1]); entry (i, j)
    uses min(c_i, c_j) so symmetry survives.  The result is diagonally
    dominant with non-negative diagonal, hence PSD, and no entry moves
    away from zero.

    Finally the upper diagonal is raised where needed so the difference
    j_ub_g - j_lb_g is itself diagonally dominant, guaranteeing
    j_lb_g <= j_ub_g in the PSD order.

    Raises
    ------
    ValueError
        If the brackets are not square, not symmetric, or violate the
        entry-wise order.
    """
    lb = np.asarray(j_lb_elem, dtype=float)
    ub = np.asarray(j_ub_elem, dtype=float)
    if lb.shape != ub.shape or lb.ndim != 2 or lb.shape[0] != lb.shape[1]:
        raise ValueError("brackets must be square matrices of equal shape")
    if not np.allclose(lb, lb.T, atol=1e-9) or not np.allclose(ub, ub.T, atol=1e-9):
        raise ValueError("brackets must be symmetric")
    if np.any(lb > ub + 1e-12):
        raise ValueError("entry-wise order violated: lower bracket exceeds upper")
    lb = 0.5 * (lb + lb.T)
    ub = 0.5 * (ub + ub.T)
    n = lb.shape[0]
    off = ~np.eye(n, dtype=bool)

    # Upper matrix: inflate weak diagonals to dominance.
    ub_g = ub.copy()
    u_row = np.sum(np.abs(ub) * off, axis=1)
    u_col = np.sum(np.abs(ub) * off, axis=0)
    u = np.minimum(u_row, u_col)
    weak = np.diag(ub) <= u
    ub_g[np.diag_indices(n)] = np.where(weak, u + epsilon, np.diag(ub))

    # Lower matrix: clamp diagonal, deflate off-diagonals to dominance.
    lb_g = lb.copy()
    diag_l = np.maximum(np.diag(lb), 0.0)
    lb_g[np.diag_indices(n)] = diag_l
    l_row = np.sum(np.abs(lb_g) * off, axis=1)
    l_col = np.sum(np.abs(lb_g) * off, axis=0)
    l_max = np.maximum(l_row, l_col)
    with np.errstate(divide="ignore", invalid="ignore"):
        factor = np.where(l_max > 0.0, diag_l / np.where(l_max > 0.0, l_max, 1.0), 1.0)
    dominant = diag_l > np.minimum(l_row, l_col)
    factor = np.where(dominant, 1.0, np.clip(factor - epsilon, 0.0, 1.0))
    scale = np.minimum(factor[:, None], factor[None, :])
    lb_g[off] = (lb_g * scale)[off]

    # Order repair: make the gap diagonally dominant.
    diff = ub_g - lb_g
    deficit = np.maximum(0.0, np.sum(np.abs(diff) * off, axis=1) - np.diag(diff))
    ub_g[np.diag_indices(n)] += deficit

    return FisherBounds(
        j_lb_elem=lb, j_ub_elem=ub, j_lb_g=lb_g, j_ub_g=ub_g, epsilon=epsilon
    )


# ---------------------------------------------------------------------------
# bound drivers
# ---------------------------------------------------------------------------


def position_error_bound(j_mat: np.ndarray) -> float:
    """sqrt(trace of the position block of J^{-1}); inf if J is singular."""
    try:
        inv = np.linalg.inv(j_mat)
    except np.linalg.LinAlgError:
        return float("inf")
    trace = inv[0, 0] + inv[1, 1]
    return math.sqrt(trace) if trace >= 0.0 else float("inf")


def default_prior_information() -> np.ndarray:
    """Inverse of the loose initial covariance diag(1, 1, 0.25, (pi/4)^2)."""
    return np.linalg.inv(np.diag([1.0, 1.0, 0.25, (math.pi / 4.0) ** 2]))


def measurement_information(
    state: np.ndarray,
    anchors: AnchorSet,
    range_model: RangeNoiseModel,
    sensor_model: SensorNoiseModel,
) -> np.ndarray:
    """H^T R^{-1} H for the range + speed + heading measurement at a state."""
    diff = np.asarray(state[:2], dtype=float)[None, :] - anchors.positions
    r = np.maximum(np.linalg.norm(diff, axis=1), 1e-12)
    d = diff / r[:, None]
    w = 1.0 / range_variance(r, range_model)
    info = np.zeros((4, 4))
    info[:2, :2] = (d * w[:, None]).T @ d
    info[2, 2] = 1.0 / sensor_model.sigma_v**2
    info[3, 3] = 1.0 / sensor_model.sigma_phi**2
    return info


def parcrlb_trace(
    truth: list,
    anchors: AnchorSet,
    range_model: RangeNoiseModel,
    sensor_model: SensorNoiseModel,
    T: float,
    j0: np.ndarray | None = None,
) -> tuple:
    """Parametric bound along a known trajectory.

    Zero process noise makes the information recursion exact:
    J_k = F_{k-1}^{-T} J_{k-1} F_{k-1}^{-1} + H_k^T R_k^{-1} H_k, all
    terms evaluated at the true states.  The first step fuses the prior
    with the first measurement.

    Parameters
    ----------
    truth : list of TruthState
    T : float
        Step period entering the transition Jacobian.
    j0 : np.ndarray, optional
        Prior information; defaults to the loose filter prior.

    Returns
    -------
    (j_seq, bound) : (np.ndarray (N, 4, 4), np.ndarray (N,))
        Information matrices and sqrt position-trace error bounds.
    """
    from .filters import cv_transition_jacobian

    if j0 is None:
        j0 = default_prior_information()
    n = len(truth)
    j_seq = np.empty((n, 4, 4))
    bound = np.empty(n)

    def state_vec(s):
        return np.array([s.position[0], s.position[1], s.speed, s.heading])

    j = j0 + measurement_information(state_vec(truth[0]), anchors, range_model, sensor_model)
    j_seq[0] = j
    bound[0] = position_error_bound(j)
    eye = np.eye(4)
    for k in range(1, n):
        f_jac = cv_transition_jacobian(state_vec(truth[k - 1]), T)
        f_inv = np.linalg.solve(f_jac, eye)
        j = f_inv.T @ j @ f_inv + measurement_information(
            state_vec(truth[k]), anchors, range_model, sensor_model
        )
        j = 0.5 * (j + j.T)
        j_seq[k] = j
        bound[k] = position_error_bound(j)
    return j_seq, bound


@dataclass(slots=True)
class PcrlbResult:
    """Posterior-bound recursion output over a rollout horizon.

    Attributes
    ----------
    j : np.ndarray
        MC-information matrices, shape (N, 4, 4); index 0 is step k = 1.
    j_lb_g, j_ub_g : np.ndarray
        PSD-ordered bound matrices per step, same shape.
    bound, bound_lb, bound_ub : np.ndarray
        sqrt position-trace of the inverses: the nominal bound and its
        bracket (bound_lb comes from the *upper* information matrix).
    sandwich_ok : np.ndarray of bool
        Per step, whether j_lb_g <= j <= j_ub_g held in the PSD order
        (diagnostic; the construction only guarantees j_lb_g <= j_ub_g).
    """

    j: np.ndarray
    j_lb_g: np.ndarray
    j_ub_g: np.ndarray
    bound: np.ndarray
    bound_lb: np.ndarray
    bound_ub: np.ndarray
    sandwich_ok: np.ndarray


def _pi_elementwise_brackets(
    positions: np.ndarray, anchors: AnchorSet, range_model: RangeNoiseModel
) -> tuple:
    """Entry-wise brackets for Pi from per-anchor weight and ratio bounds.

    Weights (inverse range variances) are bracketed by their ensemble
    extremes; the squared-direction ratios by the deterministic moment
    bounds where the coordinate spread allows, otherwise by ensemble
    extremes of the ratio itself.
    """
    pos = np.atleast_2d(np.asarray(positions, dtype=float))
    lb = np.zeros((2, 2))
    ub = np.zeros((2, 2))
    off_lo, off_hi = offdiag_bounds()
    for anchor in anchors.positions:
        diff = pos - anchor[None, :]
        r = np.maximum(np.linalg.norm(diff, axis=1), 1e-12)
        w = 1.0 / range_variance(r, range_model)
        w_min, w_max = float(w.min()), float(w.max())
        ratios = (diff / r[:, None]) ** 2
        for axis in range(2):
            mu_q, sig_q = float(diff[:, axis].mean()), float(diff[:, axis].std())
            mu_z, sig_z = (
                float(diff[:, 1 - axis].mean()),
                float(diff[:, 1 - axis].std()),
            )
            if sig_q > 1e-9:
                ratio_lb, ratio_ub = diag_bounds(mu_q, sig_q, mu_z, sig_z)
            else:
                ratio_lb, ratio_ub = float(ratios[:, axis].min()), 1.0
            lb[axis, axis] += w_min * ratio_lb
            ub[axis, axis] += w_max * ratio_ub
        lb[0, 1] += w_max * off_lo
        ub[0, 1] += w_max * off_hi
    lb[1, 0] = lb[0, 1]
    ub[1, 0] = ub[0, 1]
    return lb, ub


def pcrlb_bounds(
    cv: CvProcessModel,
    anchors: AnchorSet,
    range_model: RangeNoiseModel,
    sensor_model: SensorNoiseModel,
    x0,
    v0: float,
    phi0: float,
    steps: int,
    n_ensemble: int = 1000,
    j0: np.ndarray | None = None,
    rng: np.random.Generator | None = None,
    epsilon: float = 1e-6,
    corrected_d11: bool = False,
) -> PcrlbResult:
    """Posterior bound and its bracket along CV-model rollouts.

    An ensemble of rollouts from the configured initial state supplies
    the measurement expectation Pi per step (MC estimate plus entry-wise
    brackets).  One information recursion runs on the MC estimate; the
    bracket matrices are obtained by swapping the bracketed Pi into the
    same step (so the entry-wise order is preserved exactly), then
    eigenvalue-ordered by `gershgorin_sandwich`.

    Raises
    ------
    ValueError
        If `n_ensemble` is less than 1.
    """
    if n_ensemble < 1:
        raise ValueError(f"n_ensemble must be at least 1, got {n_ensemble}")
    rng = np.random.default_rng() if rng is None else rng
    if j0 is None:
        j0 = default_prior_information()
    x0 = np.asarray(x0, dtype=float)
    ensemble = np.tile(np.array([x0[0], x0[1], v0, phi0]), (n_ensemble, 1))
    sig = np.sqrt(np.array([cv.sigma1_sq, cv.sigma2_sq, cv.sigma3_sq, cv.sigma4_sq]))

    j_seq = np.empty((steps, 4, 4))
    lb_seq = np.empty((steps, 4, 4))
    ub_seq = np.empty((steps, 4, 4))
    bound = np.empty(steps)
    bound_lb = np.empty(steps)
    bound_ub = np.empty(steps)
    sandwich_ok = np.empty(steps, dtype=bool)

    # Step k = 1: deterministic initial state, prior + first measurement.
    pi_hat, _ = pi_expectation_mc(ensemble[:1, :2], anchors, range_model)
    pi_lb, pi_ub = _pi_elementwise_brackets(ensemble[:1, :2], anchors, range_model)
    meas = np.zeros((4, 4))
    meas[2, 2] = 1.0 / sensor_model.sigma_v**2
    meas[3, 3] = 1.0 / sensor_model.sigma_phi**2
    j = j0 + meas
    j[:2, :2] += pi_hat
    j_lb_elem = j0 + meas
    j_lb_elem[:2, :2] += pi_lb
    j_ub_elem = j0 + meas
    j_ub_elem[:2, :2] += pi_ub

    def _store(i, j_mat, lb_elem, ub_elem):
        fb = gershgorin_sandwich(lb_elem, ub_elem, epsilon)
        j_seq[i] = j_mat
        lb_seq[i] = fb.j_lb_g
        ub_seq[i] = fb.j_ub_g
        bound[i] = position_error_bound(j_mat)
        bound_lb[i] = position_error_bound(fb.j_ub_g)
        bound_ub[i] = position_error_bound(fb.j_lb_g)
        lo_gap = np.linalg.eigvalsh(j_mat - fb.j_lb_g).min()
        hi_gap = np.linalg.eigvalsh(fb.j_ub_g - j_mat).min()
        sandwich_ok[i] = bool(lo_gap >= -1e-9 and hi_gap >= -1e-9)

    _store(0, j, j_lb_elem, j_ub_elem)

    for i in range(1, steps):
        k = i  # source step index (1-based) of the transition
        tm = trig_moments(v0, phi0, cv.sigma3_sq, cv.sigma4_sq, k)
        d11_mat = d11(tm, cv, corrected=corrected_d11)
        d12_mat = d12(tm, cv)
        # roll the ensemble to step k + 1
        c, s = np.cos(ensemble[:, 3]), np.sin(ensemble[:, 3])
        ensemble[:, 0] += cv.T * ensemble[:, 2] * c
        ensemble[:, 1] += cv.T * ensemble[:, 2] * s
        ensemble += rng.normal(0.0, 1.0, size=ensemble.shape) * sig[None, :]
        pi_hat, _ = pi_expectation_mc(ensemble[:, :2], anchors, range_model)
        pi_lb, pi_ub = _pi_elementwise_brackets(ensemble[:, :2], anchors, range_model)
        d22_mc = d22(pi_hat, cv, sensor_model)
        d22_lb = d22(pi_lb, cv, sensor_model)
        d22_ub = d22(pi_ub, cv, sensor_model)
        correction = d12_mat.T @ np.linalg.solve(j + d11_mat, d12_mat)
        j = 0.5 * ((d22_mc - correction) + (d22_mc - correction).T)
        j_lb_elem = d22_lb - correction
        j_ub_elem = d22_ub - correction
        j_lb_elem = 0.5 * (j_lb_elem + j_lb_elem.T)
        j_ub_elem = 0.5 * (j_ub_elem + j_ub_elem.T)
        _store(i, j, j_lb_elem, j_ub_elem)

    return PcrlbResult(
        j=j_seq,
        j_lb_g=lb_seq,
        j_ub_g=ub_seq,
        bound=bound,
        bound_lb=bound_lb,
        bound_ub=bound_ub,
        sandwich_ok=sandwich_ok,
    )
