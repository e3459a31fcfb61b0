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
  bearing/weight expectation (Pi) that is estimated by Monte Carlo over
  the rollout ensemble and bracketed in the PSD order on the same
  ensemble (`pi_bracket`); the recursions on the bracket's two ends
  bracket the bound.

Also here: deterministic moment bounds and an asymptotic series for the
ratio E{q^2 / (q^2 + z^2)} of squared Gaussians, and a Gershgorin-style
repair that turns entry-wise information brackets into a PSD-ordered
pair; the oracle suite checks both.

The bound functions take the experiment's `Scene` first, as the
estimator kernels do, and read its anchors, noise models, CV model
(`scene.cv`, `scene.cv_noise`) and step period `scene.T` there.

Convention: gradients are stored as Jacobians F_ij = d f_i / d p_j; the
information recursions below are written for that convention.
"""

from __future__ import annotations

import functools
import math
import numbers
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .deadreckoning import HeadingMoments
from .models import (
    CV_PRIOR_VARIANCES,
    CvProcessModel,
    SensorNoiseModel,
    anchor_directions,
    cv_rollout,
    cv_transition_jacobian,
    range_variance,
    symmetrize,
)

if TYPE_CHECKING:
    from .simulate import Scene

# ---------------------------------------------------------------------------
# trig moments of the CV heading / speed random walks
# ---------------------------------------------------------------------------


@dataclass(slots=True)
class TrigMoments(HeadingMoments):
    """Exact moments of V_k ~ N(V0, (k-1) s3) and phi_k ~ N(phi0, (k-1) s4):
    the heading moments at var = (k-1) s4, and E{V_k} (`e_v`) and E{V_k^2}
    (`e_v_sq`)."""

    e_v: float
    e_v_sq: float

    @property
    def second_attenuation(self) -> float:
        """exp(-var / 2)^4, which `d11` reads: exp(-2 var) within the last bit,
        and that bit decides which steps of an ill-conditioned bound
        (`paretoloc crlb --T 1e100`) come out finite."""
        return self.attenuation**4


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
    return TrigMoments(phi0, (k - 1) * sigma4_sq, e_v=v0, e_v_sq=(k - 1) * sigma3_sq + v0**2)


# ---------------------------------------------------------------------------
# posterior-bound blocks
# ---------------------------------------------------------------------------


def _weighted_mean_jacobian(scene: Scene, tm: TrigMoments) -> np.ndarray:
    """E{F}^T Q^{-1} for the CV transition, shape (4, 4): Q^{-1} on the
    diagonal and the averaged speed/heading entries of F below it."""
    cv, t, v0, eps = scene.cv, scene.T, tm.e_v, tm.attenuation
    c0, s0 = np.cos(tm.phi0), np.sin(tm.phi0)
    i1, i2 = 1.0 / cv.sigma1_sq, 1.0 / cv.sigma2_sq
    out = np.diag([i1, i2, 1.0 / cv.sigma3_sq, 1.0 / cv.sigma4_sq])
    # E{cos phi} = c0 eps and E{sin phi} = s0 eps, each factor multiplied in
    # left to right: the order fixes the last bit of the bounds
    out[2, 0] = t * c0 * eps * i1
    out[2, 1] = t * s0 * eps * i2
    out[3, 0] = -t * v0 * s0 * eps * i1
    out[3, 1] = t * v0 * c0 * eps * i2
    return out


def d11(scene: Scene, tm: TrigMoments) -> np.ndarray:
    """Closed-form E{F^T Q^{-1} F} for the CV transition, shape (4, 4).

    Outside the speed/heading block it equals E{F}^T Q^{-1}, mirrored.
    The (4, 4) entry's speed-power prefactor is (k-1) sigma3_sq in the
    reference form reproduced here; the full second moment also carries
    V0^2 (E{V^2} = (k-1) sigma3_sq + V0^2), which the oracle suite
    measures as the gap to Monte Carlo.
    """
    # a numpy scalar: t**2 overflows to inf, where a Python float raises
    t, v0 = np.float64(scene.T), tm.e_v
    i1, i2 = 1.0 / scene.cv.sigma1_sq, 1.0 / scene.cv.sigma2_sq
    out = _weighted_mean_jacobian(scene, tm)
    out[:2, 2:] = out[2:, :2].T
    out[2, 2] += t**2 * (tm.e_cos_sq * i1 + tm.e_sin_sq * i2)
    out[2, 3] = out[3, 2] = t**2 * v0 * tm.e_sin_cos * (i2 - i1)
    out[3, 3] += t**2 * (tm.e_v_sq - v0**2) * (tm.e_sin_sq * i1 + tm.e_cos_sq * i2)
    return out


def d12(scene: Scene, tm: TrigMoments) -> np.ndarray:
    """Closed-form -E{F}^T Q^{-1} for the CV transition, shape (4, 4)."""
    return -_weighted_mean_jacobian(scene, tm)


def _pi_entries(u: np.ndarray, w: np.ndarray) -> tuple:
    """Entries (e11, e12, e22), each (N,), of sum_m w_m u_m u_m^T per sample,
    for unit vectors u (N, M, 2) and weights w (N, M) or (1, M)."""
    e11 = np.sum(w * u[..., 0] ** 2, axis=1)
    e12 = np.sum(w * u[..., 0] * u[..., 1], axis=1)
    e22 = np.sum(w * u[..., 1] ** 2, axis=1)
    return e11, e12, e22


def _pi_mean(u: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The ensemble mean of sum_m w_m u_m u_m^T, (2, 2)."""
    e11, e12, e22 = _pi_entries(u, w)
    return np.array([[e11.mean(), e12.mean()], [e12.mean(), e22.mean()]])


def pi_bracket(scene: Scene, positions) -> np.ndarray:
    """Pi_MC and a bracket L <= Pi_MC <= U in the PSD order, stacked (3, 2, 2).

    Pi = E{ sum_m sigma_rm^{-2} u_m u_m^T } is the range-measurement
    position information over an ensemble of positions (N, 2), and Pi_MC
    its ensemble mean.  With u_m the unit vectors of anchor m over the
    ensemble, u_bar_m their mean and w_min,m, w_max,m the ensemble
    extremes of its weight,

        L = sum_m w_min,m u_bar_m u_bar_m^T,   U = sum_m w_max,m E{u_m u_m^T}.

    Both orders hold on the ensemble itself: E{w u u^T} >= w_min E{u u^T}
    >= w_min u_bar u_bar^T and E{w u u^T} <= w_max E{u u^T}.  L and U take
    Pi_MC's arithmetic with the mean direction or the extreme weights put
    in, so on a one-point ensemble all three are the same bits.
    """
    r, u = anchor_directions(positions, scene.anchors)
    w = 1.0 / range_variance(r, scene.range_model)
    return np.stack([
        _pi_mean(u, w),
        _pi_mean(u.mean(axis=0, keepdims=True), w.min(axis=0, keepdims=True)),
        _pi_mean(u, w.max(axis=0, keepdims=True)),
    ])


def _measurement_block(pi_mat: np.ndarray, sensor_model: SensorNoiseModel) -> np.ndarray:
    """Measurement information blkdiag(Pi, R2^{-1}), shape (4, 4), or one
    per Pi of a stack (..., 2, 2): the range part Pi on the position block,
    the speed and heading sensors on the diagonal."""
    out = np.zeros(np.shape(pi_mat)[:-2] + (4, 4))
    out[..., :2, :2] = pi_mat
    out[..., 2, 2] = 1.0 / sensor_model.sigma_v**2
    out[..., 3, 3] = 1.0 / sensor_model.sigma_phi**2
    return out


def d22(scene: Scene, pi_mat: np.ndarray) -> np.ndarray:
    """Measurement-side information block Q^{-1} + blkdiag(Pi, R2^{-1}),
    (4, 4), or one per Pi of a stack (..., 2, 2)."""
    return np.linalg.inv(scene.cv_noise) + _measurement_block(pi_mat, scene.sensor_model)


def pcrlb_recursion(
    j_prev: np.ndarray, d11_mat: np.ndarray, d12_mat: np.ndarray, d22_mat: np.ndarray
) -> np.ndarray:
    """One posterior-information step: D22 - D21 (J + D11)^{-1} D12.

    With D12 = 0 the result is exactly D22 (prior information cannot leak
    into the next step without transition coupling).  A stack of J or of
    D22 (..., 4, 4) gives one step per member.
    """
    return symmetrize(d22_mat - d12_mat.T @ np.linalg.solve(j_prev + d11_mat, d12_mat))


# ---------------------------------------------------------------------------
# moments and bounds for ratios of squared Gaussians
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


# Terms of the Poisson mixture of `expected_log_ncx2`: at lam <= 300 its
# sum reaches at most n = int(150 + 12 sqrt(150) + 25) = 321.
_MIXTURE_TERMS = 322


@functools.cache
def _mixture_tables() -> tuple:
    """The tables ln n! (`math.lgamma`) and psi(n + 1/2) for n = 0 ..
    `_MIXTURE_TERMS` - 1.  psi(n + 1/2) = -gamma - 2 ln 2 +
    sum_{k=1..n} 2 / (2k - 1) is summed exactly (`math.fsum`), so no entry
    carries the rounding of the terms before it."""
    terms = [-np.euler_gamma, -2.0 * math.log(2.0)]
    terms += [2.0 / (2 * k - 1) for k in range(1, _MIXTURE_TERMS)]
    ln_factorial = np.array([math.lgamma(n + 1.0) for n in range(_MIXTURE_TERMS)])
    digamma_half = np.array([math.fsum(terms[: n + 2]) for n in range(_MIXTURE_TERMS)])
    return ln_factorial, digamma_half


def expected_log_ncx2(lam: float) -> float:
    """E{ln X} for X ~ noncentral chi-square, 1 dof, noncentrality lam.

    Up to lam = 300, the Poisson-mixture representation: ln 2 +
    E_N{psi(1/2 + N)} with N ~ Poisson(lam / 2), summed far into the
    Poisson tail, with ln n! and psi(n + 1/2) read from exact tables
    (`_mixture_tables`).  Above, where that sum has about 24 sqrt(lam / 2)
    terms and loses digits, the asymptotic expansion of
    E{ln (sqrt(lam) + Z)^2} with Z standard normal,
    ln lam - sum_{k=1..6} (2k-1)!! / (k lam^k), whose first omitted term
    is below 1e-13 there.  Both are exact to about double precision.
    """
    if lam < 0.0:
        raise ValueError("noncentrality must be non-negative")
    if lam > 300.0:
        return math.log(lam) - sum(math.prod(range(1, 2 * k, 2)) / (k * lam**k) for k in range(1, 7))
    half = 0.5 * lam
    width = 12.0 * math.sqrt(half) + 25.0
    lo = max(0, int(half - width))
    hi = int(half + width)
    ln_factorial, digamma_half = _mixture_tables()
    if half == 0.0:
        return float(digamma_half[0]) + math.log(2.0)
    # the Poisson(half) pmf at n = lo..hi
    pmf = np.exp(np.arange(lo, hi + 1) * math.log(half) - ln_factorial[lo : hi + 1] - half)
    return float(np.sum(pmf * digamma_half[lo : hi + 1]) + math.log(2.0))


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


def _mean_se(x: np.ndarray, axis: int | None = None) -> tuple:
    """Mean along `axis` and its standard error, bit for bit `x.mean(axis)` and
    `x.std(axis, ddof=1) / sqrt(n)`; the std reuses the mean, one sum pass fewer."""
    mean = x.mean(axis, keepdims=True)
    se = x.std(axis, ddof=1, mean=mean) / math.sqrt(x.size // mean.size)
    return mean.squeeze(axis)[()], se


def _fill_normal(rng: np.random.Generator, out: np.ndarray, loc, scale) -> np.ndarray:
    """`out` filled with the stream and bits of `rng.normal(loc, scale,
    out.shape)`, which numpy forms as loc + scale z one element at a time:
    here the standard normals are drawn in one fill, then scaled and
    shifted in place."""
    rng.standard_normal(out=out)
    out *= scale
    out += loc
    return out


def _normal(rng: np.random.Generator, loc, scale, size) -> np.ndarray:
    """The stream and bits of `rng.normal(loc, scale, size)`."""
    return _fill_normal(rng, np.empty(size), loc, scale)


def diag_expectation_mc(q: np.ndarray, z: np.ndarray) -> tuple:
    """Monte Carlo E{q^2 / (q^2 + z^2)} with standard error, over samples q
    and z of the two normals, which it overwrites."""
    q *= q
    z *= z
    z += q
    q /= z
    return tuple(float(v) for v in _mean_se(q))


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
    term is cut, the last term's magnitude stands in for the omitted one;
    when no term read is nonzero, nothing bounds the omitted part, and
    its magnitude is inf.

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
        return 0.0, len(kept), math.inf
    return float(np.sum(kept)), len(kept), float(prev)


def _running_powers(x: np.ndarray, last: int) -> Iterator[np.ndarray]:
    """x^2, x^3, ..., x^last as a running product in one array, which each
    order overwrites: one multiply per element and order, where numpy's
    general pow costs about fifty."""
    power = x.copy()
    for _ in range(2, last + 1):
        power *= x
        yield power


def diag_expectation_series(
    mu_q: float,
    sigma_q: float,
    mu_z: float,
    sigma_z: float,
    truncation: int = 30,
    mc_budget: int = 200_000,
    *,
    rng: np.random.Generator,
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
    q = _normal(rng, math.sqrt(lam_q), 1.0, mc_budget)
    z = _normal(rng, math.copysign(math.sqrt(lam_z), mu_z), 1.0, mc_budget)
    f_gap = z**2 / q**2 - upsilon
    denom = 1.0 + upsilon
    outer_se: list = []

    def outer_terms():
        # The first central moment is zero by construction of the
        # expansion point; only k >= 2 carries information.
        outer_se.append(0.0)
        yield 0.0
        for kk, power in enumerate(_running_powers(f_gap, truncation), start=2):
            mean, se = _mean_se(power)
            outer_se.append(se / denom**kk)
            yield (-1.0) ** kk * mean / denom**kk

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


# Slack of the diagonal adjustments in `gershgorin_sandwich`.
_GERSHGORIN_SLACK = 1e-6


def gershgorin_sandwich(j_lb_elem: np.ndarray, j_ub_elem: np.ndarray) -> tuple:
    """Turn entry-wise information brackets into a PSD-ordered pair
    (j_lb_g, j_ub_g), 0 <= j_lb_g <= j_ub_g: of one pair of (n, n)
    matrices, or of each pair of two stacks (..., n, n).

    Upper matrix: any diagonal entry not exceeding its off-diagonal
    absolute row/column sum is raised to that sum plus a slack epsilon
    (1e-6), which makes the matrix diagonally dominant (hence PSD)
    without lowering any entry below the upper bracket.

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
        entry-wise order (any member of a stack).
    """
    lb = np.asarray(j_lb_elem, dtype=float)
    ub = np.asarray(j_ub_elem, dtype=float)
    if lb.shape != ub.shape or lb.ndim < 2 or lb.shape[-1] != lb.shape[-2]:
        raise ValueError("brackets must be square matrices of equal shape")
    if not np.allclose(lb, lb.mT, atol=1e-9) or not np.allclose(ub, ub.mT, atol=1e-9):
        raise ValueError("brackets must be symmetric")
    if np.any(lb > ub + 1e-12):
        raise ValueError("entry-wise order violated: lower bracket exceeds upper")
    lb, ub = symmetrize(lb), symmetrize(ub)
    n = lb.shape[-1]
    off = ~np.eye(n, dtype=bool)
    diag = (..., np.arange(n), np.arange(n))

    # Upper matrix: inflate weak diagonals to dominance.
    ub_g = ub.copy()
    u_off = np.abs(ub) * off
    u = np.minimum(u_off.sum(axis=-1), u_off.sum(axis=-2))
    weak = ub[diag] <= u
    ub_g[diag] = np.where(weak, u + _GERSHGORIN_SLACK, ub[diag])

    # Lower matrix: clamp diagonal, deflate off-diagonals to dominance.
    lb_g = lb.copy()
    diag_l = np.maximum(lb[diag], 0.0)
    lb_g[diag] = diag_l
    l_off = np.abs(lb_g) * off
    l_row, l_col = l_off.sum(axis=-1), l_off.sum(axis=-2)
    l_max = np.maximum(l_row, l_col)
    with np.errstate(divide="ignore", invalid="ignore"):
        factor = np.where(l_max > 0.0, diag_l / np.where(l_max > 0.0, l_max, 1.0), 1.0)
    dominant = diag_l > np.minimum(l_row, l_col)
    factor = np.where(dominant, 1.0, np.clip(factor - _GERSHGORIN_SLACK, 0.0, 1.0))
    scale = np.minimum(factor[..., :, None], factor[..., None, :])
    lb_g = np.where(off, lb_g * scale, lb_g)

    # Order repair: make the gap diagonally dominant.
    diff = ub_g - lb_g
    deficit = np.maximum(0.0, np.sum(np.abs(diff) * off, axis=-1) - diff[diag])
    ub_g[diag] += deficit

    return lb_g, ub_g


# ---------------------------------------------------------------------------
# bound drivers
# ---------------------------------------------------------------------------


def position_error_bound(j_mat: np.ndarray):
    """sqrt(trace of the position block of J^{-1}): a float for one matrix
    (n, n), an array for a stack (..., n, n); inf where J is singular or
    the trace is negative or NaN."""
    j_mat = np.asarray(j_mat, dtype=float)
    try:
        inv = np.linalg.inv(j_mat)
    except np.linalg.LinAlgError:
        if j_mat.ndim == 2:
            return float("inf")
        # inv raises for the whole stack; one member at a time, only the
        # singular members read inf
        flat = j_mat.reshape(-1, *j_mat.shape[-2:])
        return np.array([position_error_bound(m) for m in flat]).reshape(j_mat.shape[:-2])
    trace = inv[..., 0, 0] + inv[..., 1, 1]
    out = np.sqrt(np.where(trace >= 0.0, trace, np.inf))
    return float(out) if out.ndim == 0 else out


def default_prior_information() -> np.ndarray:
    """Inverse of the EKF-CV filter's loose initial covariance,
    diag(CV_PRIOR_VARIANCES)."""
    return np.linalg.inv(np.diag(CV_PRIOR_VARIANCES))


def require_invertible_noise(
    sensor_model: SensorNoiseModel, cv: CvProcessModel | None = None
) -> None:
    """Raise ValueError naming the first noise setting that the bounds
    invert and that is not positive: sigma_v and sigma_phi, and with `cv`
    its four process-noise variances."""
    settings = [(sensor_model, ("sigma_v", "sigma_phi"))]
    if cv is not None:
        settings.append((cv, ("sigma1_sq", "sigma2_sq", "sigma3_sq", "sigma4_sq")))
    for model, names in settings:
        for name in names:
            value = getattr(model, name)
            if not value > 0.0:
                raise ValueError(f"the bounds invert {name}, so it must be positive, got {value}")


def measurement_information(scene: Scene, state: np.ndarray) -> np.ndarray:
    """H^T R^{-1} H for the range + speed + heading measurement at a state
    (4,), or at each state of a stack (..., 4): the measurement block with
    Pi taken at the state's position alone."""
    state = np.asarray(state, dtype=float)
    r, u = anchor_directions(state[..., :2].reshape(-1, 2), scene.anchors)
    e11, e12, e22 = _pi_entries(u, 1.0 / range_variance(r, scene.range_model))
    pi_mat = np.stack([e11, e12, e12, e22], axis=-1).reshape(state.shape[:-1] + (2, 2))
    return _measurement_block(pi_mat, scene.sensor_model)


def parcrlb_trace(scene: Scene, truth: tuple) -> tuple:
    """Parametric bound along a known trajectory.

    Zero process noise makes the information recursion exact:
    J_k = F_{k-1}^{-T} J_{k-1} F_{k-1}^{-1} + H_k^T R_k^{-1} H_k, all
    terms evaluated at the true states, with F the transition Jacobian
    at the scene's step period `scene.T`.  The first step fuses the loose
    filter prior (`default_prior_information`) with the first measurement.

    Parameters
    ----------
    truth : tuple
        (positions (N, 2), speed (N,), heading (N,)) of the true states,
        as `gen_trajectory` returns them.

    Returns
    -------
    (j_seq, bound) : (np.ndarray (N, 4, 4), np.ndarray (N,))
        Information matrices and sqrt position-trace error bounds.

    Raises
    ------
    ValueError
        If sigma_v or sigma_phi is zero (`require_invertible_noise`).
    """
    require_invertible_noise(scene.sensor_model)
    positions, speed, heading = truth
    states = np.column_stack([positions, speed, heading])
    info = measurement_information(scene, states)
    f_inv = np.linalg.inv(cv_transition_jacobian(states[:-1], scene.T))
    j_seq = np.empty((len(states), 4, 4))
    j_seq[0] = default_prior_information() + info[0]
    for k in range(1, len(states)):
        j_seq[k] = symmetrize(f_inv[k - 1].T @ j_seq[k - 1] @ f_inv[k - 1] + info[k])
    return j_seq, position_error_bound(j_seq)


@dataclass(slots=True)
class PcrlbResult:
    """Posterior-bound recursion output over a rollout horizon.

    Attributes
    ----------
    j : np.ndarray
        MC-information matrices, shape (N, 4, 4); index 0 is step k = 1.
    j_lb, j_ub : np.ndarray
        Information matrices of the recursions on the lower and upper Pi
        bracket (`pi_bracket`), same shape.
    bound, bound_lb, bound_ub : np.ndarray
        sqrt position-trace of the inverses: the nominal bound and its
        bracket (bound_lb comes from the *upper* information matrix).
    sandwich_ok : np.ndarray of bool
        Per step, whether j_lb <= j <= j_ub held in the PSD order, with
        eigenvalue slack 1e-9.
    """

    j: np.ndarray
    j_lb: np.ndarray
    j_ub: np.ndarray
    bound: np.ndarray
    bound_lb: np.ndarray
    bound_ub: np.ndarray
    sandwich_ok: np.ndarray


def pcrlb_bounds(
    scene: Scene,
    x0,
    v0: float,
    phi0: float,
    steps: int,
    n_ensemble: int,
    *,
    rng: np.random.Generator,
) -> PcrlbResult:
    """Posterior bound and its bracket along rollouts of the scene's CV
    model `scene.cv` at its step period `scene.T`.

    An ensemble of rollouts from the configured initial state supplies,
    per step, the MC estimate of Pi and its PSD-ordered bracket L <= Pi <= U
    (`pi_bracket`).  The first step is the one `parcrlb_trace` starts
    from, the filter prior plus `measurement_information` at the
    deterministic initial state, in all three members; every later step
    is one `pcrlb_recursion` step on the stack of the three information
    matrices, each from its own previous member.  The map
    J -> D22 - D21 (J + D11)^{-1} D12 is monotone where J + D11 is
    positive definite, so there the recursions keep j_lb <= j <= j_ub and
    the position bounds ordered; the bounds and the sandwich test are
    taken once, on the stacks.

    The (4, 4) entry of `d11` omits V0^2 (see its docstring), and that can
    make J + D11 indefinite: on the default CV run (seed 0) `j` is
    indefinite at indices 1-110, `sandwich_ok` fails at index 110, and the
    position bracket still holds at all 200 steps.  Where the information
    overflows (a huge T), the bounds read inf or NaN and nothing raises.

    Raises
    ------
    ValueError
        If `steps` or `n_ensemble` is not an integer of at least 1, or a
        noise setting the bound inverts is zero (`require_invertible_noise`).
    """
    for name, value in (("steps", steps), ("n_ensemble", n_ensemble)):
        if not isinstance(value, numbers.Integral) or value < 1:
            raise ValueError(f"{name} must be an integer of at least 1, got {value!r}")
    cv = scene.cv
    require_invertible_noise(scene.sensor_model, cv)
    x0 = np.asarray(x0, dtype=float)
    rollout = cv_rollout(cv, scene.T, [x0[0], x0[1], v0, phi0], steps, rng, n_ensemble)
    # (MC, lower, upper) information per step
    info = np.empty((3, steps, 4, 4))
    info[:, 0] = default_prior_information() + measurement_information(scene, rollout[0, 0])
    for i in range(1, steps):
        tm = trig_moments(v0, phi0, cv.sigma3_sq, cv.sigma4_sq, i)
        d22_mat = d22(scene, pi_bracket(scene, rollout[i, :, :2]))
        info[:, i] = pcrlb_recursion(info[:, i - 1], d11(scene, tm), d12(scene, tm), d22_mat)

    j, j_lb, j_ub = info
    gaps = np.stack([j - j_lb, j_ub - j])
    finite = np.isfinite(gaps).all(axis=(0, 2, 3))  # eigvalsh raises on inf or NaN
    eigs = np.linalg.eigvalsh(np.where(finite[:, None, None], gaps, 0.0))
    return PcrlbResult(
        j=j,
        j_lb=j_lb,
        j_ub=j_ub,
        bound=position_error_bound(j),
        bound_lb=position_error_bound(j_ub),
        bound_ub=position_error_bound(j_lb),
        sandwich_ok=finite & np.all(eigs >= -1e-9, axis=(0, 2)),
    )
