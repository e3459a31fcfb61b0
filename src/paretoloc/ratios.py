"""Moments and bounds for the ratio E{q^2 / (q^2 + z^2)} of squared Gaussians.

The paper's posterior-bound lemmas for the diagonal of the measurement
information: exact central moments and E{ln X} of a noncentral
chi-square with one degree of freedom, the double-Jensen bracket of the
ratio built on them (`diag_bounds`), its Monte Carlo estimate
(`diag_expectation_mc`) and an asymptotic-series evaluation
(`diag_expectation_series`).  The oracle suite (`validate`) checks them
against sampling; no bound or estimator reads them.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import numpy as np


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


# Orders of both series stages, and the samples of the outer stage's
# Monte Carlo moments.
SERIES_TRUNCATION = 30
SERIES_MC_BUDGET = 200_000


def diag_expectation_series(
    mu_q: float, sigma_q: float, mu_z: float, sigma_z: float, *, rng: np.random.Generator
) -> SeriesExpectation:
    """Asymptotic-series evaluation of E{q^2 / (q^2 + z^2)}.

    Stage 1 regularises E{z^2 / q^2} through the central-moment series of
    the squared Gaussians (exact noncentral chi-square moments); stage 2
    expands the target around it with doubly-noncentral-F central
    moments, which have no tractable closed form and are estimated by
    Monte Carlo.  Both stages are asymptotic: terms are kept only while
    they decrease, and the first omitted term enters the error estimate.
    Outer orders past that first omitted term are not evaluated.  Each
    stage has `SERIES_TRUNCATION` terms at most, and the outer moments
    are taken over `SERIES_MC_BUDGET` samples of each normal.

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

    moments_q = ncx2_central_moments(lam_q, SERIES_TRUNCATION)
    k = np.arange(1, SERIES_TRUNCATION + 1)
    inner_terms = ((-1.0) ** k) * moments_q[1:] / scale**k
    inner_sum, inner_kept, inner_omitted = _truncate_alternating(inner_terms)
    upsilon = (1.0 + lam_z) / scale * (1.0 + inner_sum)
    upsilon_err = (1.0 + lam_z) / scale * inner_omitted

    # Outer stage: central moments of z^2/q^2 around upsilon, by MC.
    q = _normal(rng, math.sqrt(lam_q), 1.0, SERIES_MC_BUDGET)
    z = _normal(rng, math.copysign(math.sqrt(lam_z), mu_z), 1.0, SERIES_MC_BUDGET)
    f_gap = z**2 / q**2 - upsilon
    denom = 1.0 + upsilon
    outer_se: list = []

    def outer_terms():
        # The first central moment is zero by construction of the
        # expansion point; only k >= 2 carries information.
        outer_se.append(0.0)
        yield 0.0
        for kk, power in enumerate(_running_powers(f_gap, SERIES_TRUNCATION), start=2):
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
