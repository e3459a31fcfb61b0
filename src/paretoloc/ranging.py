"""Weighted least-squares trilateration from differenced squared ranges.

Squaring the range equations and subtracting the last anchor's equation
linearises the problem: with s_l the l-th anchor and x the unknown
position,

    2 (s_l - s_M)^T x = a_l - (r_l^2 - r_M^2),      l = 1..M-1,
    a_l = ||s_l||^2 - ||s_M||^2.

The noise entering the right-hand side is a quadratic function of the
raw range noise, so it is biased and correlated across rows; the helpers
here provide its exact inverse covariance (rank-one update in closed
form), and `ranging_layer` gives the fix together with the induced
estimator bias and error covariance from one solve.  All second-order
quantities assume independent zero-mean Gaussian range noise with
per-anchor variances.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .models import AnchorSet, _constant, _identity

_ZERO, _ONE, _TWO, _FOUR = map(_constant, (0.0, 1.0, 2.0, 4.0))


@dataclass(slots=True)
class RangingGeometry:
    """Linearised trilateration geometry for a fixed anchor set.

    Attributes
    ----------
    design_matrix : np.ndarray
        A, shape (M-1, 2), rows 2 * (s_l - s_M).
    offset_vector : np.ndarray
        a, shape (M-1,), entries ||s_l||^2 - ||s_M||^2.
    """

    design_matrix: np.ndarray
    offset_vector: np.ndarray


def build_geometry(anchors: AnchorSet) -> RangingGeometry:
    """Design matrix and offset vector for an anchor set.

    The last anchor is the differencing reference.  `AnchorSet` refuses
    collinear anchors, so the design matrix has full column rank.
    """
    s = anchors.positions
    a_mat = 2.0 * (s[:-1] - s[-1])
    offset = np.sum(s[:-1] ** 2, axis=1) - np.sum(s[-1] ** 2)
    return RangingGeometry(design_matrix=a_mat, offset_vector=offset)


def noise_cov_inverse(ranges, variances) -> np.ndarray:
    """Inverse covariance of the differenced squared-range noise.

    The noise vector has entries
    w_l = w_M^2 + 2 r_M w_M - w_l^2 - 2 r_l w_l with w_i ~ N(0, sigma_i^2),
    so its covariance is D + p 11^T where D_ll = 4 r_l^2 sigma_l^2
    + 2 sigma_l^4 and p = 4 r_M^2 sigma_M^2 + 2 sigma_M^4.  The rank-one
    structure inverts in closed form:

        (D + p 11^T)^{-1} = (I - G 11^T / (1 + q)) D^{-1},
        G = p D^{-1},  q = sum_l p / D_ll,

    which is built entry by entry, W_lj = (delta_lj - G_l / (1 + q)) / D_jj.

    Parameters
    ----------
    ranges : array_like
        Ranges (M,) the weights are evaluated at (true ranges in analysis,
        estimated ranges online), or a stack (..., M) of such vectors.
    variances : array_like
        Per-anchor range-noise variances, same shape as `ranges`.

    Returns
    -------
    np.ndarray
        W = R^{-1}, shape (M-1, M-1), or (..., M-1, M-1) for a stack.
    """
    r = np.asarray(ranges, dtype=float)
    var = np.asarray(variances, dtype=float)
    if r.shape != var.shape or r.ndim < 1:
        raise ValueError("ranges and variances must be vectors of equal shape")
    if np.count_nonzero(var <= _ZERO):
        raise ValueError("variances must be positive")
    # D_ll for l < M, and p in the last slot; temporaries formed in place
    d = r**2
    d *= _FOUR
    d *= var
    d += _TWO * var**2
    d_inv = _ONE / d[..., :-1]
    g = d[..., -1:] * d_inv
    g /= _ONE + np.add.reduce(g, axis=-1, keepdims=True)  # g.sum without its wrapper
    w = _identity(d_inv.shape[-1]) - g[..., :, None]
    w *= d_inv[..., None, :]
    return w


def _range_differences(geometry: RangingGeometry, measured_ranges, out=None) -> np.ndarray:
    """Right-hand side b_l = r_M^2 - r_l^2 + a_l (..., M-1) from ranges (..., M),
    written into `out` if given."""
    r_sq = np.asarray(measured_ranges, dtype=float) ** 2
    b = np.subtract(r_sq[..., -1:], r_sq[..., :-1], out=out)
    return np.add(b, geometry.offset_vector, out=b)


def normal_equations(geometry: RangingGeometry, measured_ranges, weight: np.ndarray) -> tuple:
    """The WLS normal equations (A^T W A) x = A^T W b, with
    b_l = r_M^2 - r_l^2 + a_l built from the *measured* ranges.

    Returns the gram G = A^T W A (2, 2) and A^T W b (2,); stacks of
    ranges (R, M) and weights (R, M-1, M-1) give (R, 2, 2) and (R, 2).
    When W is the inverse noise covariance, G is the information of the
    fix about the position.
    """
    a_mat = geometry.design_matrix
    atw = a_mat.T @ weight
    return atw @ a_mat, (atw @ _range_differences(geometry, measured_ranges)[..., None])[..., 0]


def wls_estimate(
    geometry: RangingGeometry, measured_ranges, weight: np.ndarray
) -> np.ndarray:
    """Weighted least-squares position estimate from measured ranges:
    the solution of `normal_equations`, one per run for stacks.

    Raises
    ------
    np.linalg.LinAlgError
        If A^T W A is singular.
    """
    gram, rhs = normal_equations(geometry, measured_ranges, weight)
    return np.linalg.solve(gram, rhs[..., None])[..., 0]


@dataclass(frozen=True, slots=True)
class RangingScratch:
    """The buffers `ranging_layer` solves from, for a stack of one shape
    (...): `columns` (..., M-1, 2) holds the right-hand side b
    (`differences`) and the noise mean mu (`noise_mean`), and `rhs`
    (..., 2, 4) holds A^T W [b, mu] (`products`) and the identity, which
    is set once.  A track builds one (`init_fusion`) and every step writes
    over it, and an oracle check builds one per call; nothing
    `ranging_layer` returns is a view of it."""

    columns: np.ndarray
    differences: np.ndarray
    noise_mean: np.ndarray
    rhs: np.ndarray
    products: np.ndarray

    @classmethod
    def of(cls, geometry: RangingGeometry, shape: tuple) -> RangingScratch:
        columns = np.empty(shape + (len(geometry.offset_vector), 2))
        rhs = np.empty(shape + (2, 4))
        rhs[..., 2:] = _identity(2)
        return cls(columns, columns[..., 0], columns[..., 1], rhs, rhs[..., :2])


def ranging_layer(
    geometry: RangingGeometry, ranges, variances, measured_ranges, scratch: RangingScratch
) -> tuple:
    """WLS fix and its error moments, for one run or a stack of runs.

    The weights W, the bias and the covariance are evaluated at `ranges`
    with range-noise `variances` (true ranges in analysis, a predicted
    position's ranges online); the fix solves the normal equations for
    `measured_ranges`.  One solve on the 2x2 gram G = A^T W A per run,
    with right-hand sides [A^T W b, A^T W mu, I], gives the fix, the bias
    and G^{-1}.  Because W is the inverse of the noise covariance at the
    same ranges, the covariance G^{-1} A^T W Cov{b} W A G^{-1} of the
    error mapped through the solve is G^{-1} itself; the error
    correlation is E{w w^T} = G^{-1} + bias bias^T.

    Parameters
    ----------
    ranges, variances, measured_ranges : array_like
        Shape (M,) for one run, or (R, M) for R runs.
    scratch : RangingScratch
        Buffers of the stack's shape, () or (R,), which the call overwrites.

    Returns
    -------
    (fix, bias, covariance) : tuple
        Shapes (2,), (2,) and (2, 2), with a leading R axis for a stack.

    Raises
    ------
    np.linalg.LinAlgError
        If a gram matrix is singular.
    """
    a_mat = geometry.design_matrix
    atw = a_mat.T @ noise_cov_inverse(ranges, variances)
    _range_differences(geometry, measured_ranges, out=scratch.differences)
    var = np.asarray(variances, dtype=float)
    np.subtract(var[..., -1:], var[..., :-1], out=scratch.noise_mean)
    np.matmul(atw, scratch.columns, out=scratch.products)
    solution = np.linalg.solve(atw @ a_mat, scratch.rhs)
    return solution[..., 0], solution[..., 1], solution[..., 2:]
