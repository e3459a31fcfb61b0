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

This module is the bound path alone.  The paper's lemmas on the ratio
E{q^2 / (q^2 + z^2)} of squared Gaussians are in `ratios`, which only
the oracle suite reads.

The bound functions take the experiment's `Scene` first, as the
estimator kernels do, and read its anchors, noise models, CV model
(`scene.cv`, `scene.cv_noise`) and step period `scene.T` there.

Convention: gradients are stored as Jacobians F_ij = d f_i / d p_j; the
information recursions below are written for that convention.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .deadreckoning import HeadingMoments
from .models import (
    CV_PRIOR_VARIANCES,
    CvProcessModel,
    SensorNoiseModel,
    anchor_planes,
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
    cv, t, v0, e_cos, e_sin = scene.cv, scene.T, tm.e_v, tm.e_cos, tm.e_sin
    i1, i2 = 1.0 / cv.sigma1_sq, 1.0 / cv.sigma2_sq
    out = np.diag([i1, i2, 1.0 / cv.sigma3_sq, 1.0 / cv.sigma4_sq])
    out[2, 0] = t * e_cos * i1
    out[2, 1] = t * e_sin * i2
    out[3, 0] = -t * v0 * e_sin * i1
    out[3, 1] = t * v0 * e_cos * i2
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


def _anchor_sum(terms: np.ndarray) -> np.ndarray:
    """Sum over the leading (anchor) axis of `terms`, into terms[0] in place:
    the bits of `np.sum(axis=-1)` over each row of anchors.  It relies on
    numpy's pairwise summation tree, as `validate._trig_leaves` does, and
    the tests check it against numpy (equal bit for bit on numpy 2.4.6):
    under 8 terms in order; up to 128, eight accumulators over blocks of
    eight, combined as ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)),
    then the rest in order; past 128, halves split as there.  numpy's
    reduction starts from +0.0, so no sum is -0.0."""
    m = len(terms)
    if m > 128:
        half = m // 2 - m // 2 % 8
        return np.add(_anchor_sum(terms[:half]), _anchor_sum(terms[half:]), out=terms[0])
    if m >= 8:
        for i in range(8, m - m % 8, 8):
            terms[:8] += terms[i : i + 8]
        for i, j in ((0, 1), (2, 3), (4, 5), (6, 7), (0, 2), (4, 6), (0, 4)):
            terms[i] += terms[j]
    for row in terms[max(1, m - m % 8) :]:
        terms[0] += row
    return np.add(terms[0], 0.0, out=terms[0])


def _pi_sets(weights: np.ndarray, ux: np.ndarray, uy: np.ndarray) -> np.ndarray:
    """Ensemble means of sum_m w_m u_m u_m^T (S, ..., 2, 2), one per weight set
    (S, M, ..., N), on `anchor_planes`' (M, ..., N) planes ux and uy."""
    # (anchor, weight set, ..., entry, sample), each anchor's terms contiguous
    terms = np.empty((len(ux), len(weights)) + ux.shape[1:-1] + (3, ux.shape[-1]))
    by_entry = np.moveaxis(terms, (-2, 0), (0, 2))
    np.multiply(weights, ux * ux, out=by_entry[0])
    np.multiply(weights, ux, out=by_entry[1])
    by_entry[1] *= uy
    np.multiply(weights, uy * uy, out=by_entry[2])
    e = _anchor_sum(terms).mean(axis=-1)
    return e[..., [0, 1, 1, 2]].reshape(e.shape[:-1] + (2, 2))


def pi_bracket(scene: Scene, positions) -> np.ndarray:
    """Pi_MC and a bracket L <= Pi_MC <= U in the PSD order, stacked (3, 2, 2),
    or (3, ..., 2, 2) with one ensemble per leading index of (..., N, 2).

    Pi = E{ sum_m sigma_rm^{-2} u_m u_m^T } is the range-measurement
    position information over an ensemble of positions (N, 2), and Pi_MC
    its ensemble mean.  With u_m the unit vectors of anchor m over the
    ensemble and w_min,m, w_max,m the ensemble extremes of its weight,

        L = sum_m w_min,m E{u_m u_m^T},   U = sum_m w_max,m E{u_m u_m^T}.

    Both orders hold on the ensemble itself: w_min E{u u^T} <= E{w u u^T}
    <= w_max E{u u^T}, and L >= 0.  L and U take Pi_MC's arithmetic with
    the extreme weights put in (`_pi_sets` on the three weight sets), so
    on a one-point ensemble all three are the same bits.
    """
    r, ux, uy = anchor_planes(positions, scene.anchors)
    weights = np.empty((3,) + r.shape)
    np.divide(1.0, range_variance(r, scene.range_model), out=weights[0])
    weights[1] = weights[0].min(axis=-1, keepdims=True)
    weights[2] = weights[0].max(axis=-1, keepdims=True)
    return _pi_sets(weights, ux, uy)


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
    invert and whose variance has no finite positive reciprocal: sigma_v
    and sigma_phi (as 1/sigma^2), and with `cv` its four process-noise
    variances."""
    settings = [(sensor_model, ("sigma_v", "sigma_phi"))]
    if cv is not None:
        settings.append((cv, ("sigma1_sq", "sigma2_sq", "sigma3_sq", "sigma4_sq")))
    for model, names in settings:
        for name in names:
            value = getattr(model, name)
            variance = value if name.endswith("_sq") else value * value
            if not (value > 0.0 and variance > 0.0 and 0.0 < 1.0 / variance < np.inf):
                raise ValueError(
                    f"the bounds invert {name}, so its variance must have a finite "
                    f"positive reciprocal, got {value}"
                )


def measurement_information(scene: Scene, state: np.ndarray) -> np.ndarray:
    """H^T R^{-1} H for the range + speed + heading measurement at a state
    (4,), or at each state of a stack (..., 4): the measurement block with
    Pi the `pi_bracket` Pi_MC of the state's position as a one-point
    ensemble, from the one weight set."""
    r, ux, uy = anchor_planes(np.asarray(state, dtype=float)[..., None, :2], scene.anchors)
    pi_mat = _pi_sets(np.divide(1.0, range_variance(r, scene.range_model))[None], ux, uy)
    return _measurement_block(pi_mat[0], scene.sensor_model)


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
    # every step's D22 stack from one call: Q^{-1} is formed once per bound
    brackets = [pi_bracket(scene, rollout[i, :, :2]) for i in range(1, steps)]
    d22_mats = d22(scene, np.reshape(brackets, (-1, 3, 2, 2)))
    for i, d22_mat in enumerate(d22_mats, start=1):
        tm = trig_moments(v0, phi0, cv.sigma3_sq, cv.sigma4_sq, i)
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
