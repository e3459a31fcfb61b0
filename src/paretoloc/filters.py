"""Baseline Kalman-type estimators for the same sensor suite.

Three filters treat speed/heading as known inputs driving a 2-D position
state (EKF with linearised range measurements, UKF with an unscented
range update, and a linear-correction KF that first collapses the ranges
to a WLS position fix), plus one 4-D EKF that instead models
(x1, x2, V, phi) as a nearly-constant-velocity state and takes speed and
heading as measurements.  All filters share the distance-dependent range
noise model, evaluated at predicted ranges.

The EKF and the LC-KF update in information form, the information filter
of Bar-Shalom, Li and Kirubarajan (*Estimation with Applications to
Tracking and Navigation*, 2001): two 2x2 inverses (`models.inverse_2x2`)
and no M x M innovation solve.  The EKF-CV keeps the covariance form
(`_kalman_update`), because sigma_v = 0 or sigma_phi = 0 is a legal
setting that leaves its measurement noise with no inverse.

Each filter step is a kernel on a batch of runs: a leading run axis on
every state and measurement array.  One run is a batch of one.  Every
step takes the experiment's `Scene` first: `step(scene, state, frame)`.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .models import (
    CV_PRIOR_VARIANCES,
    MeasurementFrame,
    _identity,
    anchor_directions,
    cv_transition,
    cv_transition_jacobian,
    floored_ranges,
    inverse_2x2,
    range_variance,
    symmetrize,
    true_ranges,
)
from .ranging import noise_cov_inverse, normal_equations

if TYPE_CHECKING:
    from .simulate import Scene


@dataclass(slots=True)
class KfState:
    """Gaussian filter beliefs of a batch of R runs (or other rows).

    Attributes
    ----------
    mean : np.ndarray
        State means, (R, 2) for the position filters, (R, 4) for the CV
        filter.
    covariance : np.ndarray
        State covariances, (R, 2, 2) or (R, 4, 4).
    """

    mean: np.ndarray
    covariance: np.ndarray


def position_init(position) -> KfState:
    """Initial 2-D belief: given position, covariance diag(CV_PRIOR_VARIANCES[:2]).

    A stack of positions (R, 2) gives a batch of R beliefs.
    """
    mean = np.array(position, dtype=float)
    cov = np.diag(CV_PRIOR_VARIANCES[:2])
    return KfState(mean=mean, covariance=np.tile(cov, mean.shape[:-1] + (1, 1)))


def cv_init(position, speed: float, heading: float) -> KfState:
    """Initial 4-D belief for the constant-velocity filter.

    Position covariance 1 m^2 per axis, speed 0.25 (m/s)^2, heading
    (pi/4)^2 rad^2 -- loose priors that let the measurements take over.
    Positions (R, 2) with speeds and headings (R,) give a batch.
    """
    position = np.asarray(position, dtype=float)
    mean = np.concatenate([position, np.stack([speed, heading], axis=-1)], axis=-1, dtype=float)
    cov = np.diag(CV_PRIOR_VARIANCES)
    return KfState(mean=mean, covariance=np.tile(cov, mean.shape[:-1] + (1, 1)))


def _input_driven_predict(state: KfState, frame: MeasurementFrame) -> KfState:
    """Dead-reckoning predict step shared by the 2-D filters.

    The measured speed/heading act as control inputs: the state moves by
    the frame's displacement, and their noise adds the frame's input
    covariance Q = B diag(sigma_v^2, sigma_phi^2) B^T.
    """
    return KfState(
        mean=state.mean + frame.displacement,
        covariance=symmetrize(state.covariance + frame.input_cov),
    )


def _kalman_update(
    pred: KfState, h: np.ndarray, innovation: np.ndarray, variances: np.ndarray
) -> KfState:
    """Linear(ised) Kalman update in covariance form, with measurement
    Jacobian h (..., m, n), innovation (..., m) and independent
    measurement noise of variances (..., m), which may be zero."""
    p = pred.covariance
    ht = h.mT
    s = h @ p @ ht
    s_diagonal = np.einsum("...ii->...i", s)  # a view: the noise adds in place
    s_diagonal += variances
    gain = np.linalg.solve(s.mT, (p @ ht).mT).mT
    mean = pred.mean + (gain @ innovation[..., None])[..., 0]
    cov = (_identity(p.shape[-1]) - gain @ h) @ p
    return KfState(mean=mean, covariance=symmetrize(cov))


def ekf_step(scene: Scene, state: KfState, frame: MeasurementFrame) -> KfState:
    """One EKF predict/update cycle on the 2-D position states of a batch,
    in information form.

    Ranges are linearised about the predicted position (Jacobian D, the
    unit anchor directions); the measurement noise R is diagonal with the
    distance-dependent variances evaluated at the predicted ranges.  The
    update is the information filter's (Bar-Shalom, Li and Kirubarajan,
    2001), P+ = (P^-1 + D^T R^-1 D)^-1 and m+ = m + P+ D^T R^-1 nu, with
    nu the range innovation: two 2x2 inverses in place of an M x M solve.
    """
    pred = _input_driven_predict(state, frame)
    r_hat, d = anchor_directions(pred.mean, scene.anchors)
    dt_r_inv = d.mT / range_variance(r_hat, scene.range_model)[..., None, :]
    cov = inverse_2x2(inverse_2x2(pred.covariance) + dt_r_inv @ d)
    information_innovation = dt_r_inv @ (frame.ranges - r_hat)[..., None]
    return KfState(
        mean=pred.mean + (cov @ information_innovation)[..., 0], covariance=symmetrize(cov)
    )


def _cholesky(cov: np.ndarray, scale: float) -> np.ndarray:
    """Cholesky factor of scale * cov, for one matrix or each of a stack.

    A matrix whose factorisation fails is retried once with 1e-12 jitter
    on the diagonal; a second failure propagates.
    """
    try:
        return np.linalg.cholesky(scale * cov)
    except np.linalg.LinAlgError:
        if cov.ndim > 2:
            return np.stack([_cholesky(c, scale) for c in cov])
        return np.linalg.cholesky(scale * (cov + 1e-12 * np.eye(cov.shape[-1])))


def _sigma_points(mean: np.ndarray, cov: np.ndarray) -> tuple:
    """Symmetric 2n+1 sigma-point set (..., 2n+1, n) with weights (2n+1,),
    spread kappa = 1.

    Cholesky failure triggers one retry with 1e-12 jitter on the
    diagonal, per run of a batch; a second failure propagates.
    """
    n = mean.shape[-1]
    root_t = _cholesky(cov, n + 1.0).mT
    center = mean[..., None, :]
    points = np.concatenate([center, center + root_t, center - root_t], axis=-2)
    return points, _sigma_weights(n)


@functools.cache
def _sigma_weights(n: int) -> np.ndarray:
    """Weights (2n+1,) of the sigma-point set in n dimensions, built once."""
    return np.array([1.0 / (n + 1.0)] + [1.0 / (2.0 * (n + 1.0))] * (2 * n))


def _unscented_correct(
    pred: KfState, points: np.ndarray, weights: np.ndarray, z_points: np.ndarray, z, variances
) -> KfState:
    """Unscented update from sigma points (..., p, n) and their images
    z_points (..., p, m) under the measurement function, with independent
    measurement noise of variances (..., m)."""
    z_hat = weights @ z_points
    dz = z_points - z_hat[..., None, :]
    dx = points - pred.mean[..., None, :]
    weighted = weights[:, None] * dz
    s = dz.mT @ weighted
    s_diagonal = np.einsum("...ii->...i", s)  # a view: the noise adds in place
    s_diagonal += variances
    cross = dx.mT @ weighted
    gain = np.linalg.solve(s.mT, cross.mT).mT
    innovation = np.asarray(z, dtype=float) - z_hat
    mean = pred.mean + (gain @ innovation[..., None])[..., 0]
    cov = pred.covariance - gain @ s @ gain.mT
    return KfState(mean=mean, covariance=symmetrize(cov))


def ukf_step(scene: Scene, state: KfState, frame: MeasurementFrame) -> KfState:
    """One UKF cycle on the 2-D position states of a batch.

    The predict step is exactly linear in the state (the displacement
    does not depend on position), so only the range update goes through
    the unscented transform.
    """
    pred = _input_driven_predict(state, frame)
    variances = range_variance(floored_ranges(pred.mean, scene.anchors), scene.range_model)
    points, weights = _sigma_points(pred.mean, pred.covariance)
    z_points = floored_ranges(points, scene.anchors)
    return _unscented_correct(pred, points, weights, z_points, frame.ranges, variances)


def lckf_step(scene: Scene, state: KfState, frame: MeasurementFrame) -> KfState:
    """One linear-correction KF cycle: WLS fix treated as a position reading.

    The ranges are collapsed to a WLS position fix z (trilateration
    `scene.geometry` of the anchors, weights W at the predicted ranges)
    whose error covariance G^-1, G = A^T W A, is the measurement noise of
    a linear H = I update.  In information form (Bar-Shalom, Li and
    Kirubarajan, 2001) the fix enters through its normal equations,
    G z = A^T W b, so neither the fix nor G^-1 is formed:
    P+ = (P^-1 + G)^-1 and m+ = P+ (P^-1 m + A^T W b).
    """
    pred = _input_driven_predict(state, frame)
    r_hat = true_ranges(pred.mean, scene.anchors)
    weight = noise_cov_inverse(r_hat, range_variance(r_hat, scene.range_model))
    gram, atwb = normal_equations(scene.geometry, frame.ranges, weight)
    prior_information = inverse_2x2(pred.covariance)
    cov = inverse_2x2(prior_information + gram)
    information_mean = (prior_information @ pred.mean[..., None])[..., 0] + atwb
    return KfState(mean=(cov @ information_mean[..., None])[..., 0], covariance=symmetrize(cov))


def ekf_cv_step(scene: Scene, state: KfState, frame: MeasurementFrame) -> KfState:
    """One EKF cycle on the 4-D constant-velocity states of a batch.

    The process model is `scene.cv` at step period `scene.T`.  Speed and
    heading join the ranges as measurements; the covariance is predicted
    through the analytic transition Jacobian `cv_transition_jacobian`.
    """
    anchors, sensor_model = scene.anchors, scene.sensor_model
    f_jac = cv_transition_jacobian(state.mean, scene.T)
    mean_pred = cv_transition(state.mean, scene.T)
    cov_pred = symmetrize(f_jac @ state.covariance @ f_jac.mT + scene.cv_noise)

    r_hat, d = anchor_directions(mean_pred[..., :2], anchors)
    m = anchors.m
    h = np.zeros(d.shape[:-2] + (m + 2, 4))
    h[..., :m, :2] = d
    h[..., m:, 2:] = _identity(2)
    innovation = np.empty(r_hat.shape[:-1] + (m + 2,))
    innovation[..., :m] = frame.ranges - r_hat
    innovation[..., m] = frame.speed - mean_pred[..., 2]
    innovation[..., m + 1] = frame.heading - mean_pred[..., 3]
    variances = np.empty_like(innovation)
    variances[..., :m] = range_variance(r_hat, scene.range_model)
    variances[..., m:] = sensor_model.sigma_v**2, sensor_model.sigma_phi**2
    return _kalman_update(KfState(mean_pred, cov_pred), h, innovation, variances)
