"""Baseline Kalman-type estimators for the same sensor suite.

Three filters treat speed/heading as known inputs driving a 2-D position
state (EKF with linearised range measurements, UKF with an unscented
range update, and a linear-correction KF that first collapses the ranges
to a WLS position fix), plus one 4-D EKF that instead models
(x1, x2, V, phi) as a nearly-constant-velocity state and takes speed and
heading as measurements.  All filters share the distance-dependent range
noise model, evaluated at predicted ranges.

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
    AnchorSet,
    MeasurementFrame,
    _identity,
    cv_transition,
    cv_transition_jacobian,
    range_variance,
    true_ranges,
)
from .ranging import ranging_layer

if TYPE_CHECKING:
    from .simulate import Scene

_MIN_RANGE = 1e-9


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


def position_init(position, variance: float = 1.0) -> KfState:
    """Initial 2-D belief: given position, isotropic covariance.

    A stack of positions (R, 2) gives a batch of R beliefs.
    """
    mean = np.array(position, dtype=float)
    return KfState(mean=mean, covariance=np.tile(np.eye(2) * variance, mean.shape[:-1] + (1, 1)))


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


def _transpose(a: np.ndarray) -> np.ndarray:
    return a.swapaxes(-1, -2)


def _symmetrize(p: np.ndarray) -> np.ndarray:
    return 0.5 * (p + _transpose(p))


def _diag(values: np.ndarray) -> np.ndarray:
    """Diagonal matrices (..., m, m) with the given diagonals (..., m)."""
    out = np.zeros(values.shape + values.shape[-1:])
    idx = np.arange(values.shape[-1])
    out[..., idx, idx] = values
    return out


def _input_driven_predict(state: KfState, frame: MeasurementFrame) -> KfState:
    """Dead-reckoning predict step shared by the 2-D filters.

    The measured speed/heading act as control inputs: the state moves by
    the frame's displacement, and their noise adds the frame's input
    covariance Q = B diag(sigma_v^2, sigma_phi^2) B^T.
    """
    return KfState(
        mean=state.mean + frame.displacement,
        covariance=_symmetrize(state.covariance + frame.input_cov),
    )


def _floored_ranges(position, anchors: AnchorSet) -> np.ndarray:
    """Ranges (..., M) from positions (..., 2), floored away from zero."""
    return np.maximum(true_ranges(position, anchors), _MIN_RANGE)


def _range_jacobian(position, anchors: AnchorSet) -> tuple:
    """Predicted ranges (..., M) and their Jacobian (..., M, 2) at positions (..., 2)."""
    r = _floored_ranges(position, anchors)
    diff = np.asarray(position, dtype=float)[..., None, :] - anchors.positions
    return r, diff / r[..., None]


def _kalman_update(pred: KfState, h: np.ndarray, innovation: np.ndarray, r_cov: np.ndarray) -> KfState:
    """Linear(ised) Kalman update with measurement Jacobian h (..., m, n),
    innovation (..., m) and measurement noise covariance (..., m, m)."""
    p = pred.covariance
    ht = _transpose(h)
    s = h @ p @ ht + r_cov
    gain = _transpose(np.linalg.solve(_transpose(s), _transpose(p @ ht)))
    mean = pred.mean + (gain @ innovation[..., None])[..., 0]
    cov = (_identity(p.shape[-1]) - gain @ h) @ p
    return KfState(mean=mean, covariance=_symmetrize(cov))


def ekf_step(scene: Scene, state: KfState, frame: MeasurementFrame) -> KfState:
    """One EKF predict/update cycle on the 2-D position states of a batch.

    Ranges are linearised about the predicted position; the measurement
    noise covariance is diagonal with the distance-dependent variances
    evaluated at the predicted ranges.
    """
    pred = _input_driven_predict(state, frame)
    r_hat, h = _range_jacobian(pred.mean, scene.anchors)
    return _kalman_update(
        pred, h, frame.ranges - r_hat, _diag(range_variance(r_hat, scene.range_model))
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
    root_t = _transpose(_cholesky(cov, n + 1.0))
    center = mean[..., None, :]
    points = np.concatenate([center, center + root_t, center - root_t], axis=-2)
    return points, _sigma_weights(n)


@functools.cache
def _sigma_weights(n: int) -> np.ndarray:
    """Weights (2n+1,) of the sigma-point set in n dimensions, built once."""
    return np.array([1.0 / (n + 1.0)] + [1.0 / (2.0 * (n + 1.0))] * (2 * n))


def _unscented_correct(
    pred: KfState, points: np.ndarray, weights: np.ndarray, z_points: np.ndarray, z, r_cov
) -> KfState:
    """Unscented update from sigma points (..., p, n) and their images
    z_points (..., p, m) under the measurement function."""
    z_hat = weights @ z_points
    dz = z_points - z_hat[..., None, :]
    dx = points - pred.mean[..., None, :]
    weighted = weights[:, None] * dz
    s = _transpose(dz) @ weighted + r_cov
    cross = _transpose(dx) @ weighted
    gain = _transpose(np.linalg.solve(_transpose(s), _transpose(cross)))
    innovation = np.asarray(z, dtype=float) - z_hat
    mean = pred.mean + (gain @ innovation[..., None])[..., 0]
    cov = pred.covariance - gain @ s @ _transpose(gain)
    return KfState(mean=mean, covariance=_symmetrize(cov))


def ukf_step(scene: Scene, state: KfState, frame: MeasurementFrame) -> KfState:
    """One UKF cycle on the 2-D position states of a batch.

    The predict step is exactly linear in the state (the displacement
    does not depend on position), so only the range update goes through
    the unscented transform.
    """
    pred = _input_driven_predict(state, frame)
    r_cov = _diag(range_variance(_floored_ranges(pred.mean, scene.anchors), scene.range_model))
    points, weights = _sigma_points(pred.mean, pred.covariance)
    z_points = _floored_ranges(points, scene.anchors)
    return _unscented_correct(pred, points, weights, z_points, frame.ranges, r_cov)


def lckf_step(scene: Scene, state: KfState, frame: MeasurementFrame) -> KfState:
    """One linear-correction KF cycle: WLS fix treated as a position reading.

    The ranges are collapsed to a WLS position estimate (trilateration
    `scene.geometry` of the anchors) whose error covariance (closed form,
    evaluated at predicted ranges) becomes the measurement noise of a
    linear H = I update.  The covariance is floored to stay positive
    definite.
    """
    pred = _input_driven_predict(state, frame)
    r_hat = true_ranges(pred.mean, scene.anchors)
    z, bias, second = ranging_layer(
        scene.geometry, r_hat, range_variance(r_hat, scene.range_model), frame.ranges
    )
    r_cov = _symmetrize(second - bias[..., :, None] * bias[..., None, :])
    eigvals, eigvecs = np.linalg.eigh(r_cov)
    r_cov = (eigvecs * np.maximum(eigvals, 1e-12)[..., None, :]) @ _transpose(eigvecs)
    return _kalman_update(pred, _identity(2), z - pred.mean, r_cov)


def ekf_cv_step(scene: Scene, state: KfState, frame: MeasurementFrame) -> KfState:
    """One EKF cycle on the 4-D constant-velocity states of a batch.

    The process model is `scene.cv` at step period `scene.T`.  Speed and
    heading join the ranges as measurements; the covariance is predicted
    through the analytic transition Jacobian `cv_transition_jacobian`.
    """
    anchors, sensor_model = scene.anchors, scene.sensor_model
    f_jac = cv_transition_jacobian(state.mean, scene.T)
    mean_pred = cv_transition(state.mean, scene.T)
    cov_pred = _symmetrize(f_jac @ state.covariance @ _transpose(f_jac) + scene.cv_noise)

    r_hat, d = _range_jacobian(mean_pred[..., :2], anchors)
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
    return _kalman_update(KfState(mean_pred, cov_pred), h, innovation, _diag(variances))
