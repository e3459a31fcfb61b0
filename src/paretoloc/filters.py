"""Baseline Kalman-type estimators for the same sensor suite.

Three filters treat speed/heading as known inputs driving a 2-D position
state (EKF with linearised range measurements, UKF with an unscented
range update, and a linear-correction KF that first collapses the ranges
to a WLS position fix), plus one 4-D EKF that instead models
(x1, x2, V, phi) as a nearly-constant-velocity state and takes speed and
heading as measurements.  All filters share the distance-dependent range
noise model, evaluated at predicted ranges.

Each filter step is a kernel on a batch of runs: a leading run axis on
every state and measurement array.  One run is a batch of one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .deadreckoning import heading_vector
from .models import (
    CV_PRIOR_VARIANCES,
    AnchorSet,
    CvProcessModel,
    MeasurementFrame,
    RangeNoiseModel,
    SensorNoiseModel,
    cv_transition_jacobian,
    range_variance,
    true_ranges,
)
from .ranging import RangingGeometry, ranging_layer

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
    mean = np.concatenate(
        [
            np.asarray(position, dtype=float),
            np.asarray(speed, dtype=float)[..., None],
            np.asarray(heading, dtype=float)[..., None],
        ],
        axis=-1,
    )
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


def _input_driven_predict(
    state: KfState, frame: MeasurementFrame, sensor_model: SensorNoiseModel, T: float
) -> KfState:
    """Dead-reckoning predict step shared by the 2-D filters.

    The measured speed/heading act as control inputs; their noise enters
    the state through the displacement Jacobian B = d(displacement)/d(V, phi),
    giving process noise Q = B diag(sigma_v^2, sigma_phi^2) B^T.
    """
    v = frame.speed
    direction = heading_vector(frame.heading)
    c, s = direction[..., 0], direction[..., 1]
    mean = state.mean + (T * v)[..., None] * direction
    b = np.empty(v.shape + (2, 2))
    b[..., 0, 0] = T * c
    b[..., 0, 1] = -T * v * s
    b[..., 1, 0] = T * s
    b[..., 1, 1] = T * v * c
    q = (b * np.array([sensor_model.sigma_v**2, sensor_model.sigma_phi**2])) @ _transpose(b)
    return KfState(mean=mean, covariance=_symmetrize(state.covariance + q))


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
    cov = (np.eye(p.shape[-1]) - gain @ h) @ p
    return KfState(mean=mean, covariance=_symmetrize(cov))


def ekf_step(
    state: KfState,
    frame: MeasurementFrame,
    anchors: AnchorSet,
    range_model: RangeNoiseModel,
    sensor_model: SensorNoiseModel,
    T: float,
) -> KfState:
    """One EKF predict/update cycle on the 2-D position states of a batch.

    Ranges are linearised about the predicted position; the measurement
    noise covariance is diagonal with the distance-dependent variances
    evaluated at the predicted ranges.
    """
    pred = _input_driven_predict(state, frame, sensor_model, T)
    r_hat, h = _range_jacobian(pred.mean, anchors)
    return _kalman_update(
        pred, h, frame.ranges - r_hat, _diag(range_variance(r_hat, range_model))
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


def _sigma_points(mean: np.ndarray, cov: np.ndarray, kappa: float = 1.0) -> tuple:
    """Symmetric 2n+1 sigma-point set (..., 2n+1, n) with weights (2n+1,).

    Cholesky failure triggers one retry with 1e-12 jitter on the
    diagonal, per run of a batch; a second failure propagates.
    """
    n = mean.shape[-1]
    scale = n + kappa
    root_t = _transpose(_cholesky(cov, scale))
    center = mean[..., None, :]
    points = np.concatenate([center, center + root_t, center - root_t], axis=-2)
    weights = np.full(2 * n + 1, 1.0 / (2.0 * scale))
    weights[0] = kappa / scale
    return points, weights


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


def ukf_step(
    state: KfState,
    frame: MeasurementFrame,
    anchors: AnchorSet,
    range_model: RangeNoiseModel,
    sensor_model: SensorNoiseModel,
    T: float,
) -> KfState:
    """One UKF cycle on the 2-D position states of a batch.

    The predict step is exactly linear in the state (the displacement
    does not depend on position), so only the range update goes through
    the unscented transform.
    """
    pred = _input_driven_predict(state, frame, sensor_model, T)
    r_cov = _diag(range_variance(_floored_ranges(pred.mean, anchors), range_model))
    points, weights = _sigma_points(pred.mean, pred.covariance)
    z_points = _floored_ranges(points, anchors)
    return _unscented_correct(pred, points, weights, z_points, frame.ranges, r_cov)


def lckf_step(
    state: KfState,
    frame: MeasurementFrame,
    anchors: AnchorSet,
    range_model: RangeNoiseModel,
    sensor_model: SensorNoiseModel,
    T: float,
    geometry: RangingGeometry,
) -> KfState:
    """One linear-correction KF cycle: WLS fix treated as a position reading.

    The ranges are collapsed to a WLS position estimate (trilateration
    `geometry` of the anchors) whose error covariance (closed form,
    evaluated at predicted ranges) becomes the measurement noise of a
    linear H = I update.  The covariance is floored to stay positive
    definite.
    """
    pred = _input_driven_predict(state, frame, sensor_model, T)
    r_hat = true_ranges(pred.mean, anchors)
    z, bias, second = ranging_layer(
        geometry, r_hat, range_variance(r_hat, range_model), frame.ranges
    )
    r_cov = _symmetrize(second - bias[..., :, None] * bias[..., None, :])
    eigvals, eigvecs = np.linalg.eigh(r_cov)
    r_cov = (eigvecs * np.maximum(eigvals, 1e-12)[..., None, :]) @ _transpose(eigvecs)
    h = np.broadcast_to(np.eye(2), r_cov.shape)
    return _kalman_update(pred, h, z - pred.mean, r_cov)


def ekf_cv_step(
    state: KfState,
    frame: MeasurementFrame,
    anchors: AnchorSet,
    cv_model: CvProcessModel,
    range_model: RangeNoiseModel,
    sensor_model: SensorNoiseModel,
) -> KfState:
    """One EKF cycle on the 4-D constant-velocity states of a batch.

    Speed and heading join the ranges as measurements; the covariance is
    predicted through the analytic transition Jacobian
    `cv_transition_jacobian`.
    """
    f_jac = cv_transition_jacobian(state.mean, cv_model.T)
    mean_pred = cv_model.transition(state.mean)
    cov_pred = _symmetrize(f_jac @ state.covariance @ _transpose(f_jac) + cv_model.q_matrix())

    r_hat, d = _range_jacobian(mean_pred[..., :2], anchors)
    m = anchors.m
    h = np.zeros(d.shape[:-2] + (m + 2, 4))
    h[..., :m, :2] = d
    h[..., m, 2] = 1.0
    h[..., m + 1, 3] = 1.0
    z_hat = np.concatenate([r_hat, mean_pred[..., 2:]], axis=-1)
    z = np.concatenate(
        [frame.ranges, frame.speed[..., None], frame.heading[..., None]], axis=-1
    )
    sensor_var = np.broadcast_to(
        [sensor_model.sigma_v**2, sensor_model.sigma_phi**2], r_hat.shape[:-1] + (2,)
    )
    r_cov = _diag(np.concatenate([range_variance(r_hat, range_model), sensor_var], axis=-1))
    return _kalman_update(KfState(mean=mean_pred, covariance=cov_pred), h, z - z_hat, r_cov)
