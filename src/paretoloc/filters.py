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

What a step reads and never changes, and the scratch buffers it writes
over, are built once per track by the init kernels, which take the
scene (`position_init(scene, position)`, `cv_init(scene, position,
speed, heading)`), and carried by every state of the track (`KfTrack`):
the range noise as 0-d constants, the UKF's sigma points, and the
EKF-CV's transition Jacobian, measurement Jacobian, innovation and
noise variances, whose constant entries are set once.  A step builds no
set-up of its own.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .models import (
    CV_PRIOR_VARIANCES,
    RangeNoiseModel,
    _identity,
    anchor_directions,
    cv_transition_and_jacobian,
    floored_ranges,
    inverse_2x2,
    range_variance,
    symmetrize,
    true_ranges,
)
from .ranging import noise_cov_inverse, normal_equations

if TYPE_CHECKING:
    from .deadreckoning import MeasurementFrame
    from .simulate import Scene


@dataclass(frozen=True, slots=True)
class KfTrack:
    """What the Kalman steps of one track read and never change, and the
    scratch buffers they write over, built once per track by
    `position_init` or `cv_init` from the scene.

    A step writes only the scratch, and writes each entry it reads
    before reading it, but for the constant entries set here; no state
    holds a view of the scratch, so stepping one state twice gives the
    same state, and tracks do not share it.

    Attributes
    ----------
    range_model : RangeNoiseModel
        `scene.range_model` with its values as read-only 0-d arrays.
    points : np.ndarray or None
        The UKF's sigma points (R, 5, 2) of a position track
        (`_sigma_point_buffer`); None on a CV track.
    transition : np.ndarray or None
        The EKF-CV's transition Jacobians (R, 4, 4): the identity, whose
        displacement block each step writes (`cv_transition_and_jacobian`).
        None on a position track, and so are the three below.
    jacobian : np.ndarray or None
        The EKF-CV's measurement Jacobians (R, M + 2, 4): each step writes
        the range rows' position block; the rest is zero but for the
        identity that reads the speed and heading.
    innovation : np.ndarray or None
        The EKF-CV's innovations (R, M + 2), written by each step.
    variances : np.ndarray or None
        The EKF-CV's measurement-noise variances (R, M + 2): each step
        writes the ranges'; the last two are sigma_v^2 and sigma_phi^2.
    """

    range_model: RangeNoiseModel
    points: np.ndarray | None = None
    transition: np.ndarray | None = None
    jacobian: np.ndarray | None = None
    innovation: np.ndarray | None = None
    variances: np.ndarray | None = None


@dataclass(slots=True)
class KfState:
    """Gaussian filter beliefs of a batch of R runs (or other rows), and
    the constants of their track.

    Attributes
    ----------
    mean : np.ndarray
        State means, (R, 2) for the position filters, (R, 4) for the CV
        filter.
    covariance : np.ndarray
        State covariances, (R, 2, 2) or (R, 4, 4).
    track : KfTrack
        The track's constants and scratch buffers, built once by the init
        kernel and carried by every state of the track.
    """

    mean: np.ndarray
    covariance: np.ndarray
    track: KfTrack


def position_init(scene: Scene, position) -> KfState:
    """Initial 2-D belief: given position, covariance diag(CV_PRIOR_VARIANCES[:2]),
    and the track of the position filters' steps.

    A stack of positions (R, 2) gives a batch of R beliefs.
    """
    mean = np.array(position, dtype=float)
    rows = mean.shape[:-1]
    track = KfTrack(scene.range_model.as_constants(), points=_sigma_point_buffer(rows, 2))
    cov = np.diag(CV_PRIOR_VARIANCES[:2])
    return KfState(mean, np.tile(cov, rows + (1, 1)), track)


def cv_init(scene: Scene, position, speed, heading) -> KfState:
    """Initial 4-D belief for the constant-velocity filter, and the track
    of its steps.

    Position covariance 1 m^2 per axis, speed 0.25 (m/s)^2, heading
    (pi/4)^2 rad^2 -- loose priors that let the measurements take over.
    Positions (R, 2) with speeds and headings (R,) give a batch.
    """
    position = np.asarray(position, dtype=float)
    mean = np.concatenate([position, np.stack([speed, heading], axis=-1)], axis=-1, dtype=float)
    rows, m = mean.shape[:-1], scene.anchors.m
    jacobian = np.zeros(rows + (m + 2, 4))
    jacobian[..., m:, 2:] = _identity(2)
    variances = np.empty(rows + (m + 2,))
    variances[..., m:] = scene.sensor_model.sigma_v**2, scene.sensor_model.sigma_phi**2
    track = KfTrack(
        scene.range_model.as_constants(),
        transition=np.tile(_identity(4), rows + (1, 1)),
        jacobian=jacobian,
        innovation=np.empty(rows + (m + 2,)),
        variances=variances,
    )
    cov = np.diag(CV_PRIOR_VARIANCES)
    return KfState(mean, np.tile(cov, rows + (1, 1)), track)


def _input_driven_predict(state: KfState, frame: MeasurementFrame) -> KfState:
    """Dead-reckoning predict step shared by the 2-D filters.

    The measured speed/heading act as control inputs: the state moves by
    the frame's displacement, and their noise adds the frame's input
    covariance Q = B diag(sigma_v^2, sigma_phi^2) B^T.
    """
    return KfState(
        state.mean + frame.displacement, symmetrize(state.covariance + frame.input_cov), state.track
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
    return KfState(mean, symmetrize(cov), pred.track)


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
    dt_r_inv = d.mT / range_variance(r_hat, state.track.range_model)[..., None, :]
    cov = inverse_2x2(inverse_2x2(pred.covariance) + dt_r_inv @ d)
    information_innovation = dt_r_inv @ (frame.ranges - r_hat)[..., None]
    return KfState(
        pred.mean + (cov @ information_innovation)[..., 0], symmetrize(cov), state.track
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
        return np.linalg.cholesky(scale * (cov + 1e-12 * _identity(cov.shape[-1])))


def _sigma_point_buffer(shape: tuple, n: int) -> np.ndarray:
    """An empty sigma-point set (shape..., 2n+1, n) laid out point-minor,
    as `np.concatenate` lays out the centre and the transposed Cholesky
    factor's columns: the products that read the points keep their bits."""
    return np.empty(shape + (n, 2 * n + 1)).mT


def _sigma_points(mean: np.ndarray, cov: np.ndarray, points: np.ndarray) -> tuple:
    """Symmetric 2n+1 sigma-point set, written into `points` (..., 2n+1, n)
    (`_sigma_point_buffer`), with weights (2n+1,), spread kappa = 1.

    Cholesky failure triggers one retry with 1e-12 jitter on the
    diagonal, per run of a batch; a second failure propagates.
    """
    n = mean.shape[-1]
    root_t = _cholesky(cov, n + 1.0).mT
    center = mean[..., None, :]
    points[..., :1, :] = center
    np.add(center, root_t, out=points[..., 1 : n + 1, :])
    np.subtract(center, root_t, out=points[..., n + 1 :, :])
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
    return KfState(mean, symmetrize(cov), pred.track)


def ukf_step(scene: Scene, state: KfState, frame: MeasurementFrame) -> KfState:
    """One UKF cycle on the 2-D position states of a batch.

    The predict step is exactly linear in the state (the displacement
    does not depend on position), so only the range update goes through
    the unscented transform.  The noise variances are taken at the
    predicted mean's ranges, the centre sigma point's.
    """
    pred = _input_driven_predict(state, frame)
    points, weights = _sigma_points(pred.mean, pred.covariance, state.track.points)
    z_points = floored_ranges(points, scene.anchors)
    variances = range_variance(z_points[..., 0, :], state.track.range_model)
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
    weight = noise_cov_inverse(r_hat, range_variance(r_hat, state.track.range_model))
    gram, atwb = normal_equations(scene.geometry, frame.ranges, weight)
    prior_information = inverse_2x2(pred.covariance)
    cov = inverse_2x2(prior_information + gram)
    information_mean = (prior_information @ pred.mean[..., None])[..., 0] + atwb
    return KfState((cov @ information_mean[..., None])[..., 0], symmetrize(cov), state.track)


def ekf_cv_step(scene: Scene, state: KfState, frame: MeasurementFrame) -> KfState:
    """One EKF cycle on the 4-D constant-velocity states of a batch.

    The process model is `scene.cv` at step period `scene.T`.  Speed and
    heading join the ranges as measurements; the covariance is predicted
    through the analytic transition Jacobian, formed with the transition
    (`cv_transition_and_jacobian`).  The Jacobians, the innovation and
    the noise variances are written into the track's buffers.
    """
    track, m = state.track, scene.anchors.m
    f_jac = track.transition
    mean_pred = cv_transition_and_jacobian(state.mean, scene.T, f_jac)
    cov_pred = symmetrize(f_jac @ state.covariance @ f_jac.mT + scene.cv_noise)

    r_hat, d = anchor_directions(mean_pred[..., :2], scene.anchors)
    h, innovation, variances = track.jacobian, track.innovation, track.variances
    h[..., :m, :2] = d
    np.subtract(frame.ranges, r_hat, out=innovation[..., :m])
    np.subtract(frame.speed, mean_pred[..., 2], out=innovation[..., m])
    np.subtract(frame.heading, mean_pred[..., 3], out=innovation[..., m + 1])
    variances[..., :m] = range_variance(r_hat, track.range_model)
    return _kalman_update(KfState(mean_pred, cov_pred, track), h, innovation, variances)
