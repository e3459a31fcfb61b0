"""Dead-reckoning prediction and its exact noise moments.

One step of dead reckoning displaces the previous position estimate by
T * V_meas * [cos(phi_meas), sin(phi_meas)].  With independent Gaussian
noise on speed and heading the displacement moments are available in
closed form through the Gaussian characteristic function:

    E{cos(phi + n)} = cos(phi) exp(-sigma_phi^2 / 2),
    E{cos^2(phi + n)} = 1/2 + (1/2) cos(2 phi) exp(-2 sigma_phi^2),

and analogously for sine (second-harmonic sign flipped).
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

from .models import MeasurementFrame, SensorNoiseModel

if TYPE_CHECKING:
    from .simulate import Scene


def heading_vector(phi) -> np.ndarray:
    """Unit vectors [cos phi, sin phi], shape (..., 2) for headings (...)."""
    phi = np.asarray(phi, dtype=float)
    out = np.empty(phi.shape + (2,))
    np.cos(phi, out=out[..., 0])
    np.sin(phi, out=out[..., 1])
    return out


def input_terms(speed, heading, T: float, sensor_model: SensorNoiseModel) -> tuple:
    """Displacements T V [cos phi, sin phi] (..., 2) of measured speeds and
    headings (...), and the covariances Q = B diag(sigma_v^2, sigma_phi^2) B^T
    (..., 2, 2) that their noise gives them, B = d(displacement)/d(V, phi)."""
    v = np.asarray(speed, dtype=float)
    direction = heading_vector(heading)
    c, s = direction[..., 0], direction[..., 1]
    b = np.stack([T * c, -T * v * s, T * s, T * v * c], axis=-1).reshape(v.shape + (2, 2))
    q = (b * np.array([sensor_model.sigma_v**2, sensor_model.sigma_phi**2])) @ b.swapaxes(-1, -2)
    return (T * v)[..., None] * direction, q


def measurement_frames(scene: Scene, ranges, speed, heading, per_frame: int = 1):
    """Frames, in step order, of n steps of R rows: `ranges` (n, R, M),
    `speed` and `heading` (n, R).  `input_terms` runs once on all of them;
    each frame holds `per_frame` steps (the last may hold fewer), rows
    stacked step-major, as one view per field, and `k` is its first step."""
    speed, heading = np.asarray(speed, dtype=float), np.asarray(heading, dtype=float)
    n, rows = speed.shape
    ranges, speed, heading, displacement, input_cov = (
        np.reshape(x, (n * rows,) + x.shape[2:])
        for x in (np.asarray(ranges, dtype=float), speed, heading)
        + input_terms(speed, heading, scene.T, scene.sensor_model)
    )
    for k in range(0, n, per_frame):
        part = slice(k * rows, (k + per_frame) * rows)
        yield MeasurementFrame(
            ranges[part], speed[part], heading[part], displacement[part], input_cov[part], k
        )


def dr_predict(previous_position, frame: MeasurementFrame) -> np.ndarray:
    """Dead-reckoned positions (R, 2): previous positions (R, 2) plus the
    frame's displacements T V [cos phi, sin phi]."""
    return np.asarray(previous_position, dtype=float) + frame.displacement


def dr_first_moment(v: float, phi: float, sigma_phi: float, axis: int = 0) -> float:
    """E{V_meas cos(phi_meas)} (axis 0) or E{V_meas sin(phi_meas)} (axis 1).

    Speed noise is zero mean and independent of heading noise, so only
    the heading attenuation factor exp(-sigma_phi^2 / 2) survives.

    Example
    -------
    >>> dr_first_moment(1.0, 0.0, 0.0)
    1.0
    """
    trig = math.cos(phi) if axis == 0 else math.sin(phi)
    return v * trig * math.exp(-0.5 * sigma_phi**2)


def dr_second_moment(
    v: float, sigma_v: float, phi: float, sigma_phi: float, axis: int = 0
) -> float:
    """E{V_meas^2 cos^2(phi_meas)} (axis 0) or the sin^2 analog (axis 1).

    The prefactor is the full speed second moment V^2 + sigma_v^2.
    `v`, `phi` and `axis` may be arrays; they broadcast elementwise.
    """
    # cos(2 phi) on axis 0, -cos(2 phi) on axis 1
    double_angle = np.cos(2.0 * np.asarray(phi, dtype=float)) * (1.0 - 2.0 * np.asarray(axis))
    return (v**2 + sigma_v**2) * (0.5 + 0.5 * double_angle * math.exp(-2.0 * sigma_phi**2))

