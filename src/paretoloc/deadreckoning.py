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

import numpy as np

from .models import MeasurementFrame


def heading_vector(phi) -> np.ndarray:
    """Unit vectors [cos phi, sin phi], shape (..., 2) for headings (...)."""
    phi = np.asarray(phi, dtype=float)
    out = np.empty(phi.shape + (2,))
    np.cos(phi, out=out[..., 0])
    np.sin(phi, out=out[..., 1])
    return out


def dr_predict(previous_position, frame: MeasurementFrame, T: float) -> np.ndarray:
    """Dead-reckoned position (2,): previous + T * V * [cos phi, sin phi].

    A batch of runs (positions (R, 2), a batched frame) gives (R, 2).
    """
    prev = np.asarray(previous_position, dtype=float)
    step = np.asarray(T * frame.speed, dtype=float)[..., None]
    return prev + step * heading_vector(frame.heading)


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

