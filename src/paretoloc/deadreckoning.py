"""Dead-reckoning prediction and its exact noise moments.

One step of dead reckoning displaces the previous position estimate by
T * V_meas * [cos(phi_meas), sin(phi_meas)].  With independent Gaussian
noise on speed and heading the displacement moments are available in
closed form through the Gaussian characteristic function (heading part:
`HeadingMoments`, which the fusion and the posterior bound read too):

    E{cos(phi + n)} = cos(phi) exp(-sigma_phi^2 / 2),
    E{cos^2(phi + n)} = 1/2 + (1/2) cos(2 phi) exp(-2 sigma_phi^2),

and analogously for sine (second-harmonic sign flipped).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .models import MeasurementFrame, SensorNoiseModel, _constant

_HALF, _TWO = _constant(0.5), _constant(2.0)

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
    q = (b * np.array([sensor_model.sigma_v**2, sensor_model.sigma_phi**2])) @ b.mT
    return (T * v)[..., None] * direction, q


def measurement_frames(scene: Scene, ranges, speed, heading, per_frame: int = 1, blocks: int = 1):
    """Frames, in step order, of n steps of R measurement rows: `ranges`
    (n, R, M), `speed` and `heading` (n, R).  `input_terms` runs once on
    all of them; each step's rows are those R rows repeated `blocks` times,
    block-major (a stack gives each of its blocks the same measurements),
    so a step has blocks * R rows, copied only where blocks > 1.  Each
    frame holds `per_frame` steps (the last may hold fewer), rows stacked
    step-major, as one view per field, and `k` is its first step."""
    speed, heading = np.asarray(speed, dtype=float), np.asarray(heading, dtype=float)
    n, runs = speed.shape
    rows = blocks * runs
    # each (n, R, ...) field as (n, blocks, R, ...), flattened to (n * rows, ...)
    ranges, speed, heading, displacement, input_cov = (
        np.broadcast_to(x[:, None], (n, blocks) + x.shape[1:]).reshape((n * rows,) + x.shape[2:])
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
    return np.add(previous_position, frame.displacement)


@dataclass(slots=True)
class HeadingMoments:
    """Trig moments of a Gaussian heading phi ~ N(phi0, var), from its
    characteristic function E{exp(i n phi)} = exp(i n phi0 - n^2 var / 2):
    the first harmonic is attenuated by exp(-var / 2) (`attenuation`), the
    second by exp(-2 var).  `phi0` may be an array; moments are elementwise.
    """

    phi0: float
    var: float

    @property
    def attenuation(self) -> float:
        return math.exp(-0.5 * self.var)

    @property
    def second_attenuation(self) -> float:
        return math.exp(-2.0 * self.var)

    @property
    def e_cos(self):
        return np.cos(self.phi0) * self.attenuation

    @property
    def e_sin(self):
        return np.sin(self.phi0) * self.attenuation

    def e_square(self, axis):
        """E{cos^2 phi} (axis 0) or E{sin^2 phi} (axis 1); an array `axis`
        broadcasts against `phi0`."""
        return self.signed_square(
            np.asarray(self.phi0, dtype=float), _axis_sign(axis), self.second_attenuation
        )

    @staticmethod
    def signed_square(phi0, sign, second_attenuation):
        """`e_square` with its factors given: E{cos^2 phi} where `sign` is 1
        and E{sin^2 phi} where it is -1, with exp(-2 var) = `second_attenuation`."""
        # cos(2 phi0) on axis 0, -cos(2 phi0) on axis 1
        double_angle = np.cos(_TWO * phi0) * sign
        return _HALF + _HALF * double_angle * second_attenuation

    @property
    def e_cos_sq(self):
        return self.e_square(0)

    @property
    def e_sin_sq(self):
        return self.e_square(1)

    @property
    def e_sin_cos(self):
        return 0.5 * np.sin(2.0 * np.asarray(self.phi0, dtype=float)) * self.second_attenuation


def dr_first_moment(v: float, phi: float, sigma_phi: float, axis: int) -> float:
    """E{V_meas cos(phi_meas)} (axis 0) or E{V_meas sin(phi_meas)} (axis 1).

    Speed noise is zero mean and independent of heading noise, so only
    the heading moment E{cos phi_meas} or E{sin phi_meas} survives.

    Example
    -------
    >>> dr_first_moment(1.0, 0.0, 0.0, 0)
    1.0
    """
    heading = HeadingMoments(phi, sigma_phi**2)
    return float(v * (heading.e_cos if axis == 0 else heading.e_sin))


@dataclass(frozen=True, slots=True)
class DisplacementNoise:
    """The speed and heading noise of dead reckoning on the axes `axis`,
    with the factors of the displacement moments that do not depend on
    the operating point evaluated once: sigma_v^2, the attenuations
    exp(-sigma_phi^2 / 2) and exp(-2 sigma_phi^2) of `HeadingMoments`, and
    each axis' second-harmonic sign (`sign`, +1 for cos^2, -1 for sin^2).
    A track builds one and evaluates it at each step's speed and heading.
    sigma_v^2 and exp(-2 sigma_phi^2), which multiply arrays, are read-only
    0-d arrays; exp(-sigma_phi^2 / 2), which `fusion.axis_moments` also
    subtracts 1 from, is a float.
    """

    sigma_v_sq: np.ndarray
    attenuation: float
    second_attenuation: np.ndarray
    sign: np.ndarray

    @classmethod
    def of(cls, sigma_v: float, sigma_phi: float, axis) -> DisplacementNoise:
        # the attenuations do not depend on the mean heading
        heading = HeadingMoments(0.0, sigma_phi**2)
        return cls(
            _constant(sigma_v**2), heading.attenuation,
            _constant(heading.second_attenuation), _axis_sign(axis),
        )

    def second_moment(self, v, phi):
        """`dr_second_moment` at speeds `v` and headings `phi`."""
        square = HeadingMoments.signed_square(phi, self.sign, self.second_attenuation)
        return (v**2 + self.sigma_v_sq) * square


def _axis_sign(axis):
    """+1 on axis 0 and -1 on axis 1: the sign of cos(2 phi) in cos^2 and sin^2."""
    return 1.0 - 2.0 * np.asarray(axis)


def dr_second_moment(v: float, sigma_v: float, phi: float, sigma_phi: float, axis: int) -> float:
    """E{V_meas^2 cos^2(phi_meas)} (axis 0) or the sin^2 analog (axis 1).

    The prefactor is the full speed second moment V^2 + sigma_v^2.
    `v`, `phi` and `axis` may be arrays; they broadcast elementwise.
    """
    return DisplacementNoise.of(sigma_v, sigma_phi, axis).second_moment(v, phi)
