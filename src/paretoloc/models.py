"""Shared domain types and measurement synthesis.

Scene convention: a mobile node moves in the plane among M >= 4 fixed
anchors with known positions.  Per discrete step k the node observes one
range per anchor plus a speed and a heading measurement, all corrupted by
zero-mean Gaussian noise.  Range noise variance grows exponentially with
the true range (distance-dependent model), speed/heading noise is
homoscedastic.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass

import numpy as np


_identity = functools.cache(np.eye)  # one (n, n) identity per size; callers only read it


def _constant(value) -> np.ndarray:
    """`value` as a read-only 0-d float64 array, built once: numpy takes
    such an operand faster than a Python float, with the same bits."""
    out = np.array(value, dtype=float)
    out.flags.writeable = False
    return out


_ZERO = _constant(0.0)

# Floor of a range divided by: an anchor is MIN_RANGE from itself, in no direction.
MIN_RANGE = 1e-9
# Largest reach, m, of a track and of an anchor coordinate.  Two points
# within it are at most 8 MAX_REACH^2 apart squared (a chord, a range),
# half the largest double; the other half is margin for estimates.
MAX_REACH = math.sqrt(sys.float_info.max) / 4.0


def symmetrize(a: np.ndarray) -> np.ndarray:
    """(A + A^T) / 2 of a matrix, or of each of a stack (..., n, n)."""
    return 0.5 * (a + a.mT)


_ADJUGATE_SIGNS = np.array([[1.0, -1.0], [-1.0, 1.0]])


def inverse_2x2(a: np.ndarray) -> np.ndarray:
    """Inverse of a 2x2 matrix, or of each of a stack (..., 2, 2), by the
    determinant formula adj(A) / det(A).

    Raises
    ------
    np.linalg.LinAlgError
        Before dividing, so with no numpy warning, if a determinant is
        zero (as `np.linalg.inv` raises on an exactly singular matrix) or
        not finite, where the formula would give NaN or a false 0.
    """
    det = a[..., 0, 0] * a[..., 1, 1] - a[..., 0, 1] * a[..., 1, 0]
    size = np.abs(det)
    if not (size.min() > 0.0 and size.max() < math.inf):  # a NaN fails both
        raise np.linalg.LinAlgError("Singular matrix")
    # the transpose read backwards is [[a11, a01], [a10, a00]]
    return (a.mT[..., ::-1, ::-1] * _ADJUGATE_SIGNS) / det[..., None, None]


@dataclass(slots=True)
class AnchorSet:
    """Fixed anchor constellation.

    Attributes
    ----------
    positions : np.ndarray
        Anchor coordinates, shape (M, 2).  The last anchor is used as the
        reference when differencing squared ranges.
    """

    positions: np.ndarray

    def __post_init__(self) -> None:
        self.positions = np.atleast_2d(np.asarray(self.positions, dtype=float))
        if self.positions.ndim != 2 or self.positions.shape[1] != 2:
            raise ValueError(f"anchor positions must be (M, 2), got {self.positions.shape}")
        if not np.isfinite(self.positions).all():
            raise ValueError("anchor positions must be finite")
        if self.m < 4:
            raise ValueError(f"need at least 4 anchors, got {self.m}")
        if np.abs(self.positions).max() > MAX_REACH:  # `build_geometry` squares them
            raise ValueError(f"anchor coordinates must be within +/-{MAX_REACH:.3g} m")
        same = (self.positions[:, None, :] == self.positions).all(axis=-1)
        if np.count_nonzero(same) > self.m:
            raise ValueError("anchors must be pairwise distinct")
        # Collinear anchors leave the position unobservable in the
        # squared-range-difference formulation.
        rel = self.positions[:-1] - self.positions[-1]
        if np.linalg.matrix_rank(rel) < 2:
            raise ValueError("anchors are collinear")

    @property
    def m(self) -> int:
        return self.positions.shape[0]


@dataclass(slots=True)
class RangeNoiseModel:
    """Distance-dependent range-noise variance sigma0_sq * exp(kappa * r).

    Attributes
    ----------
    sigma0_sq : float
        Variance floor at zero range, m^2.
    kappa : float
        Exponential growth rate per metre of true range.
    """

    sigma0_sq: float = 0.0625
    kappa: float = 0.25

    def __post_init__(self) -> None:
        if not 0.0 < self.sigma0_sq < math.inf:
            raise ValueError(f"sigma0_sq must be finite and positive, got {self.sigma0_sq}")
        if not 0.0 <= self.kappa < math.inf:
            raise ValueError(f"kappa must be finite and non-negative, got {self.kappa}")

    def as_constants(self) -> RangeNoiseModel:
        """This model with its values as read-only 0-d arrays, which
        `range_variance` multiplies by faster; a track builds one."""
        return RangeNoiseModel(_constant(self.sigma0_sq), _constant(self.kappa))


@dataclass(slots=True)
class SensorNoiseModel:
    """Speed / heading measurement noise (standard deviations).

    Attributes
    ----------
    sigma_v : float
        Speed noise standard deviation, m/s.
    sigma_phi : float
        Heading noise standard deviation, rad.
    """

    sigma_v: float = 0.05
    sigma_phi: float = math.pi / 8.0

    def __post_init__(self) -> None:
        for name in ("sigma_v", "sigma_phi"):
            if not 0.0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and non-negative")


# Diagonal of the loose initial covariance of a CV state (x1, x2, V, phi),
# shared by every filter's start (positions only in 2-D) and the bounds' prior.
CV_PRIOR_VARIANCES = (1.0, 1.0, 0.25, (math.pi / 4.0) ** 2)


@dataclass(slots=True)
class CvProcessModel:
    """Process-noise variances of the nearly-constant-velocity model in
    (x1, x2, V, phi) coordinates.

    The model steps a state by `cv_transition` at the step period of the
    experiment it belongs to (`Scene.T`, `TrajectorySpec.T`), plus
    zero-mean Gaussian process noise with diagonal covariance
    diag(sigma1_sq, sigma2_sq, sigma3_sq, sigma4_sq).

    The position noise components are assumed isotropic
    (sigma1_sq == sigma2_sq is *not* required, but several closed-form
    expectations below simplify when they match).
    """

    sigma1_sq: float = 1e-4
    sigma2_sq: float = 1e-4
    sigma3_sq: float = 1e-4
    sigma4_sq: float = 1e-4

    def __post_init__(self) -> None:
        for name in ("sigma1_sq", "sigma2_sq", "sigma3_sq", "sigma4_sq"):
            if not 0.0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and non-negative")

    def q_matrix(self) -> np.ndarray:
        """Process-noise covariance Q, shape (4, 4)."""
        return np.diag(
            [self.sigma1_sq, self.sigma2_sq, self.sigma3_sq, self.sigma4_sq]
        )


def cv_transition(state, T: float) -> np.ndarray:
    """Noise-free constant-velocity transition over a step period T,
    x1' = x1 + T V cos(phi), x2' = x2 + T V sin(phi), V' = V, phi' = phi:
    of a state (4,), or of each row of a stack (..., 4)."""
    state = np.asarray(state, dtype=float)
    v, phi = state[..., 2], state[..., 3]
    out = state.copy()
    out[..., 0] += T * v * np.cos(phi)
    out[..., 1] += T * v * np.sin(phi)
    return out


def cv_transition_jacobian(state, T: float) -> np.ndarray:
    """Analytic Jacobian of the constant-velocity transition: (4, 4) at a
    state (4,), one per row (..., 4, 4) for a stack of states (..., 4)."""
    state = np.asarray(state, dtype=float)
    v, phi = state[..., 2], state[..., 3]
    c, s = np.cos(phi), np.sin(phi)
    jac = np.tile(np.eye(4), state.shape[:-1] + (1, 1))
    jac[..., 0, 2] = T * c
    jac[..., 0, 3] = -T * v * s
    jac[..., 1, 2] = T * s
    jac[..., 1, 3] = T * v * c
    return jac


def cv_rollout(
    cv: CvProcessModel, T: float, x0, steps: int, rng: np.random.Generator, ensemble: int
) -> np.ndarray:
    """Random rollouts of the CV model at step period T from one initial
    state, (steps, ensemble, 4).

    Step 0 is `x0` (4,) in every member.  Each later step applies the
    noise-free transition and adds N(0, diag(sigma_i^2)) noise, drawn as
    one (ensemble, 4) block of standard normals per step, so a rollout
    with ensemble 1 consumes `rng` as one draw of 4 per step does.
    """
    sig = np.sqrt(np.array([cv.sigma1_sq, cv.sigma2_sq, cv.sigma3_sq, cv.sigma4_sq]))
    out = np.empty((steps, ensemble, 4))
    out[0] = np.asarray(x0, dtype=float)
    for k in range(1, steps):
        out[k] = cv_transition(out[k - 1], T) + rng.normal(0.0, 1.0, size=(ensemble, 4)) * sig
    return out


@dataclass(slots=True)
class MeasurementFrame:
    """One step's measurements for a batch of R runs (or other rows), and
    the terms that read only them (`deadreckoning.measurement_frames`).

    Attributes
    ----------
    ranges : np.ndarray
        Measured anchor ranges (R, M), metres.
    speed : np.ndarray
        Measured speeds (R,), m/s.
    heading : np.ndarray
        Measured headings (R,), rad.
    displacement, input_cov : np.ndarray
        Dead-reckoning displacements (R, 2) and their input covariances Q
        (R, 2, 2) (`deadreckoning.input_terms`).
    k : int
        Step index the frame belongs to.
    """

    ranges: np.ndarray
    speed: np.ndarray
    heading: np.ndarray
    displacement: np.ndarray
    input_cov: np.ndarray
    k: int


@dataclass(slots=True)
class SensorStreams:
    """Independent random substreams, one per physical sensor.

    Keeping the sensors on separate substreams makes paired experiments
    reproducible: changing how often one sensor is sampled does not
    perturb the noise another sensor sees.
    """

    ranges: np.random.Generator
    speed: np.random.Generator
    heading: np.random.Generator

    @classmethod
    def from_seed(cls, seed: int | np.random.SeedSequence) -> "SensorStreams":
        root = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
        children = root.spawn(3)
        return cls(*(np.random.default_rng(c) for c in children))


def range_variance(r, model: RangeNoiseModel):
    """Range-noise variance at true range r.

    Parameters
    ----------
    r : array_like
        True range(s), metres, >= 0.
    model : RangeNoiseModel
        Its values are floats, or 0-d arrays (`RangeNoiseModel.as_constants`).

    Returns
    -------
    np.ndarray or float
        sigma0_sq * exp(kappa * r), same shape as `r`.

    Raises
    ------
    ValueError
        If any range is negative.

    Example
    -------
    >>> range_variance(0.0, RangeNoiseModel(sigma0_sq=0.0625, kappa=0.25))
    0.0625
    """
    r = np.asarray(r, dtype=float)
    if np.count_nonzero(r < _ZERO):
        raise ValueError("ranges must be non-negative")
    out = np.multiply(model.kappa, r, out=np.empty(r.shape))  # an array even for a scalar
    np.exp(out, out=out)
    out *= model.sigma0_sq
    return float(out) if out.ndim == 0 else out


def true_ranges(position, anchors: AnchorSet) -> np.ndarray:
    """Euclidean ranges (M,) from a position (2,) to every anchor; a stack
    of positions (..., 2) gives ranges (..., M).  The two squared
    coordinate gaps are added as one sum: the bits of a sum over the
    coordinate axis without its reduction, in the memory order of that
    sum, which later products read."""
    diff = anchors.positions - np.asarray(position, dtype=float)[..., None, :]
    diff *= diff
    squared = diff[..., 0] + diff[..., 1]
    return np.sqrt(squared, out=squared)


def floored_ranges(position, anchors: AnchorSet) -> np.ndarray:
    """`true_ranges` floored at MIN_RANGE, for dividing by."""
    return np.maximum(true_ranges(position, anchors), MIN_RANGE)


def anchor_directions(position, anchors: AnchorSet) -> tuple:
    """Floored ranges (..., M) from positions (..., 2) to the M anchors and
    the unit vectors (x - a_m) / r_m (..., M, 2), the range Jacobian."""
    r = floored_ranges(position, anchors)
    diff = np.asarray(position, dtype=float)[..., None, :] - anchors.positions
    return r, diff / r[..., None]


def anchor_planes(position, anchors: AnchorSet) -> tuple:
    """`anchor_directions` anchor-major, with each coordinate of the unit
    vectors in its own array: floored ranges r from positions (..., 2) to
    the M anchors and the planes (x - a_x) / r and (y - a_y) / r, each
    (M, ...), with the bits of `floored_ranges` and `anchor_directions`.
    For positions (N, 2) each anchor's plane is contiguous."""
    position = np.asarray(position, dtype=float)
    ax, ay = anchors.positions.T.reshape((2, -1) + (1,) * (position.ndim - 1))
    dx = position[..., 0] - ax
    dy = position[..., 1] - ay
    r = dx * dx
    r += dy * dy
    np.sqrt(r, out=r)
    np.maximum(r, MIN_RANGE, out=r)
    dx /= r
    dy /= r
    return r, dx, dy


def draw_measurements(
    positions,
    speeds,
    headings,
    anchors: AnchorSet,
    range_model: RangeNoiseModel,
    sensor_model: SensorNoiseModel,
    streams: SensorStreams,
) -> tuple:
    """Draw noisy measurements for a sequence of n true states.

    Ranges get independent N(0, sigma_i^2) noise with sigma_i^2 evaluated
    at the *true* range; speed and heading get N(0, sigma_v^2) and
    N(0, sigma_phi^2).  Each sensor consumes its own substream, in step
    order: one draw of shape (n, M) is the same stream as n draws of M.

    Parameters
    ----------
    positions : array_like
        True positions (n, 2).
    speeds, headings : array_like
        True speeds and headings (n,).

    Returns
    -------
    (ranges, speed, heading) : tuple of np.ndarray
        Shapes (n, M), (n,) and (n,).
    """
    r = true_ranges(positions, anchors)
    sigmas = np.sqrt(range_variance(r, range_model))
    n = r.shape[0]
    ranges = r + streams.ranges.normal(0.0, 1.0, size=r.shape) * sigmas
    speed = np.asarray(speeds, dtype=float) + streams.speed.normal(
        0.0, sensor_model.sigma_v, size=n
    )
    heading = np.asarray(headings, dtype=float) + streams.heading.normal(
        0.0, sensor_model.sigma_phi, size=n
    )
    return ranges, speed, heading


# Eight anchors on the perimeter of a 4 m x 4 m cell (corners plus edge
# midpoints).  The exponential range-noise model makes anchors past ~6 m
# nearly uninformative, so a compact, surrounding constellation is what
# keeps the WLS fix usable; spacing is configurable everywhere.
DEFAULT_ANCHORS = AnchorSet(
    positions=np.array(
        [
            [0.0, 0.0],
            [2.0, 0.0],
            [4.0, 0.0],
            [0.0, 2.0],
            [4.0, 2.0],
            [0.0, 4.0],
            [2.0, 4.0],
            [4.0, 4.0],
        ]
    )
)
