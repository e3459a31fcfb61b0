"""Per-axis Pareto-optimal fusion of WLS ranging and dead reckoning.

Each axis of the fused estimate is a scalar combination

    x_hat_{k+1} = (1 - beta) x_r + beta x_v,

where x_r is the WLS trilateration estimate and x_v the dead-reckoned
prediction.  The estimation error then obeys the scalar recursion

    w_{k+1} = (1 - beta) w_r + beta w_k + beta T (V~ trig(phi~) - V trig(phi)),

whose bias and variance are available in closed form given the ranging
error moments and the dead-reckoning displacement moments.  beta is
chosen per axis and per step by minimising the weighted Pareto objective

    rho * mu_{k+1}^2(beta) + (1 - rho) * sigma_{k+1}^2(beta),

with rho either set, or picked on a grid so bias^2 and variance
balance (knee point); rho = 1/2 is the plain MSE minimiser.
"""

from __future__ import annotations

import warnings
from collections.abc import Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING, ClassVar, NamedTuple

import numpy as np

from .deadreckoning import DisplacementNoise, dr_predict, heading_vector
from .models import MeasurementFrame, range_variance, true_ranges
from .ranging import ranging_layer

if TYPE_CHECKING:
    from .simulate import Scene


# Axis indices (0 = x1, 1 = x2) along the trailing axis of a batched step.
_AXES = np.arange(2)


class ParetoMoments(NamedTuple):
    """What the beta formula and the bias/variance recursions read at one
    step, one value per element: E{w_r}, E{w_k}, sigma_vx^2, the
    dead-reckoning bias increment T V trig(phi) (exp(-sigma_phi^2/2) - 1),
    the variances of the ranging error and of the displacement
    T V~ trig(phi~), gamma = -E{w_r} + E{w_k} + drift (the mean of the
    beta-multiplied error part) and eta = sigma_vr^2 + sigma_vx^2 + sigma_vv^2."""

    ranging_mean: float
    prev_bias: float
    prev_variance: float
    drift: float
    sigma_vr_sq: float
    sigma_vv_sq: float
    gamma: float
    eta: float


@dataclass(slots=True)
class ParetoConfig:
    """Knobs of the per-axis beta selection.

    Attributes
    ----------
    rho_grid : np.ndarray
        Knee-search candidates: 51 points over [0, 1], a read-only class constant.
    beta_clip : float
        Extra cap on |beta|; keeps the fused estimator strictly forgetting
        so bias/variance recursions stay contractive.
    rho : float or None
        Pareto weight in [0, 1]; None picks it per step and axis at the
        knee (`select_rho`).  At rho = 1/2 the objective is half the mean
        square error.
    initial_speed, initial_heading : float
        Kinematic prior used before two estimates exist to difference.
    """

    rho_grid: ClassVar[np.ndarray] = np.linspace(0.0, 1.0, 51)
    rho_grid.flags.writeable = False
    beta_clip: float = 0.99
    rho: float | None = None
    initial_speed: float = 0.0
    initial_heading: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 < self.beta_clip <= 1.0:
            raise ValueError("beta_clip must be in (0, 1]")
        if self.rho is not None and not 0.0 <= self.rho <= 1.0:
            raise ValueError(f"rho must be None (knee) or in [0, 1], got {self.rho}")


@dataclass(frozen=True, slots=True)
class ParetoRows:
    """The Pareto settings of a stack's rows, one ParetoConfig per equal
    block of rows: built once per track (`_pareto_rows`, called by
    `init_fusion`) and read by every step.  The arrays are read-only.

    Attributes
    ----------
    rho : np.ndarray
        Pareto weights (rows, 2): each set row's rho; NaN on the knee
        rows, whose weights each step's knee search gives.
    beta_clip : np.ndarray
        Cap on |beta| of each row (rows, 1).
    warn : np.ndarray or None
        Mask (rows, 1) of the rows at a set rho, the only rows that warn
        of a degenerate objective; None when no row is at a set rho.
    knee : tuple
        (rows, beta_clip) of each knee block: a slice, or `_ALL_ROWS` when
        the block is every row, and the block's cap on |beta|.
    rho_grid : np.ndarray
        The knee candidates `ParetoConfig.rho_grid` along a leading axis,
        (len(rho_grid), 1, 1), so that they broadcast against (rows, 2).
    """

    rho: np.ndarray
    beta_clip: np.ndarray
    warn: np.ndarray | None
    knee: tuple
    rho_grid: np.ndarray


# The knee block of a stack that is all knee rows: its moments are the
# step's moments themselves, not a slice of them.
_ALL_ROWS = slice(None)


@dataclass(slots=True)
class FusionState:
    """Fused estimator states of a batch of R runs (or other rows),
    carried between steps, and the constants of their track.

    Attributes
    ----------
    estimate : np.ndarray
        Current fused position estimates (R, 2).
    prev_estimate : np.ndarray or None
        Previous fused estimates (R, 2), needed to difference out
        speed/heading; None before the first step.
    bias_estimate : np.ndarray
        Tracked per-axis error biases (R, 2).
    error_variance : np.ndarray
        Tracked per-axis error variances (R, 2).
    last_speed, last_heading : np.ndarray
        Kinematic approximations (R,) used at the most recent step
        (fallback values before any step has run).
    last_beta, last_rho : np.ndarray
        Per-axis beta and rho (R, 2) chosen at the most recent step
        (diagnostics).
    pareto : ParetoRows
        The rows' Pareto settings, built once per track by `init_fusion`
        from `scene.paretos` and the row count.
    displacement : DisplacementNoise
        The scene's sensor-noise constants of the dead-reckoning moments
        (sigma_v^2 and the heading attenuations), built once per track by
        `init_fusion`.
    """

    estimate: np.ndarray
    prev_estimate: np.ndarray | None
    bias_estimate: np.ndarray
    error_variance: np.ndarray
    last_speed: np.ndarray
    last_heading: np.ndarray
    last_beta: np.ndarray
    last_rho: np.ndarray
    pareto: ParetoRows
    displacement: DisplacementNoise


def axis_moments(
    ranging_mean, ranging_variance, prev_bias, prev_variance, dr_true_first,
    heading_attenuation, dr_second, T,
) -> ParetoMoments:
    """The moments that score a beta on one axis, each evaluated once.

    Each argument is a float for one axis, or an array holding one value
    per element (the batched step passes (R, 2): runs by axes); every
    formula works elementwise and broadcasts.

    Parameters
    ----------
    ranging_mean, ranging_variance : float
        E{w_r} and sigma_vr^2, the WLS error bias and variance on this axis.
    prev_bias, prev_variance : float
        Tracked bias and variance of the previous fused estimate.
    dr_true_first : float
        Noise-free displacement direction term V trig(phi) (trig = cos on
        axis 0, sin on axis 1), from the kinematic approximations.
    heading_attenuation : float
        exp(-sigma_phi^2 / 2); ties the noisy displacement mean to the
        noise-free one.
    dr_second : float
        E{V~^2 trig^2(phi~)}.
    T : float
        Step period.
    """
    drift = T * dr_true_first * (heading_attenuation - 1.0)
    dr_first = dr_true_first * heading_attenuation  # E{V~ trig(phi~)}
    # a variance: clamped at 0, where rounding takes noise-free moments below it
    sigma_vv_sq = np.maximum(T**2 * (dr_second - dr_first**2), 0.0)
    return ParetoMoments(
        ranging_mean, prev_bias, prev_variance, drift, ranging_variance, sigma_vv_sq,
        gamma=-ranging_mean + prev_bias + drift,
        eta=ranging_variance + prev_variance + sigma_vv_sq,
    )


def bias_recursion(beta: float, m: ParetoMoments) -> float:
    """Bias of the fused error after one step with the given beta.

    mu_{k+1} = (1 - beta) E{w_r} + beta E{w_k}
               + beta T V trig(phi) (exp(-sigma_phi^2/2) - 1).
    """
    return (1.0 - beta) * m.ranging_mean + beta * m.prev_bias + beta * m.drift


def error_variance(beta: float, m: ParetoMoments) -> float:
    """Variance of the fused error after one step with the given beta.

    sigma^2 = (1 - beta)^2 sigma_vr^2 + beta^2 sigma_vx^2 + beta^2 sigma_vv^2,
    with sigma_vx^2 the previous step's variance `m.prev_variance`.
    """
    beta_sq = beta**2
    return (1.0 - beta) ** 2 * m.sigma_vr_sq + beta_sq * m.prev_variance + beta_sq * m.sigma_vv_sq


def _pareto_beta(rho, m: ParetoMoments, beta_clip, warn=None):
    """Clamped minimiser of rho * mu^2 + (1 - rho) * sigma^2, elementwise;
    `rho`, `beta_clip` and the mask `warn` broadcast against the moments.

    beta is 0 where the objective has no curvature (non-positive
    denominator), with a warning if any of those elements is in `warn`.
    """
    w_var, w_bias = 2.0 * (1.0 - rho), 2.0 * rho
    num = w_var * m.sigma_vr_sq - w_bias * m.gamma * m.ranging_mean
    den = w_var * m.eta + w_bias * m.gamma**2
    degenerate = den <= 0.0
    if warn is not None and np.count_nonzero(degenerate & warn):
        warnings.warn(
            "degenerate beta objective (zero curvature); falling back to beta = 0",
            RuntimeWarning,
            stacklevel=3,
        )
    xi = np.where(degenerate, 0.0, num / np.where(degenerate, 1.0, den))
    # np.clip's bits, without its wrapper's cost
    return np.minimum(np.maximum(xi, -beta_clip), beta_clip)


def optimal_beta(rho: float, m: ParetoMoments, config: ParetoConfig) -> float:
    """Minimiser of rho * mu^2(beta) + (1 - rho) * sigma^2(beta).

    The objective is quadratic in beta; the stationary point is

        xi = [2 (1-rho) sigma_vr^2 - 2 rho gamma E{w_r}]
             / [2 (1-rho) eta + 2 rho gamma^2],

    with eta = sigma_vr^2 + sigma_vx^2 + sigma_vv^2, clipped to
    |beta| <= beta_clip (at most 1).  A non-positive denominator means the
    objective has no curvature (all variances and the bias drift vanish);
    beta = 0 is returned with a warning.  Array moments (and rho) give
    one beta per element.
    """
    if not np.all((0.0 <= rho) & (rho <= 1.0)):
        raise ValueError(f"rho must be in [0, 1], got {rho}")
    return _pareto_beta(rho, m, config.beta_clip, warn=True)[()]


def select_rho(m: ParetoMoments, beta_clip, rho_grid):
    """Knee-point Pareto weight for one axis.

    Scans the sorted candidates `rho_grid` (`ParetoConfig.rho_grid`),
    computes beta*(rho) for each candidate under the cap `beta_clip`,
    then the resulting one-step bias and variance, and keeps the rho
    whose squared-bias / variance gap (sigma^2 - mu^2)^2 is smallest.
    Ties go to the smallest rho (np.argmin keeps the first minimum).
    The candidates lie along a leading axis: array moments (...) take
    them shaped (n,) + (1,) * ndim, are scanned elementwise and give one
    rho per element.
    """
    betas = _pareto_beta(rho_grid, m, beta_clip)
    mu = bias_recursion(betas, m)
    var = error_variance(betas, m)
    return rho_grid.flat[np.argmin((var - mu**2) ** 2, axis=0)]


def approximate_kinematics(
    prev_prev,
    prev,
    T: float,
    fallback_speed: float,
    fallback_heading: float,
) -> tuple:
    """Speed and heading inferred from the last two position estimates.

    V = ||prev - prev_prev|| / T and phi = atan2(dy, dx) (full-quadrant).
    With no older estimate available the configured fallbacks are
    returned; with zero displacement the speed is 0 and the previous
    heading is retained (the direction of a zero step is undefined).
    Stacks of positions (..., 2) give one speed and heading per row.
    """
    if prev_prev is None:
        return fallback_speed, fallback_heading
    delta = np.asarray(prev, dtype=float) - np.asarray(prev_prev, dtype=float)
    norm = np.sqrt((delta * delta).sum(axis=-1))
    still = norm < 1e-12
    speed = np.where(still, 0.0, norm / T)
    heading = np.where(still, fallback_heading, np.arctan2(delta[..., 1], delta[..., 0]))
    return speed[()], heading[()]


def _row_blocks(configs: Sequence[ParetoConfig], rows: int) -> list:
    """(row slice, config) for each of `configs`, in order, splitting
    `rows` rows into one equal block per config."""
    size, rest = divmod(rows, len(configs))
    if rest:
        raise ValueError(f"{rows} rows do not split into {len(configs)} equal blocks")
    return [(slice(i * size, (i + 1) * size), config) for i, config in enumerate(configs)]


def _pareto_rows(configs: Sequence[ParetoConfig], rows: int) -> ParetoRows:
    """The ParetoRows of `rows` rows, one equal block per config."""
    rho, beta_clip = np.full((rows, 2), np.nan), np.empty((rows, 1))
    warn = np.zeros((rows, 1), dtype=bool)
    knee = []
    for part, config in _row_blocks(configs, rows):
        beta_clip[part] = config.beta_clip
        if config.rho is None:
            knee.append((_ALL_ROWS if len(configs) == 1 else part, config.beta_clip))
        else:
            rho[part] = config.rho
            warn[part] = True
    for x in (rho, beta_clip, warn):
        x.flags.writeable = False
    grid = ParetoConfig.rho_grid[:, None, None]
    return ParetoRows(rho, beta_clip, warn if warn.any() else None, tuple(knee), grid)


def init_fusion(scene: Scene, frame: MeasurementFrame) -> FusionState:
    """Bootstrap a batch of fused states from WLS-only solves of the
    first frames.

    Weights are evaluated at the measured ranges (no prior estimate
    exists yet); the tracked bias and variance start from the ranging
    error moments at that operating point.  The variance seed is the raw
    second moment diag(G^{-1}) + bias^2, not the variance diag(G^{-1}),
    so the first step's sigma_vx^2 counts the bias, which `bias_estimate`
    also carries, twice.  `scene.paretos` holds one ParetoConfig per
    equal block of rows, in row order.

    What does not change from step to step is built here, once per
    track, and carried by every state of the track: the rows' Pareto
    settings (`ParetoRows`) and the sensor-noise constants of the
    dead-reckoning moments (`DisplacementNoise`).
    """
    r = np.maximum(frame.ranges, 0.0)
    estimate, bias, cov = ranging_layer(
        scene.geometry, r, range_variance(r, scene.range_model), frame.ranges
    )
    rows = len(estimate)
    last_speed, last_heading = np.empty(rows), np.empty(rows)
    for part, config in _row_blocks(scene.paretos, rows):
        last_speed[part] = config.initial_speed
        last_heading[part] = config.initial_heading
    return FusionState(
        estimate=estimate,
        prev_estimate=None,
        bias_estimate=bias,
        error_variance=cov.diagonal(0, -2, -1) + bias**2,
        last_speed=last_speed,
        last_heading=last_heading,
        last_beta=np.zeros((rows, 2)),
        last_rho=np.full((rows, 2), 0.5),
        pareto=_pareto_rows(scene.paretos, rows),
        displacement=DisplacementNoise.of(
            scene.sensor_model.sigma_v, scene.sensor_model.sigma_phi, _AXES
        ),
    )


def _pareto_update(m: ParetoMoments, pareto: ParetoRows) -> tuple:
    """(rho, beta, bias, variance) of one step for the moments `m`
    (rows, 2) under the rows' settings `pareto`.  Each knee block scans
    for rho; one beta evaluation at the per-row rho and beta_clip, with
    the scan's arithmetic, then serves every row, and only rows at a set
    rho warn of a degenerate objective."""
    rho = pareto.rho.copy()
    for part, beta_clip in pareto.knee:
        block = m if part is _ALL_ROWS else ParetoMoments._make(x[part] for x in m)
        rho[part] = select_rho(block, beta_clip, pareto.rho_grid)
    beta = _pareto_beta(rho, m, pareto.beta_clip, pareto.warn)
    return rho, beta, bias_recursion(beta, m), error_variance(beta, m)


def fusion_step(scene: Scene, state: FusionState, frame: MeasurementFrame) -> FusionState:
    """Advance a batch of fused estimators by one measurement frame.

    Online operation replaces unknowable quantities by approximations:
    speed/heading by differencing the last two estimates, true ranges by
    ranges from the dead-reckoned prediction, the previous error variance
    by the tracked one.

    The rows' Pareto settings and the sensor-noise constants come from
    the state, which `init_fusion` built once per track from the scene
    (`scene.paretos`, one ParetoConfig per equal block of rows, and
    `scene.sensor_model`); each step reads them and builds none.  The
    dead reckoning, the ranging layer and the axis moments, of shape
    (rows, 2), are computed once for all rows; rho is each block's set
    weight or its knee (the knee search scans (len(rho_grid), block
    rows, 2)), and beta once for all rows.

    Returns a new FusionState; the input state is not modified.
    """
    T, displacement = scene.T, state.displacement
    v_ap, phi_ap = approximate_kinematics(
        state.prev_estimate, state.estimate, T, state.last_speed, state.last_heading
    )

    x_v = dr_predict(state.estimate, frame)

    # The ranging moments describe the *incoming* frame, so the unknown
    # true ranges are approximated at the dead-reckoned prediction (the
    # best available guess of the new position) rather than at the stale
    # previous estimate; the two coincide as the per-step displacement
    # shrinks.
    r_ap = true_ranges(x_v, scene.anchors)
    x_r, r_bias, r_cov = ranging_layer(
        scene.geometry, r_ap, range_variance(r_ap, scene.range_model), frame.ranges
    )

    v, phi = v_ap[..., None], phi_ap[..., None]
    m = axis_moments(
        ranging_mean=r_bias,
        ranging_variance=r_cov.diagonal(0, -2, -1),
        prev_bias=state.bias_estimate,
        prev_variance=state.error_variance,
        dr_true_first=v * heading_vector(phi_ap),
        heading_attenuation=displacement.attenuation,
        dr_second=displacement.second_moment(v, phi),
        T=T,
    )
    rho, beta, bias, variance = _pareto_update(m, state.pareto)

    return FusionState(
        estimate=(1.0 - beta) * x_r + beta * x_v,
        prev_estimate=state.estimate,
        bias_estimate=bias,
        error_variance=variance,
        last_speed=v_ap,
        last_heading=phi_ap,
        last_beta=beta,
        last_rho=rho,
        pareto=state.pareto,
        displacement=displacement,
    )
