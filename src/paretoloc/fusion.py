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

with rho either fixed, or picked on a grid so bias^2 and variance
balance (knee point), or rho = 1/2 which reduces to the plain MSE
minimiser.
"""

from __future__ import annotations

import warnings
from collections.abc import Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING, ClassVar, NamedTuple

import numpy as np

from .deadreckoning import HeadingMoments, dr_predict, dr_second_moment, heading_vector
from .models import MeasurementFrame, range_variance, true_ranges
from .ranging import ranging_layer

if TYPE_CHECKING:
    from .simulate import Scene


# Axis indices (0 = x1, 1 = x2) along the trailing axis of a batched step.
_AXES = np.arange(2)


@dataclass(slots=True)
class AxisContext:
    """Everything one axis needs to score a candidate beta at one step.

    Each field is a float for one axis, or an array holding one value per
    element (the batched step passes (R, 2): runs by axes); every formula
    below works elementwise and broadcasts.

    Attributes
    ----------
    ranging_mean : float
        E{w_r}, the WLS error bias on this axis.
    ranging_second : float
        E{w_r^2}, the raw WLS error second moment on this axis.
    prev_bias : float
        Tracked bias of the previous fused estimate on this axis.
    prev_variance : float
        Tracked variance of the previous fused estimate on this axis.
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

    ranging_mean: float
    ranging_second: float
    prev_bias: float
    prev_variance: float
    dr_true_first: float
    heading_attenuation: float
    dr_second: float
    T: float

    def moments(self) -> ParetoMoments:
        """The moments that score a beta, each evaluated once."""
        drift = self.T * self.dr_true_first * (self.heading_attenuation - 1.0)
        sigma_vr_sq = self.ranging_second - self.ranging_mean**2
        dr_first = self.dr_true_first * self.heading_attenuation  # E{V~ trig(phi~)}
        sigma_vv_sq = self.T**2 * (self.dr_second - dr_first**2)
        return ParetoMoments(
            self.ranging_mean, self.prev_bias, self.prev_variance, drift, sigma_vr_sq, sigma_vv_sq,
            gamma=-self.ranging_mean + self.prev_bias + drift,
            eta=sigma_vr_sq + self.prev_variance + sigma_vv_sq,
        )


class ParetoMoments(NamedTuple):
    """What the beta formula and the bias/variance recursions read of an
    `AxisContext`, one value per element: E{w_r}, E{w_k}, sigma_vx^2, the
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
    mode : str
        "knee" (grid-balanced rho), "fixed" (use `fixed_rho`) or "mse"
        (rho = 1/2, where the objective is half the mean square error).
    fixed_rho : float
        Pareto weight used when mode == "fixed".
    initial_speed, initial_heading : float
        Kinematic prior used before two estimates exist to difference.
    """

    rho_grid: ClassVar[np.ndarray] = np.linspace(0.0, 1.0, 51)
    rho_grid.flags.writeable = False
    beta_clip: float = 0.99
    mode: str = "knee"
    fixed_rho: float = 0.5
    initial_speed: float = 0.0
    initial_heading: float = 0.0

    def __post_init__(self) -> None:
        if self.mode not in ("knee", "fixed", "mse"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if not 0.0 < self.beta_clip <= 1.0:
            raise ValueError("beta_clip must be in (0, 1]")
        if not 0.0 <= self.fixed_rho <= 1.0:
            raise ValueError("fixed_rho must be in [0, 1]")


@dataclass(slots=True)
class FusionState:
    """Fused estimator states of a batch of R runs (or other rows),
    carried between steps.

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
    """

    estimate: np.ndarray
    prev_estimate: np.ndarray | None
    bias_estimate: np.ndarray
    error_variance: np.ndarray
    last_speed: np.ndarray
    last_heading: np.ndarray
    last_beta: np.ndarray
    last_rho: np.ndarray


def fuse(beta, ranging_estimate, dr_estimate) -> np.ndarray:
    """Per-axis combination (1 - beta) * x_r + beta * x_v.

    beta may be a scalar or one value per axis.
    """
    beta = np.asarray(beta, dtype=float)
    x_r = np.asarray(ranging_estimate, dtype=float)
    x_v = np.asarray(dr_estimate, dtype=float)
    return (1.0 - beta) * x_r + beta * x_v


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
    return np.clip(xi, -beta_clip, beta_clip)


def optimal_beta(rho: float, ctx: AxisContext, config: ParetoConfig) -> float:
    """Minimiser of rho * mu^2(beta) + (1 - rho) * sigma^2(beta).

    The objective is quadratic in beta; the stationary point is

        xi = [2 (1-rho) sigma_vr^2 - 2 rho gamma E{w_r}]
             / [2 (1-rho) eta + 2 rho gamma^2],

    with eta = sigma_vr^2 + sigma_vx^2 + sigma_vv^2, clipped to
    |beta| <= beta_clip (at most 1).  A non-positive denominator means the
    objective has no curvature (all variances and the bias drift vanish);
    beta = 0 is returned with a warning.  Array contexts (and rho) give
    one beta per element.
    """
    if not np.all((0.0 <= rho) & (rho <= 1.0)):
        raise ValueError(f"rho must be in [0, 1], got {rho}")
    return _pareto_beta(rho, ctx.moments(), config.beta_clip, warn=True)[()]


def select_rho(m: ParetoMoments, config: ParetoConfig):
    """Knee-point Pareto weight for one axis.

    Scans `config.rho_grid`, computes beta*(rho) for each candidate, then
    the resulting one-step bias and variance, and keeps the rho whose
    squared-bias / variance gap (sigma^2 - mu^2)^2 is smallest.  Ties go
    to the smallest rho (np.argmin keeps the first minimum on the sorted
    grid).  Array moments are scanned elementwise along a leading grid
    axis and give one rho per element.
    """
    rho = config.rho_grid.reshape((-1,) + (1,) * np.ndim(m.ranging_mean))
    betas = _pareto_beta(rho, m, config.beta_clip)
    mu = bias_recursion(betas, m)
    var = error_variance(betas, m)
    return config.rho_grid[np.argmin((var - mu**2) ** 2, axis=0)][()]


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


def init_fusion(scene: Scene, frame: MeasurementFrame) -> FusionState:
    """Bootstrap a batch of fused states from WLS-only solves of the
    first frames.

    Weights are evaluated at the measured ranges (no prior estimate
    exists yet); the tracked bias / variance start from the ranging error
    moments at that operating point.  `scene.paretos` holds one
    ParetoConfig per equal block of rows, in row order.
    """
    r = np.maximum(frame.ranges, 0.0)
    estimate, bias, second = ranging_layer(
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
        error_variance=second.diagonal(0, -2, -1).copy(),
        last_speed=last_speed,
        last_heading=last_heading,
        last_beta=np.zeros((rows, 2)),
        last_rho=np.full((rows, 2), 0.5),
    )


def _pareto_update(ctx: AxisContext, configs: Sequence[ParetoConfig]) -> tuple:
    """(rho, beta, bias, variance) of one step for the contexts `ctx`
    (rows, 2), one equal block of rows per config.  Knee blocks scan for
    rho ("mse" is rho = 1/2); one beta evaluation at the per-row rho and
    beta_clip, with the scan's arithmetic, then serves every row, and
    only fixed and mse rows warn of a degenerate objective."""
    m = ctx.moments()
    rows = len(m.ranging_mean)
    rho, beta_clip = np.empty((rows, 2)), np.empty((rows, 1))
    warn = np.zeros((rows, 1), dtype=bool)
    for part, config in _row_blocks(configs, rows):
        beta_clip[part] = config.beta_clip
        if config.mode == "knee":
            rho[part] = select_rho(ParetoMoments(*(x[part] for x in m)), config)
        else:
            rho[part] = config.fixed_rho if config.mode == "fixed" else 0.5
            warn[part] = True
    beta = _pareto_beta(rho, m, beta_clip, warn)
    return rho, beta, bias_recursion(beta, m), error_variance(beta, m)


def fusion_step(scene: Scene, state: FusionState, frame: MeasurementFrame) -> FusionState:
    """Advance a batch of fused estimators by one measurement frame.

    Online operation replaces unknowable quantities by approximations:
    speed/heading by differencing the last two estimates, true ranges by
    ranges from the dead-reckoned prediction, the previous error variance
    by the tracked one.

    `scene.paretos` holds one ParetoConfig per equal block of rows, in
    row order.  The dead reckoning, the ranging layer and the axis
    moments, of shape (rows, 2), are computed once for all rows; rho is
    chosen per block by that block's mode (the knee search scans
    (len(rho_grid), block rows, 2)), and beta once for all rows.

    Returns a new FusionState; the input state is not modified.
    """
    T, sensor_model = scene.T, scene.sensor_model
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
    x_r, r_bias, r_second = ranging_layer(
        scene.geometry, r_ap, range_variance(r_ap, scene.range_model), frame.ranges
    )

    v, phi = v_ap[..., None], phi_ap[..., None]
    ctx = AxisContext(
        ranging_mean=r_bias,
        ranging_second=r_second.diagonal(0, -2, -1),
        prev_bias=state.bias_estimate,
        prev_variance=state.error_variance,
        dr_true_first=v * heading_vector(phi_ap),
        heading_attenuation=HeadingMoments(phi, sensor_model.sigma_phi**2).attenuation,
        dr_second=dr_second_moment(
            v, sensor_model.sigma_v, phi, sensor_model.sigma_phi, axis=_AXES
        ),
        T=T,
    )
    rho, beta, bias, variance = _pareto_update(ctx, scene.paretos)

    return FusionState(
        estimate=fuse(beta, x_r, x_v),
        prev_estimate=state.estimate,
        bias_estimate=bias,
        error_variance=variance,
        last_speed=v_ap,
        last_heading=phi_ap,
        last_beta=beta,
        last_rho=rho,
    )
