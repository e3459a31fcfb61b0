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

import math
import warnings
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .deadreckoning import dr_predict, dr_second_moment, heading_vector
from .models import (
    AnchorSet,
    MeasurementFrame,
    RangeNoiseModel,
    SensorNoiseModel,
    range_variance,
    true_ranges,
)
from .ranging import RangingGeometry, ranging_layer


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

    @property
    def dr_first(self) -> float:
        """E{V~ trig(phi~)} = V trig(phi) * heading attenuation."""
        return self.dr_true_first * self.heading_attenuation

    @property
    def drift(self) -> float:
        """Deterministic dead-reckoning bias increment
        T V trig(phi) (exp(-sigma_phi^2/2) - 1)."""
        return self.T * self.dr_true_first * (self.heading_attenuation - 1.0)

    @property
    def sigma_vr_sq(self) -> float:
        """Variance of the ranging error, E{w_r^2} - E{w_r}^2."""
        return self.ranging_second - self.ranging_mean**2

    @property
    def sigma_vv_sq(self) -> float:
        """Variance of the dead-reckoned displacement T V~ trig(phi~)."""
        return self.T**2 * (self.dr_second - self.dr_first**2)

    @property
    def gamma(self) -> float:
        """Mean of the beta-multiplied error part: -E{w_r} + E{w_k} + drift."""
        return -self.ranging_mean + self.prev_bias + self.drift


@dataclass(slots=True)
class ParetoConfig:
    """Knobs of the per-axis beta selection.

    Attributes
    ----------
    rho_grid : np.ndarray
        Candidate Pareto weights for the knee search, in [0, 1].
    beta_domain : tuple
        Hard feasibility interval for beta.
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

    rho_grid: np.ndarray = field(
        default_factory=lambda: np.linspace(0.0, 1.0, 51)
    )
    beta_domain: tuple = (-1.0, 1.0)
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
    """Fused estimator state carried between steps.

    Holds one run with the shapes below, or a batch of R runs with a
    leading run axis on every array and per-run arrays (R,) in place of
    the floats; the batched kernels take and return batches.

    Attributes
    ----------
    estimate : np.ndarray
        Current fused position estimate (2,).
    prev_estimate : np.ndarray or None
        Previous fused estimate, needed to difference out speed/heading.
    bias_estimate : np.ndarray
        Tracked per-axis error bias (2,).
    error_variance : np.ndarray
        Tracked per-axis error variance (2,).
    k : int
        Step index of `estimate`.
    last_speed, last_heading : float
        Kinematic approximations used at the most recent step (fallback
        values before any step has run).
    last_beta, last_rho : np.ndarray
        Per-axis beta and rho chosen at the most recent step (diagnostics).
    """

    estimate: np.ndarray
    prev_estimate: np.ndarray | None
    bias_estimate: np.ndarray
    error_variance: np.ndarray
    k: int = 0
    last_speed: float = 0.0
    last_heading: float = 0.0
    last_beta: np.ndarray = field(default_factory=lambda: np.zeros(2))
    last_rho: np.ndarray = field(default_factory=lambda: np.full(2, 0.5))

    def batch_of_one(self) -> "FusionState":
        """This single-run state as a batch of one run (copies)."""

        def one(x):
            return None if x is None else np.array(x, dtype=float)[None]

        return FusionState(
            estimate=one(self.estimate),
            prev_estimate=one(self.prev_estimate),
            bias_estimate=one(self.bias_estimate),
            error_variance=one(self.error_variance),
            k=self.k,
            last_speed=one(self.last_speed),
            last_heading=one(self.last_heading),
            last_beta=one(self.last_beta),
            last_rho=one(self.last_rho),
        )

    def unbatch(self) -> "FusionState":
        """The single run of a batch of one."""
        return FusionState(
            estimate=self.estimate[0],
            prev_estimate=None if self.prev_estimate is None else self.prev_estimate[0],
            bias_estimate=self.bias_estimate[0],
            error_variance=self.error_variance[0],
            k=self.k,
            last_speed=float(self.last_speed[0]),
            last_heading=float(self.last_heading[0]),
            last_beta=self.last_beta[0],
            last_rho=self.last_rho[0],
        )


def fuse(beta, ranging_estimate, dr_estimate) -> np.ndarray:
    """Per-axis combination (1 - beta) * x_r + beta * x_v.

    beta may be a scalar or one value per axis.
    """
    beta = np.asarray(beta, dtype=float)
    x_r = np.asarray(ranging_estimate, dtype=float)
    x_v = np.asarray(dr_estimate, dtype=float)
    return (1.0 - beta) * x_r + beta * x_v


def bias_recursion(beta: float, ctx: AxisContext) -> float:
    """Bias of the fused error after one step with the given beta.

    mu_{k+1} = (1 - beta) E{w_r} + beta E{w_k}
               + beta T V trig(phi) (exp(-sigma_phi^2/2) - 1).
    """
    return (1.0 - beta) * ctx.ranging_mean + beta * ctx.prev_bias + beta * ctx.drift


def error_variance(beta: float, ctx: AxisContext) -> float:
    """Variance of the fused error after one step with the given beta.

    sigma^2 = (1 - beta)^2 sigma_vr^2 + beta^2 sigma_vx^2 + beta^2 sigma_vv^2,
    with sigma_vx^2 the previous step's variance `ctx.prev_variance`.
    """
    return (
        (1.0 - beta) ** 2 * ctx.sigma_vr_sq
        + beta**2 * ctx.prev_variance
        + beta**2 * ctx.sigma_vv_sq
    )


def _clamp_beta(xi, config: ParetoConfig):
    """Clamp to the feasible domain, then cap |beta| at beta_clip."""
    lo, hi = config.beta_domain
    beta = np.minimum(np.maximum(xi, lo), hi)
    return np.copysign(np.minimum(np.abs(beta), config.beta_clip), beta)


def _pareto_beta(rho, ctx: AxisContext, config: ParetoConfig) -> tuple:
    """Clamped minimiser of rho * mu^2 + (1 - rho) * sigma^2, elementwise.

    Returns (beta, degenerate): beta is 0 where the objective has no
    curvature (non-positive denominator), and `degenerate` marks those
    elements.
    """
    sigma_vr_sq, gamma = ctx.sigma_vr_sq, ctx.gamma
    eta = sigma_vr_sq + ctx.prev_variance + ctx.sigma_vv_sq
    num = 2.0 * (1.0 - rho) * sigma_vr_sq - 2.0 * rho * gamma * ctx.ranging_mean
    den = 2.0 * (1.0 - rho) * eta + 2.0 * rho * gamma**2
    degenerate = den <= 0.0
    xi = np.where(degenerate, 0.0, num / np.where(degenerate, 1.0, den))
    return _clamp_beta(xi, config), degenerate


def optimal_beta(rho: float, ctx: AxisContext, config: ParetoConfig | None = None) -> float:
    """Minimiser of rho * mu^2(beta) + (1 - rho) * sigma^2(beta).

    The objective is quadratic in beta; the stationary point is

        xi = [2 (1-rho) sigma_vr^2 - 2 rho gamma E{w_r}]
             / [2 (1-rho) eta + 2 rho gamma^2],

    with eta = sigma_vr^2 + sigma_vx^2 + sigma_vv^2, clamped to the
    feasible domain and capped at |beta| <= beta_clip.  A non-positive
    denominator means the objective has no curvature (all variances and
    the bias drift vanish); beta = 0 is returned with a warning.  Array
    contexts (and rho) give one beta per element.
    """
    if config is None:
        config = ParetoConfig()
    if not np.all((0.0 <= rho) & (rho <= 1.0)):
        raise ValueError(f"rho must be in [0, 1], got {rho}")
    beta, degenerate = _pareto_beta(rho, ctx, config)
    if np.any(degenerate):
        warnings.warn(
            "degenerate beta objective (zero curvature); falling back to beta = 0",
            RuntimeWarning,
            stacklevel=2,
        )
    return beta[()]


def select_rho(ctx: AxisContext, config: ParetoConfig) -> tuple:
    """Knee-point Pareto weight and its beta for one axis.

    Scans `config.rho_grid`, computes beta*(rho) for each candidate, then
    the resulting one-step bias and variance, and keeps the rho whose
    squared-bias / variance gap (sigma^2 - mu^2)^2 is smallest.  Ties go
    to the smallest rho (np.argmin keeps the first minimum on the sorted
    grid).  An array context is scanned elementwise along a trailing grid
    axis.

    Returns
    -------
    (rho_star, beta_star) : tuple
        Floats, or arrays of the context's shape.
    """

    def along_grid(x):
        # scalar fields (T and the heading attenuation of a batch) broadcast as they are
        return x[..., None] if isinstance(x, np.ndarray) else x

    grid = AxisContext(*(along_grid(getattr(ctx, name)) for name in AxisContext.__slots__))
    rho = config.rho_grid
    betas, _ = _pareto_beta(rho, grid, config)
    mu = bias_recursion(betas, grid)
    var = error_variance(betas, grid)
    best = np.argmin((var - mu**2) ** 2, axis=-1)
    flat = betas.reshape(-1, rho.size)
    beta = flat[np.arange(flat.shape[0]), best.reshape(-1)].reshape(best.shape)
    return rho[best][()], beta[()]


def _choose_rho_beta(ctx: AxisContext, config: ParetoConfig) -> tuple:
    """Per-axis (rho, beta) for the contexts `ctx`, by `config.mode`."""
    if config.mode == "knee":
        return select_rho(ctx, config)
    # "mse" is the rho = 1/2 point of the same objective
    rho = config.fixed_rho if config.mode == "fixed" else 0.5
    beta = optimal_beta(rho, ctx, config)
    return np.full_like(beta, rho), beta


def _context_rows(ctx: AxisContext, part: slice) -> AxisContext:
    """The contexts of the rows `part` of a batch; T and the heading
    attenuation are shared by all rows."""
    return AxisContext(
        ranging_mean=ctx.ranging_mean[part],
        ranging_second=ctx.ranging_second[part],
        prev_bias=ctx.prev_bias[part],
        prev_variance=ctx.prev_variance[part],
        dr_true_first=ctx.dr_true_first[part],
        heading_attenuation=ctx.heading_attenuation,
        dr_second=ctx.dr_second[part],
        T=ctx.T,
    )


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


def init_fusion_batch(
    frame: MeasurementFrame,
    anchors: AnchorSet,
    geometry: RangingGeometry,
    range_model: RangeNoiseModel,
    configs: Sequence[ParetoConfig],
) -> FusionState:
    """Bootstrap a batch of fused states from WLS-only solves of the first
    frames (a batched frame; see `init_fusion`).

    `configs` holds one ParetoConfig per equal block of rows, in row
    order; a batch run under one config passes a sequence of one.
    """
    r = np.maximum(frame.ranges, 0.0)
    estimate, bias, second = ranging_layer(
        geometry, r, range_variance(r, range_model), frame.ranges
    )
    rows = len(estimate)
    last_speed, last_heading = np.empty(rows), np.empty(rows)
    for part, config in _row_blocks(configs, rows):
        last_speed[part] = config.initial_speed
        last_heading[part] = config.initial_heading
    return FusionState(
        estimate=estimate,
        prev_estimate=None,
        bias_estimate=bias,
        error_variance=second.diagonal(0, -2, -1).copy(),
        k=frame.k,
        last_speed=last_speed,
        last_heading=last_heading,
        last_beta=np.zeros((rows, 2)),
        last_rho=np.full((rows, 2), 0.5),
    )


def init_fusion(
    frame: MeasurementFrame,
    anchors: AnchorSet,
    geometry: RangingGeometry,
    range_model: RangeNoiseModel,
    config: ParetoConfig,
) -> FusionState:
    """Bootstrap the fused state from a WLS-only solve of the first frame.

    Weights are evaluated at the measured ranges (no prior estimate
    exists yet); the tracked bias / variance start from the ranging error
    moments at that operating point.  This is `init_fusion_batch` on a
    batch of one run.
    """
    return init_fusion_batch(
        frame.batch_of_one(), anchors, geometry, range_model, (config,)
    ).unbatch()


def fusion_step_batch(
    state: FusionState,
    frame: MeasurementFrame,
    anchors: AnchorSet,
    geometry: RangingGeometry,
    range_model: RangeNoiseModel,
    sensor_model: SensorNoiseModel,
    configs: Sequence[ParetoConfig],
    T: float,
) -> FusionState:
    """Advance a batch of fused estimators by one batched measurement frame.

    `configs` holds one ParetoConfig per equal block of rows, in row
    order (a sequence of one for a batch under one config).  The dead
    reckoning, the ranging layer and the axis contexts, of shape
    (rows, 2), are computed once for all rows; beta and rho are chosen
    per block by that block's mode, and the knee search scans
    (block rows, 2, len(rho_grid)).  See `fusion_step` for the
    approximations.
    """
    v_ap, phi_ap = approximate_kinematics(
        state.prev_estimate, state.estimate, T, state.last_speed, state.last_heading
    )

    x_v = dr_predict(state.estimate, frame, T)

    # The ranging moments describe the *incoming* frame, so the unknown
    # true ranges are approximated at the dead-reckoned prediction (the
    # best available guess of the new position) rather than at the stale
    # previous estimate; the two coincide as the per-step displacement
    # shrinks.
    r_ap = true_ranges(x_v, anchors)
    x_r, r_bias, r_second = ranging_layer(
        geometry, r_ap, range_variance(r_ap, range_model), frame.ranges
    )

    v, phi = v_ap[..., None], phi_ap[..., None]
    ctx = AxisContext(
        ranging_mean=r_bias,
        ranging_second=r_second.diagonal(0, -2, -1),
        prev_bias=state.bias_estimate,
        prev_variance=state.error_variance,
        dr_true_first=v * heading_vector(phi_ap),
        heading_attenuation=math.exp(-0.5 * sensor_model.sigma_phi**2),
        dr_second=dr_second_moment(
            v, sensor_model.sigma_v, phi, sensor_model.sigma_phi, axis=_AXES
        ),
        T=T,
    )
    rho, beta = np.empty_like(x_r), np.empty_like(x_r)
    for part, config in _row_blocks(configs, len(x_r)):
        rho[part], beta[part] = _choose_rho_beta(_context_rows(ctx, part), config)

    return FusionState(
        estimate=fuse(beta, x_r, x_v),
        prev_estimate=state.estimate,
        bias_estimate=bias_recursion(beta, ctx),
        error_variance=error_variance(beta, ctx),
        k=frame.k,
        last_speed=v_ap,
        last_heading=phi_ap,
        last_beta=beta,
        last_rho=rho,
    )


def fusion_step(
    state: FusionState,
    frame: MeasurementFrame,
    anchors: AnchorSet,
    geometry: RangingGeometry,
    range_model: RangeNoiseModel,
    sensor_model: SensorNoiseModel,
    config: ParetoConfig,
    T: float,
) -> FusionState:
    """Advance the fused estimator by one measurement frame.

    Online operation replaces unknowable quantities by approximations:
    speed/heading by differencing the last two estimates, true ranges by
    ranges from the dead-reckoned prediction, the previous error variance
    by the tracked one.  This is `fusion_step_batch` on a batch of one run.

    Returns a new FusionState; the input state is not modified.
    """
    return fusion_step_batch(
        state.batch_of_one(),
        frame.batch_of_one(),
        anchors,
        geometry,
        range_model,
        sensor_model,
        (config,),
        T,
    ).unbatch()
