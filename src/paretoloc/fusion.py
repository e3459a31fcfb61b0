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
from .models import MeasurementFrame, RangeNoiseModel, _constant, range_variance, true_ranges
from .ranging import RangingScratch, ranging_layer

if TYPE_CHECKING:
    from .simulate import Scene


# Axis indices (0 = x1, 1 = x2) along the trailing axis of a batched step.
_AXES = np.arange(2)
_ZERO, _ONE, _STILL = map(_constant, (0.0, 1.0, 1e-12))


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
    """The Pareto candidates of a stack's rows, one ParetoConfig per equal
    block of rows, and the step's plan over them, built once per track
    (`_pareto_rows`, by `init_fusion`).

    A knee (row, axis) element has a candidate per `ParetoConfig.rho_grid`
    point, a set element one at its rho: the knee candidates first,
    grid-major, then the set ones.  Per candidate (C,), read-only: `rho`,
    the weights `w_var` = 2 (1 - rho) and `w_bias` = 2 rho, `low` and
    `high` = -/+ beta_clip, and `warn`, true on the set candidates, the
    only ones that warn of a degenerate objective.  Also read-only:
    `knee`, the knee elements' indices among the flat (rows * 2) ones.
    `gather` (8, C) holds the flat indices of the candidates' moments in
    the step's (8, rows, 2) stack; each step takes them into `workspace`
    (8, C), a scratch buffer whose rows are `moments`.  `pick` (rows, 2)
    is each element's first candidate; a knee element's at grid point g
    lies g times the knee element count on.
    """

    rho: np.ndarray
    w_var: np.ndarray
    w_bias: np.ndarray
    low: np.ndarray
    high: np.ndarray
    warn: np.ndarray
    gather: np.ndarray
    workspace: np.ndarray
    moments: ParetoMoments
    knee: np.ndarray
    pick: np.ndarray


@dataclass(frozen=True, slots=True)
class FusionTrack:
    """What the fused steps of one track read and never change, and the
    scratch buffers they write over, built once per track by `init_fusion`.

    A step writes only the scratch: `pareto.workspace` and the buffers of
    `ranging`.  Each step overwrites them before it reads them, and no
    state holds a view of them, so stepping one state twice gives the
    same state, and tracks do not share them.

    Attributes
    ----------
    pareto : ParetoRows
        The rows' Pareto candidates and plan, from `scene.paretos`.
    displacement : DisplacementNoise
        The sensor-noise constants of the dead-reckoning moments
        (sigma_v^2 and the heading attenuations).
    range_model : RangeNoiseModel
        `scene.range_model` with its values as read-only 0-d arrays.
    ranging : RangingScratch
        The ranging layer's buffers for the track's rows.
    T : np.ndarray
        `scene.T` as a read-only 0-d array.
    """

    pareto: ParetoRows
    displacement: DisplacementNoise
    range_model: RangeNoiseModel
    ranging: RangingScratch
    T: np.ndarray


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
    track : FusionTrack
        The track's constants and scratch buffers, built once by
        `init_fusion` and carried by every state of the track.
    """

    estimate: np.ndarray
    prev_estimate: np.ndarray | None
    bias_estimate: np.ndarray
    error_variance: np.ndarray
    last_speed: np.ndarray
    last_heading: np.ndarray
    last_beta: np.ndarray
    last_rho: np.ndarray
    track: FusionTrack


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
    sigma_vv_sq = np.maximum(T**2 * (dr_second - dr_first**2), _ZERO)
    gamma = -ranging_mean + prev_bias + drift
    eta = ranging_variance + prev_variance + sigma_vv_sq
    return ParetoMoments(
        ranging_mean, prev_bias, prev_variance, drift, ranging_variance, sigma_vv_sq, gamma, eta
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


def _pareto_beta(m: ParetoMoments, w_var, w_bias, low, high, warn):
    """Clamped minimiser of rho * mu^2 + (1 - rho) * sigma^2, elementwise, from
    the weights w_var = 2 (1 - rho), w_bias = 2 rho and the bounds [low, high],
    which, with the mask `warn`, broadcast against the moments.

    beta is 0 where the objective has no curvature (non-positive
    denominator), with a warning if any of those elements is in `warn`.
    """
    num = w_var * m.sigma_vr_sq - w_bias * m.gamma * m.ranging_mean
    den = w_var * m.eta + w_bias * m.gamma**2
    degenerate = den <= _ZERO
    if np.count_nonzero(degenerate):
        if np.count_nonzero(degenerate & warn):
            warnings.warn(
                "degenerate beta objective (zero curvature); falling back to beta = 0",
                RuntimeWarning,
                stacklevel=3,
            )
        num, den = np.where(degenerate, _ZERO, num), np.where(degenerate, _ONE, den)
    # np.clip's bits, without its wrapper's cost
    return np.minimum(np.maximum(num / den, low), high)


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
    cap = config.beta_clip
    return _pareto_beta(m, 2.0 * (1.0 - rho), 2.0 * rho, -cap, cap, True)[()]


def select_rho(bias, variance, pareto: ParetoRows) -> np.ndarray:
    """Each element's chosen candidate (rows, 2), from the one-step bias
    and variance of every candidate of `pareto` (C,).

    A knee element keeps the grid point whose squared-bias / variance gap
    (sigma^2 - mu^2)^2 is smallest, the first of equal ones (np.argmin),
    so ties go to the smallest rho; a set element keeps its one candidate.
    """
    knee, grid = len(pareto.knee), len(ParetoConfig.rho_grid)
    if not knee:
        return pareto.pick
    gap = (variance - bias**2) ** 2
    pick = pareto.pick.copy()
    pick.reshape(-1)[pareto.knee] += knee * gap[: grid * knee].reshape(grid, knee).argmin(axis=0)
    return pick


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
    Stacks of positions (..., 2) give one speed and heading per row.  T
    may be a float or, as a fused track passes it, a 0-d array.
    """
    if prev_prev is None:
        return fallback_speed, fallback_heading
    delta = np.subtract(prev, prev_prev, dtype=float)
    # the two squared gaps added as one sum: the bits of their sum over the
    # coordinate axis, without its reduction (as in `true_ranges`)
    squared = delta * delta
    norm = np.sqrt(squared[..., 0] + squared[..., 1])
    speed, heading = norm / T, np.arctan2(delta[..., 1], delta[..., 0])
    still = norm < _STILL
    if np.count_nonzero(still):
        # np.where makes 0-d arrays of scalars: [()] gives the scalars back
        speed = np.where(still, _ZERO, speed)[()]
        heading = np.where(still, fallback_heading, heading)[()]
    return speed, heading


def _row_blocks(configs: Sequence[ParetoConfig], rows: int) -> list:
    """(row slice, config) for each of `configs`, in order, splitting
    `rows` rows into one equal block per config."""
    size, rest = divmod(rows, len(configs))
    if rest:
        raise ValueError(f"{rows} rows do not split into {len(configs)} equal blocks")
    return [(slice(i * size, (i + 1) * size), config) for i, config in enumerate(configs)]


def _pareto_rows(configs: Sequence[ParetoConfig], rows: int) -> ParetoRows:
    """The ParetoRows of `rows` rows, one equal block per config."""
    rho, cap = np.empty((2, rows, 2))
    for part, config in _row_blocks(configs, rows):
        rho[part], cap[part] = np.nan if config.rho is None else config.rho, config.beta_clip
    knee, grid, cap = np.isnan(rho).reshape(-1), ParetoConfig.rho_grid, cap.reshape(-1)
    n_grid = np.count_nonzero(knee) * len(grid)
    pick = np.where(knee, np.cumsum(knee), n_grid + np.cumsum(~knee)) - 1
    pick, knee_at = pick.reshape(rows, 2), np.flatnonzero(knee)
    # knee candidates grid-major, then the set ones
    flat = np.concatenate((np.tile(knee_at, len(grid)), np.flatnonzero(~knee)))
    rho = np.concatenate((np.repeat(grid, n_grid // len(grid)), rho.reshape(-1)[~knee]))
    cap = np.concatenate((np.tile(cap[knee], len(grid)), cap[~knee]))
    candidates = [rho, 2.0 * (1.0 - rho), 2.0 * rho, -cap, cap, np.arange(len(rho)) >= n_grid]
    workspace = np.empty((len(ParetoMoments._fields), len(rho)))
    gather = np.arange(len(workspace))[:, None] * (rows * 2) + flat
    # gather and pick stay writable: np.take copies an index that is not
    for x in (*candidates, knee_at):
        x.flags.writeable = False
    moments = ParetoMoments._make(workspace)
    return ParetoRows(*candidates, gather, workspace, moments, knee_at, pick)


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
    track, and carried by every state of the track (`FusionTrack`): the
    rows' Pareto candidates and plan, the sensor-noise constants of the
    dead-reckoning moments, the scene's range noise and step period as
    0-d arrays, and the scratch buffers of the ranging layer.
    """
    rows = len(frame.ranges)
    track = FusionTrack(
        pareto=_pareto_rows(scene.paretos, rows),
        displacement=DisplacementNoise.of(
            scene.sensor_model.sigma_v, scene.sensor_model.sigma_phi, _AXES
        ),
        range_model=scene.range_model.as_constants(),
        ranging=RangingScratch.of(scene.geometry, (rows,)),
        T=_constant(scene.T),
    )
    r = np.maximum(frame.ranges, _ZERO)
    estimate, bias, cov = ranging_layer(
        scene.geometry, r, range_variance(r, track.range_model), frame.ranges, track.ranging
    )
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
        track=track,
    )


def _pareto_update(m: ParetoMoments, pareto: ParetoRows) -> tuple:
    """(rho, beta, bias, variance) (rows, 2) of one step for the moments
    `m` (rows, 2): gathered to every candidate of `pareto`, in its
    workspace, they give beta, bias and variance in one evaluation, and
    each element's chosen candidate (`select_rho`) is gathered back."""
    # every index is in range: "clip" spares the checked take its buffer
    np.array(m).take(pareto.gather, out=pareto.workspace, mode="clip")
    c = pareto.moments
    beta = _pareto_beta(c, pareto.w_var, pareto.w_bias, pareto.low, pareto.high, pareto.warn)
    bias, variance = bias_recursion(beta, c), error_variance(beta, c)
    pick = select_rho(bias, variance, pareto)
    return pareto.rho.take(pick), beta.take(pick), bias.take(pick), variance.take(pick)


def fusion_step(scene: Scene, state: FusionState, frame: MeasurementFrame) -> FusionState:
    """Advance a batch of fused estimators by one measurement frame.

    Online operation replaces unknowable quantities by approximations:
    speed/heading by differencing the last two estimates, true ranges by
    ranges from the dead-reckoned prediction, the previous error variance
    by the tracked one.

    The rows' Pareto candidates, the sensor-noise constants and the
    scratch buffers come from the state's `FusionTrack`, which
    `init_fusion` built once per track from the scene (`scene.paretos`,
    one ParetoConfig per equal block of rows, `scene.sensor_model`,
    `scene.range_model` and `scene.T`); each step reads them and builds
    none.  The dead reckoning, the ranging layer and the axis moments, of
    shape (rows, 2), are computed once for all rows; beta, bias and
    variance once for all candidates, the knee grid's and the set rho's
    alike.

    Returns a new FusionState; the input state is not modified, but for
    the track's scratch buffers, which the step overwrites.
    """
    track = state.track
    displacement = track.displacement
    v_ap, phi_ap = approximate_kinematics(
        state.prev_estimate, state.estimate, track.T, state.last_speed, state.last_heading
    )

    x_v = dr_predict(state.estimate, frame)

    # The ranging moments describe the *incoming* frame, so the unknown
    # true ranges are approximated at the dead-reckoned prediction (the
    # best available guess of the new position) rather than at the stale
    # previous estimate; the two coincide as the per-step displacement
    # shrinks.
    r_ap = true_ranges(x_v, scene.anchors)
    x_r, r_bias, r_cov = ranging_layer(
        scene.geometry, r_ap, range_variance(r_ap, track.range_model), frame.ranges, track.ranging
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
        T=scene.T,
    )
    rho, beta, bias, variance = _pareto_update(m, track.pareto)

    return FusionState(
        estimate=(_ONE - beta) * x_r + beta * x_v,
        prev_estimate=state.estimate,
        bias_estimate=bias,
        error_variance=variance,
        last_speed=v_ap,
        last_heading=phi_ap,
        last_beta=beta,
        last_rho=rho,
        track=track,
    )
