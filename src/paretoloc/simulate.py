"""Monte Carlo experiment harness: trajectories, paired runs, sweeps, CSV.

Every run draws one trajectory and one measurement stream, then feeds
the *same* frames to every requested estimator, so estimator comparisons
are paired sample by sample.  Seeding is hierarchical: (seed, run)
spawns independent substreams for the trajectory and for each sensor,
which keeps runs reproducible and estimator sets extensible without
perturbing existing draws.
"""

from __future__ import annotations

import csv
import dataclasses
import math
import numbers
import sys
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .crlb import parcrlb_trace, pcrlb_bounds
from .deadreckoning import MeasurementFrame, dr_predict, measurement_frames
from .filters import cv_init, ekf_cv_step, ekf_step, lckf_step, position_init, ukf_step
from .fusion import ParetoConfig, fusion_step, init_fusion
from .models import (
    DEFAULT_ANCHORS,
    MAX_REACH,
    AnchorSet,
    CvProcessModel,
    RangeNoiseModel,
    SensorNoiseModel,
    SensorStreams,
    cv_rollout,
    draw_measurements,
    range_variance,
)
from .ranging import RangingGeometry, build_geometry, noise_cov_inverse, wls_estimate

# Seconds between the acceleration breakpoints of a "pwl" trajectory.
BREAKPOINT_PERIOD = 2.0
# Radius, m/s, of the disk a "pwl" trajectory draws target velocities in.
V_CAP = 0.5


@dataclass(slots=True)
class TrajectorySpec:
    """Ground-truth trajectory description.

    Attributes
    ----------
    kind : str
        "linear" (constant speed and heading), "pwl" (piecewise-linear
        random acceleration, magnitude capped), or "cv" (random
        constant-velocity-model rollout).
    steps : int
        Number of discrete states generated (k = 0 .. steps-1).
    T : float
        Step period in seconds.  The track's reach |start| + n T |speed|
        over its n = steps - 1 steps, plus a_max (n T)^2 / 2 for "pwl",
        must stay within MAX_REACH, where squared distances still fit
        in a double.  A "pwl" track needs T <= BREAKPOINT_PERIOD.
    start : np.ndarray
        Initial position (2,).
    speed, heading : float
        Initial speed (m/s) and heading (rad).
    a_max : float
        Acceleration cap for the "pwl" kind, m/s^2.
    bounds : tuple or None
        ((x_lo, x_hi), (y_lo, y_hi)) soft arena box, finite with lo < hi.
        "linear" folds its straight line into the box (wall reflections,
        speed preserved), or runs straight on with None; "pwl" steers its
        breakpoint accelerations back inside, and needs bounds.
    cv : CvProcessModel or None
        Noise variances of the "cv" kind's process model, which steps at
        `T` (None: the default variances).
    """

    kind: str = "linear"
    steps: int = 300
    T: float = 0.1
    start: np.ndarray = field(default_factory=lambda: np.array([0.5, 2.0]))
    speed: float = 0.1
    heading: float = 0.0
    a_max: float = 0.5
    bounds: tuple | None = None
    cv: CvProcessModel | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("linear", "pwl", "cv"):
            raise ValueError(f"unknown trajectory kind {self.kind!r}")
        if not isinstance(self.steps, numbers.Integral):
            raise ValueError(f"steps must be an integer, got {self.steps!r}")
        if self.steps < 2:
            raise ValueError("need at least 2 steps")
        if not 0.0 < self.T < math.inf:
            raise ValueError("step period must be finite and positive")
        if not (math.isfinite(self.speed) and math.isfinite(self.heading)):
            raise ValueError("speed and heading must be finite")
        if not 0.0 <= self.a_max < math.inf:
            raise ValueError("a_max must be finite and non-negative")
        if self.bounds is not None:
            box = np.asarray(self.bounds, dtype=float)
            if not (box.shape == (2, 2) and np.isfinite(box).all() and (box[:, 0] < box[:, 1]).all()):
                raise ValueError("bounds must be ((x_lo, x_hi), (y_lo, y_hi)) with finite lo < hi")
        elif self.kind == "pwl":
            raise ValueError("a pwl track steers inside its bounds, so bounds must be given")
        self.start = np.asarray(self.start, dtype=float)
        if self.start.shape != (2,) or not np.isfinite(self.start).all():
            raise ValueError("start must be [x1, x2], finite")
        reach = self.reach()
        if not reach <= MAX_REACH:
            raise ValueError(
                f"step period T = {self.T:g} takes the {self.kind} track of {self.steps} steps "
                f"past the largest double when squared (reach {reach:.3g} m, "
                f"at most {MAX_REACH:.3g} m)"
            )
        # A "pwl" segment lasts max(1, round(BREAKPOINT_PERIOD / T)) steps,
        # but its steering looks ahead and solves its ramp over one period:
        # with longer steps it overshoots the box (16.6 m from the centre
        # of the 3.2 m cell at T = 5 s).
        if self.kind == "pwl" and self.T > BREAKPOINT_PERIOD:
            raise ValueError(
                f"step period T = {self.T:g} s is longer than the pwl track's "
                f"breakpoint period of {BREAKPOINT_PERIOD:g} s"
            )

    def reach(self) -> float:
        """The largest coordinate, m, the track can reach from the origin:
        |start| + n T |speed| over its n = steps - 1 steps, plus
        a_max (n T)^2 / 2 for "pwl".

        For "cv", the reach of the noise-free rollout.  "pwl" integrates
        exactly and squares T: an inf T^2 makes it inf, or NaN if
        a_max = 0.
        """
        n = self.steps - 1
        reach = float(np.abs(self.start).max()) + n * (self.T * abs(self.speed))
        if self.kind == "pwl":
            reach += 0.5 * self.a_max * (self.T * self.T) * n * n
        return reach


def _fold(x, lo, hi):
    """Fold positions into [lo, hi] by wall reflections, elementwise.

    A straight path bouncing between two walls is the unfolded path seen
    in a mirror: it repeats with period 2 * (hi - lo), and within one
    period a point past the far wall is mirrored back once.  `lo` and
    `hi` broadcast against `x` (one pair per axis of an (n, 2) path).
    """
    width = np.subtract(hi, lo)
    if not np.all(width > 0.0):
        raise ValueError("degenerate reflection interval")
    if not np.all(np.isfinite(x)):
        raise ValueError("cannot fold a non-finite position")
    x = x - 2.0 * width * ((x - lo) // (2.0 * width))
    x = np.where(x > hi, 2.0 * hi - x, x)
    # rounding in the period shift can leave the result an ulp outside
    return np.clip(x, lo, hi)


def _chord_states(pos: np.ndarray, t_step: float, speed0: float, heading0: float) -> tuple:
    """Displacement kinematics of a position array: (pos, speed, heading).

    speed/heading at step k >= 1 describe the chord from k-1 to k, which
    is exactly what an odometer + compass pair reports over the interval
    ending at k; dead reckoning on noise-free measurements then
    reconstructs the path exactly.  Step 0 carries the nominal initial
    values, and a still step keeps the heading before it.
    """
    delta = np.diff(pos, axis=0)
    norm = np.sqrt(np.vecdot(delta, delta))
    speed = np.concatenate(([speed0], norm / t_step))
    # math.atan2, not np.arctan2: the two differ in the last bit
    heading = np.array([heading0, *map(math.atan2, delta[:, 1].tolist(), delta[:, 0].tolist())])
    # index of the latest moving step at or before each step (0: the nominal)
    latest = np.where(np.concatenate(([True], norm > 1e-12)), np.arange(len(pos)), 0)
    return pos, speed, heading[np.maximum.accumulate(latest)]


def _next_breakpoint_accel(
    rng: np.random.Generator,
    accel_start: np.ndarray,
    pos: np.ndarray,
    vel: np.ndarray,
    spec: TrajectorySpec,
) -> np.ndarray:
    """Segment-end acceleration of a "pwl" track.

    A target velocity is drawn uniformly in the disk of radius `V_CAP`;
    near a wall its offending component is pointed back inside.  The
    breakpoint acceleration is then the exact ramp solve that would reach
    the target by the segment end, norm-capped at a_max (so the target is
    only partially tracked when it asks for more authority than allowed).
    """
    radius = V_CAP * math.sqrt(rng.uniform())
    angle = rng.uniform(0.0, 2.0 * math.pi)
    target = radius * np.array([math.cos(angle), math.sin(angle)])
    for ax, (lo, hi) in enumerate(spec.bounds):
        # trapezoidal look-ahead of the segment-end position
        look = pos[ax] + 0.5 * BREAKPOINT_PERIOD * (vel[ax] + target[ax])
        if look > hi:
            target[ax] = -abs(target[ax])
        elif look < lo:
            target[ax] = abs(target[ax])
    accel = 2.0 * (target - vel) / BREAKPOINT_PERIOD - accel_start
    norm = float(np.linalg.norm(accel))
    if norm > spec.a_max:
        accel *= spec.a_max / norm
    return accel


def gen_trajectory(spec: TrajectorySpec, rng: np.random.Generator) -> tuple:
    """Generate a ground-truth trajectory: (positions, speed, heading) of
    shapes (n, 2), (n,) and (n,) for n = `spec.steps`.

    The "pwl" kind interpolates random breakpoint accelerations linearly
    and integrates them exactly; the norm of every breakpoint value is
    capped at a_max, so speed never exceeds speed0 + a_max * t.  It needs
    `bounds`: the breakpoints chase random target velocities inside the
    `V_CAP` disk, pointed back inside the box near its walls (see
    _next_breakpoint_accel), which keeps the node in ranging coverage
    for arbitrarily long runs.  The look-ahead and the ramp solve aim at
    a `BREAKPOINT_PERIOD` segment, which is why `TrajectorySpec` refuses
    a "pwl" T longer than that period; the steering is closest while T
    is small against it.

    For "linear" and "pwl" the per-step speed/heading are the chord
    values of the interval ending at each step (see _chord_states); for
    "cv" they are the model's own state coordinates.
    """
    n, t_step = spec.steps, spec.T
    vel0 = spec.speed * np.array([math.cos(spec.heading), math.sin(spec.heading)])
    if spec.kind == "linear":
        steps = np.empty((n, 2))
        steps[0] = spec.start
        steps[1:] = t_step * vel0
        pos = np.cumsum(steps, axis=0)
        if spec.bounds is not None:
            lo, hi = np.array(spec.bounds, dtype=float).T
            pos = _fold(pos, lo, hi)
        return _chord_states(pos, t_step, spec.speed, spec.heading)
    if spec.kind == "pwl":
        # Breakpoints snapped to the step grid so every integration step
        # sees a genuinely linear acceleration (exact two-point integral).
        stride = max(1, int(round(BREAKPOINT_PERIOD / t_step)))
        frac = np.arange(min(stride, n - 1) + 1)[:, None] / stride
        vel = np.empty((n, 2))
        pos = np.empty((n, 2))
        vel[0] = vel0
        pos[0] = spec.start
        accel = np.zeros(2)
        for k in range(0, n - 1, stride):
            accel_next = _next_breakpoint_accel(rng, accel, pos[k], vel[k], spec)
            m = min(stride, n - 1 - k)
            a = accel + frac[: m + 1] * (accel_next - accel)
            # exact integrals of the linear acceleration segment, summed in
            # the order of the step recursion: vel + dv, (pos + vel T) + dp
            dv = np.empty((m + 1, 2))
            dv[0] = vel[k]
            dv[1:] = 0.5 * t_step * (a[:-1] + a[1:])
            np.cumsum(dv, axis=0, out=vel[k : k + m + 1])
            dp = np.empty((2 * m + 1, 2))
            dp[0] = pos[k]
            dp[1::2] = vel[k : k + m] * t_step
            dp[2::2] = t_step**2 * (2.0 * a[:-1] + a[1:]) / 6.0
            pos[k : k + m + 1] = np.cumsum(dp, axis=0)[::2]
            accel = accel_next
        return _chord_states(pos, t_step, spec.speed, spec.heading)
    # "cv": random rollout of the constant-velocity model
    x0 = [spec.start[0], spec.start[1], spec.speed, spec.heading]
    states = cv_rollout(spec.cv or CvProcessModel(), t_step, x0, n, rng, ensemble=1)[:, 0]
    return states[:, :2], states[:, 2], states[:, 3]


@dataclass(slots=True)
class ExperimentConfig:
    """Full description of one Monte Carlo experiment.  `cv_filter` holds
    the noise variances of the EKF-CV's and the posterior bound's CV
    model; the step period of every part is `trajectory.T`.  A track whose
    range noise overflows is refused (`require_finite_range_noise`)."""

    trajectory: TrajectorySpec = field(default_factory=TrajectorySpec)
    anchors: AnchorSet = field(default_factory=lambda: DEFAULT_ANCHORS)
    range_model: RangeNoiseModel = field(default_factory=RangeNoiseModel)
    sensor_model: SensorNoiseModel = field(default_factory=SensorNoiseModel)
    pareto: ParetoConfig = field(default_factory=ParetoConfig)
    cv_filter: CvProcessModel | None = None
    estimators: tuple = ("fusion", "ekf", "ukf", "lckf")
    runs: int = 10
    seed: int = 0

    def __post_init__(self) -> None:
        estimators = tuple(self.estimators)
        if not estimators:
            raise ValueError("need at least one estimator")
        for k, name in enumerate(estimators):
            if name not in KNOWN_ESTIMATORS:
                raise ValueError(
                    f"unknown estimator {name!r}; known: {KNOWN_ESTIMATORS}"
                )
            if name in estimators[:k]:
                raise ValueError(f"estimator {name!r} is named twice")
        self.estimators = estimators
        if not isinstance(self.runs, numbers.Integral) or self.runs < 1:
            raise ValueError(f"need at least one run, as an integer; got {self.runs!r}")
        if not isinstance(self.seed, numbers.Integral) or self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed!r}")
        require_finite_range_noise(self)


# Standard deviations of speed noise a dead-reckoned step is allowed above
# the track's speed, and the log of the largest range-noise variance whose
# square, which the WLS noise covariance holds, is a double.
DR_SPEED_MARGIN = 5.0
_LOG_VARIANCE_MAX = 0.5 * math.log(sys.float_info.max)


def require_finite_range_noise(config: ExperimentConfig) -> None:
    """Refuse a track on which the range-noise variance overflows.

    The estimators take sigma0_sq exp(kappa r) at the ranges of their
    dead-reckoned predictions, and the WLS noise covariance squares it
    (`noise_cov_inverse`).  So the variance must stay below the square
    root of the largest double at every range from an anchor to a point
    one dead-reckoned step from the track: T (v + DR_SPEED_MARGIN sigma_v)
    past its box in each coordinate, or past its reach when it has none,
    with v its initial speed (at least V_CAP for "pwl", whose targets lie
    in that disk).  A "pwl" track steers into its box from its start, so
    its box is widened to cover the start.

    This bounds the prediction of an estimate that stays near the track.
    An estimate that drifts further, as a WLS fix under range noise of
    100 m does, can still go non-finite, and its run is then excluded.

    Raises
    ------
    ValueError
        If the variance passes the bound.
    """
    spec = config.trajectory
    if spec.bounds is None:
        reach = spec.reach()
        box = np.array([[-reach, reach], [-reach, reach]])
    else:
        box = np.array(spec.bounds, dtype=float)
        if spec.kind == "pwl":
            box[:, 0] = np.minimum(box[:, 0], spec.start)
            box[:, 1] = np.maximum(box[:, 1], spec.start)
    speed = max(abs(spec.speed), V_CAP) if spec.kind == "pwl" else abs(spec.speed)
    step = spec.T * (speed + DR_SPEED_MARGIN * config.sensor_model.sigma_v)
    anchors = config.anchors.positions
    # per coordinate, the largest gap from an anchor to the widened box
    gap = np.maximum(anchors - (box[:, 0] - step), (box[:, 1] + step) - anchors)
    farthest = float(np.hypot(gap[:, 0], gap[:, 1]).max())
    model = config.range_model
    log_variance = math.log(model.sigma0_sq) + model.kappa * farthest
    if not log_variance <= _LOG_VARIANCE_MAX:
        raise ValueError(
            f"the range-noise variance overflows on the {spec.kind} track of {spec.steps} steps "
            f"at T = {spec.T:g} s: a dead-reckoned prediction one step of "
            f"T (speed + {DR_SPEED_MARGIN:g} sigma_v) = {step:.3g} m past the track "
            f"reaches {farthest:.3g} m from an anchor, where "
            f"ln(sigma0_sq exp(kappa r)) = {log_variance:.4g} passes {_LOG_VARIANCE_MAX:.4g}, "
            "half the log of the largest double"
        )


@dataclass(slots=True)
class RunResult:
    """Paired Monte Carlo outcome of one experiment.

    Attributes
    ----------
    estimators : tuple
        Estimator names, in run order.
    errors : dict
        name -> per-step Euclidean errors, shape (runs, steps); rows of
        NaN mark excluded runs (a numerical error, or a non-finite
        estimate at any step).
    rmse : dict
        name -> RMSE averaged over included runs (NaN if none).
    p95 : dict
        name -> 95th percentile of the included runs' pooled step errors.
    excluded : dict
        name -> number of excluded runs.
    truth_trace : np.ndarray
        First run's true positions (steps, 2).
    estimate_traces : dict
        name -> first run's estimated positions (steps, 2); NaN if that
        run is excluded.
    """

    estimators: tuple
    runs: int
    steps: int
    errors: dict
    rmse: dict
    p95: dict
    excluded: dict
    truth_trace: np.ndarray
    estimate_traces: dict


def draw_run(config: ExperimentConfig, run: int) -> tuple:
    """Truth and measurements of one Monte Carlo run, from its own streams.

    Seeding is hierarchical: (seed, run) spawns the trajectory stream and
    the sensor streams, so a run's draws do not depend on the number of
    runs or on the estimators.

    Returns
    -------
    (positions, ranges, speed, heading) : tuple of np.ndarray
        Shapes (n, 2), (n, M), (n,) and (n,) for n = trajectory steps.
    """
    traj_seq, sensor_seq = np.random.SeedSequence((config.seed, run)).spawn(2)
    positions, true_speed, true_heading = gen_trajectory(
        config.trajectory, np.random.default_rng(traj_seq)
    )
    ranges, speed, heading = draw_measurements(
        positions,
        true_speed,
        true_heading,
        config.anchors,
        config.range_model,
        config.sensor_model,
        SensorStreams.from_seed(sensor_seq),
    )
    return positions, ranges, speed, heading


@dataclass(frozen=True, slots=True)
class Scene:
    """The constants of one experiment that every estimator kernel and
    bound reads.

    Every kernel takes the scene first: `init(scene, frame)` and
    `step(scene, state, frame)`; so do the bounds of `crlb`
    (`parcrlb_trace(scene, truth)`, `pcrlb_bounds(scene, ...)`).

    Attributes
    ----------
    anchors : AnchorSet
    range_model : RangeNoiseModel
    sensor_model : SensorNoiseModel
    T : float
        Step period, s, finite and positive: the one step period of the
        CV model, the bounds and the measurements.
    cv : CvProcessModel
        Process-noise variances of the EKF-CV filter and of the posterior
        bound, whose CV model steps at `T`; None gives the defaults.
    paretos : tuple of ParetoConfig
        One ParetoConfig per equal block of rows, in row order, for the
        Pareto kernels (`init_fusion`, `fusion_step`).
    geometry : RangingGeometry
        Linearised trilateration geometry of `anchors` (derived).
    cv_noise : np.ndarray
        Process-noise covariance (4, 4) of `cv` (derived).
    """

    anchors: AnchorSet = field(default_factory=lambda: DEFAULT_ANCHORS)
    range_model: RangeNoiseModel = field(default_factory=RangeNoiseModel)
    sensor_model: SensorNoiseModel = field(default_factory=SensorNoiseModel)
    T: float = 0.1
    cv: CvProcessModel | None = None
    paretos: tuple = field(default_factory=lambda: (ParetoConfig(),))
    geometry: RangingGeometry = field(init=False, repr=False, compare=False)
    cv_noise: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not 0.0 < self.T < math.inf:
            raise ValueError(f"step period T must be finite and positive, got {self.T}")
        object.__setattr__(self, "cv", self.cv or CvProcessModel())
        object.__setattr__(self, "geometry", build_geometry(self.anchors))
        object.__setattr__(self, "cv_noise", self.cv.q_matrix())

    @classmethod
    def from_config(cls, config: ExperimentConfig) -> "Scene":
        """The scene of `config`, at the trajectory's step period.  The CV
        model's noise variances are `config.cv_filter`'s if given, else
        those of a CV-generated trajectory, else the defaults."""
        spec = config.trajectory
        cv = config.cv_filter
        if cv is None and spec.kind == "cv":
            cv = spec.cv
        return cls(
            anchors=config.anchors,
            range_model=config.range_model,
            sensor_model=config.sensor_model,
            T=spec.T,
            cv=cv,
            paretos=(config.pareto,),
        )


@dataclass(frozen=True, slots=True)
class EstimatorKernels:
    """Batched kernels of one estimator, and its variant of them.

    Each kernel takes and returns a batch of rows: `init(scene, frame)`
    builds the state from the first frames, `step(scene, state, frame)`
    advances it by one frame, and `position(state)` gives the estimates
    (rows, 2).  An estimator with no `step` is stateless: its estimate at
    every frame is `position(init(scene, frame))`.

    Estimators whose entries share `init`, `step` and `position` run as
    one stacked batch, one block of rows each; `variant(config)` gives
    the ParetoConfig of an estimator's block, and the kernels read the
    blocks' configs from `scene.paretos`.
    """

    init: Callable
    step: Callable | None
    position: Callable
    variant: Callable = lambda config: config.pareto


def _wls_fix(scene: Scene, frame: MeasurementFrame) -> np.ndarray:
    """WLS fixes (rows, 2), weights at the measured ranges (no prior estimate)."""
    r = np.maximum(frame.ranges, 0.0)
    weight = noise_cov_inverse(r, range_variance(r, scene.range_model))
    return wls_estimate(scene.geometry, frame.ranges, weight)


def _dr_step(scene, state, frame):
    return dr_predict(state, frame)


def _filter_init(scene, frame):
    return position_init(scene, _wls_fix(scene, frame))


def _cv_filter_init(scene, frame):
    return cv_init(scene, _wls_fix(scene, frame), frame.speed, frame.heading)


def _same(state):
    return state


def _fusion_position(state):
    return state.estimate


def _filter_position(state):
    return state.mean[..., :2]


def _mse_pareto(config):
    return dataclasses.replace(config.pareto, rho=0.5)


def _estimators() -> dict:
    """Batched kernels of every estimator, by name; the engine looks names
    up here and nowhere else.  "fusion" and "mse" share the Pareto kernels
    and differ in their ParetoConfig.  The table is built when a run
    starts, so it holds the kernels this module names at that time."""
    return {
        "fusion": EstimatorKernels(init_fusion, fusion_step, _fusion_position),
        "mse": EstimatorKernels(init_fusion, fusion_step, _fusion_position, _mse_pareto),
        "wls": EstimatorKernels(_wls_fix, None, _same),
        "dr": EstimatorKernels(_wls_fix, _dr_step, _same),
        "ekf": EstimatorKernels(_filter_init, ekf_step, _filter_position),
        "ukf": EstimatorKernels(_filter_init, ukf_step, _filter_position),
        "lckf": EstimatorKernels(_filter_init, lckf_step, _filter_position),
        "ekf-cv": EstimatorKernels(_cv_filter_init, ekf_cv_step, _filter_position),
    }


KNOWN_ESTIMATORS = tuple(_estimators())

# Most rows in one call of a stateless kernel.  The engine runs such a
# kernel over blocks of whole time steps; this bound keeps the transient
# (rows, M-1, M-1) weight stack of the WLS fix small.
STATELESS_BLOCK_ROWS = 256


def _stacks(registry: dict, names) -> list:
    """The requested estimator names grouped by shared kernels, in order
    of first request."""
    stacks = {}
    for name in dict.fromkeys(names):
        kernels = registry[name]
        stacks.setdefault((kernels.init, kernels.step, kernels.position), []).append(name)
    return list(stacks.values())


def _track(kernels: EstimatorKernels, scene: Scene, terms: MeasurementFrame) -> np.ndarray:
    """Estimates (n, blocks * R, 2) of one batch over the (n, R) frame
    `terms`, which each block of rows of `scene.paretos` gets
    (`measurement_frames`)."""
    blocks = len(scene.paretos)
    rows = blocks * terms.speed.shape[1]
    trace = np.empty((len(terms.speed), rows, 2))
    if kernels.step is None:
        # frames of several whole steps go into one call
        per_call = max(1, STATELESS_BLOCK_ROWS // rows)
        for frame in measurement_frames(terms, per_call, blocks):
            part = slice(frame.k, frame.k + per_call)
            trace[part] = kernels.position(kernels.init(scene, frame)).reshape(-1, rows, 2)
        return trace
    frames = measurement_frames(terms, blocks=blocks)
    state = kernels.init(scene, next(frames))
    trace[0] = kernels.position(state)
    for frame in frames:
        state = kernels.step(scene, state, frame)
        trace[frame.k] = kernels.position(state)
    return trace


def _track_runs(kernels: EstimatorKernels, scene: Scene, terms: MeasurementFrame) -> np.ndarray:
    """Estimates (n, blocks, R, 2) of one stack, blocks for `scene.paretos`.

    Every block gets the same (n, R) frame of n steps of R runs, and all
    blocks and runs go in one batch.  If the batch raises a numerical
    error (a ValueError or an ArithmeticError), each (block, run) row is
    re-run alone with its block's config, on its run's rows of the
    frame; a row that raises again is left NaN.  Each row's arithmetic is
    the same alone as in a batch, so the other rows' estimates do not
    change.
    """
    n, runs = terms.speed.shape
    blocks = len(scene.paretos)
    try:
        return _track(kernels, scene, terms).reshape(n, blocks, runs, 2)
    except (ValueError, ArithmeticError):
        pass
    trace = np.full((n, blocks, runs, 2), np.nan)
    for block, pareto in enumerate(scene.paretos):
        alone = dataclasses.replace(scene, paretos=(pareto,))
        for run in range(runs):
            one = slice(run, run + 1)
            try:
                trace[:, block, one] = _track(kernels, alone, terms.rows(one))
            except (ValueError, ArithmeticError):
                pass
    return trace


def run_experiment(config: ExperimentConfig) -> RunResult:
    """Run all configured estimators over paired Monte Carlo realizations.

    Every run's truth and measurements are drawn up front (`draw_run`),
    and their frame terms formed once (`MeasurementFrame.of`), which every
    estimator reads.  Estimators that share kernels (see
    `EstimatorKernels`) then run as one stacked batch, one block of rows
    each, which advances all their runs with one kernel call per time
    step; a stateless estimator is called on blocks of whole time steps.
    A (run, estimator) pair that raised a numerical error or produced a
    non-finite estimate at any step is excluded: its row of `errors` is
    NaN and it is counted in `excluded`, with no numpy warning about its
    overflow.
    """
    registry = _estimators()
    scene = Scene.from_config(config)
    draws = [draw_run(config, run) for run in range(config.runs)]
    # step-major stacks (n, R, ...): one time step's batch is contiguous
    positions, ranges, speed, heading = (np.stack(part, axis=1) for part in zip(*draws))
    n = config.trajectory.steps

    traces = {}
    # an estimate that drifts far from the anchors overflows its range
    # noise: its row turns non-finite and is excluded below
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        terms = MeasurementFrame.of(scene, ranges, speed, heading)
        for names in _stacks(registry, config.estimators):
            paretos = tuple(registry[name].variant(config) for name in names)
            stacked = _track_runs(
                registry[names[0]], dataclasses.replace(scene, paretos=paretos), terms
            )
            traces.update((name, stacked[:, block]) for block, name in enumerate(names))

    errors, excluded, estimate_traces = {}, {}, {}
    rmse, p95 = {}, {}
    for name in config.estimators:
        trace = traces[name]
        err = np.linalg.norm(trace - positions, axis=-1).T.copy()
        ok = np.all(np.isfinite(err), axis=1)
        err[~ok] = np.nan
        errors[name] = err
        excluded[name] = int(np.sum(~ok))
        estimate_traces[name] = trace[:, 0].copy() if ok[0] else np.full((n, 2), np.nan)
        if np.any(ok):
            rmse[name] = float(np.mean(np.sqrt(np.mean(err[ok] ** 2, axis=1))))
            p95[name] = float(np.percentile(err[ok].ravel(), 95.0))
        else:
            rmse[name] = float("nan")
            p95[name] = float("nan")

    return RunResult(
        estimators=config.estimators,
        runs=config.runs,
        steps=n,
        errors=errors,
        rmse=rmse,
        p95=p95,
        excluded=excluded,
        truth_trace=positions[:, 0].copy(),
        estimate_traces=estimate_traces,
    )


def sweep_configs(config: ExperimentConfig, parameter: str, values) -> list:
    """The experiment of each value of one trajectory parameter, every one
    built and checked before any is run.

    Parameters
    ----------
    parameter : str
        "speed", "amax", or "T".  "amax" needs a "pwl" trajectory: the
        other kinds have no acceleration cap.
    values : iterable of float

    Returns
    -------
    list of (value, ExperimentConfig)

    Raises
    ------
    ValueError
        For an unknown parameter, "amax" on a trajectory that does not
        read it, or a value the trajectory rejects.
    """
    attr = {"speed": "speed", "amax": "a_max", "T": "T"}.get(parameter)
    if attr is None:
        raise ValueError(f"unknown sweep parameter {parameter!r}")
    if attr == "a_max" and config.trajectory.kind != "pwl":
        raise ValueError(
            f"amax applies only to 'pwl' trajectories, not {config.trajectory.kind!r}"
        )
    out = []
    for value in values:
        spec = dataclasses.replace(config.trajectory, **{attr: float(value)})
        out.append((float(value), dataclasses.replace(config, trajectory=spec)))
    return out


def sweep(config: ExperimentConfig, parameter: str, values) -> list:
    """Re-run the experiment for each value of one trajectory parameter.

    Every value is checked before the first run (see `sweep_configs`).

    Returns
    -------
    list of (value, RunResult)
    """
    return [(value, run_experiment(cfg)) for value, cfg in sweep_configs(config, parameter, values)]


# ---------------------------------------------------------------------------
# scenario presets
# ---------------------------------------------------------------------------

# Soft arena box used by the presets: the default anchor cell inset by a
# 0.4 m margin.  Linear tracks reflect off it, accelerating tracks steer
# inside it, so sweeps over speed or acceleration never walk out of
# ranging coverage.
ARENA_BOUNDS = ((0.4, 3.6), (0.4, 3.6))


def scenario_linear(steps: int = 300, T: float = 0.1, speed: float = 0.1) -> TrajectorySpec:
    """Straight eastbound track through the arena (reflective walls)."""
    return TrajectorySpec(
        kind="linear", steps=steps, T=T, start=np.array([0.5, 2.0]), speed=speed,
        bounds=ARENA_BOUNDS,
    )


def scenario_pwl(
    steps: int = 300, T: float = 0.1, speed: float = 0.1, a_max: float = 0.5
) -> TrajectorySpec:
    """Randomly accelerating track (piecewise-linear acceleration)."""
    return TrajectorySpec(
        kind="pwl", steps=steps, T=T, start=np.array([2.0, 2.0]), speed=speed, a_max=a_max,
        bounds=ARENA_BOUNDS,
    )


def scenario_cv(
    steps: int = 200, T: float = 0.1, speed: float = 0.15, cv: CvProcessModel | None = None
) -> TrajectorySpec:
    """Near-constant-velocity rollout with a faint velocity random walk.

    The process noise is kept tiny so the rollout stays inside the anchor
    cell and a filter built on the same model can exploit its long memory;
    the oblique heading avoids axis-aligned symmetry.
    """
    if cv is None:
        cv = CvProcessModel(sigma1_sq=1e-6, sigma2_sq=1e-6, sigma3_sq=1e-6, sigma4_sq=1e-6)
    return TrajectorySpec(
        kind="cv", steps=steps, T=T, start=np.array([0.5, 1.6]), speed=speed,
        heading=np.pi / 12.0, cv=cv,
    )


def make_scenario(name: str, **overrides) -> TrajectorySpec:
    """Scenario presets by letter: A linear, B accelerating, CV rollout."""
    preset = {"A": scenario_linear, "B": scenario_pwl, "CV": scenario_cv}.get(name.upper())
    if preset is None:
        raise ValueError(f"unknown scenario {name!r}")
    return preset(**overrides)


# ---------------------------------------------------------------------------
# CSV output
# ---------------------------------------------------------------------------


def _fmt(x: float) -> str:
    return f"{x:.10g}"


def write_run_trace(path, result: RunResult) -> None:
    """First-realization trace CSV: k, truth, then per-estimator columns."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        header = ["k", "truth_x1", "truth_x2"]
        for name in result.estimators:
            header += [f"{name}_x1", f"{name}_x2", f"{name}_err"]
        writer.writerow(header)
        for k in range(result.steps):
            row = [str(k), _fmt(result.truth_trace[k, 0]), _fmt(result.truth_trace[k, 1])]
            for name in result.estimators:
                est = result.estimate_traces[name][k]
                err = result.errors[name][0, k]
                row += [_fmt(est[0]), _fmt(est[1]), _fmt(err)]
            writer.writerow(row)


SUMMARY_HEADER = ("estimator", "rmse_m", "p95_err_m", "runs", "excluded")


def summary_rows(result: RunResult) -> list:
    """One row of strings per estimator, in the columns of SUMMARY_HEADER."""
    return [
        [name, _fmt(result.rmse[name]), _fmt(result.p95[name]),
         str(result.runs), str(result.excluded[name])]
        for name in result.estimators
    ]


def write_summary(path, result: RunResult) -> None:
    """Aggregate CSV: estimator, rmse_m, p95_err_m, runs, excluded."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SUMMARY_HEADER)
        writer.writerows(summary_rows(result))


def write_crlb(path, traces: dict) -> None:
    """Bound-trace CSV of `crlb_traces` output: k, parcrlb, pcrlb,
    pcrlb_lb, pcrlb_ub."""
    columns = ("parcrlb", "pcrlb", "pcrlb_lb", "pcrlb_ub")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["k", *columns])
        for k in range(len(traces["parcrlb"])):
            writer.writerow([str(k), *(_fmt(traces[name][k]) for name in columns)])


def crlb_traces(config: ExperimentConfig, steps: int | None = None, *, n_ensemble: int) -> dict:
    """Parametric and posterior bound traces for the configured scenario.

    The parametric bound runs along the noise-free straight track from the
    scenario's initial state; the posterior bound and its bracket run
    along rollouts of the scene's CV model (see `Scene.from_config`) from
    that track's first state, which on a track with walls is the start
    folded into them.  `bracket_ok` marks the steps where the bracket is
    finite and holds the posterior bound: ub finite, lb <= pcrlb <= ub.
    """
    spec = config.trajectory
    n = spec.steps if steps is None else steps
    scene = Scene.from_config(config)
    rng = np.random.default_rng(np.random.SeedSequence((config.seed, 0x6372)))
    # a "linear" track draws nothing, so the rollouts get the whole stream
    truth = gen_trajectory(dataclasses.replace(spec, kind="linear", steps=n), rng)
    # a rollout far off overflows its range noise: its bound is non-finite, and counted
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        # the posterior bound first: its guard raises ValueError for every
        # noise setting either bound inverts (`require_invertible_noise`)
        # before any bound arithmetic runs
        post = pcrlb_bounds(
            scene, truth[0][0], spec.speed, spec.heading, steps=n, n_ensemble=n_ensemble, rng=rng
        )
        _, par_bound = parcrlb_trace(scene, truth)
    lb, bound, ub = post.bound_lb, post.bound, post.bound_ub
    return {
        "parcrlb": par_bound,
        "pcrlb": bound,
        "pcrlb_lb": lb,
        "pcrlb_ub": ub,
        "bracket_ok": np.isfinite(ub) & (lb <= bound) & (bound <= ub),
        "sandwich_ok": post.sandwich_ok,
    }
