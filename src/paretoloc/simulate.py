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
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .crlb import parcrlb_trace, pcrlb_bounds
from .deadreckoning import dr_predict
from .filters import (
    cv_init,
    ekf_cv_step_batch,
    ekf_step_batch,
    lckf_step_batch,
    position_init,
    ukf_step_batch,
)
from .fusion import ParetoConfig, fusion_step_batch, init_fusion_batch
from .models import (
    DEFAULT_ANCHORS,
    AnchorSet,
    CvProcessModel,
    MeasurementFrame,
    RangeNoiseModel,
    SensorNoiseModel,
    SensorStreams,
    TruthState,
    draw_measurements,
    range_variance,
)
from .ranging import RangingGeometry, build_geometry, noise_cov_inverse, wls_estimate


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
        Step period in seconds.
    start : np.ndarray
        Initial position (2,).
    speed, heading : float
        Initial speed (m/s) and heading (rad).
    a_max : float
        Acceleration cap for the "pwl" kind, m/s^2.
    breakpoint_period : float
        Seconds between acceleration breakpoints for the "pwl" kind.
    bounds : tuple or None
        ((x_lo, x_hi), (y_lo, y_hi)) soft arena box.  "linear" reflects
        off the walls (speed preserved); "pwl" steers its breakpoint
        accelerations back inside.  None disables both.
    v_cap : float
        Speed above which "pwl" breakpoints decelerate, m/s.
    cv : CvProcessModel or None
        Process model for the "cv" kind.
    """

    kind: str = "linear"
    steps: int = 300
    T: float = 0.1
    start: np.ndarray = field(default_factory=lambda: np.array([0.5, 2.0]))
    speed: float = 0.1
    heading: float = 0.0
    a_max: float = 0.5
    breakpoint_period: float = 2.0
    bounds: tuple | None = None
    v_cap: float = 0.5
    cv: CvProcessModel | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("linear", "pwl", "cv"):
            raise ValueError(f"unknown trajectory kind {self.kind!r}")
        if self.steps < 2:
            raise ValueError("need at least 2 steps")
        if self.T <= 0.0:
            raise ValueError("step period must be positive")
        self.start = np.asarray(self.start, dtype=float)


def _reflect(value: float, lo: float, hi: float) -> tuple:
    """Fold a scalar into [lo, hi] by wall reflections; returns (value, sign).

    sign is -1 when an odd number of reflections occurred (the velocity
    component flips), +1 otherwise.  The path is unfolded with period
    2 * (hi - lo): whole periods are two reflections each, and one more
    happens when the remainder lies past the far wall.
    """
    width = hi - lo
    if not width > 0.0:
        raise ValueError("degenerate reflection interval")
    if not math.isfinite(value):
        raise ValueError(f"cannot reflect a non-finite position {value}")
    if value < lo:
        folded, sign = _reflect(-value, -hi, -lo)
        return -folded, sign
    value -= 2.0 * width * ((value - lo) // (2.0 * width))
    sign = 1.0
    if value > hi:
        value, sign = 2.0 * hi - value, -1.0
    # rounding in the period shift can leave the result an ulp outside
    return min(max(value, lo), hi), sign


def _chord_states(pos: np.ndarray, t_step: float, speed0: float, heading0: float) -> list:
    """Wrap a position array into TruthStates with displacement kinematics.

    speed/heading at step k >= 1 describe the chord from k-1 to k, which
    is exactly what an odometer + compass pair reports over the interval
    ending at k; dead reckoning on noise-free measurements then
    reconstructs the path exactly.  Step 0 carries the nominal initial
    values.
    """
    n = len(pos)
    states = [TruthState(position=pos[0].copy(), speed=speed0, heading=heading0, k=0)]
    heading = heading0
    for k in range(1, n):
        delta = pos[k] - pos[k - 1]
        norm = float(np.linalg.norm(delta))
        if norm > 1e-12:
            heading = math.atan2(delta[1], delta[0])
        states.append(
            TruthState(position=pos[k].copy(), speed=norm / t_step, heading=heading, k=k)
        )
    return states


def _draw_capped(rng: np.random.Generator, a_max: float) -> np.ndarray:
    """Breakpoint acceleration: per-axis uniform in [-a_max, a_max],
    rescaled onto the cap if the vector norm exceeds it."""
    vec = rng.uniform(-a_max, a_max, size=2)
    norm = float(np.linalg.norm(vec))
    if norm > a_max:
        vec *= a_max / norm
    return vec


def _next_breakpoint_accel(
    rng: np.random.Generator,
    accel_start: np.ndarray,
    pos: np.ndarray,
    vel: np.ndarray,
    spec: TrajectorySpec,
) -> np.ndarray:
    """Segment-end acceleration for the contained (bounded-arena) mode.

    A target velocity is drawn uniformly in the disk of radius `v_cap`;
    near a wall its offending component is pointed back inside.  The
    breakpoint acceleration is then the exact ramp solve that would reach
    the target by the segment end, norm-capped at a_max (so the target is
    only partially tracked when it asks for more authority than allowed).
    """
    p = spec.breakpoint_period
    radius = spec.v_cap * math.sqrt(rng.uniform())
    angle = rng.uniform(0.0, 2.0 * math.pi)
    target = radius * np.array([math.cos(angle), math.sin(angle)])
    for ax, (lo, hi) in enumerate(spec.bounds):
        # trapezoidal look-ahead of the segment-end position
        look = pos[ax] + 0.5 * p * (vel[ax] + target[ax])
        if look > hi:
            target[ax] = -abs(target[ax])
        elif look < lo:
            target[ax] = abs(target[ax])
    accel = 2.0 * (target - vel) / p - accel_start
    norm = float(np.linalg.norm(accel))
    if norm > spec.a_max:
        accel *= spec.a_max / norm
    return accel


def gen_trajectory(spec: TrajectorySpec, rng: np.random.Generator | None = None) -> list:
    """Generate a ground-truth trajectory as a list of TruthState.

    The "pwl" kind interpolates random breakpoint accelerations linearly
    and integrates them exactly; the norm of every breakpoint value is
    capped at a_max, so speed never exceeds speed0 + a_max * t.  Without
    `bounds` the breakpoints are per-axis uniform in [-a_max, a_max]
    (free random walk); with `bounds` they are chosen to chase random
    target velocities inside the `v_cap` disk, pointed back inside the
    box near its walls (see _next_breakpoint_accel), which keeps the
    node in ranging coverage for arbitrarily long runs.

    For "linear" and "pwl" the per-step speed/heading are the chord
    values of the interval ending at each step (see _chord_states); for
    "cv" they are the model's own state coordinates.
    """
    rng = np.random.default_rng() if rng is None else rng
    n, t_step = spec.steps, spec.T
    if spec.kind == "linear":
        vel = spec.speed * np.array([math.cos(spec.heading), math.sin(spec.heading)])
        pos = np.empty((n, 2))
        pos[0] = spec.start
        if spec.bounds is None:
            for k in range(1, n):
                pos[k] = pos[k - 1] + t_step * vel
        else:
            v = vel.copy()
            for k in range(1, n):
                p = pos[k - 1] + t_step * v
                for ax, (lo, hi) in enumerate(spec.bounds):
                    p[ax], sign = _reflect(p[ax], lo, hi)
                    v[ax] *= sign
                pos[k] = p
        return _chord_states(pos, t_step, spec.speed, spec.heading)
    if spec.kind == "pwl":
        # Breakpoints snapped to the step grid so every integration step
        # sees a genuinely linear acceleration (exact two-point integral).
        stride = max(1, int(round(spec.breakpoint_period / t_step)))
        n_break = (n - 1) // stride + 2
        accel = np.empty((n_break, 2))
        vel = np.empty((n, 2))
        pos = np.empty((n, 2))
        vel[0] = spec.speed * np.array(
            [math.cos(spec.heading), math.sin(spec.heading)]
        )
        pos[0] = spec.start
        if spec.bounds is None:
            accel[0] = _draw_capped(rng, spec.a_max)
            accel[1] = _draw_capped(rng, spec.a_max)
        else:
            accel[0] = np.zeros(2)
            accel[1] = _next_breakpoint_accel(rng, accel[0], pos[0], vel[0], spec)
        seg = 0
        for k in range(n - 1):
            if k // stride > seg:
                seg = k // stride
                if spec.bounds is None:
                    accel[seg + 1] = _draw_capped(rng, spec.a_max)
                else:
                    accel[seg + 1] = _next_breakpoint_accel(
                        rng, accel[seg], pos[k], vel[k], spec
                    )
            frac = (k - seg * stride) / stride
            a_k = accel[seg] + frac * (accel[seg + 1] - accel[seg])
            frac1 = (k + 1 - seg * stride) / stride
            a_k1 = accel[seg] + frac1 * (accel[seg + 1] - accel[seg])
            # exact integrals of the linear acceleration segment
            pos[k + 1] = pos[k] + vel[k] * t_step + t_step**2 * (2.0 * a_k + a_k1) / 6.0
            vel[k + 1] = vel[k] + 0.5 * t_step * (a_k + a_k1)
        return _chord_states(pos, t_step, spec.speed, spec.heading)
    # "cv": random rollout of the constant-velocity model
    cv = spec.cv if spec.cv is not None else CvProcessModel(T=t_step)
    sig = np.sqrt(
        np.array([cv.sigma1_sq, cv.sigma2_sq, cv.sigma3_sq, cv.sigma4_sq])
    )
    state = np.array([spec.start[0], spec.start[1], spec.speed, spec.heading])
    states = [
        TruthState(position=state[:2].copy(), speed=state[2], heading=state[3], k=0)
    ]
    for k in range(1, n):
        state = cv.transition(state) + rng.normal(0.0, 1.0, size=4) * sig
        states.append(
            TruthState(position=state[:2].copy(), speed=state[2], heading=state[3], k=k)
        )
    return states


@dataclass(slots=True)
class ExperimentConfig:
    """Full description of one Monte Carlo experiment."""

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
        for name in estimators:
            if name not in KNOWN_ESTIMATORS:
                raise ValueError(
                    f"unknown estimator {name!r}; known: {KNOWN_ESTIMATORS}"
                )
        self.estimators = estimators
        if self.runs < 1:
            raise ValueError("need at least one run")


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
    traj = gen_trajectory(config.trajectory, np.random.default_rng(traj_seq))
    positions = np.array([state.position for state in traj])
    ranges, speed, heading = draw_measurements(
        positions,
        [state.speed for state in traj],
        [state.heading for state in traj],
        config.anchors,
        config.range_model,
        config.sensor_model,
        SensorStreams.from_seed(sensor_seq),
    )
    return positions, ranges, speed, heading


@dataclass(frozen=True, slots=True)
class EngineSetup:
    """Per-experiment constants the estimator kernels read.

    Attributes
    ----------
    config : ExperimentConfig
    geometry : RangingGeometry
        Linearised trilateration geometry of the anchors.
    cv : CvProcessModel
        Process model of the EKF-CV filter: `config.cv_filter` if given,
        else the model of a CV-generated trajectory, else the default.
    mse_pareto : ParetoConfig
        `config.pareto` in "mse" mode, for the "mse" estimator.
    """

    config: ExperimentConfig
    geometry: RangingGeometry
    cv: CvProcessModel
    mse_pareto: ParetoConfig

    @classmethod
    def from_config(cls, config: ExperimentConfig) -> "EngineSetup":
        spec = config.trajectory
        cv = config.cv_filter
        if cv is None and spec.kind == "cv" and spec.cv is not None:
            cv = spec.cv
        if cv is None:
            cv = CvProcessModel(T=spec.T)
        pareto = config.pareto
        mse = pareto if pareto.mode == "mse" else dataclasses.replace(pareto, mode="mse")
        return cls(config=config, geometry=build_geometry(config.anchors), cv=cv, mse_pareto=mse)


@dataclass(frozen=True, slots=True)
class EstimatorKernels:
    """Batched kernels of one estimator.

    Each takes and returns a batch of R runs: `init(setup, frame)` builds
    the state from the first frames, `step(setup, state, frame)` advances
    it by one frame, and `position(state)` gives the estimates (R, 2).
    """

    init: Callable
    step: Callable
    position: Callable


def _wls_fix(setup: EngineSetup, frame: MeasurementFrame) -> np.ndarray:
    """WLS fixes (R, 2), weights at the measured ranges (no prior estimate)."""
    r = np.maximum(frame.ranges, 0.0)
    weight = noise_cov_inverse(r, range_variance(r, setup.config.range_model))
    return wls_estimate(setup.geometry, frame.ranges, weight)


def _pareto_kernels(pareto: Callable) -> EstimatorKernels:
    """Kernels of the Pareto fusion run with the ParetoConfig `pareto(setup)`."""

    def init(setup, frame):
        cfg = setup.config
        return init_fusion_batch(frame, cfg.anchors, setup.geometry, cfg.range_model, pareto(setup))

    def step(setup, state, frame):
        cfg = setup.config
        return fusion_step_batch(
            state,
            frame,
            cfg.anchors,
            setup.geometry,
            cfg.range_model,
            cfg.sensor_model,
            pareto(setup),
            cfg.trajectory.T,
        )

    return EstimatorKernels(init, step, lambda state: state.estimate)


def _wls_step(setup, state, frame):
    return _wls_fix(setup, frame)


def _dr_step(setup, state, frame):
    return dr_predict(state, frame, setup.config.trajectory.T)


def _filter_init(setup, frame):
    return position_init(_wls_fix(setup, frame))


def _cv_filter_init(setup, frame):
    return cv_init(_wls_fix(setup, frame), frame.speed, frame.heading)


def _ekf_step(setup, state, frame):
    cfg = setup.config
    return ekf_step_batch(
        state, frame, cfg.anchors, cfg.range_model, cfg.sensor_model, cfg.trajectory.T
    )


def _ukf_step(setup, state, frame):
    cfg = setup.config
    return ukf_step_batch(
        state, frame, cfg.anchors, cfg.range_model, cfg.sensor_model, cfg.trajectory.T
    )


def _lckf_step(setup, state, frame):
    cfg = setup.config
    return lckf_step_batch(
        state,
        frame,
        cfg.anchors,
        cfg.range_model,
        cfg.sensor_model,
        cfg.trajectory.T,
        geometry=setup.geometry,
    )


def _ekf_cv_step(setup, state, frame):
    cfg = setup.config
    return ekf_cv_step_batch(
        state, frame, cfg.anchors, setup.cv, cfg.range_model, cfg.sensor_model
    )


def _same(state):
    return state


def _filter_position(state):
    return state.mean[..., :2]


# Batched kernels of every estimator, by name; the engine looks names up
# here and nowhere else.
ESTIMATORS = {
    "fusion": _pareto_kernels(lambda setup: setup.config.pareto),
    "mse": _pareto_kernels(lambda setup: setup.mse_pareto),
    "wls": EstimatorKernels(_wls_fix, _wls_step, _same),
    "dr": EstimatorKernels(_wls_fix, _dr_step, _same),
    "ekf": EstimatorKernels(_filter_init, _ekf_step, _filter_position),
    "ukf": EstimatorKernels(_filter_init, _ukf_step, _filter_position),
    "lckf": EstimatorKernels(_filter_init, _lckf_step, _filter_position),
    "ekf-cv": EstimatorKernels(_cv_filter_init, _ekf_cv_step, _filter_position),
}
KNOWN_ESTIMATORS = tuple(ESTIMATORS)


def _track(kernels: EstimatorKernels, setup: EngineSetup, ranges, speed, heading) -> np.ndarray:
    """Estimates (n, R, 2) of one estimator over measurements (n, R, ...)."""
    frames = [
        MeasurementFrame(ranges=ranges[k], speed=speed[k], heading=heading[k], k=k)
        for k in range(len(ranges))
    ]
    trace = np.empty(speed.shape + (2,))
    state = kernels.init(setup, frames[0])
    trace[0] = kernels.position(state)
    for k in range(1, len(frames)):
        state = kernels.step(setup, state, frames[k])
        trace[k] = kernels.position(state)
    return trace


def _track_runs(kernels: EstimatorKernels, setup: EngineSetup, ranges, speed, heading) -> np.ndarray:
    """Estimates (n, R, 2) of one estimator, all runs in one batch.

    If the batch raises a numerical error, the runs are re-run one at a
    time from the same measurements; a run that raises again is left NaN.
    Each run's arithmetic is the same alone as in a batch, so the other
    runs' estimates do not change.
    """
    try:
        return _track(kernels, setup, ranges, speed, heading)
    except (np.linalg.LinAlgError, ValueError):
        pass
    trace = np.full(speed.shape + (2,), np.nan)
    for run in range(speed.shape[1]):
        one = slice(run, run + 1)
        try:
            trace[:, one] = _track(kernels, setup, ranges[:, one], speed[:, one], heading[:, one])
        except (np.linalg.LinAlgError, ValueError):
            pass
    return trace


def run_experiment(config: ExperimentConfig) -> RunResult:
    """Run all configured estimators over paired Monte Carlo realizations.

    Every run's truth and measurements are drawn up front (`draw_run`);
    then each estimator advances all runs together, one batched step per
    time step.  A (run, estimator) pair that raised a numerical error or
    produced a non-finite estimate at any step is excluded: its row of
    `errors` is NaN and it is counted in `excluded`.
    """
    setup = EngineSetup.from_config(config)
    draws = [draw_run(config, run) for run in range(config.runs)]
    # step-major stacks (n, R, ...): one time step's batch is contiguous
    positions, ranges, speed, heading = (np.stack(part, axis=1) for part in zip(*draws))
    n = config.trajectory.steps

    errors, excluded, estimate_traces = {}, {}, {}
    rmse, p95 = {}, {}
    for name in config.estimators:
        trace = _track_runs(ESTIMATORS[name], setup, ranges, speed, heading)
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


def sweep(config: ExperimentConfig, parameter: str, values) -> list:
    """Re-run the experiment for each value of one trajectory parameter.

    Parameters
    ----------
    parameter : str
        "speed", "amax", or "T".
    values : iterable of float

    Returns
    -------
    list of (value, RunResult)
    """
    attr = {"speed": "speed", "amax": "a_max", "T": "T"}.get(parameter)
    if attr is None:
        raise ValueError(f"unknown sweep parameter {parameter!r}")
    out = []
    for value in values:
        spec = dataclasses.replace(config.trajectory, **{attr: float(value)})
        cfg = dataclasses.replace(config, trajectory=spec)
        out.append((float(value), run_experiment(cfg)))
    return out


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
        kind="linear",
        steps=steps,
        T=T,
        start=np.array([0.5, 2.0]),
        speed=speed,
        heading=0.0,
        bounds=ARENA_BOUNDS,
    )


def scenario_pwl(
    steps: int = 300, T: float = 0.1, speed: float = 0.1, a_max: float = 0.5
) -> TrajectorySpec:
    """Randomly accelerating track (piecewise-linear acceleration)."""
    return TrajectorySpec(
        kind="pwl",
        steps=steps,
        T=T,
        start=np.array([2.0, 2.0]),
        speed=speed,
        heading=0.0,
        a_max=a_max,
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
        cv = CvProcessModel(
            T=T, sigma1_sq=1e-6, sigma2_sq=1e-6, sigma3_sq=1e-6, sigma4_sq=1e-6
        )
    return TrajectorySpec(
        kind="cv",
        steps=steps,
        T=T,
        start=np.array([0.5, 1.6]),
        speed=speed,
        heading=np.pi / 12.0,
        cv=cv,
    )


def make_scenario(name: str, **overrides) -> TrajectorySpec:
    """Scenario presets by letter: A linear, B accelerating, CV rollout."""
    key = name.upper()
    if key == "A":
        return scenario_linear(**overrides)
    if key == "B":
        return scenario_pwl(**overrides)
    if key == "CV":
        return scenario_cv(**overrides)
    raise ValueError(f"unknown scenario {name!r}")


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


def write_summary(path, result: RunResult) -> None:
    """Aggregate CSV: estimator, rmse_m, p95_err_m, runs, excluded."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["estimator", "rmse_m", "p95_err_m", "runs", "excluded"])
        for name in result.estimators:
            writer.writerow(
                [
                    name,
                    _fmt(result.rmse[name]),
                    _fmt(result.p95[name]),
                    str(result.runs),
                    str(result.excluded[name]),
                ]
            )


def write_crlb(path, parcrlb: np.ndarray, pcrlb: np.ndarray, pcrlb_lb: np.ndarray, pcrlb_ub: np.ndarray) -> None:
    """Bound-trace CSV: k, parcrlb, pcrlb, pcrlb_lb, pcrlb_ub."""
    n = len(parcrlb)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["k", "parcrlb", "pcrlb", "pcrlb_lb", "pcrlb_ub"])
        for k in range(n):
            writer.writerow(
                [
                    str(k),
                    _fmt(parcrlb[k]),
                    _fmt(pcrlb[k]),
                    _fmt(pcrlb_lb[k]),
                    _fmt(pcrlb_ub[k]),
                ]
            )


def crlb_traces(
    config: ExperimentConfig, steps: int | None = None, n_ensemble: int = 1000
) -> dict:
    """Parametric and posterior bound traces for the configured scenario.

    The parametric bound runs along the noise-free trajectory of the
    scenario; the posterior bound and its bracket run along CV-model
    rollouts from the same initial state.
    """
    spec = config.trajectory
    n = spec.steps if steps is None else steps
    base = dataclasses.replace(spec, steps=n)
    if base.kind == "pwl":
        # parametric reference path: the zero-acceleration member
        base = dataclasses.replace(base, kind="linear")
    if base.kind == "cv":
        cv = base.cv if base.cv is not None else CvProcessModel(T=base.T)
    else:
        cv = config.cv_filter if config.cv_filter is not None else CvProcessModel(T=base.T)
    noise_free = dataclasses.replace(base, kind="linear")
    truth = gen_trajectory(noise_free)
    _, par_bound = parcrlb_trace(
        truth, config.anchors, config.range_model, config.sensor_model, base.T
    )
    post = pcrlb_bounds(
        cv,
        config.anchors,
        config.range_model,
        config.sensor_model,
        base.start,
        base.speed,
        base.heading,
        steps=n,
        n_ensemble=n_ensemble,
        rng=np.random.default_rng(np.random.SeedSequence((config.seed, 0x6372))),
    )
    return {
        "parcrlb": par_bound,
        "pcrlb": post.bound,
        "pcrlb_lb": post.bound_lb,
        "pcrlb_ub": post.bound_ub,
        "sandwich_ok": post.sandwich_ok,
    }
