"""Track a slow straight-line node with the fused estimator.

Runs the default linear scenario (0.1 m/s, 10 Hz, 8-anchor cell) for a
handful of Monte Carlo realizations, prints the summary table, and shows
how the per-axis mixing weight beta moves with the operating point on
one realization.

Run:  python3 demos/01_fused_tracking.py
"""
import numpy as np

from paretoloc.deadreckoning import measurement_frames
from paretoloc.fusion import fusion_step, init_fusion
from paretoloc.models import SensorStreams, draw_measurements
from paretoloc.simulate import (
    ExperimentConfig,
    Scene,
    gen_trajectory,
    run_experiment,
    scenario_linear,
)

config = ExperimentConfig(
    trajectory=scenario_linear(),
    estimators=("fusion", "wls", "ekf"),
    runs=10,
    seed=0,
)
result = run_experiment(config)

print("10 runs x 300 steps, linear track at 0.1 m/s:")
for name in result.estimators:
    print(
        f"  {name:>6}: rmse {result.rmse[name] * 100.0:5.2f} cm, "
        f"p95 {result.p95[name] * 100.0:5.2f} cm"
    )
errors = result.errors["fusion"].ravel()
print(f"  fraction of fused errors under 7 cm: {np.mean(errors < 0.07):.3f}")

# one realization by hand, to look inside the estimator: the kernels take
# the experiment's scene (anchors, noise models, step period, Pareto config)
print("\nper-axis beta along one realization (every 30th step):")
spec = config.trajectory
scene = Scene.from_config(config)
positions, true_speed, true_heading = gen_trajectory(spec, np.random.default_rng(1))
ranges, speed, heading = draw_measurements(
    positions, true_speed, true_heading, scene.anchors, scene.range_model, scene.sensor_model,
    SensorStreams.from_seed(1),
)

# each step's measurements as a batch of one run
frames = measurement_frames(scene, ranges[:, None], speed[:, None], heading[:, None])

state = init_fusion(scene, next(frames))
for frame in frames:
    state = fusion_step(scene, state, frame)
    k = frame.k
    if k % 30 == 0:
        err = np.linalg.norm(state.estimate[0] - positions[k])
        beta, rho = state.last_beta[0], state.last_rho[0]
        print(
            f"  k={k:3d}  beta=({beta[0]:+.2f}, {beta[1]:+.2f})  "
            f"rho=({rho[0]:.2f}, {rho[1]:.2f})  "
            f"err {err * 100.0:4.1f} cm"
        )
