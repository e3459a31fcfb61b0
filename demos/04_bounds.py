"""Error bounds next to measured estimator error on the CV scenario.

Three curves per step:

  parcrlb   parametric bound along the known (noise-free) reference path
  pcrlb     posterior bound from CV-model rollouts, MC measurement term
  bracket   [lb, ub] around the posterior bound, from the recursions on
            a lower and an upper measurement term that hold the MC one
            between them in the PSD order

and, for context, the per-step RMSE of the model-matched Kalman filter
and the fused estimator over a modest ensemble.  The bound pair answers
two different questions: the parametric bound assumes the trajectory is
known, the posterior bound averages over the process noise, so the two
need not be ordered against each other.

Run:  python3 demos/04_bounds.py
"""
import numpy as np

from paretoloc.simulate import (
    ExperimentConfig,
    crlb_traces,
    run_experiment,
    scenario_cv,
)

STEPS = 120

config = ExperimentConfig(
    trajectory=scenario_cv(steps=STEPS),
    estimators=("fusion", "lckf"),
    runs=50,
    seed=0,
)

traces = crlb_traces(config, n_ensemble=500)
result = run_experiment(config)


def per_step_rmse(errors):
    return np.sqrt(np.nanmean(np.asarray(errors) ** 2, axis=0))


rmse = {name: per_step_rmse(result.errors[name]) for name in result.estimators}

lb, pcrlb, ub = traces["pcrlb_lb"], traces["pcrlb"], traces["pcrlb_ub"]
# as `paretoloc crlb` does, print a bracket only where it is finite and holds
holds = traces["bracket_ok"]

print("step   parcrlb    pcrlb   [bracket lo, hi]          lckf   fusion   (cm)")
for k in range(0, STEPS, 10):
    bracket = (
        f"[{lb[k] * 100:7.3f}, {ub[k] * 100:7.3f}]     " if holds[k] else "(bracket does not hold)"
    )
    print(
        f"{k:4d}  {traces['parcrlb'][k] * 100:8.3f} {pcrlb[k] * 100:8.3f}   {bracket}"
        f"  {rmse['lckf'][k] * 100:8.3f} {rmse['fusion'][k] * 100:8.3f}"
    )

print()
print(f"a finite bracket [lb, ub] holds at {int(holds.sum())} of {STEPS} steps")
print(f"MC information inside the PSD sandwich at {int(traces['sandwich_ok'].sum())} of {STEPS} steps")
print("  (the recursions keep that order where J + D11 is positive definite;")
print("   see `pcrlb_bounds`)")
print()
print("same curves to CSV:  paretoloc crlb --scenario CV --steps 120 --out bounds.csv")
