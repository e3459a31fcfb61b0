"""Mobile-node localization by Pareto-optimal fusion of range trilateration
and dead reckoning, with Kalman-filter baselines and Cramer-Rao bound tools."""

from .fusion import ParetoConfig
from .simulate import (
    ExperimentConfig,
    RunResult,
    crlb_traces,
    make_scenario,
    run_experiment,
    scenario_pwl,
)

__version__ = "0.1.0"
