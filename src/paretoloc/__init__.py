"""Mobile-node localization by Pareto-optimal fusion of range trilateration
and dead reckoning, with Kalman-filter baselines and Cramer-Rao bound tools."""

from .crlb import (
    PcrlbResult,
    SeriesDivergenceError,
    TrigMoments,
    d11,
    d12,
    d22,
    diag_bounds,
    diag_expectation_mc,
    diag_expectation_series,
    gershgorin_sandwich,
    parcrlb_trace,
    pcrlb_bounds,
    pcrlb_recursion,
    pi_bracket,
    position_error_bound,
    trig_moments,
)
from .deadreckoning import (
    dr_first_moment,
    dr_predict,
    dr_second_moment,
    heading_vector,
    input_terms,
    measurement_frames,
)
from .filters import (
    KfState,
    cv_init,
    ekf_cv_step,
    ekf_step,
    lckf_step,
    position_init,
    ukf_step,
)
from .fusion import (
    FusionState,
    ParetoConfig,
    approximate_kinematics,
    axis_moments,
    bias_recursion,
    error_variance,
    fusion_step,
    init_fusion,
    optimal_beta,
    select_rho,
)
from .models import (
    DEFAULT_ANCHORS,
    AnchorSet,
    CvProcessModel,
    MeasurementFrame,
    RangeNoiseModel,
    SensorNoiseModel,
    SensorStreams,
    cv_rollout,
    cv_transition,
    cv_transition_jacobian,
    draw_measurements,
    range_variance,
    true_ranges,
)
from .ranging import (
    RangingGeometry,
    build_geometry,
    noise_cov_inverse,
    ranging_layer,
    wls_estimate,
)
from .simulate import (
    ExperimentConfig,
    RunResult,
    Scene,
    TrajectorySpec,
    crlb_traces,
    draw_run,
    gen_trajectory,
    make_scenario,
    run_experiment,
    scenario_cv,
    scenario_linear,
    scenario_pwl,
    sweep,
    sweep_configs,
    write_crlb,
    write_run_trace,
    write_summary,
)

__version__ = "0.1.0"
