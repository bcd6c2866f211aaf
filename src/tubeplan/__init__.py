"""Flight-plan validation and chance-constrained planning under gusts.

The pipeline: simulate a closed-loop vehicle model along a desired
trajectory, linearize it, propagate state covariance through the
resulting linear time-varying system, wrap the position marginals into
a confidence tube, and either check that tube against convex obstacles
(validate) or grow an informed RRT* whose obstacle buffers are resized
from the propagated covariance (plan).
"""

from .errors import (
    BracketError,
    InfeasibleRegionError,
    ModelDomainError,
    PlanningError,
    ScenarioError,
)
from .geometry import (
    ClearanceReport,
    CuboidObstacle,
    buffer_touch_distance,
    check_tube_collision,
    overall_verdict,
    solve_qp,
    sphere_prefilter,
)
from .planner import (
    Bounds,
    PlannerConfig,
    PlanNode,
    PlanResult,
    PlanTree,
    TubeEvaluator,
    add_node,
    cleanup_and_regrow,
    comp_obs_dist,
    dynamic_informed_rrt_star,
    informed_rrt_star,
    no_collision_2d,
    path_to_trajectory,
    sample_ellipse,
)
from .runner import RunReport, run_mc_compare, run_plan, run_validate
from .scenario import SCHEMA_VERSION, Scenario, load_scenario, parse_scenario
from .simcore import (
    LinearizationHistory,
    TimeGrid,
    Trajectory,
    integrate_nominal,
    linearize,
    mc_ensemble,
    mc_run,
)
from .uncertainty import (
    ConfidenceEllipsoid,
    CovarianceHistory,
    Tube,
    build_tube,
    chi2_cdf,
    chi2_quantile,
    propagate_covariance,
)
from .vehicles import (
    FixedWingGustFilters,
    FixedWingModel,
    FixedWingParams,
    FixedWingPolylineProfile,
    LateralSinusoidProfile,
    PolylineProfile3D,
    QuadrotorModel,
    QuadrotorParams,
    ascent_cruise_descent,
    fixedwing_filters,
    longitudinal_coeffs,
    transverse_coeffs,
)

__version__ = "0.1.0"

__all__ = [
    "Bounds",
    "BracketError",
    "ClearanceReport",
    "ConfidenceEllipsoid",
    "CovarianceHistory",
    "CuboidObstacle",
    "FixedWingGustFilters",
    "FixedWingModel",
    "FixedWingParams",
    "FixedWingPolylineProfile",
    "InfeasibleRegionError",
    "LateralSinusoidProfile",
    "LinearizationHistory",
    "ModelDomainError",
    "PlanNode",
    "PlanResult",
    "PlanTree",
    "PlannerConfig",
    "PlanningError",
    "PolylineProfile3D",
    "QuadrotorModel",
    "QuadrotorParams",
    "RunReport",
    "SCHEMA_VERSION",
    "Scenario",
    "ScenarioError",
    "TimeGrid",
    "Trajectory",
    "Tube",
    "TubeEvaluator",
    "add_node",
    "ascent_cruise_descent",
    "buffer_touch_distance",
    "build_tube",
    "check_tube_collision",
    "chi2_cdf",
    "chi2_quantile",
    "cleanup_and_regrow",
    "comp_obs_dist",
    "dynamic_informed_rrt_star",
    "fixedwing_filters",
    "informed_rrt_star",
    "integrate_nominal",
    "linearize",
    "load_scenario",
    "longitudinal_coeffs",
    "mc_ensemble",
    "mc_run",
    "no_collision_2d",
    "overall_verdict",
    "parse_scenario",
    "path_to_trajectory",
    "propagate_covariance",
    "run_mc_compare",
    "run_plan",
    "run_validate",
    "sample_ellipse",
    "solve_qp",
    "sphere_prefilter",
    "transverse_coeffs",
]
