"""Flight-plan validation and chance-constrained planning under gusts.

The pipeline: simulate a closed-loop vehicle model along a desired
trajectory, linearize it, propagate state covariance through the
resulting linear time-varying system, wrap the position marginals into
a confidence tube, and either check that tube against convex obstacles
(validate) or grow an informed RRT* whose obstacle buffers are resized
from the propagated covariance (plan).

The package root exports what the README documents: the vehicle models
and profiles, the library pipeline, the three runners, scenario loading
and the error types.  Everything else lives in its module.
"""

from .errors import (
    BracketError,
    InfeasibleRegionError,
    ModelDomainError,
    PlanningError,
    ScenarioError,
)
from .geometry import CuboidObstacle, check_tube_collision, overall_verdict
from .runner import RunReport, run_mc_compare, run_plan, run_validate
from .scenario import Scenario, load_scenario, parse_scenario
from .simcore import TimeGrid, integrate_nominal, linearize, mc_ensemble, mc_run
from .uncertainty import build_tube, propagate_covariance
from .vehicles import (
    FixedWingModel,
    FixedWingParams,
    FixedWingPolylineProfile,
    LateralSinusoidProfile,
    PolylineProfile3D,
    QuadrotorModel,
    QuadrotorParams,
    ascent_cruise_descent,
)

__version__ = "0.1.0"

__all__ = [
    "BracketError",
    "CuboidObstacle",
    "FixedWingModel",
    "FixedWingParams",
    "FixedWingPolylineProfile",
    "InfeasibleRegionError",
    "LateralSinusoidProfile",
    "ModelDomainError",
    "PlanningError",
    "PolylineProfile3D",
    "QuadrotorModel",
    "QuadrotorParams",
    "RunReport",
    "Scenario",
    "ScenarioError",
    "TimeGrid",
    "ascent_cruise_descent",
    "build_tube",
    "check_tube_collision",
    "integrate_nominal",
    "linearize",
    "load_scenario",
    "mc_ensemble",
    "mc_run",
    "overall_verdict",
    "parse_scenario",
    "propagate_covariance",
    "run_mc_compare",
    "run_plan",
    "run_validate",
]
