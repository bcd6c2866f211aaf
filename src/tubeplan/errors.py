"""Exception types shared across the package."""


class ModelDomainError(ValueError):
    """A vehicle model was evaluated outside its valid domain.

    Raised for singular states such as zero airspeed for the gust filters,
    near-vertical flight-path angles, or a non-positive commanded speed.
    """


class ScenarioError(ValueError):
    """A scenario file failed schema validation."""


class InfeasibleRegionError(RuntimeError):
    """The constraint polyhedron handed to the QP solver is empty."""


class BracketError(RuntimeError):
    """Bisection could not bracket or meet tolerance on its target."""


class PlanningError(RuntimeError):
    """The planner could not produce a usable result (no path found, or
    start/goal blocked by a buffered obstacle)."""
