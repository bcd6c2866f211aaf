"""Vehicle models, gust filters and desired-trajectory providers."""

from .dryden import (
    FixedWingGustFilters,
    fixedwing_filters,
    longitudinal_coeffs,
    transverse_coeffs,
)
from .fixedwing import FixedWingModel, FixedWingParams
from .quadrotor import QuadrotorModel, QuadrotorParams
from .reference import (
    FixedWingPolylineProfile,
    FixedWingRef,
    LateralSinusoidProfile,
    PolylineProfile3D,
    QuadrotorRef,
    ascent_cruise_descent,
)

__all__ = [
    "FixedWingGustFilters",
    "FixedWingModel",
    "FixedWingParams",
    "FixedWingPolylineProfile",
    "FixedWingRef",
    "LateralSinusoidProfile",
    "PolylineProfile3D",
    "QuadrotorModel",
    "QuadrotorParams",
    "QuadrotorRef",
    "ascent_cruise_descent",
    "fixedwing_filters",
    "longitudinal_coeffs",
    "transverse_coeffs",
]
