"""Vehicle models, gust filters and desired-trajectory providers."""

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
]
