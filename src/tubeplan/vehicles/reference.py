"""Desired-trajectory providers.

A provider is a callable mapping time to a reference sample.  Quadrotor
references carry position/velocity/acceleration; fixed-wing references
carry altitude plus a lateral (x, y) track.  Profiles are defined on a
finite duration and hold their endpoint beyond it.

Every profile samples one time or an array of times in one call: for
``t`` a float or an array, scalar fields take the shape ``np.shape(t)``
and vector fields ``np.shape(t) + (d,)``.  Each sample of an array call
has the bits of the call at that single time, so ``prof(times)`` samples
a whole grid at once and ``prof(times[:, None])`` gives fields that
broadcast against a (times, rows, n) batch of states.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "QuadrotorRef",
    "FixedWingRef",
    "PolylineProfile3D",
    "FixedWingPolylineProfile",
    "LateralSinusoidProfile",
    "ascent_cruise_descent",
]


@dataclass
class QuadrotorRef:
    """Quadrotor reference: position, velocity, acceleration at time(s) t."""

    r: np.ndarray
    rdot: np.ndarray
    rddot: np.ndarray


@dataclass
class FixedWingRef:
    """Fixed-wing reference at time(s) t.

    eta is the lateral (x, y) track; etaddot may be a finite-difference
    estimate of the track acceleration.
    """

    h: float | np.ndarray
    hdot: float | np.ndarray
    eta: np.ndarray
    etadot: np.ndarray
    etaddot: np.ndarray


def _times(t):
    # a float for one time, an array for many
    return np.asarray(t, dtype=float)[()]


def _constant(t, value):
    # a scalar field that does not change over time, shaped like t
    return np.full(np.shape(t), value)[()]


def _central_difference(f, t, d):
    """Track acceleration of both fixed-wing profiles from their velocity f.

    (f(t + d) - f(t - d)) / (2 d), where d is the integration step the
    profile was built for.
    """
    return (f(t + d) - f(t - d)) / (2.0 * d)


class _Polyline:
    """Constant-speed-per-segment polyline with arc-length time lookup."""

    def __init__(self, points, speeds):
        points = np.atleast_2d(np.asarray(points, dtype=float))
        if points.shape[0] < 2:
            raise ValueError("polyline needs at least two points")
        seg = np.diff(points, axis=0)
        lengths = np.linalg.norm(seg, axis=1)
        if np.any(lengths <= 0.0):
            raise ValueError("polyline has a zero-length segment")
        speeds = np.broadcast_to(np.asarray(speeds, dtype=float), lengths.shape).copy()
        if np.any(speeds <= 0.0):
            raise ValueError("segment speeds must be positive")
        self.points = points
        self.velocities = seg / lengths[:, None] * speeds[:, None]
        durations = lengths / speeds
        self.t_knots = np.concatenate([[0.0], np.cumsum(durations)])
        self.duration = float(self.t_knots[-1])

    def position_velocity(self, t):
        """Position and velocity at time(s) t, shaped np.shape(t) + (d,)."""
        t = np.asarray(t, dtype=float)
        k = np.clip(np.searchsorted(self.t_knots, t, side="right") - 1,
                    0, len(self.velocities) - 1)
        pos = self.points[k] \
            + self.velocities[k] * (t - self.t_knots[k])[..., None]
        before = (t <= 0.0)[..., None]
        after = (t >= self.duration)[..., None]
        pos = np.where(before, self.points[0],
                       np.where(after, self.points[-1], pos))
        vel = np.where(before, self.velocities[0],
                       np.where(after, 0.0, self.velocities[k]))
        return pos, vel


class PolylineProfile3D:
    """Quadrotor desired trajectory along a 3D polyline.

    Position is piecewise linear, velocity piecewise constant, commanded
    acceleration identically zero.  Beyond the final waypoint the profile
    holds position with zero velocity.
    """

    def __init__(self, points, speeds):
        self._line = _Polyline(points, speeds)
        self.duration = self._line.duration

    def __call__(self, t):
        t = _times(t)
        r, rdot = self._line.position_velocity(t)
        return QuadrotorRef(r=r, rdot=rdot, rddot=np.zeros_like(r))


class FixedWingPolylineProfile:
    """Fixed-wing reference at constant altitude along a 2D polyline."""

    def __init__(self, points_xy, altitude, speed, fd_step):
        if fd_step <= 0.0:
            raise ValueError("fd_step must be positive")
        self._line = _Polyline(points_xy, speed)
        self.altitude = float(altitude)
        self.fd_step = float(fd_step)
        self.duration = self._line.duration

    def __call__(self, t):
        t = _times(t)
        eta, etadot = self._line.position_velocity(t)
        return FixedWingRef(
            h=_constant(t, self.altitude), hdot=_constant(t, 0.0),
            eta=eta, etadot=etadot,
            etaddot=_central_difference(
                lambda s: self._line.position_velocity(s)[1], t, self.fd_step),
        )


class LateralSinusoidProfile:
    """Constant-altitude cruise with a sinusoidal lateral offset.

    eta(t) = (x0 + V t, y0 + A sin(2 pi t / T)).  The track acceleration
    is still produced by the shared finite-difference rule so that the
    controller sees the same estimator for every profile kind.
    """

    def __init__(self, cruise_speed, amplitude, period, altitude, fd_step,
                 origin=(0.0, 0.0)):
        if cruise_speed <= 0.0 or period <= 0.0 or fd_step <= 0.0:
            raise ValueError("cruise_speed, period and fd_step must be positive")
        self.cruise_speed = float(cruise_speed)
        self.amplitude = float(amplitude)
        self.omega = 2.0 * np.pi / float(period)
        self.altitude = float(altitude)
        self.fd_step = float(fd_step)
        self.origin = np.asarray(origin, dtype=float)
        self.duration = float("inf")

    def _etadot(self, t):
        return np.stack([
            _constant(t, self.cruise_speed),
            self.amplitude * self.omega * np.cos(self.omega * t),
        ], axis=-1)

    def __call__(self, t):
        t = _times(t)
        eta = self.origin + np.stack([
            self.cruise_speed * t,
            self.amplitude * np.sin(self.omega * t),
        ], axis=-1)
        return FixedWingRef(
            h=_constant(t, self.altitude), hdot=_constant(t, 0.0),
            eta=eta, etadot=self._etadot(t),
            etaddot=_central_difference(self._etadot, t, self.fd_step),
        )


def ascent_cruise_descent(start_xy, heading_deg=0.0, *, start_altitude,
                          cruise_altitude, cruise_distance, final_altitude,
                          climb_rate, cruise_speed, descent_rate):
    """Three-phase quadrotor mission: climb, level cruise, descend.

    The vehicle holds the horizontal cruise speed through all three
    phases; climb and descent change altitude at the stated vertical
    rates while still moving forward, so phase durations are
    altitude-change/rate and cruise_distance/cruise_speed.  Phases with
    no altitude change are dropped.  Returns a
    :class:`PolylineProfile3D`.
    """
    x0, y0 = (float(v) for v in start_xy)
    heading = np.deg2rad(float(heading_deg))
    ux, uy = np.cos(heading), np.sin(heading)
    v_cruise = float(cruise_speed)
    if v_cruise <= 0.0:
        raise ValueError("cruise speed must be positive")

    points = [(x0, y0, float(start_altitude))]
    speeds = []

    def advance(run, altitude, rate):
        px, py, _ = points[-1]
        points.append((px + ux * run, py + uy * run, float(altitude)))
        speeds.append(rate)

    dh_climb = float(cruise_altitude) - float(start_altitude)
    if dh_climb != 0.0:
        if float(climb_rate) <= 0.0:
            raise ValueError("climb rate must be positive")
        duration = abs(dh_climb) / float(climb_rate)
        advance(v_cruise * duration, cruise_altitude,
                float(np.hypot(v_cruise, climb_rate)))
    advance(float(cruise_distance), cruise_altitude, v_cruise)
    dh_desc = float(final_altitude) - float(cruise_altitude)
    if dh_desc != 0.0:
        if float(descent_rate) <= 0.0:
            raise ValueError("descent rate must be positive")
        duration = abs(dh_desc) / float(descent_rate)
        advance(v_cruise * duration, final_altitude,
                float(np.hypot(v_cruise, descent_rate)))
    return PolylineProfile3D(points, speeds)
