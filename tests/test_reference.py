"""Desired-trajectory providers: kinematic identities and edge behavior."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from tubeplan.vehicles import (
    FixedWingPolylineProfile,
    LateralSinusoidProfile,
    PolylineProfile3D,
    ascent_cruise_descent,
)


# --------------------------------------------------------------------------
# 3D polyline


def test_polyline_hits_waypoints_at_arc_length_times():
    pts = [(0.0, 0.0, 1.0), (3.0, 0.0, 1.0), (3.0, 4.0, 1.0)]
    prof = PolylineProfile3D(pts, [1.5, 2.0])
    # segment lengths 3 and 4 at speeds 1.5 and 2 -> knot times 0, 2, 4
    assert prof.duration == pytest.approx(4.0)
    assert np.allclose(prof(0.0).r, pts[0])
    assert np.allclose(prof(2.0).r, pts[1])
    assert np.allclose(prof(4.0).r, pts[2])
    mid = prof(1.0)
    assert np.allclose(mid.r, (1.5, 0.0, 1.0))
    assert np.allclose(mid.rdot, (1.5, 0.0, 0.0))
    assert np.allclose(mid.rddot, 0.0)
    # before the start: the first waypoint, moving along the first leg
    early = prof(-1.0)
    assert np.allclose(early.r, pts[0])
    assert np.allclose(early.rdot, (1.5, 0.0, 0.0))


def test_polyline_velocity_is_piecewise_constant_at_segment_speed():
    prof = PolylineProfile3D([(0, 0, 0), (1, 1, 0), (1, 1, 5)], [2.0, 3.0])
    v1 = prof(0.3).rdot
    assert np.linalg.norm(v1) == pytest.approx(2.0)
    assert np.allclose(v1 / np.linalg.norm(v1),
                       np.array([1.0, 1.0, 0.0]) / np.sqrt(2.0))
    t2 = np.sqrt(2.0) / 2.0 + 0.5          # inside the vertical segment
    v2 = prof(t2).rdot
    assert np.allclose(v2, (0.0, 0.0, 3.0))


def test_polyline_holds_endpoint_with_zero_velocity_beyond_duration():
    prof = PolylineProfile3D([(0, 0, 0), (2, 0, 0)], 1.0)
    late = prof(prof.duration + 5.0)
    assert np.allclose(late.r, (2.0, 0.0, 0.0))
    assert np.allclose(late.rdot, 0.0)


def test_polyline_rejects_degenerate_input():
    with pytest.raises(ValueError):
        PolylineProfile3D([(0, 0, 0)], 1.0)
    with pytest.raises(ValueError):
        PolylineProfile3D([(0, 0, 0), (0, 0, 0)], 1.0)
    with pytest.raises(ValueError):
        PolylineProfile3D([(0, 0, 0), (1, 0, 0)], 0.0)


# --------------------------------------------------------------------------
# three-phase mission builder


def test_ascent_cruise_descent_phase_durations_and_rates():
    prof = ascent_cruise_descent(
        (0.0, 0.0), 0.0, start_altitude=1.0, cruise_altitude=10.0,
        cruise_distance=280.0, final_altitude=4.0, climb_rate=3.0,
        cruise_speed=8.0, descent_rate=3.0)
    # climb 9 m at 3 m/s, cruise 280 m at 8 m/s, descend 6 m at 3 m/s
    assert prof.duration == pytest.approx(3.0 + 35.0 + 2.0)
    climb = prof(1.0)
    assert climb.rdot[2] == pytest.approx(3.0)        # vertical rate
    assert np.hypot(*climb.rdot[:2]) == pytest.approx(8.0)  # horizontal speed
    cruise = prof(20.0)
    assert np.allclose(cruise.rdot, (8.0, 0.0, 0.0))
    assert cruise.r[2] == pytest.approx(10.0)
    descent = prof(39.0)
    assert descent.rdot[2] == pytest.approx(-3.0)
    assert np.hypot(*descent.rdot[:2]) == pytest.approx(8.0)
    end = prof(40.0)
    assert end.r[2] == pytest.approx(4.0)


def test_ascent_cruise_descent_heading_rotates_track():
    prof = ascent_cruise_descent(
        (5.0, -2.0), 90.0, start_altitude=0.0, cruise_altitude=10.0,
        cruise_distance=40.0, final_altitude=10.0, climb_rate=2.0,
        cruise_speed=4.0, descent_rate=2.0)
    cruise = prof(6.0)
    assert np.allclose(cruise.rdot, (0.0, 4.0, 0.0), atol=1e-12)
    assert cruise.r[0] == pytest.approx(5.0)


def test_ascent_cruise_descent_drops_flat_phases():
    prof = ascent_cruise_descent(
        (0.0, 0.0), 0.0, start_altitude=5.0, cruise_altitude=5.0,
        cruise_distance=10.0, final_altitude=5.0, climb_rate=1.0,
        cruise_speed=2.0, descent_rate=1.0)
    assert prof.duration == pytest.approx(5.0)
    assert np.allclose(prof(1.0).rdot, (2.0, 0.0, 0.0))


def test_ascent_cruise_descent_rejects_bad_rates():
    kwargs = dict(start_altitude=0.0, cruise_altitude=5.0,
                  cruise_distance=10.0, final_altitude=0.0,
                  climb_rate=1.0, cruise_speed=2.0, descent_rate=1.0)
    with pytest.raises(ValueError):
        ascent_cruise_descent((0, 0), 0.0, **{**kwargs, "climb_rate": 0.0})
    with pytest.raises(ValueError):
        ascent_cruise_descent((0, 0), 0.0, **{**kwargs, "descent_rate": -1.0})
    with pytest.raises(ValueError):
        ascent_cruise_descent((0, 0), 0.0, **{**kwargs, "cruise_speed": 0.0})


# --------------------------------------------------------------------------
# fixed-wing profiles


def test_lateral_sinusoid_matches_closed_form():
    prof = LateralSinusoidProfile(cruise_speed=20.0, amplitude=10.0,
                                  period=20.0, altitude=100.0, fd_step=0.01,
                                  origin=(1.0, 2.0))
    omega = 2.0 * np.pi / 20.0
    for t in (0.0, 0.37, 5.0, 13.2):
        ref = prof(t)
        assert ref.h == 100.0 and ref.hdot == 0.0
        assert ref.eta[0] == pytest.approx(1.0 + 20.0 * t)
        assert ref.eta[1] == pytest.approx(2.0 + 10.0 * np.sin(omega * t))
        assert ref.etadot[0] == pytest.approx(20.0)
        assert ref.etadot[1] == pytest.approx(10.0 * omega * np.cos(omega * t))


def test_lateral_sinusoid_fd_acceleration_close_to_analytic():
    prof = LateralSinusoidProfile(cruise_speed=20.0, amplitude=10.0,
                                  period=20.0, altitude=100.0, fd_step=0.01)
    omega = prof.omega
    for t in (0.0, 2.5, 7.0):
        ref = prof(t)
        exact = np.array([0.0, -10.0 * omega**2 * np.sin(omega * t)])
        # central difference of a smooth signal: O(fd_step^2) error
        assert np.allclose(ref.etaddot, exact, atol=1e-4)


def test_fixedwing_polyline_reports_track_and_fd_acceleration():
    prof = FixedWingPolylineProfile([(0.0, 0.0), (100.0, 0.0)],
                                    altitude=50.0, speed=20.0, fd_step=0.01)
    ref = prof(1.0)
    assert ref.h == 50.0
    assert np.allclose(ref.eta, (20.0, 0.0))
    assert np.allclose(ref.etadot, (20.0, 0.0))
    assert np.allclose(ref.etaddot, 0.0, atol=1e-9)
    with pytest.raises(ValueError):
        FixedWingPolylineProfile([(0, 0), (1, 0)], 50.0, 20.0, fd_step=0.0)


# --------------------------------------------------------------------------
# sampling many times at once


def _same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(
        np.ascontiguousarray(a).view(np.int64),
        np.ascontiguousarray(b).view(np.int64))


@pytest.mark.parametrize("prof", [
    PolylineProfile3D([(0, 0, 1), (3, 0, 1), (3, 4, 1), (10, 4, 2)],
                      [1.5, 2.0, 0.7]),
    FixedWingPolylineProfile([(0.0, 0.0), (100.0, 0.0), (150.0, 80.0)],
                             altitude=50.0, speed=20.0, fd_step=0.01),
    LateralSinusoidProfile(cruise_speed=20.0, amplitude=10.0, period=20.0,
                           altitude=100.0, fd_step=0.01, origin=(1.0, 2.0)),
], ids=["polyline3d", "fixedwing-polyline", "lateral-sinusoid"])
def test_array_sample_has_the_bits_of_each_single_time(prof):
    dt = fd = 0.01
    end = prof.duration if np.isfinite(prof.duration) else 25.0
    grid = 0.0 + dt * np.arange(round(end / dt) + 1)
    knots = prof._line.t_knots if hasattr(prof, "_line") else [0.0, 10.0]
    offsets = np.array([-1.1, -1.0, -0.5, -1e-10, 0.0, 1e-10, 0.5, 1.0, 1.1])
    times = np.concatenate([
        grid, grid + 0.5 * dt, grid + dt,                 # step times
        [-3.0, -0.5 * dt],                                # before the start
        (np.asarray(knots)[:, None] + fd * offsets).ravel(),  # near knots
        [end, end + 0.5 * dt, end + 7.0],                # at and after the end
    ])
    many = prof(times)
    column = prof(times[:, None])
    singles = [prof(float(t)) for t in times]
    for f in dataclasses.fields(many):
        field = getattr(many, f.name)
        one = [getattr(s, f.name) for s in singles]
        assert np.shape(field) == times.shape + np.shape(one[0])
        assert _same_bits(field, np.array(one))
        assert _same_bits(getattr(column, f.name), np.asarray(field)[:, None])
