"""Closed-loop quadrotor model: controller algebra and gust coupling."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from tubeplan.errors import ModelDomainError
from tubeplan.simcore import TimeGrid, integrate_nominal
from tubeplan.vehicles import (
    PolylineProfile3D,
    QuadrotorModel,
    QuadrotorParams,
    QuadrotorRef,
)
from tubeplan.vehicles.dryden import longitudinal
from tubeplan.vehicles.elementwise import BatchMath


def make_ref(r, rdot, rddot=(0.0, 0.0, 0.0)):
    return QuadrotorRef(r=np.asarray(r, dtype=float),
                        rdot=np.asarray(rdot, dtype=float),
                        rddot=np.asarray(rddot, dtype=float))


def reference_deriv(params, x, ref, noise):
    """Independent transcription of the closed-loop dynamics."""
    x = np.asarray(x, dtype=float)
    r, v, eta = x[0:3], x[3:6], x[6:9]
    e = r - ref.r
    edot = v - ref.rdot
    s = edot + params.K @ e
    u = ref.rddot - params.K @ edot - params.Lam @ s
    speed = float(np.linalg.norm(v))
    a = -speed / params.L
    c = params.sigma * np.sqrt(2.0 * speed / params.L)
    w = c * eta
    vq = v - w
    drag = (0.5 * params.rho * params.S * params.C_D / params.m) \
        * vq * np.linalg.norm(vq)
    return np.concatenate([v, u - drag, a * eta + np.asarray(noise)])


def test_deriv_matches_independent_transcription():
    rng = np.random.default_rng(7)
    params = QuadrotorParams(
        m=1.4, S=0.07, C_D=0.9,
        K=np.diag([2.0, 2.5, 1.5]), Lam=np.diag([1.0, 2.0, 3.0]),
        sigma=np.array([0.5, 0.7, 0.2]), L=np.array([40.0, 50.0, 60.0]))
    model = QuadrotorModel(params)
    for _ in range(20):
        x = rng.normal(size=9)
        x[3:6] += np.array([2.0, 0.0, 0.0])     # keep the speed positive
        if np.linalg.norm(x[3:6]) < 0.1:
            continue
        ref = make_ref(rng.normal(size=3), rng.normal(size=3),
                       rng.normal(size=3))
        noise = rng.normal(size=3)
        got = model.deriv(x, ref, noise)
        assert np.allclose(got, reference_deriv(params, x, ref, noise),
                           atol=1e-13)


def test_controller_cancels_error_free_tracking():
    """Matched position and velocity reduce the command to the feedforward."""
    model = QuadrotorModel(QuadrotorParams(C_D=0.0))
    x = np.zeros(9)
    x[0:3] = (1.0, 2.0, 3.0)
    x[3:6] = (2.0, 0.0, 0.0)
    ref = make_ref(x[0:3], x[3:6], (0.5, -0.5, 0.1))
    assert np.allclose(model.deriv(x, ref, np.zeros(3))[3:6],
                       (0.5, -0.5, 0.1))


def test_zero_speed_is_rejected():
    model = QuadrotorModel()
    x = np.zeros(9)
    x[0:3] = (1.0, 1.0, 1.0)
    with pytest.raises(ModelDomainError):
        model.deriv(x, make_ref(x[0:3], (0, 0, 0)), np.zeros(3))


def test_batched_deriv_equals_single_evaluations():
    model = QuadrotorModel()
    rng = np.random.default_rng(11)
    X = rng.normal(size=(8, 9))
    X[:, 3] += 3.0
    N = rng.normal(size=(8, 3))
    ref = make_ref((0, 0, 5), (2, 0, 0))
    batch = model.deriv(X, ref, N)
    for k in range(8):
        assert np.allclose(batch[k], model.deriv(X[k], ref, N[k]),
                           atol=1e-14)


def test_column_major_batch_gives_the_bits_of_the_c_ordered_copy():
    # Monte Carlo holds its batch column-major; the result keeps that order
    model = QuadrotorModel()
    rng = np.random.default_rng(23)
    X = rng.normal(size=(301, 9))
    X[:, 3] += 3.0
    N = rng.normal(size=(301, 3))
    ref = make_ref((0, 0, 5), (2, 0, 0))
    c_out = model.deriv(X, ref, N)
    f_out = model.deriv(np.asfortranarray(X), ref, np.asfortranarray(N))
    assert c_out.flags.c_contiguous and f_out.flags.f_contiguous
    assert np.array_equal(f_out, c_out)


def test_row_deriv_matches_the_rows_of_a_batch():
    """A single row runs in Python floats, a batch in numpy: same body."""
    params = QuadrotorParams(
        K=[[2.0, 0.3, 0.1], [0.2, 2.5, -0.2], [0.0, 0.1, 1.5]],
        Lam=[[1.0, 0.2, 0.0], [0.1, 2.0, 0.3], [0.0, -0.1, 3.0]],
        sigma=[0.5, 0.7, 0.2], L=[40.0, 50.0, 60.0])
    model = QuadrotorModel(params)
    rng = np.random.default_rng(19)
    X = rng.normal(size=(5, 7, 9))
    X[..., 3] += 3.0                      # keep the speed positive
    N = rng.normal(size=(5, 7, 3))
    ref = make_ref(rng.normal(size=3), rng.normal(size=3), rng.normal(size=3))

    def close(row, batch_row):
        assert np.all(np.abs(row - batch_row) <= 1e-12 * np.abs(batch_row))

    def row_deriv(x, ref, noise):
        # a list row, as the stepper hands it, gives a list with the bits
        # of the (n,) array row, with noise and without
        for n in (noise, np.zeros(3)):
            as_list = model.deriv(x.tolist(), ref, n.tolist())
            assert isinstance(as_list, list)
            assert np.array_equal(as_list, model.deriv(x, ref, n))
        return model.deriv(x, ref, noise)

    shared = model.deriv(X[0], ref, N[0])
    for r in range(7):
        close(row_deriv(X[0, r], ref, N[0, r]), shared[r])
    # one reference per grid point, sampled as linearize samples it:
    # before the start, on two legs, at a knot and past the end
    prof = PolylineProfile3D([(0, 0, 1), (3, 0, 1), (3, 4, 2)], [1.5, 2.0])
    times = np.array([-0.4, 0.7, 2.0, 3.1, 9.0])
    per_point = model.deriv(X, prof(times[:, None]), N)
    for k in range(5):
        for r in range(7):
            close(row_deriv(X[k, r], prof(times[k]), N[k, r]),
                  per_point[k, r])


def test_zero_speed_raises_alone_and_inside_a_batch():
    model = QuadrotorModel()
    ref = make_ref((0, 0, 0), (2, 0, 0))
    X = np.zeros((5, 9))
    X[:, 3] = 2.0
    model.deriv(X, ref, np.zeros((5, 3)))
    X[2, 3] = 0.0
    with pytest.raises(ModelDomainError) as alone:
        model.deriv(X[2], ref, np.zeros(3))
    with pytest.raises(ModelDomainError) as as_list:
        model.deriv(X[2].tolist(), ref, [0.0] * 3)
    with pytest.raises(ModelDomainError) as in_batch:
        model.deriv(X, ref, np.zeros((5, 3)))
    assert str(in_batch.value) == str(as_list.value) == str(alone.value)


def test_params_are_frozen_copies_of_what_they_are_given():
    K = 3.0 * np.eye(3)
    model = QuadrotorModel(QuadrotorParams(K=K))
    K[0, 0] = 1.0                         # the caller's array stays theirs
    params = model.params
    assert params.K[0, 0] == 3.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        params.m = 2.0
    for array in (params.K, params.Lam, params.sigma, params.L):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 1.0
    with pytest.raises(AttributeError):
        model.params = QuadrotorParams()


def test_gust_state_shifts_drag_through_relative_velocity():
    params = QuadrotorParams()
    model = QuadrotorModel(params)
    x = np.zeros(9)
    x[3:6] = (2.0, 0.0, 0.0)
    ref = make_ref((0, 0, 0), (2, 0, 0))
    base = model.deriv(x, ref, np.zeros(3))
    x_gust = x.copy()
    x_gust[6] = 1.0                       # along-track gust state
    gusty = model.deriv(x_gust, ref, np.zeros(3))
    _, c = longitudinal(BatchMath, 2.0, params.sigma[0], params.L[0])
    vq = 2.0 - c * 1.0                    # relative airspeed along x
    k_drag = 0.5 * params.rho * params.S * params.C_D / params.m
    expect_ax = base[3] + k_drag * (2.0 * abs(2.0) * 2.0
                                    - vq * abs(vq)) - k_drag * 2.0 * 2.0
    assert gusty[3] == pytest.approx(expect_ax)
    # the gust state only touches acceleration and its own filter row
    assert np.allclose(gusty[[0, 1, 2]], base[[0, 1, 2]])


def test_closed_loop_settles_at_the_drag_offset_without_gusts():
    """Cross-track errors vanish; the proportional loop leaves the exact
    along-track steady state e = -drag / (Lam K) against constant drag."""
    params = QuadrotorParams(sigma=np.zeros(3))
    model = QuadrotorModel(params)
    speed = 4.0
    prof = PolylineProfile3D([(0.0, 0.0, 5.0), (40.0, 0.0, 5.0)], speed)
    grid = TimeGrid(0.0, 8.0, 0.01)
    x0 = np.zeros(9)
    x0[0:3] = (0.0, 0.5, 4.5)             # offset start
    x0[3:6] = (speed, 0.0, 0.0)
    traj = integrate_nominal(model, x0, prof, grid)
    err = traj.states[-1, 0:3] - prof(8.0).r
    k_drag = 0.5 * params.rho * params.S * params.C_D / params.m
    e_ss = -k_drag * speed**2 / (params.Lam[0, 0] * params.K[0, 0])
    assert err[0] == pytest.approx(e_ss, abs=2e-4)
    assert abs(err[1]) < 1e-4 and abs(err[2]) < 1e-4
    # velocity locks onto the reference speed
    assert np.allclose(traj.states[-1, 3:6], (speed, 0.0, 0.0), atol=1e-4)
