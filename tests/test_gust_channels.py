"""Each model evaluates each distinct gust channel once, with the bits
of evaluating every channel.

``dryden.distinct_channels`` groups a model's channels by their exact
(sigma, L).  The oracle is each bundled model's body as it was written
before the grouping, with one kernel call per channel, kept here as a
subclass.  The shared body must return its bits on a batch and on a
list row, with every channel equal and with channels that differ (in
sigma, in L, in the sign of a zero, in int against float), and its
traced row step must compile from the same source text.
"""

from __future__ import annotations

import struct

import numpy as np
import pytest

from tubeplan import simcore
from tubeplan.errors import ModelDomainError
from tubeplan.simcore import TimeGrid
from tubeplan.vehicles import (
    FixedWingModel,
    FixedWingParams,
    QuadrotorModel,
    QuadrotorParams,
)
from tubeplan.vehicles.dryden import distinct_channels, longitudinal, transverse
from tubeplan.vehicles.elementwise import math_for, split
from tubeplan.vehicles.fixedwing import (
    EPS_SING,
    _inner_loop,
    _outer_lateral,
    _outer_longitudinal,
    _wind_to_inertial,
)


class UnsharedQuadrotor(QuadrotorModel):
    """The quadrotor body with one longitudinal call per axis."""

    def deriv(self, x, ref, noise):
        p = self.params
        if not isinstance(x, list):
            x = np.asarray(x, dtype=float)
        xp = math_for(x)
        cols = split(x)
        _, _, _, vx, vy, vz, eta_x, eta_y, eta_z = cols
        speed = xp.sqrt(vx * vx + vy * vy + vz * vz)
        if not xp.all(speed > 0.0):
            raise ModelDomainError("zero speed")
        ux, uy, uz = self._command(xp, cols, ref)
        (sig_x, sig_y, sig_z), (L_x, L_y, L_z) = (p.sigma.tolist(),
                                                  p.L.tolist())
        a_x, c_x = longitudinal(xp, speed, sig_x, L_x)
        a_y, c_y = longitudinal(xp, speed, sig_y, L_y)
        a_z, c_z = longitudinal(xp, speed, sig_z, L_z)
        qx = vx - c_x * eta_x
        qy = vy - c_y * eta_y
        qz = vz - c_z * eta_z
        q_norm = xp.sqrt(qx * qx + qy * qy + qz * qz)
        k_drag = 0.5 * p.rho * p.S * p.C_D / p.m
        n_x, n_y, n_z = split(noise)
        return xp.stack([
            vx, vy, vz,
            ux - k_drag * qx * q_norm,
            uy - k_drag * qy * q_norm,
            uz - k_drag * qz * q_norm,
            a_x * eta_x + n_x,
            a_y * eta_y + n_y,
            a_z * eta_z + n_z,
        ], x)


class UnsharedFixedWing(FixedWingModel):
    """The fixed-wing body with one transverse call per channel."""

    def deriv(self, x, ref, noise):
        p = self.params
        if not isinstance(x, list):
            x = np.asarray(x, dtype=float)
        xp = math_for(x)
        (X, Y, H, V, psi, gamma, T, V_des, psi_des,
         eta_u, eta_w1, eta_w2, eta_v1, eta_v2) = split(x)
        n_u, n_w, n_v = split(noise)
        if not xp.all(V > EPS_SING):
            raise ModelDomainError("airspeed")
        cg = xp.cos(gamma)
        sg = xp.sin(gamma)
        if not xp.all(abs(cg) > EPS_SING):
            raise ModelDomainError("vertical")
        if not xp.all(V_des > EPS_SING):
            raise ModelDomainError("desired speed")
        cpsi, spsi = xp.cos(psi), xp.sin(psi)
        gamma_des = _outer_longitudinal(xp, H, V, ref.h, ref.hdot, p.kappa)
        vdot_des, psidot_des = _outer_lateral(
            xp, X, Y, V, cg, cpsi, spsi, V_des, xp.cos(psi_des),
            xp.sin(psi_des), split(ref.eta), split(ref.etadot),
            split(ref.etaddot), p, self._Lam_f[xp])
        mu, C_L, T_cmd = _inner_loop(V, cg, sg, gamma, psi, psi_des, V_des,
                                     gamma_des, p)
        a_u, c_u = longitudinal(xp, V, p.sigma_u, p.L_u)
        aw1, aw2, cw1, cw2 = transverse(xp, V, p.sigma_w, p.L_w)
        av1, av2, cv1, cv2 = transverse(xp, V, p.sigma_v, p.L_v)
        etadot_u = a_u * eta_u + n_u
        etadot_w1 = aw1 * eta_w1 + aw2 * eta_w2 + n_w
        etadot_v1 = av1 * eta_v1 + av2 * eta_v2 + n_v
        w_u = c_u * eta_u
        w_w = cw1 * eta_w1 + cw2 * eta_w2
        w_v = cv1 * eta_v1 + cv2 * eta_v2
        wdot_u = c_u * etadot_u
        wdot_w = cw1 * etadot_w1 + cw2 * eta_w1
        wdot_v = cv1 * etadot_v1 + cv2 * eta_v1
        cmu, smu = xp.cos(mu), xp.sin(mu)
        w_x, w_y, w_h = _wind_to_inertial(
            w_u, w_w, w_v, cpsi, spsi, cg, sg, cmu, smu)
        wdot_x, wdot_y, wdot_h = _wind_to_inertial(
            wdot_u, wdot_w, wdot_v, cpsi, spsi, cg, sg, cmu, smu)
        C_D = p.C_D0 + p.K_d * (C_L * C_L)
        q = 0.5 * p.rho * p.S * (V * V)
        lift = C_L * q
        drag = C_D * q
        return xp.stack([
            V * cg * cpsi + w_x,
            V * cg * spsi + w_y,
            V * sg + w_h,
            (T - drag) / p.m - p.g * sg
            - wdot_x * cg * cpsi - wdot_y * cg * spsi + wdot_h * sg,
            -(lift * smu - p.m * wdot_x * spsi
              + p.m * wdot_y * cpsi) / (V * p.m * cg),
            (lift * cmu - p.m * p.g * cg
             + p.m * wdot_x * cpsi * sg
             + p.m * wdot_y * sg * spsi
             + p.m * wdot_h * cg) / (V * p.m),
            p.kappa_T1 * (T_cmd - T),
            vdot_des,
            psidot_des,
            etadot_u,
            etadot_w1,
            eta_w1,
            etadot_v1,
            eta_v1,
        ], x)


QUAD_CHANNELS = {
    "equal": dict(),
    "distinct": dict(sigma=[0.5, 0.7, 0.2], L=[40.0, 50.0, 60.0]),
    "x and z equal": dict(sigma=[0.5, 0.7, 0.5], L=[40.0, 50.0, 40.0]),
    "same sigma, other L": dict(sigma=[1.0, 1.0, 1.0], L=[50.0, 50.0, 30.0]),
    "signed zeros": dict(sigma=[0.0, -0.0, 0.0], L=[50.0, 50.0, 50.0]),
}
FW_CHANNELS = {
    "equal": dict(),
    "distinct": dict(sigma_w=0.8, sigma_v=1.3, L_w=40.0, L_v=70.0),
    "same sigma, other L": dict(L_w=40.0, L_v=70.0),
    "same L, other sigma": dict(sigma_w=0.6),
    "signed zeros": dict(sigma_w=0.0, sigma_v=-0.0),
    "int and float": dict(sigma_w=1, sigma_v=1.0, L_w=50, L_v=50.0),
}
CASES = ([("quad_scenario", QuadrotorParams, UnsharedQuadrotor, QuadrotorModel,
           name, kw) for name, kw in QUAD_CHANNELS.items()]
         + [("fw_scenario", FixedWingParams, UnsharedFixedWing,
             FixedWingModel, name, kw) for name, kw in FW_CHANNELS.items()])
IDS = [f"{fixture[:-9]}-{name}" for fixture, *_, name, _ in CASES]


def _models(params_cls, unshared_cls, model_cls, kw):
    if "sigma" in kw:
        kw = dict(kw, sigma=np.array(kw["sigma"]), L=np.array(kw["L"]))
    params = params_cls(**kw)
    return model_cls(params), unshared_cls(params)


def _batch(sc, model, rng, count=64):
    """``count`` states near the scenario's start, a quarter of their
    entries signed zeros where the domain allows, reference samples at
    as many times of its flight and noise samples."""
    x0 = np.asarray(sc.initial_state())
    X = x0 + 0.1 * (0.2 + np.abs(x0)) * rng.standard_normal((count, len(x0)))
    if model.name == "quadrotor":
        free = list(range(model.n_states))
        X[:, 3] = np.abs(X[:, 3]) + 0.5  # keep the speed positive
        free.remove(3)
    else:  # position, thrust, the desired heading and the gust states
        free = [0, 1, 2, 6, 8, 9, 10, 11, 12, 13]
    zeros = rng.random((count, len(free))) < 0.25
    X[:, free] = np.where(zeros, rng.choice([0.0, -0.0], zeros.shape),
                          X[:, free])
    times = sc.grid.t0 + sc.grid.dt * rng.integers(0, sc.grid.count, count)
    N = rng.standard_normal((count, model.n_noise)) * 10.0
    N[rng.random(N.shape) < 0.25] = -0.0
    return X, sc.profile(times), N


def _bits(a):
    return np.asarray(a, dtype=float).tobytes()


@pytest.mark.parametrize(
    "fixture, params_cls, unshared_cls, model_cls, name, kw", CASES, ids=IDS)
def test_batch_and_row_deriv_have_the_bits_of_one_call_per_channel(
        fixture, params_cls, unshared_cls, model_cls, name, kw, request):
    sc = request.getfixturevalue(fixture)
    model, unshared = _models(params_cls, unshared_cls, model_cls, kw)
    X, ref, N = _batch(sc, model, np.random.default_rng(28))
    assert _bits(model.deriv(X, ref, N)) == _bits(unshared.deriv(X, ref, N))
    for k in range(0, len(X), 7):
        row = type(ref)(*(np.asarray(getattr(ref, f))[k]
                          for f in ref.__dataclass_fields__))
        x, n = X[k].tolist(), N[k].tolist()
        assert struct.pack(f">{len(x)}d", *model.deriv(x, row, n)) \
            == struct.pack(f">{len(x)}d", *unshared.deriv(x, row, n))


@pytest.mark.parametrize(
    "fixture, params_cls, unshared_cls, model_cls, name, kw", CASES, ids=IDS)
@pytest.mark.parametrize("stepper", [simcore._rk4, simcore._em],
                         ids=["rk4", "em"])
def test_the_traced_row_step_keeps_its_source_text(
        fixture, params_cls, unshared_cls, model_cls, name, kw, stepper,
        request):
    # the tape merges lines of the same text, so the one call per channel
    # traced the same lines; compiled functions are cached by their
    # source text, so the same text gives the same function object
    sc = request.getfixturevalue(fixture)
    model, unshared = _models(params_cls, unshared_cls, model_cls, kw)
    grid = TimeGrid(sc.grid.t0, sc.grid.t0 + 5 * sc.grid.dt, sc.grid.dt)
    refs = simcore._step_refs(sc.profile, grid, rk4=stepper is simcore._rk4)
    step = simcore._compile(model, stepper, refs)
    assert step is not None
    assert step is simcore._compile(unshared, stepper, refs)


def test_channels_are_grouped_by_type_and_bits():
    pairs = [(1.0, 50.0), (0.5, 50.0), (1.0, 50.0), (-0.0, 50.0),
             (0.0, 50.0), (1, 50.0), (0.5, 40.0), (0.5, 50.0)]
    distinct, index = distinct_channels(pairs)
    assert [tuple(map(repr, p)) for p in distinct] == [
        ("1.0", "50.0"), ("0.5", "50.0"), ("-0.0", "50.0"), ("0.0", "50.0"),
        ("1", "50.0"), ("0.5", "40.0")]
    assert index == [0, 1, 0, 2, 3, 4, 5, 1]
    nan = float("nan")
    assert distinct_channels([(nan, 1.0), (nan, 1.0)])[1] == [0, 0]
