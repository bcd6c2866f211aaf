"""Fixed-wing model: trim equilibrium, controller pieces, rotations.

The heavyweight oracle is a symbolic retranscription of the entire
closed-loop vector field in sympy, differentiated exactly and compared
against the finite-difference Jacobians used for covariance
propagation.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
import sympy as sp

from tubeplan.errors import ModelDomainError
from tubeplan.simcore import TimeGrid, Trajectory, linearize
from tubeplan.vehicles import (
    FixedWingModel,
    FixedWingParams,
    FixedWingRef,
    LateralSinusoidProfile,
)
from tubeplan.vehicles.elementwise import BatchMath, split
from tubeplan.vehicles.fixedwing import (
    EPS_SING,
    _inner_loop,
    _outer_lateral,
    _outer_longitudinal,
    _wind_to_inertial,
)


def make_ref(eta, etadot, etaddot=(0.0, 0.0), h=100.0, hdot=0.0):
    return FixedWingRef(h=float(h), hdot=float(hdot),
                        eta=np.asarray(eta, dtype=float),
                        etadot=np.asarray(etadot, dtype=float),
                        etaddot=np.asarray(etaddot, dtype=float))


# --------------------------------------------------------------------------
# trim


def test_trim_state_is_an_equilibrium_of_the_vehicle_rows():
    model = FixedWingModel()
    x0 = model.trim_state((3.0, -2.0), 120.0, 22.0, 0.4)
    heading = 0.4
    ref = make_ref(eta=x0[0:2], etadot=22.0 * np.array(
        [np.cos(heading), np.sin(heading)]), h=120.0)
    xdot = model.deriv(x0, ref, np.zeros(3))
    # position rates equal the commanded ground track
    assert np.allclose(xdot[0:2], ref.etadot, atol=1e-12)
    assert xdot[2] == pytest.approx(0.0, abs=1e-12)
    # V, psi, gamma, T, V_des, psi_des hold steady
    assert np.allclose(xdot[3:9], 0.0, atol=1e-9)


def test_trim_thrust_balances_the_drag_polar():
    p = FixedWingParams()
    model = FixedWingModel(p)
    V = 20.0
    x0 = model.trim_state((0.0, 0.0), 100.0, V, 0.0)
    qS = p.rho * p.S * V**2
    C_L = 2.0 * p.m * p.g / qS
    drag = (p.C_D0 + p.K_d * C_L**2) * 0.5 * qS
    assert x0[6] == pytest.approx(drag, rel=1e-12)


def test_trim_rejects_zero_speed():
    with pytest.raises(ModelDomainError):
        FixedWingModel().trim_state((0, 0), 100.0, 0.0, 0.0)


# --------------------------------------------------------------------------
# controller pieces: the unchecked kernels that deriv runs, called on
# angles as deriv calls them (its domain checks are tested below)


def test_outer_longitudinal_clamps_unreachable_climbs():
    # a climb command faster than the airspeed saturates at +-90 degrees
    g = _outer_longitudinal(BatchMath, 100.0, 10.0, 200.0, 50.0, kappa=0.5)
    assert g == pytest.approx(np.arcsin(1.0 - 1e-9))
    g2 = _outer_longitudinal(BatchMath, 100.0, 10.0, 90.0, 0.0, kappa=0.5)
    assert g2 == pytest.approx(np.arcsin(-0.5))


def test_inner_loop_feedforward_holds_steady_flight():
    p = FixedWingParams()
    V, gamma = 20.0, 0.0
    mu, C_L, T_des = _inner_loop(V, np.cos(gamma), np.sin(gamma), gamma,
                                 0.3, 0.3, V, gamma, p)
    assert mu == 0.0
    qS = p.rho * p.S * V**2
    assert C_L == pytest.approx(2.0 * p.m * p.g / qS)
    assert T_des == pytest.approx(
        0.5 * p.C_D0 * qS + 2.0 * p.K_d * (p.m * p.g) ** 2 / qS)


def test_inner_loop_bank_opposes_heading_error():
    """A heading left of the command banks the lift to pull it back.

    In these axes psi_dot carries the lift term with a minus sign, so
    psi < psi_des needs mu < 0 for psi_dot > 0.
    """
    p = FixedWingParams()
    gamma = 0.0
    mu, _, _ = _inner_loop(20.0, np.cos(gamma), np.sin(gamma), gamma,
                           0.0, 0.2, 20.0, 0.0, p)
    assert mu < 0.0
    model = FixedWingModel(p)
    x0 = model.trim_state((0.0, 0.0), 100.0, 20.0, 0.0)
    x0[8] = 0.2                            # command a left turn
    ref = make_ref((0, 0), (20.0, 0.0))
    xdot = model.deriv(x0, ref, np.zeros(3))
    assert xdot[4] > 0.0                   # heading moves toward psi_des


def test_outer_lateral_is_zero_on_a_matched_track():
    p = FixedWingParams()
    V = 18.0
    psi = gamma = psi_des = 0.0
    vdot, psidot = _outer_lateral(
        BatchMath, 0.0, 0.0, V, np.cos(gamma), np.cos(psi), np.sin(psi), V,
        np.cos(psi_des), np.sin(psi_des),
        split(np.array([0.0, 0.0])), split(np.array([V, 0.0])),
        split(np.zeros(2)), p, p.Lam_f)
    assert vdot == pytest.approx(0.0, abs=1e-12)
    assert psidot == pytest.approx(0.0, abs=1e-12)


def wind_to_inertial(w_u, w_w, w_v, psi, gamma, mu):
    """The rotation kernel on angles, as deriv calls it on their cos/sin."""
    return _wind_to_inertial(w_u, w_w, w_v, np.cos(psi), np.sin(psi),
                             np.cos(gamma), np.sin(gamma),
                             np.cos(mu), np.sin(mu))


def test_wind_rotation_preserves_norm_and_reduces_at_identity():
    rng = np.random.default_rng(3)
    for _ in range(25):
        w = rng.normal(size=3)
        psi, gamma, mu = rng.uniform(-1.2, 1.2, size=3)
        out = np.array(wind_to_inertial(w[0], w[1], w[2], psi, gamma, mu))
        assert np.linalg.norm(out) == pytest.approx(np.linalg.norm(w))
    # zero angles map the wind axes onto the identity
    assert np.allclose(wind_to_inertial(1.0, 0.0, 0.0, 0.0, 0.0, 0.0),
                       (1.0, 0.0, 0.0))
    assert np.allclose(wind_to_inertial(0.0, 1.0, 0.0, 0.0, 0.0, 0.0),
                       (0.0, 1.0, 0.0))
    assert np.allclose(wind_to_inertial(0.0, 0.0, 1.0, 0.0, 0.0, 0.0),
                       (0.0, 0.0, 1.0))
    # a quarter-turn heading swings the along-track component onto +y
    assert np.allclose(wind_to_inertial(1.0, 0.0, 0.0, np.pi / 2, 0.0, 0.0),
                       (0.0, 1.0, 0.0), atol=1e-15)


def test_model_domain_guards():
    model = FixedWingModel()
    x0 = model.trim_state((0, 0), 100.0, 20.0, 0.0)
    ref = make_ref((0, 0), (20.0, 0.0))
    bad = x0.copy()
    bad[3] = 0.0
    with pytest.raises(ModelDomainError):
        model.deriv(bad, ref, np.zeros(3))
    near_vertical = x0.copy()
    near_vertical[5] = np.pi / 2
    with pytest.raises(ModelDomainError):
        model.deriv(near_vertical, ref, np.zeros(3))
    assert EPS_SING > 0.0


def test_batched_deriv_equals_single_evaluations():
    model = FixedWingModel()
    rng = np.random.default_rng(5)
    base = model.trim_state((0, 0), 100.0, 20.0, 0.0)
    X = base + 0.05 * rng.normal(size=(6, 14))
    N = rng.normal(size=(6, 3))
    ref = make_ref((0, 0), (20.0, 0.0))
    batch = model.deriv(X, ref, N)
    for k in range(6):
        assert np.allclose(batch[k], model.deriv(X[k], ref, N[k]),
                           atol=1e-13)


def test_column_major_batch_gives_the_bits_of_the_c_ordered_copy():
    # Monte Carlo holds its batch column-major; the result keeps that order
    model = FixedWingModel()
    rng = np.random.default_rng(29)
    base = model.trim_state((0, 0), 100.0, 20.0, 0.3)
    X = base + 0.05 * rng.normal(size=(301, 14))
    N = rng.normal(size=(301, 3))
    ref = make_ref((0, 0), (20.0, 0.0))
    c_out = model.deriv(X, ref, N)
    f_out = model.deriv(np.asfortranarray(X), ref, np.asfortranarray(N))
    assert c_out.flags.c_contiguous and f_out.flags.f_contiguous
    assert np.array_equal(f_out, c_out)


def test_row_deriv_matches_the_rows_of_a_batch():
    """A single row runs in Python floats, a batch in numpy: same body."""
    model = FixedWingModel(FixedWingParams(
        Lam_f=[[1.0, 0.3], [-0.2, 0.8]], kappa_mu=3.0))
    rng = np.random.default_rng(17)
    spread = np.array([5.0, 5.0, 3.0, 2.0, 0.3, 0.1, 0.5, 2.0, 0.3,
                       0.5, 0.5, 0.5, 0.5, 0.5])
    X = model.trim_state((0, 0), 100.0, 20.0, 0.2) \
        + spread * rng.normal(size=(5, 7, 14))
    N = rng.normal(size=(5, 7, 3))
    ref = make_ref(rng.normal(size=2), (20.0, 0.0) + rng.normal(size=2),
                   rng.normal(size=2), h=100.0 + rng.normal(),
                   hdot=rng.normal())

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
    # one reference per grid point, sampled as linearize samples it
    prof = LateralSinusoidProfile(cruise_speed=20.0, amplitude=3.0,
                                  period=4.0, altitude=101.0, fd_step=0.01,
                                  origin=(-1.0, 0.5))
    times = np.array([0.0, 0.13, 0.5, 1.0, 2.7])
    per_point = model.deriv(X, prof(times[:, None]), N)
    for k in range(5):
        for r in range(7):
            close(row_deriv(X[k, r], prof(times[k]), N[k, r]),
                  per_point[k, r])


def test_infinite_heading_gives_nan_on_a_row_as_in_a_batch():
    # math.cos raises on inf where numpy returns nan; the row path follows numpy
    model = FixedWingModel()
    x = model.trim_state((0, 0), 100.0, 20.0, 0.0)
    x[4] = np.inf
    ref = make_ref((0, 0), (20.0, 0.0))
    with np.errstate(invalid="ignore"):
        row = model.deriv(x, ref, np.zeros(3))
        batch = model.deriv(x[None], ref, np.zeros((1, 3)))[0]
    assert np.isnan(row).any()
    np.testing.assert_array_equal(np.isnan(row), np.isnan(batch))


@pytest.mark.parametrize("column, value", [
    (3, EPS_SING),        # airspeed
    (5, np.pi / 2),       # |cos(gamma)| below EPS_SING
    (7, EPS_SING),        # desired speed
])
def test_domain_errors_raise_alone_and_inside_a_batch(column, value):
    model = FixedWingModel()
    x0 = model.trim_state((0, 0), 100.0, 20.0, 0.0)
    ref = make_ref((0, 0), (20.0, 0.0))
    bad = x0.copy()
    bad[column] = value
    with pytest.raises(ModelDomainError) as alone:
        model.deriv(bad, ref, np.zeros(3))
    with pytest.raises(ModelDomainError) as as_list:
        model.deriv(bad.tolist(), ref, [0.0] * 3)
    X = np.tile(x0, (5, 1))
    model.deriv(X, ref, np.zeros((5, 3)))
    X[3] = bad
    with pytest.raises(ModelDomainError) as in_batch:
        model.deriv(X, ref, np.zeros((5, 3)))
    assert str(in_batch.value) == str(as_list.value) == str(alone.value)


def test_params_are_frozen_copies_of_what_they_are_given():
    Lam_f = np.eye(2)
    model = FixedWingModel(FixedWingParams(Lam_f=Lam_f))
    Lam_f[0, 0] = 3.0                     # the caller's array stays theirs
    params = model.params
    assert params.Lam_f[0, 0] == 1.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        params.m = 2.0
    with pytest.raises(ValueError, match="read-only"):
        params.Lam_f[0, 0] = 2.0
    with pytest.raises(AttributeError):
        model.params = FixedWingParams()


# --------------------------------------------------------------------------
# symbolic Jacobian oracle


def _symbolic_closed_loop(p, ref_vals):
    """Rebuild the 14-state closed loop in sympy; returns (f, x, n)."""
    x = sp.Matrix(sp.symbols("x0:14", real=True))
    n = sp.Matrix(sp.symbols("n0:3", real=True))
    X, Y, H, V, psi, gamma, T, V_des, psi_des = x[0:9]
    eta_u, eta_w1, eta_w2, eta_v1, eta_v2 = x[9:14]
    eta_ref = ref_vals["eta"]
    etadot_ref = ref_vals["etadot"]
    etaddot_ref = ref_vals["etaddot"]
    h_ref, hdot_ref = ref_vals["h"], ref_vals["hdot"]

    cg, sg = sp.cos(gamma), sp.sin(gamma)
    cpsi, spsi = sp.cos(psi), sp.sin(psi)

    gamma_des = sp.asin((hdot_ref - p.kappa * (H - h_ref)) / V)
    e = sp.Matrix([X - eta_ref[0], Y - eta_ref[1]])
    edot = sp.Matrix([V * cg * cpsi - etadot_ref[0],
                      V * cg * spsi - etadot_ref[1]])
    s = edot + p.kappa * e
    Lam = sp.Matrix(p.Lam_f)
    rhs = sp.Matrix(etaddot_ref) - p.kappa * edot - Lam * s
    A = sp.Matrix([[cg * sp.cos(psi_des), -V_des * cg * sp.sin(psi_des)],
                   [cg * sp.sin(psi_des), V_des * cg * sp.cos(psi_des)]])
    sol = A.solve(rhs)
    vdot_des, psidot_des = sol[0], sol[1]

    qS = p.S * V**2 * p.rho
    mu = p.kappa_mu * (psi - psi_des)
    C_L = 2 * p.m * p.g * cg / qS + p.kappa_CL * (gamma_des - gamma)
    T_bar = p.m * p.g * sg + sp.Rational(1, 2) * p.C_D0 * qS \
        + 2 * p.K_d * (p.m * p.g * cg) ** 2 / qS
    T_des = T_bar + p.kappa_T2 * (V_des - V)

    a_u = -V / p.L_u
    c_u = p.sigma_u * sp.sqrt(2 * V / p.L_u)

    def transverse(sigma, L):
        vl = V / L
        k = sigma * sp.sqrt(vl)
        return -2 * vl, -(vl**2), sp.sqrt(3) * k, k * vl

    aw1, aw2, cw1, cw2 = transverse(p.sigma_w, p.L_w)
    av1, av2, cv1, cv2 = transverse(p.sigma_v, p.L_v)

    etadot_u = a_u * eta_u + n[0]
    etadot_w1 = aw1 * eta_w1 + aw2 * eta_w2 + n[1]
    etadot_v1 = av1 * eta_v1 + av2 * eta_v2 + n[2]
    w_u = c_u * eta_u
    w_w = cw1 * eta_w1 + cw2 * eta_w2
    w_v = cv1 * eta_v1 + cv2 * eta_v2
    wdot_u = c_u * etadot_u
    wdot_w = cw1 * etadot_w1 + cw2 * eta_w1
    wdot_v = cv1 * etadot_v1 + cv2 * eta_v1

    cmu, smu = sp.cos(mu), sp.sin(mu)

    def rot(u, w, v):
        wx = u * cg * cpsi - w * (cmu * spsi + cpsi * sg * smu) \
            - v * (smu * spsi - cmu * cpsi * sg)
        wy = v * (cpsi * smu + cmu * sg * spsi) \
            + w * (cmu * cpsi - sg * smu * spsi) + u * cg * spsi
        wh = v * cg * cmu - u * sg - w * cg * smu
        return wx, wy, wh

    w_x, w_y, w_h = rot(w_u, w_w, w_v)
    wdot_x, wdot_y, wdot_h = rot(wdot_u, wdot_w, wdot_v)

    C_D = p.C_D0 + p.K_d * C_L**2
    q = sp.Rational(1, 2) * p.rho * p.S * V**2
    lift, drag = C_L * q, C_D * q

    f = sp.Matrix([
        V * cg * cpsi + w_x,
        V * cg * spsi + w_y,
        V * sg + w_h,
        (T - drag) / p.m - p.g * sg - wdot_x * cg * cpsi
        - wdot_y * cg * spsi + wdot_h * sg,
        -(lift * smu - p.m * wdot_x * spsi + p.m * wdot_y * cpsi)
        / (V * p.m * cg),
        (lift * cmu - p.m * p.g * cg + p.m * wdot_x * cpsi * sg
         + p.m * wdot_y * sg * spsi + p.m * wdot_h * cg) / (V * p.m),
        p.kappa_T1 * (T_des - T),
        vdot_des,
        psidot_des,
        etadot_u,
        etadot_w1,
        eta_w1,
        etadot_v1,
        eta_v1,
    ])
    return f, x, n


@pytest.mark.parametrize("offset", [0.0, 0.05])
def test_finite_difference_jacobians_match_symbolic(offset):
    p = FixedWingParams(kappa_mu=6.0, kappa_T1=4.0, kappa_T2=10.0,
                        Lam_f=0.5 * np.eye(2))
    model = FixedWingModel(p)
    V = 20.0
    x0 = model.trim_state((0.0, 0.0), 100.0, V, 0.0)
    x0 += offset * np.array([0.3, -0.2, 1.0, 0.4, 0.02, 0.01, 0.5,
                             -0.3, 0.015, 0.2, 0.1, -0.1, 0.05, 0.2])
    ref_vals = {
        "eta": (0.0, 0.0), "etadot": (V, 0.0), "etaddot": (0.0, 0.1),
        "h": 100.0, "hdot": 0.0,
    }
    ref = make_ref(ref_vals["eta"], ref_vals["etadot"],
                   ref_vals["etaddot"], ref_vals["h"], ref_vals["hdot"])

    grid = TimeGrid(0.0, 0.01, 0.01)
    states = np.vstack([x0, x0])
    nominal = Trajectory(grid=grid, states=states)
    lin = linearize(model, nominal, lambda t: ref)

    f, x, nsym = _symbolic_closed_loop(p, ref_vals)
    subs = {x[i]: float(x0[i]) for i in range(14)}
    subs.update({nsym[i]: 0.0 for i in range(3)})
    A_exact = np.array(f.jacobian(x).subs(subs).evalf(), dtype=float)
    B_exact = np.array(f.jacobian(nsym).subs(subs).evalf(), dtype=float)

    assert np.allclose(lin.A[0], A_exact, atol=1e-5)
    assert np.allclose(lin.B_n[0], B_exact, atol=1e-7)
    # the model value itself agrees with the symbolic transcription
    f_exact = np.array(f.subs(subs).evalf(), dtype=float).ravel()
    assert np.allclose(model.deriv(x0, ref, np.zeros(3)), f_exact,
                       atol=1e-10)
