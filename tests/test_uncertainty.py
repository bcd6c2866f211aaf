"""Covariance propagation and the chi-squared quantile machinery.

Oracles: mpmath's regularized incomplete gamma for the CDF; closed forms
of the Lyapunov ODE for constant coefficient matrices (linear growth for
A = 0, scalar exponential relaxation for A = -a I, and the elementwise
solution in the eigenbasis of a non-diagonal A); an mpmath quadrature of
the scalar solution for a time-varying A; and a plain step-by-step loop
of the discrete recursion for its blocked evaluation.
"""

from __future__ import annotations

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tubeplan.simcore import LinearizationHistory, TimeGrid, Trajectory
from tubeplan.uncertainty import (
    CovarianceHistory,
    Tube,
    build_tube,
    chi2_cdf,
    chi2_quantile,
    _step_maps,
    propagate_covariance,
)


def mp_chi2_cdf(y, dof):
    """Reference CDF via mpmath: P(dof/2, y/2)."""
    return float(mpmath.gammainc(dof / 2.0, 0, y / 2.0,
                                 regularized=True))


def constant_lin(A, B, tf=1.0, dt=0.001):
    """A LinearizationHistory with constant A, B_n on a fresh grid."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.asarray(B, dtype=float).reshape(A.shape[0], -1)
    grid = TimeGrid(0.0, tf, dt)
    return LinearizationHistory(
        grid=grid,
        A=np.repeat(A[None], grid.count, axis=0),
        B_n=np.repeat(B[None], grid.count, axis=0))


# --------------------------------------------------------------------------
# chi-squared CDF / quantile


def test_chi2_cdf_matches_mpmath_over_grid():
    for dof in (1, 2, 3, 5, 10):
        for y in (0.05, 0.5, 1.0, 2.37, 7.81, 16.27, 40.0):
            assert chi2_cdf(y, dof) == pytest.approx(
                mp_chi2_cdf(y, dof), abs=1e-12)


def test_chi2_quantile_reference_values():
    # dof=3 quantiles cross-checked against mpmath by CDF inversion
    q999 = chi2_quantile(0.999, 3)
    assert mp_chi2_cdf(q999, 3) == pytest.approx(0.999, abs=1e-10)
    assert q999 == pytest.approx(16.266236, abs=1e-5)
    q50 = chi2_quantile(0.5, 3)
    assert mp_chi2_cdf(q50, 3) == pytest.approx(0.5, abs=1e-10)
    assert q50 == pytest.approx(2.365974, abs=1e-5)


def test_chi2_round_trip_within_1e10():
    for dof in (1, 3, 6):
        for beta in (0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 0.9999):
            q = chi2_quantile(beta, dof)
            assert abs(chi2_cdf(q, dof) - beta) <= 1e-10


def test_chi2_monotone_in_level_and_dof():
    betas = np.linspace(0.05, 0.995, 20)
    qs = [chi2_quantile(b, 3) for b in betas]
    assert all(a < b for a, b in zip(qs, qs[1:]))
    assert chi2_quantile(0.9, 2) < chi2_quantile(0.9, 3) \
        < chi2_quantile(0.9, 4)


def test_chi2_input_validation():
    assert chi2_cdf(-1.0, 3) == 0.0
    assert chi2_cdf(0.0, 3) == 0.0
    with pytest.raises(ValueError):
        chi2_cdf(1.0, 0)
    for bad in (0.0, 1.0, -0.5, 1.5):
        with pytest.raises(ValueError):
            chi2_quantile(bad, 3)


def test_chi2_quantile_keeps_the_bits_of_the_incomplete_gamma_levels():
    # float.hex of the levels the series / continued-fraction CDF gave
    expected = {0.9: "0x1.9016c05760000p+2", 0.99: "0x1.6b0925f400000p+3",
                0.999: "0x1.044280e300000p+4",
                0.9999: "0x1.51b8600800000p+4"}
    assert {b: chi2_quantile(b, 3).hex() for b in expected} == expected


def test_chi2_cdf_stays_in_the_unit_interval():
    for dof in range(1, 13):
        for y in np.logspace(-300, 5, 611):
            assert 0.0 <= chi2_cdf(y, dof) <= 1.0


def test_chi2_cdf_rejects_a_non_integer_dof():
    for bad in (2.5, 0.5, -1, float("nan")):
        with pytest.raises(ValueError, match="positive integer"):
            chi2_cdf(1.0, bad)


# --------------------------------------------------------------------------
# Lyapunov propagation


def test_zero_dynamics_gives_exact_linear_growth():
    # A = 0, B = I: P(t) = P0 + t I, and RK4 is exact for a constant rate
    P0 = np.diag([1.0, 2.0, 3.0])
    lin = constant_lin(np.zeros((3, 3)), np.eye(3), tf=2.0, dt=0.01)
    cov = propagate_covariance(lin, P0)
    times = lin.grid.times()
    for k in (0, 57, 200):
        expect = P0 + times[k] * np.eye(3)
        assert np.allclose(cov.P[k], expect, atol=1e-12)


def test_scalar_relaxation_matches_exponential_solution():
    # A = -a, B = b: Var(t) = V_inf + (V0 - V_inf) exp(-2 a t)
    a, b, v0 = 1.7, 0.8, 0.25
    lin = constant_lin([[-a]], [[b]], tf=4.0, dt=0.002)
    cov = propagate_covariance(lin, [[v0]])
    v_inf = b * b / (2.0 * a)
    times = lin.grid.times()
    expect = v_inf + (v0 - v_inf) * np.exp(-2.0 * a * times)
    assert np.allclose(cov.P[:, 0, 0], expect, atol=1e-9)
    # long-run value settles at b^2 / (2 a)
    assert cov.P[-1, 0, 0] == pytest.approx(v_inf, rel=1e-6)


def test_rk4_step_halving_shrinks_error_by_sixteen():
    a, b = 1.3, 1.0

    def max_err(dt):
        lin = constant_lin([[-a]], [[b]], tf=1.0, dt=dt)
        cov = propagate_covariance(lin, [[0.0]])
        t = lin.grid.times()
        exact = b * b / (2 * a) * (1.0 - np.exp(-2.0 * a * t))
        return float(np.max(np.abs(cov.P[:, 0, 0] - exact)))

    e1, e2 = max_err(0.04), max_err(0.02)
    assert e1 / e2 == pytest.approx(16.0, rel=0.25)


def test_nondiagonal_constant_system_matches_eigenbasis_closed_form():
    # A = V diag(lam) V^-1 with real, distinct eigenvalues: in the
    # eigenbasis, P~ = V^-1 P V^-T solves elementwise
    # P~_ij(t) = e^{s t} P~0_ij + Q~_ij (e^{s t} - 1) / s, s = lam_i + lam_j
    lam = np.array([-0.5, -1.2, 0.7])
    V = np.array([[1.0, 0.4, -0.3], [0.2, 1.0, 0.5], [-0.6, 0.1, 1.0]])
    Vinv = np.linalg.inv(V)
    A = V @ np.diag(lam) @ Vinv
    B = np.array([[0.8, 0.0], [0.3, 0.5], [-0.2, 0.7]])
    P0 = np.array([[0.5, 0.1, -0.2], [0.1, 0.4, 0.05], [-0.2, 0.05, 0.3]])
    lin = constant_lin(A, B, tf=1.5, dt=0.005)
    cov = propagate_covariance(lin, P0)

    Pt0 = Vinv @ P0 @ Vinv.T
    Qt = Vinv @ (B @ B.T) @ Vinv.T
    s = lam[:, None] + lam[None, :]
    times = lin.grid.times()
    for k in (1, 77, 150, 300):
        grow = np.exp(s * times[k])
        expect = V @ (grow * Pt0 + Qt * (grow - 1.0) / s) @ V.T
        assert np.allclose(cov.P[k], expect, rtol=0.0, atol=1e-9)


@pytest.mark.parametrize("steps", [1, 2, 399, 400, 401, 521])
def test_blocked_recursion_equals_the_step_by_step_loop(steps):
    # blocks are ceil(sqrt(steps)) long: 399, 400 and 401 steps end a
    # 20-step block one short, exactly, and one over; 521 is a prime
    # larger than one chunk of step maps
    rng = np.random.default_rng(steps)
    n, m, dt = 4, 2, 0.01
    grid = TimeGrid(0.0, steps * dt, dt)
    assert grid.count == steps + 1
    base = rng.normal(size=(n, n)) - 2.0 * np.eye(n)
    A = base + 0.3 * rng.normal(size=(grid.count, n, n))
    B = rng.normal(size=(grid.count, n, m))
    G = rng.normal(size=(n, n))
    P0 = G @ G.T
    lin = LinearizationHistory(grid=grid, A=A, B_n=B)

    Phi, Q = _step_maps(lin, np.empty((steps, n, n)))
    expect = [P0]
    for F, Qk in zip(Phi, Q):
        X = F @ expect[-1] @ F.T + Qk
        expect.append(0.5 * (X + X.T))
    expect = np.array(expect)

    P = propagate_covariance(lin, P0).P
    scale = float(np.max(np.abs(expect)))
    assert float(np.max(np.abs(P - expect))) <= 1e-13 * scale


def test_time_varying_jacobian_converges_at_second_order():
    # a(t) = -1 - 0.8 cos 3t, b(t) = 1 + 0.5 sin 2t: the half-step A and
    # B_n B_n^T are averages of the grid values, an O(dt^2) error, so
    # halving dt divides the error by 4 (not by RK4's 16).  Exact:
    # P(t) = e^{2 al(t)} v0 + int_0^t e^{2 (al(t) - al(s))} b(s)^2 ds,
    # al(t) = -t - (0.8/3) sin 3t
    v0 = 0.3
    checks = (1.0, 2.0)

    def alpha(t):
        return -t - mpmath.mpf(0.8) / 3 * mpmath.sin(3 * t)

    def exact(t):
        t = mpmath.mpf(t)
        tail = mpmath.quad(lambda s: mpmath.exp(2 * (alpha(t) - alpha(s)))
                           * (1 + 0.5 * mpmath.sin(2 * s)) ** 2, [0, t])
        return float(mpmath.exp(2 * alpha(t)) * v0 + tail)

    expect = np.array([exact(t) for t in checks])

    def max_err(dt):
        grid = TimeGrid(0.0, checks[-1], dt)
        t = grid.times()
        lin = LinearizationHistory(
            grid=grid, A=(-1.0 - 0.8 * np.cos(3.0 * t)).reshape(-1, 1, 1),
            B_n=(1.0 + 0.5 * np.sin(2.0 * t)).reshape(-1, 1, 1))
        P = propagate_covariance(lin, [[v0]]).P[:, 0, 0]
        idx = [int(round(c / dt)) for c in checks]
        return float(np.max(np.abs(P[idx] - expect)))

    e1, e2 = max_err(0.02), max_err(0.01)
    assert e1 / e2 == pytest.approx(4.0, rel=0.05)


def test_propagation_validates_p0():
    lin = constant_lin(np.zeros((2, 2)), np.eye(2), tf=0.1, dt=0.01)
    with pytest.raises(ValueError):
        propagate_covariance(lin, np.zeros((3, 3)))
    with pytest.raises(ValueError):
        propagate_covariance(lin, np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        propagate_covariance(lin, np.array([[-1.0, 0.0], [0.0, 1.0]]))


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_propagated_covariance_stays_symmetric_psd(data):
    n = data.draw(st.integers(min_value=1, max_value=4))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    M = rng.normal(size=(n, n))
    A = M - (np.abs(np.linalg.eigvals(M)).max() + 0.5) * np.eye(n)
    B = rng.normal(size=(n, n))
    G = rng.normal(size=(n, n))
    P0 = G @ G.T
    lin = constant_lin(A, B, tf=0.5, dt=0.01)
    cov = propagate_covariance(lin, P0)
    for P in cov.P:
        assert np.allclose(P, P.T, atol=1e-12)
        eigs = np.linalg.eigvalsh(P)
        assert eigs.min() >= -1e-10 * max(1.0, eigs.max())


# --------------------------------------------------------------------------
# tube extraction


def test_build_tube_extracts_position_marginal():
    grid = TimeGrid(0.0, 0.1, 0.05)
    states = np.arange(grid.count * 4, dtype=float).reshape(grid.count, 4)
    P = np.zeros((grid.count, 4, 4))
    for k in range(grid.count):
        P[k] = np.diag([1.0, 2.0, 3.0, 4.0]) * (k + 1)
    nominal = Trajectory(grid=grid, states=states)
    cov = CovarianceHistory(grid=grid, P=P)
    tube = build_tube(nominal, cov, 0.999)
    assert len(tube) == grid.count
    assert tube.c2 == pytest.approx(chi2_quantile(0.999, 3))
    ell = tube[1]
    assert np.allclose(ell.center, states[1, :3])
    assert np.allclose(ell.sigma, np.diag([2.0, 4.0, 6.0]))
    assert ell.c2 == tube.c2
    # iteration yields the same cross-sections
    assert [e.t for e in tube] == list(grid.times())
    # copies: the tube holds on to neither the states nor the covariance
    assert not np.shares_memory(tube.centers, nominal.states)
    assert not np.shares_memory(tube.sigmas, cov.P)


def test_build_tube_validates_inputs():
    grid = TimeGrid(0.0, 0.1, 0.05)
    other = TimeGrid(0.0, 0.2, 0.05)
    states = np.zeros((grid.count, 4))
    nominal = Trajectory(grid=grid, states=states)
    cov_other = CovarianceHistory(
        grid=other, P=np.zeros((other.count, 4, 4)))
    with pytest.raises(ValueError):
        build_tube(nominal, cov_other, 0.99)
    # the position is the first three states: two states are too few
    planar = Trajectory(grid=grid, states=np.zeros((grid.count, 2)))
    cov = CovarianceHistory(grid=grid, P=np.zeros((grid.count, 2, 2)))
    with pytest.raises(ValueError, match="centers"):
        build_tube(planar, cov, 0.99)


def test_tube_shape_validation():
    with pytest.raises(ValueError):
        Tube(times=[0.0, 1.0], centers=np.zeros((3, 3)),
             sigmas=np.zeros((2, 3, 3)), c2=1.0)
    with pytest.raises(ValueError):
        Tube(times=[0.0, 1.0], centers=np.zeros((2, 3)),
             sigmas=np.zeros((2, 2, 2)), c2=1.0)
