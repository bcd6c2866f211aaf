"""Gust filter coefficients and their stationary-variance calibration.

The filters are meant to deliver a stationary output variance of exactly
sigma^2 per channel when driven by unit-intensity white noise.  The
oracle solves the stationary Lyapunov equation A P + P A^T + B B^T = 0
independently (vectorized via the Kronecker identity) and checks
C P C^T against sigma^2.  The kernels are called as ``deriv`` calls them
on a batch, in the numpy namespace; the airspeed domain is checked by
each model's ``deriv`` (see the models' domain-error tests).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from tubeplan.vehicles.dryden import longitudinal, transverse
from tubeplan.vehicles.elementwise import BatchMath


def stationary_lyapunov(A, B):
    """Solve A P + P A^T + B B^T = 0 for P (independent oracle)."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.asarray(B, dtype=float).reshape(A.shape[0], -1)
    n = A.shape[0]
    M = np.kron(np.eye(n), A) + np.kron(A, np.eye(n))
    vec_q = (B @ B.T).reshape(-1)
    return np.linalg.solve(M, -vec_q).reshape(n, n)


positive = st.floats(min_value=0.5, max_value=60.0)


@given(V=positive, sigma=st.floats(min_value=0.0, max_value=5.0),
       L=positive)
def test_longitudinal_coeffs_formulas(V, sigma, L):
    a, c = longitudinal(BatchMath, V, sigma, L)
    assert a == pytest.approx(-V / L)
    assert c == pytest.approx(sigma * np.sqrt(2.0 * V / L))


@given(V=positive, sigma=st.floats(min_value=0.01, max_value=5.0),
       L=positive)
def test_longitudinal_stationary_variance_is_sigma_squared(V, sigma, L):
    a, c = longitudinal(BatchMath, V, sigma, L)
    P = stationary_lyapunov([[a]], [[1.0]])
    var_w = c * P[0, 0] * c
    assert var_w == pytest.approx(sigma**2, rel=1e-12)


@given(V=positive, sigma=st.floats(min_value=0.01, max_value=5.0),
       L=positive)
def test_transverse_stationary_variance_is_sigma_squared(V, sigma, L):
    a1, a2, c1, c2 = transverse(BatchMath, V, sigma, L)
    A = np.array([[a1, a2], [1.0, 0.0]])
    C = np.array([c1, c2])
    P = stationary_lyapunov(A, [[1.0], [0.0]])
    var_w = C @ P @ C
    assert var_w == pytest.approx(sigma**2, rel=1e-10)
    # the filter must be stable for the stationary solution to be valid
    assert np.all(np.real(np.linalg.eigvals(A)) < 0.0)


@given(V=positive, sigma=st.floats(min_value=0.01, max_value=5.0),
       L=positive)
def test_stationary_variance_is_airspeed_independent(V, sigma, L):
    """The calibration must hold at every airspeed, not just one."""
    a, c = longitudinal(BatchMath, V, sigma, L)
    assert c**2 / (2.0 * abs(a)) == pytest.approx(sigma**2, rel=1e-12)


def test_coeffs_broadcast_over_airspeed():
    V = np.array([5.0, 10.0, 20.0])
    a, c = longitudinal(BatchMath, V, 1.2, 50.0)
    assert a.shape == c.shape == (3,)
    for k, v in enumerate(V):
        ak, ck = longitudinal(BatchMath, float(v), 1.2, 50.0)
        assert a[k] == ak and c[k] == ck
