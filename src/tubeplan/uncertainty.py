"""Covariance propagation, chi-squared quantiles and probability tubes.

State covariance follows the Lyapunov differential equation

    P_dot = A(t) P + P A(t)^T + B_n(t) B_n(t)^T

along the stored Jacobian history.  Each grid step becomes a step map,
the discrete LinCov form P_{k+1} = Phi_k P_k Phi_k^T + Q_k: Phi_k is an
RK4 step of Phi_dot = A Phi from the identity and Q_k an RK4 step of the
Lyapunov equation from zero, with A and B_n B_n^T averaged at the half
step.  The maps of all steps are formed in batched passes over chunks
of steps, and the recursion runs as a two-level blocked scan.  For
constant A and B_n the scheme is fourth order in dt; for time-varying
ones the half-step averages make it second order.

A probability tube is the time-ordered sequence of position-marginal
ellipsoids

    {z : (z - r)^T Sigma^-1 (z - r) <= c^2},

where c^2 is the chi-squared quantile for 3 degrees of freedom at the
requested confidence level.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .errors import BracketError
from .simcore import (
    LinearizationHistory,
    TimeGrid,
    Trajectory,
    integrate_nominal,
    linearize,
)

__all__ = [
    "CovarianceHistory",
    "ConfidenceEllipsoid",
    "Tube",
    "propagate_covariance",
    "lincov",
    "chi2_cdf",
    "chi2_quantile",
    "build_tube",
]


@dataclass
class CovarianceHistory:
    """Symmetric PSD state covariance at every grid point."""

    grid: TimeGrid
    P: np.ndarray  # (count, n, n)

    def __post_init__(self):
        self.P = np.asarray(self.P, dtype=float)
        if self.P.ndim != 3 or self.P.shape[0] != self.grid.count \
                or self.P.shape[1] != self.P.shape[2]:
            raise ValueError("P must have shape (count, n, n)")


@dataclass
class ConfidenceEllipsoid:
    """One tube cross-section: center, 3x3 covariance block and level c^2."""

    t: float
    center: np.ndarray
    sigma: np.ndarray
    c2: float


class Tube:
    """Time-ordered confidence ellipsoids around a nominal position path."""

    def __init__(self, times, centers, sigmas, beta, c2):
        self.times = np.asarray(times, dtype=float)
        self.centers = np.asarray(centers, dtype=float)
        self.sigmas = np.asarray(sigmas, dtype=float)
        if self.centers.shape != (len(self.times), 3):
            raise ValueError("centers must have shape (count, 3)")
        if self.sigmas.shape != (len(self.times), 3, 3):
            raise ValueError("sigmas must have shape (count, 3, 3)")
        self.beta = float(beta)
        self.c2 = float(c2)

    def __len__(self):
        return len(self.times)

    def __getitem__(self, k):
        return ConfidenceEllipsoid(
            t=float(self.times[k]), center=self.centers[k],
            sigma=self.sigmas[k], c2=self.c2)

    def __iter__(self):
        for k in range(len(self)):
            yield self[k]


def _check_sym_psd(P, what, tol=1e-10):
    if not np.allclose(P, P.T, atol=1e-12, rtol=0.0):
        raise ValueError(f"{what} must be symmetric")
    eigs = np.linalg.eigvalsh(0.5 * (P + P.T))
    if np.any(eigs < -tol * max(1.0, float(eigs[-1]))):
        raise ValueError(f"{what} must be positive semidefinite")


# steps whose maps are formed together: enough to spread numpy's per-call
# cost, few enough that the chunk's temporaries stay small beside the
# full-length Phi and Q
_CHUNK = 256


def _step_maps(lin: LinearizationHistory):
    """(Phi, Q), each (count - 1, n, n): P_{k+1} = Phi_k P_k Phi_k^T + Q_k.

    Phi_k is the RK4 step of Phi_dot = A Phi from Phi = I, and Q_k the RK4
    step of the Lyapunov equation from P = 0.  A and B_n B_n^T are averaged
    at the half step, and B_n B_n^T is formed one chunk of steps at a time.
    """
    dt = lin.grid.dt
    steps = lin.grid.count - 1
    n = lin.A.shape[1]
    Phi = np.empty((steps, n, n))
    Q = np.empty((steps, n, n))

    def rate(A, Qn, P):
        # P symmetric makes A P + P A^T = S + S^T with S = A P
        S = A @ P
        return S + S.transpose(0, 2, 1) + Qn

    for s in range(0, steps, _CHUNK):
        e = min(s + _CHUNK, steps)
        A = lin.A[s:e + 1]
        B = lin.B_n[s:e + 1]
        BB = B @ B.transpose(0, 2, 1)
        A0, A1 = A[:-1], A[1:]
        Q0, Q1 = BB[:-1], BB[1:]
        Ah = 0.5 * (A0 + A1)
        Qh = 0.5 * (Q0 + Q1)

        # Phi_dot = A Phi from I: k1 = A0, later stages A (I + c k)
        k2 = Ah + (0.5 * dt) * (Ah @ A0)
        k3 = Ah + (0.5 * dt) * (Ah @ k2)
        k4 = A1 + dt * (A1 @ k3)
        Phi[s:e] = np.eye(n) + (dt / 6.0) * (A0 + 2.0 * (k2 + k3) + k4)

        # the Lyapunov equation from P = 0: k1 = Q0
        k2 = rate(Ah, Qh, (0.5 * dt) * Q0)
        k3 = rate(Ah, Qh, (0.5 * dt) * k2)
        k4 = rate(A1, Q1, dt * k3)
        Q[s:e] = (dt / 6.0) * (Q0 + 2.0 * (k2 + k3) + k4)
    return Phi, Q


def propagate_covariance(lin: LinearizationHistory, P0) -> CovarianceHistory:
    """Covariance at every grid point from the discrete LinCov recursion.

    P_{k+1} = Phi_k P_k Phi_k^T + Q_k, with the step maps of
    ``_step_maps``, is evaluated as a two-level blocked scan.  The steps
    are split into blocks of about sqrt(count) steps; the maps of every
    block are composed at once, in place, so that Phi[s + j] and Q[s + j]
    carry the block's start covariance P_s to P_{s + j + 1}.  One short
    sequential pass over the block starts then writes each block's
    covariances in one batched product, symmetrized so that round-off
    leaves no asymmetry.
    """
    P0 = np.asarray(P0, dtype=float)
    n = lin.A.shape[1]
    if P0.shape != (n, n):
        raise ValueError(f"P0 must have shape ({n}, {n})")
    _check_sym_psd(P0, "P0")

    grid = lin.grid
    steps = grid.count - 1
    out = np.empty((grid.count, n, n))
    out[0] = 0.5 * (P0 + P0.T)
    Phi, Q = _step_maps(lin)

    size = math.isqrt(max(steps - 1, 0)) + 1
    for j in range(1, size):
        # offset j of every block; a short last block may end before j,
        # so offset j - 1 is cut to the same blocks
        F = Phi[j::size]
        m = len(F)
        C = Q[j - 1::size][:m]
        Q[j::size] += F @ C @ F.transpose(0, 2, 1)
        Phi[j::size] = F @ Phi[j - 1::size][:m]

    P = out[0]
    for s in range(0, steps, size):
        e = min(s + size, steps)
        F = Phi[s:e]
        X = F @ P @ F.transpose(0, 2, 1) + Q[s:e]
        out[s + 1:e + 1] = 0.5 * (X + X.transpose(0, 2, 1))
        P = out[e]
    return CovarianceHistory(grid=grid, P=out)


def lincov(model, x0, des, grid, P0):
    """The LinCov chain: nominal, linearization, covariance, each timed.

    Returns ``(nominal, cov, timings)``, where ``timings`` holds the wall
    time of each stage in ms under ``nominal_ms``, ``linearize_ms`` and
    ``covariance_ms``.  The stages are called through this module's
    names, so a wrapper installed on them sees every call.
    """
    timings = {}
    tic = time.perf_counter()
    nominal = integrate_nominal(model, x0, des, grid)
    timings["nominal_ms"] = 1e3 * (time.perf_counter() - tic)
    tic = time.perf_counter()
    lin = linearize(model, nominal, des)
    timings["linearize_ms"] = 1e3 * (time.perf_counter() - tic)
    tic = time.perf_counter()
    cov = propagate_covariance(lin, P0)
    timings["covariance_ms"] = 1e3 * (time.perf_counter() - tic)
    return nominal, cov, timings


# --- chi-squared CDF and quantile ------------------------------------------
#
# The regularized lower incomplete gamma function is evaluated with the
# classic series / continued-fraction pair, switching at x = a + 1, so the
# quantile is reproducible to 1e-12 without relying on a platform library.

_GAMMA_EPS = 1e-16
_GAMMA_FPMIN = 1e-300
_GAMMA_MAXIT = 600


def _gamma_series(a, x):
    term = 1.0 / a
    total = term
    ap = a
    for _ in range(_GAMMA_MAXIT):
        ap += 1.0
        term *= x / ap
        total += term
        if abs(term) < abs(total) * _GAMMA_EPS:
            break
    return total * math.exp(-x + a * math.log(x) - math.lgamma(a))


def _gamma_cont_frac(a, x):
    b = x + 1.0 - a
    c = 1.0 / _GAMMA_FPMIN
    d = 1.0 / b
    h = d
    for i in range(1, _GAMMA_MAXIT):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < _GAMMA_FPMIN:
            d = _GAMMA_FPMIN
        c = b + an / c
        if abs(c) < _GAMMA_FPMIN:
            c = _GAMMA_FPMIN
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _GAMMA_EPS:
            break
    return h * math.exp(-x + a * math.log(x) - math.lgamma(a))


def _reg_lower_gamma(a, x):
    if x < 0.0 or a <= 0.0:
        raise ValueError("regularized gamma needs x >= 0 and a > 0")
    if x == 0.0:
        return 0.0
    if x < a + 1.0:
        return _gamma_series(a, x)
    return 1.0 - _gamma_cont_frac(a, x)


def chi2_cdf(y, dof=3):
    """Chi-squared CDF at y for the given degrees of freedom."""
    if dof <= 0:
        raise ValueError("dof must be positive")
    y = float(y)
    if y <= 0.0:
        return 0.0
    return _reg_lower_gamma(0.5 * dof, 0.5 * y)


def chi2_quantile(beta, dof=3):
    """Value c^2 with CDF(c^2) = beta, solved by bisection to 1e-12 in CDF."""
    if not 0.0 < beta < 1.0:
        raise ValueError("beta must lie strictly between 0 and 1")
    hi = 1.0
    for _ in range(600):
        if chi2_cdf(hi, dof) > beta:
            break
        hi *= 2.0
    else:
        raise BracketError("could not bracket the chi-squared quantile")
    lo = 0.0
    mid = 0.5 * hi
    for _ in range(400):
        mid = 0.5 * (lo + hi)
        err = chi2_cdf(mid, dof) - beta
        if abs(err) <= 1e-12:
            return mid
        if err < 0.0:
            lo = mid
        else:
            hi = mid
    raise BracketError("chi-squared quantile bisection did not reach tolerance")


def build_tube(nominal: Trajectory, cov: CovarianceHistory, beta,
               position_rows=(0, 1, 2)) -> Tube:
    """Extract the position-marginal probability tube at confidence beta."""
    if nominal.grid != cov.grid:
        raise ValueError("nominal trajectory and covariance use different grids")
    rows = list(position_rows)
    if len(rows) != 3:
        raise ValueError("position_rows must select three states")
    n = cov.P.shape[1]
    if any(not 0 <= r < n for r in rows):
        raise ValueError("position_rows out of range")
    c2 = chi2_quantile(beta, dof=3)
    centers = nominal.states[:, rows]
    sigmas = cov.P[:, rows, :][:, :, rows]
    return Tube(times=nominal.grid.times(), centers=centers,
                sigmas=sigmas, beta=beta, c2=c2)
