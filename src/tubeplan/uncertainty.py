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

``lincov`` chains the nominal, the linearization and the covariance.
It hands each block of nominal rows to one job that linearizes it and
maps its steps, then scans; ``simcore._forked`` runs that job in a
forked child beside the nominal when a second core is usable, else
in-process after it.  The linearization, the step maps and the scan are
the same block functions as those of ``linearize`` and
``propagate_covariance``, on the same block boundaries, so the
covariance is the same bits on any core count.

A probability tube is the time-ordered sequence of position-marginal
ellipsoids

    {z : (z - r)^T Sigma^-1 (z - r) <= c^2},

where c^2 is the chi-squared quantile for 3 degrees of freedom at the
requested confidence level, bisected on the CDF's closed-form finite sum.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .errors import BracketError
from .simcore import (
    CovarianceHistory,
    LinearizationHistory,
    Trajectory,
    _fork_context,
    _forked,
    _linearize_rows,
    _shared,
    integrate_nominal,
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
class ConfidenceEllipsoid:
    """One tube cross-section: center, 3x3 covariance block and level c^2."""

    t: float
    center: np.ndarray
    sigma: np.ndarray
    c2: float


class Tube:
    """Time-ordered confidence ellipsoids around a nominal position path."""

    def __init__(self, times, centers, sigmas, c2):
        self.times = np.asarray(times, dtype=float)
        self.centers = np.asarray(centers, dtype=float)
        self.sigmas = np.asarray(sigmas, dtype=float)
        if self.centers.shape != (len(self.times), 3):
            raise ValueError("centers must have shape (count, 3)")
        if self.sigmas.shape != (len(self.times), 3, 3):
            raise ValueError("sigmas must have shape (count, 3, 3)")
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


def _check_sym_psd(P, what):
    if not np.allclose(P, P.T, atol=1e-12, rtol=0.0):
        raise ValueError(f"{what} must be symmetric")
    eigs = np.linalg.eigvalsh(0.5 * (P + P.T))
    if np.any(eigs < -1e-10 * max(1.0, float(eigs[-1]))):
        raise ValueError(f"{what} must be positive semidefinite")


# steps whose maps are formed together: enough to spread numpy's per-call
# cost, few enough that the chunk's temporaries stay small beside the
# full-length Phi and Q
_CHUNK = 256


def _step_maps(lin: LinearizationHistory):
    """(Phi, Q), each (count - 1, n, n): P_{k+1} = Phi_k P_k Phi_k^T + Q_k.

    See _map_chunk for one chunk of steps.
    """
    steps = lin.grid.count - 1
    n = lin.A.shape[1]
    Phi = np.empty((steps, n, n))
    Q = np.empty((steps, n, n))
    for s in range(0, steps, _CHUNK):
        _map_chunk(lin, Phi, Q, s)
    return Phi, Q


def _map_chunk(lin, Phi, Q, s):
    """Fill Phi and Q for the _CHUNK steps from s (fewer at the end).

    Phi_k is the RK4 step of Phi_dot = A Phi from Phi = I, and Q_k the
    RK4 step of the Lyapunov equation from P = 0.  A and B_n B_n^T are
    averaged at the half step, and B_n B_n^T is formed for the chunk
    only.  The chunk reads A and B_n at grid points s .. e, one past its
    last step e - 1.
    """
    dt = lin.grid.dt
    e = min(s + _CHUNK, len(Phi))
    n = Phi.shape[1]

    def rate(A, Qn, P):
        # P symmetric makes A P + P A^T = S + S^T with S = A P
        S = A @ P
        return S + S.transpose(0, 2, 1) + Qn

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


def _checked_P0(P0, n):
    """P0 as a float array, checked to be (n, n), symmetric and PSD."""
    P0 = np.asarray(P0, dtype=float)
    if P0.shape != (n, n):
        raise ValueError(f"P0 must have shape ({n}, {n})")
    _check_sym_psd(P0, "P0")
    return P0


def _scan(Phi, Q, P0, out):
    """Write P_0 .. P_count of the recursion into out; Phi, Q are reused.

    The steps are split into blocks of about sqrt(count) steps; the maps
    of every block are composed at once, in place, so that Phi[s + j]
    and Q[s + j] carry the block's start covariance P_s to P_{s + j + 1}.
    One short sequential pass over the block starts then writes each
    block's covariances in one batched product, symmetrized so that
    round-off leaves no asymmetry.
    """
    steps = len(Phi)
    out[0] = 0.5 * (P0 + P0.T)
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


def propagate_covariance(lin: LinearizationHistory, P0) -> CovarianceHistory:
    """Covariance at every grid point from the discrete LinCov recursion.

    P_{k+1} = Phi_k P_k Phi_k^T + Q_k, with the step maps of
    ``_step_maps``, is evaluated as a two-level blocked scan (_scan).
    """
    P0 = _checked_P0(P0, lin.A.shape[1])
    out = np.empty((lin.grid.count,) + P0.shape)
    _scan(*_step_maps(lin), P0, out)
    return CovarianceHistory(grid=lin.grid, P=out)


def _covariance_behind(model, des, grid, states, P0, out):
    """LinCov's job: covariance from nominal rows as they arrive.

    Each message is the number of rows of ``states`` that now exist.
    Their Jacobians are formed at once, and so is every chunk of step
    maps whose last grid point they reach.  After the last row the scan
    writes the covariance history into ``out``.  The job then sends its
    busy time in ms, split into linearization and covariance.
    """
    n, count = model.n_states, grid.count
    times = grid.times()
    lin = LinearizationHistory(grid=grid, A=np.empty((count, n, n)),
                               B_n=np.empty((count, n, model.n_noise)))
    Phi = np.empty((count - 1, n, n))
    Q = np.empty((count - 1, n, n))
    lin_s = cov_s = 0.0
    done = mapped = 0
    while done < count:
        hi = yield
        tic = time.perf_counter()
        _linearize_rows(model, des, times, states, lin.A, lin.B_n, done, hi)
        done = hi
        tac = time.perf_counter()
        # a chunk's last step e - 1 reads grid point e
        while mapped < count - 1 and min(mapped + _CHUNK, count - 1) < done:
            _map_chunk(lin, Phi, Q, mapped)
            mapped += _CHUNK
        lin_s += tac - tic
        cov_s += time.perf_counter() - tac
    tic = time.perf_counter()
    _scan(Phi, Q, P0, out)
    cov_s += time.perf_counter() - tic
    yield 1e3 * lin_s, 1e3 * cov_s


def lincov(model, x0, des, grid, P0, on_nominal=None):
    """The LinCov chain: nominal, linearization, covariance, each timed.

    Returns ``(nominal, cov, timings)``, where ``timings`` holds the
    time of each stage in ms under ``nominal_ms``, ``linearize_ms`` and
    ``covariance_ms``, and under ``lincov_wait_ms`` how long the caller
    then waited for the job.  Each block of 256 nominal rows goes to a
    job (_covariance_behind) that linearizes it and maps its steps, and
    scans once the last row is in; the linearize and covariance times
    are the job's busy time.  With a second usable core the job is a
    forked child that runs one block behind the nominal; on one core it
    runs in-process after the nominal.  Either way the job runs the
    block functions of ``linearize`` and ``propagate_covariance`` on
    their block boundaries, so the results are the bits of those two.

    ``on_nominal(nominal)``, when given, is called once the nominal is
    integrated and before the wait, so its work overlaps the forked job;
    on one core the job runs after it.  Should it raise, the job is
    ended and the exception propagates.
    """
    P0 = _checked_P0(P0, model.n_states)
    states = _shared((grid.count, model.n_states))
    P = _shared((grid.count,) + P0.shape)
    timings = {}
    with _forked(_fork_context(), "LinCov process", _covariance_behind,
                 model, des, grid, states, P0, P) as job:
        def hand_over(lo, rows):
            states[lo:lo + len(rows)] = rows
            job.send(lo + len(rows))

        tic = time.perf_counter()
        nominal = integrate_nominal(model, x0, des, grid, hand_over)
        tac = time.perf_counter()
        timings["nominal_ms"] = 1e3 * (tac - tic)
        if on_nominal is not None:
            on_nominal(nominal)
            tac = time.perf_counter()
        timings["linearize_ms"], timings["covariance_ms"] = job.recv()
        timings["lincov_wait_ms"] = 1e3 * (time.perf_counter() - tac)
    return nominal, CovarianceHistory(grid=grid, P=P), timings


# --- chi-squared CDF and quantile ------------------------------------------


def chi2_cdf(y, dof=3):
    """Chi-squared CDF at y for a positive integer dof.

    The CDF is the regularized lower incomplete gamma function P(dof/2, h)
    at h = y/2, which at integer dof is a finite sum.  It starts from
    P(1, h) = 1 - e^-h for even dof or P(1/2, h) = erf(sqrt(h)) for odd
    dof and steps up with P(a + 1, h) = P(a, h) - h^a e^-h / Gamma(a + 1).
    Each term is formed in logarithms, so no order or argument overflows,
    and the result is clamped to [0, 1] against round-off.
    """
    if not (dof >= 1 and float(dof).is_integer()):
        raise ValueError("dof must be a positive integer")
    y = float(y)
    if y <= 0.0:
        return 0.0
    h = 0.5 * y
    if dof % 2:
        a, p = 0.5, math.erf(math.sqrt(h))
    else:
        a, p = 1.0, -math.expm1(-h)
    log_h = math.log(h)
    while a < 0.5 * dof:
        p -= math.exp(a * log_h - h - math.lgamma(a + 1.0))
        a += 1.0
    return min(max(p, 0.0), 1.0)


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


def build_tube(nominal: Trajectory, cov: CovarianceHistory, beta) -> Tube:
    """Extract the position-marginal probability tube at confidence beta.

    The position is the first three states.  The tube holds copies, so
    it keeps neither the state history nor the covariance alive.
    """
    if nominal.grid != cov.grid:
        raise ValueError("nominal trajectory and covariance use different grids")
    return Tube(times=nominal.grid.times(),
                centers=nominal.states[:, :3].copy(),
                sigmas=cov.P[:, :3, :3].copy(),
                c2=chi2_quantile(beta, dof=3))
