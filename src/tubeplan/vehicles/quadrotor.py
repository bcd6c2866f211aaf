"""Closed-loop quadrotor point-mass model with gust-dependent drag.

State layout (9):

    x = [r (3), V0 (3), eta (3)]

r is inertial position, V0 inertial velocity, and eta the three scalar
gust filter states (one longitudinal Dryden channel replicated per
inertial axis, each evaluated at the vehicle speed ||V0||; axes with the
same (sigma, L) share one evaluation of the channel's coefficients).

The translational dynamics are a double integrator with aerodynamic
drag on the gust-relative velocity:

    r_dot  = V0
    V0_dot = u - (rho S C_D / (2 m)) * V_q ||V_q||,   V_q = V0 - w

where w_i = c_i eta_i is the gust velocity.  The tracking controller is
a sliding-surface design with acceleration feedforward:

    u = rddot_des - K edot - Lam (edot + K e),   e = r - r_des.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import ModelDomainError
from .dryden import distinct_channels, longitudinal
from .elementwise import BatchMath, RowMath, TraceMath, math_for, split

__all__ = ["QuadrotorParams", "QuadrotorModel"]


def _read_only(value, shape=None):
    """A read-only float copy of value, reshaped to ``shape`` if given."""
    arr = np.array(value, dtype=float)
    if shape is not None:
        arr = arr.reshape(shape)
    arr.setflags(write=False)
    return arr


def _as_gain(value, name):
    arr = _read_only(value)
    if arr.shape != (3, 3):
        raise ValueError(f"{name} must be a 3x3 matrix")
    eigs = np.linalg.eigvalsh(0.5 * (arr + arr.T))
    if np.any(eigs <= 0.0):
        raise ValueError(f"{name} must be positive definite")
    return arr


@dataclass(frozen=True)
class QuadrotorParams:
    """Physical constants and gains; defaults give a ~1 kg vehicle.

    Frozen, with read-only copies of the arrays given, so a model's
    converted copies of them never go stale."""

    m: float = 1.0
    rho: float = 1.225
    S: float = 0.05
    C_D: float = 1.0
    K: np.ndarray = field(default_factory=lambda: 2.0 * np.eye(3))
    Lam: np.ndarray = field(default_factory=lambda: 2.0 * np.eye(3))
    sigma: np.ndarray = field(default_factory=lambda: np.ones(3))
    L: np.ndarray = field(default_factory=lambda: 50.0 * np.ones(3))

    def __post_init__(self):
        if self.m <= 0.0 or self.rho <= 0.0 or self.S <= 0.0:
            raise ValueError("m, rho and S must be positive")
        if self.C_D < 0.0:
            raise ValueError("C_D must be nonnegative")
        object.__setattr__(self, "K", _as_gain(self.K, "K"))
        object.__setattr__(self, "Lam", _as_gain(self.Lam, "Lam"))
        object.__setattr__(self, "sigma", _read_only(self.sigma, 3))
        object.__setattr__(self, "L", _read_only(self.L, 3))
        if np.any(self.sigma < 0.0):
            raise ValueError("gust intensities must be nonnegative")
        if np.any(self.L <= 0.0):
            raise ValueError("gust length scales must be positive")


class QuadrotorModel:
    """Closed-loop dynamics on one (n,) state row or an (..., n) batch."""

    name = "quadrotor"
    n_states = 9
    n_noise = 3
    state_labels = ("x", "y", "z", "vx", "vy", "vz", "eta_x", "eta_y", "eta_z")

    def __init__(self, params: QuadrotorParams | None = None):
        p = self._params = params if params is not None else QuadrotorParams()
        # the constants as the body reads them, converted once: the gain
        # matrices as each namespace's matvec takes them, the distinct
        # gust channels as Python floats for all, and each axis's channel
        rows = (p.K.tolist(), p.Lam.tolist())
        self._gains = {RowMath: rows, TraceMath: rows, BatchMath: (p.K, p.Lam)}
        self._gust, self._gust_of = distinct_channels(
            list(zip(p.sigma.tolist(), p.L.tolist())))

    @property
    def params(self):
        """The model's frozen QuadrotorParams."""
        return self._params

    def _command(self, xp, cols, ref):
        # u = rddot_des - K edot - Lam (edot + K e), per component
        K, Lam = self._gains[xp]
        rx, ry, rz = split(ref.r)
        vx, vy, vz = split(ref.rdot)
        ax, ay, az = split(ref.rddot)
        e = [cols[0] - rx, cols[1] - ry, cols[2] - rz]
        edot = [cols[3] - vx, cols[4] - vy, cols[5] - vz]
        Ke = xp.matvec(K, e)
        s = [edot[0] + Ke[0], edot[1] + Ke[1], edot[2] + Ke[2]]
        Kd = xp.matvec(K, edot)
        Ls = xp.matvec(Lam, s)
        return [ax - Kd[0] - Ls[0], ay - Kd[1] - Ls[1], az - Kd[2] - Ls[2]]

    def deriv(self, x, ref, noise):
        """Closed-loop state derivative; raises on zero vehicle speed.

        One row is evaluated in Python floats, a batch on numpy column
        views; both run this body (see :mod:`.elementwise`).  A list row
        gives a list.
        """
        p = self._params
        if not isinstance(x, list):
            x = np.asarray(x, dtype=float)
        xp = math_for(x)
        cols = split(x)
        _, _, _, vx, vy, vz, eta_x, eta_y, eta_z = cols

        speed = xp.sqrt(vx * vx + vy * vy + vz * vz)
        if not xp.all(speed > 0.0):
            raise ModelDomainError(
                "quadrotor gust filters are singular at zero vehicle speed")
        ux, uy, uz = self._command(xp, cols, ref)
        gust = [longitudinal(xp, speed, sig, L) for sig, L in self._gust]
        (a_x, c_x), (a_y, c_y), (a_z, c_z) = [gust[i] for i in self._gust_of]

        # drag on the gust-relative velocity V_q = V0 - w, w_i = c_i eta_i
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

    def start_state(self, ref):
        """State on the reference sample ``ref``: its position and
        velocity, with calm gust filters."""
        x0 = np.zeros(self.n_states)
        x0[0:3] = ref.r
        x0[3:6] = ref.rdot
        return x0
