"""Closed-loop fixed-wing model: 3D point mass, cascaded guidance, gusts.

State layout (14):

    x = [x, y, h, V, psi, gamma, T, V_des, psi_des,
         eta_u, eta_w (2), eta_v (2)]

Position (x, y) and altitude h are inertial; V is airspeed, psi heading,
gamma flight-path angle, T thrust (first-order lag toward the commanded
value).  V_des and psi_des are controller states integrated by the
lateral outer loop.  eta_* are the gust filter states in wind axes.

Equations of motion (mu is the bank angle commanded by the inner loop,
L/D are lift and drag, w_* the inertial gust components):

    x_dot   = V cos(gamma) cos(psi) + w_x
    y_dot   = V cos(gamma) sin(psi) + w_y
    h_dot   = V sin(gamma) + w_h
    V_dot   = (T - D)/m - g sin(gamma) - wdot_x cos(gamma) cos(psi)
              - wdot_y cos(gamma) sin(psi) + wdot_h sin(gamma)
    psi_dot = -[L sin(mu) - m wdot_x sin(psi) + m wdot_y cos(psi)]
              / (V m cos(gamma))
    gam_dot = [L cos(mu) - m g cos(gamma) + m wdot_x cos(psi) sin(gamma)
               + m wdot_y sin(gamma) sin(psi) + m wdot_h cos(gamma)]
              / (V m)

Gusts are generated in wind axes (u along-track, w vertical, v lateral)
and rotated into the inertial frame; their time derivatives carry the
white-noise feedthrough of the coloring filters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..errors import ModelDomainError
from .dryden import distinct_channels, longitudinal, transverse
from .elementwise import BatchMath, RowMath, TraceMath, math_for, split

__all__ = ["FixedWingParams", "FixedWingModel", "EPS_SING"]

EPS_SING = 1e-6          # singularity guard on V, cos(gamma), V_des
_ASIN_CLAMP = 1.0 - 1e-9  # keeps the commanded flight-path angle off +/-90 deg


@dataclass(frozen=True)
class FixedWingParams:
    """Airframe constants, controller gains and gust settings.

    Frozen, with a read-only copy of ``Lam_f``, so a model's converted
    copies of it never go stale."""

    m: float = 5.0
    g: float = 9.81
    rho: float = 1.225
    S: float = 0.5
    C_D0: float = 0.02
    K_d: float = 0.05
    kappa_mu: float = 1.0
    kappa_CL: float = 2.0
    kappa_T1: float = 2.0
    kappa_T2: float = 1.0
    kappa: float = 0.5
    Lam_f: np.ndarray = field(default_factory=lambda: np.eye(2))
    sigma_u: float = 1.0
    sigma_w: float = 1.0
    sigma_v: float = 1.0
    L_u: float = 50.0
    L_w: float = 50.0
    L_v: float = 50.0

    def __post_init__(self):
        if min(self.m, self.g, self.rho, self.S) <= 0.0:
            raise ValueError("m, g, rho and S must be positive")
        if self.C_D0 < 0.0 or self.K_d < 0.0:
            raise ValueError("drag polar coefficients must be nonnegative")
        Lam_f = np.array(self.Lam_f, dtype=float)
        Lam_f.setflags(write=False)
        object.__setattr__(self, "Lam_f", Lam_f)
        if Lam_f.shape != (2, 2):
            raise ValueError("Lam_f must be 2x2")
        # -Lam_f must be Hurwitz for the sliding surface to contract
        if np.any(np.real(np.linalg.eigvals(Lam_f)) <= 0.0):
            raise ValueError("Lam_f must have eigenvalues with positive real part")
        if min(self.sigma_u, self.sigma_w, self.sigma_v) < 0.0:
            raise ValueError("gust intensities must be nonnegative")
        if min(self.L_u, self.L_w, self.L_v) <= 0.0:
            raise ValueError("gust length scales must be positive")


def _inner_loop(V, cg, sg, gamma, psi, psi_des, V_des, gamma_des, p):
    """Bank angle, lift coefficient and commanded thrust.

    Feedforward terms hold steady flight at the current (V, gamma);
    proportional corrections steer toward the outer-loop commands.
    """
    qS = p.S * (V * V) * p.rho
    # in these axes a positive bank drives psi_dot negative (the lift
    # term enters psi_dot with a minus sign), so the heading error must
    # enter as (psi - psi_des) for the loop to be negative feedback
    mu = p.kappa_mu * (psi - psi_des)
    CL_bar = 2.0 * p.m * p.g * cg / qS
    C_L = CL_bar + p.kappa_CL * (gamma_des - gamma)
    mgc = p.m * p.g * cg
    T_bar = p.m * p.g * sg + 0.5 * p.C_D0 * qS \
        + 2.0 * p.K_d * (mgc * mgc) / qS
    T_des = T_bar + p.kappa_T2 * (V_des - V)
    return mu, C_L, T_des


def _outer_longitudinal(xp, h, V, h_des, hdot_des, kappa):
    """Commanded flight-path angle from the altitude error dynamics.

    The arcsine argument is clamped to 1 - 1e-9 in magnitude, so an
    unreachable climb command saturates instead of leaving the domain.
    """
    arg = (hdot_des - kappa * (h - h_des)) / V
    return xp.asin(xp.clip(arg, -_ASIN_CLAMP, _ASIN_CLAMP))


def _outer_lateral(xp, x, y, V, cg, cpsi, spsi, V_des, cpd, spd,
                   eta_des, etadot_des, etaddot_des, p, Lam_f):
    """Rates of the desired-speed and desired-heading states.

    Solves A [Vdot_des, psidot_des]^T = etaddot_des - kappa edot - Lam_f S,
    where e is the lateral track error and S = edot + kappa e.  A is
    singular at cos(gamma) = 0 or V_des = 0, which ``deriv`` rejects.
    ``Lam_f`` is ``p.Lam_f`` in the form ``xp.matvec`` takes.
    """
    # eta_des, etadot_des, etaddot_des are (x, y) component pairs
    e1 = x - eta_des[0]
    e2 = y - eta_des[1]
    edot1 = V * cg * cpsi - etadot_des[0]
    edot2 = V * cg * spsi - etadot_des[1]
    s1 = edot1 + p.kappa * e1
    s2 = edot2 + p.kappa * e2
    Ls1, Ls2 = xp.matvec(Lam_f, [s1, s2])
    rhs1 = etaddot_des[0] - p.kappa * edot1 - Ls1
    rhs2 = etaddot_des[1] - p.kappa * edot2 - Ls2

    a11 = cg * cpd
    a12 = -V_des * cg * spd
    a21 = cg * spd
    a22 = V_des * cg * cpd
    det = a11 * a22 - a12 * a21
    vdot_des = (a22 * rhs1 - a12 * rhs2) / det
    psidot_des = (-a21 * rhs1 + a11 * rhs2) / det
    return vdot_des, psidot_des


def _wind_to_inertial(w_u, w_w, w_v, cpsi, spsi, cg, sg, cmu, smu):
    """Rotate a wind-axes vector (u, w, v components) to inertial axes.

    Equal to Rz(psi) @ Ry(gamma) @ Rx(-mu) applied to (w_u, w_w, w_v),
    given the cosines and sines of the three angles; norm preserving.
    """
    w_x = w_u * cg * cpsi - w_w * (cmu * spsi + cpsi * sg * smu) \
        - w_v * (smu * spsi - cmu * cpsi * sg)
    w_y = w_v * (cpsi * smu + cmu * sg * spsi) \
        + w_w * (cmu * cpsi - sg * smu * spsi) + w_u * cg * spsi
    w_h = w_v * cg * cmu - w_u * sg - w_w * cg * smu
    return w_x, w_y, w_h


class FixedWingModel:
    """Closed-loop dynamics on one (n,) state row or an (..., n) batch."""

    name = "fixedwing"
    n_states = 14
    n_noise = 3
    state_labels = (
        "x", "y", "h", "V", "psi", "gamma", "T", "V_des", "psi_des",
        "eta_u", "eta_w1", "eta_w2", "eta_v1", "eta_v2",
    )

    def __init__(self, params: FixedWingParams | None = None):
        p = self._params = params if params is not None else FixedWingParams()
        # Lam_f as each namespace's matvec takes it, converted once
        rows = p.Lam_f.tolist()
        self._Lam_f = {RowMath: rows, TraceMath: rows, BatchMath: p.Lam_f}
        # the distinct transverse channels, and the w and v channels' own
        self._transverse, self._transverse_of = distinct_channels(
            [(p.sigma_w, p.L_w), (p.sigma_v, p.L_v)])

    @property
    def params(self):
        """The model's frozen FixedWingParams."""
        return self._params

    def deriv(self, x, ref, noise):
        """Closed-loop state derivative.

        One row is evaluated in Python floats, a batch on numpy column
        views; both run this body (see :mod:`.elementwise`).  Raises
        ModelDomainError if any row has V, |cos(gamma)| or V_des at or
        below EPS_SING.  A list row gives a list.
        """
        p = self._params
        if not isinstance(x, list):
            x = np.asarray(x, dtype=float)
        xp = math_for(x)
        (X, Y, H, V, psi, gamma, T, V_des, psi_des,
         eta_u, eta_w1, eta_w2, eta_v1, eta_v2) = split(x)
        n_u, n_w, n_v = split(noise)

        if not xp.all(V > EPS_SING):
            raise ModelDomainError("fixed-wing dynamics need airspeed > 0")
        cg = xp.cos(gamma)
        sg = xp.sin(gamma)
        if not xp.all(abs(cg) > EPS_SING):
            raise ModelDomainError("fixed-wing dynamics singular near vertical flight")
        if not xp.all(V_des > EPS_SING):
            raise ModelDomainError("fixed-wing guidance needs desired speed > 0")
        cpsi, spsi = xp.cos(psi), xp.sin(psi)

        gamma_des = _outer_longitudinal(
            xp, H, V, ref.h, ref.hdot, p.kappa)
        vdot_des, psidot_des = _outer_lateral(
            xp, X, Y, V, cg, cpsi, spsi, V_des, xp.cos(psi_des), xp.sin(psi_des),
            split(ref.eta), split(ref.etadot), split(ref.etaddot), p,
            self._Lam_f[xp])
        mu, C_L, T_cmd = _inner_loop(V, cg, sg, gamma, psi, psi_des, V_des,
                                     gamma_des, p)

        # gust filters in wind axes, evaluated at the current airspeed,
        # once per distinct transverse channel
        a_u, c_u = longitudinal(xp, V, p.sigma_u, p.L_u)
        gust = [transverse(xp, V, sig, L) for sig, L in self._transverse]
        (aw1, aw2, cw1, cw2), (av1, av2, cv1, cv2) = [
            gust[i] for i in self._transverse_of]

        etadot_u = a_u * eta_u + n_u
        etadot_w1 = aw1 * eta_w1 + aw2 * eta_w2 + n_w
        etadot_v1 = av1 * eta_v1 + av2 * eta_v2 + n_v

        w_u = c_u * eta_u
        w_w = cw1 * eta_w1 + cw2 * eta_w2
        w_v = cv1 * eta_v1 + cv2 * eta_v2
        # wdot = C (A eta + B n): the filters feed noise straight through
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

    def trim_state(self, xy, altitude, speed, heading):
        """Steady-flight state matched to a straight, level reference."""
        p = self.params
        if speed <= EPS_SING:
            raise ModelDomainError("trim needs a positive airspeed")
        qS = p.S * speed**2 * p.rho
        T_bar = 0.5 * p.C_D0 * qS + 2.0 * p.K_d * (p.m * p.g) ** 2 / qS
        x0 = np.zeros(self.n_states)
        x0[0], x0[1] = xy
        x0[2] = altitude
        x0[3] = speed
        x0[4] = heading
        x0[5] = 0.0
        x0[6] = T_bar
        x0[7] = speed
        x0[8] = heading
        return x0

    def start_state(self, ref):
        """Steady flight on the reference sample ``ref``: trimmed on its
        track point and altitude, at its ground speed and course."""
        speed = float(np.linalg.norm(ref.etadot))
        heading = math.atan2(ref.etadot[1], ref.etadot[0])
        return self.trim_state(ref.eta, ref.h, speed, heading)
