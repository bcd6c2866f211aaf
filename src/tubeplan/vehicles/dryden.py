"""Dryden gust coloring filters.

Wind disturbance enters both vehicle models through low-order linear
filters driven by unit-intensity white noise.  Each channel is the
state-space realization of a Dryden-form transfer function, calibrated so
that the stationary output variance equals sigma^2 for that channel
(sigma is the RMS gust speed, L the gust length scale, V the airspeed the
filter is evaluated at).

Longitudinal (1-state) channel:

    eta_dot = -(V/L) eta + n,      w = c eta,   c = sigma sqrt(2V/L)

which gives Var(w) = c^2 * L/(2V) = sigma^2 exactly.

Transverse/vertical (2-state) channel, in controller-companion form:

    A = [[-2V/L, -(V/L)^2],   B = [1,    C = k [sqrt(3), V/L],
         [ 1,0        ]]           0],   k = sigma sqrt(V/L)

whose stationary Lyapunov solution is diag(L/(4V), (L/V)^3/4), so again
Var(w) = k^2 (3 L/(4V) + (V/L)^2 (L/V)^3 / 4) = sigma^2.

The coefficient helpers broadcast over V.  Their unchecked kernels
``longitudinal`` and ``transverse`` take the vehicle body's ``xp``
namespace (see :mod:`.elementwise`), so a model evaluates them on one
state row in Python floats or on a batch in numpy, after checking its
own domain once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import ModelDomainError
from .elementwise import BatchMath

__all__ = [
    "longitudinal_coeffs",
    "transverse_coeffs",
    "FixedWingGustFilters",
    "fixedwing_filters",
]

_SQRT3 = math.sqrt(3.0)


def longitudinal_coeffs(V, sigma, length):
    """Pole and output gain of the 1-state gust channel.

    Returns ``(a, c)`` with ``eta_dot = a*eta + n`` and ``w = c*eta``.
    Broadcasts over ``V``; requires ``V > 0`` elementwise.
    """
    return longitudinal(BatchMath, _positive(V), sigma, length)


def longitudinal(xp, V, sigma, length):
    """:func:`longitudinal_coeffs` without the domain check, in ``xp``."""
    return -V / length, sigma * xp.sqrt(2.0 * V / length)


def transverse_coeffs(V, sigma, length):
    """Companion-form coefficients of the 2-state gust channel.

    Returns ``(a1, a2, c1, c2)`` for

        eta_dot = [[a1, a2], [1, 0]] eta + [1, 0]^T n,
        w       = c1*eta[0] + c2*eta[1].
    """
    return transverse(BatchMath, _positive(V), sigma, length)


def transverse(xp, V, sigma, length):
    """:func:`transverse_coeffs` without the domain check, in ``xp``."""
    vl = V / length
    k = sigma * xp.sqrt(vl)
    return -2.0 * vl, -(vl * vl), _SQRT3 * k, k * vl


def _positive(V):
    V = np.asarray(V, dtype=float)
    if not np.all(V > 0.0):
        raise ModelDomainError("gust filter coefficients need airspeed > 0")
    return V


@dataclass
class FixedWingGustFilters:
    """State-space gust filter matrices for one airspeed.

    u is the along-wind (1-state) channel; w and v are the vertical and
    lateral (2-state) channels.  ``w_i = C_i eta_i`` and
    ``w_i_dot = C_i A_i eta_i + C_i B_i n_i``.
    """

    A_u: float
    B_u: float
    C_u: float
    A_w: np.ndarray
    B_w: np.ndarray
    C_w: np.ndarray
    A_v: np.ndarray
    B_v: np.ndarray
    C_v: np.ndarray


def fixedwing_filters(V, params):
    """Evaluate all three fixed-wing gust channels at scalar airspeed ``V``."""
    a_u, c_u = longitudinal_coeffs(V, params.sigma_u, params.L_u)

    def second_order(sigma, length):
        a1, a2, c1, c2 = transverse_coeffs(V, sigma, length)
        A = np.array([[a1, a2], [1.0, 0.0]])
        B = np.array([1.0, 0.0])
        C = np.array([c1, c2])
        return A, B, C

    A_w, B_w, C_w = second_order(params.sigma_w, params.L_w)
    A_v, B_v, C_v = second_order(params.sigma_v, params.L_v)
    return FixedWingGustFilters(
        A_u=float(a_u), B_u=1.0, C_u=float(c_u),
        A_w=A_w, B_w=B_w, C_w=C_w,
        A_v=A_v, B_v=B_v, C_v=C_v,
    )
