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

The coefficient kernels take the vehicle body's ``xp`` namespace (see
:mod:`.elementwise`), so a model evaluates them on one state row in
Python floats or on a batch in numpy.  They need V > 0 and do not check
it: each model's ``deriv`` checks its own domain once per call.

A kernel's coefficients depend on V, sigma and L alone, so channels
with the same (sigma, L) share them bit for bit.  Each model groups its
channels once with ``distinct_channels`` and evaluates each distinct
(sigma, L) once per ``deriv`` call: by default the quadrotor's three
longitudinal channels are one, and so are the fixed-wing's w and v
transverse channels.
"""

from __future__ import annotations

import math
import struct

__all__ = ["longitudinal", "transverse", "distinct_channels"]

_SQRT3 = math.sqrt(3.0)


def longitudinal(xp, V, sigma, length):
    """Pole and output gain of the 1-state gust channel.

    Returns ``(a, c)`` with ``eta_dot = a*eta + n`` and ``w = c*eta``.
    """
    return -V / length, sigma * xp.sqrt(2.0 * V / length)


def transverse(xp, V, sigma, length):
    """Companion-form coefficients of the 2-state gust channel.

    Returns ``(a1, a2, c1, c2)`` for

        eta_dot = [[a1, a2], [1, 0]] eta + [1, 0]^T n,
        w       = c1*eta[0] + c2*eta[1].
    """
    vl = V / length
    k = sigma * xp.sqrt(vl)
    return -2.0 * vl, -(vl * vl), _SQRT3 * k, k * vl


def distinct_channels(channels):
    """Group gust channels by their (sigma, L).

    Returns ``(distinct, index)``: the distinct pairs of ``channels`` in
    order of first appearance, and for each channel the position of its
    pair in ``distinct``.  Two pairs are the same only when their values
    have the same types and the same float bits, which is when a traced
    row step writes them as the same text: 0.0 and -0.0 stay apart,
    and so do the int 1 and the float 1.0.
    """
    distinct, index, seen = [], [], {}  # seen: key -> place in distinct
    for pair in channels:
        key = tuple((type(v), struct.pack(">d", v)) for v in pair)
        if key not in seen:
            seen[key] = len(distinct)
            distinct.append(pair)
        index.append(seen[key])
    return distinct, index
