"""Elementwise arithmetic for model bodies that run on one row or a batch.

A vehicle's closed-loop right-hand side is written once, on scalar state
components, against a namespace ``xp`` of elementwise functions:

* one state row, a list of n floats (the stepper's case) or an (n,)
  array: components are Python floats and ``xp`` is :class:`RowMath`,
  backed by :mod:`math`, which skips numpy's per-call dispatch on 0-d
  arrays.  A list row gives a list back and an array row an (n,) array,
  with the same bits;
* a batch (an (..., n) array, linearization and Monte Carlo):
  components are numpy views over the batch axes and ``xp`` is
  :class:`BatchMath`.

A list row is never handed to numpy on the way: even ``np.ndim`` of a
list converts it to an array, which costs as much as the row's
arithmetic.  Constant gain matrices reach ``RowMath.matvec`` as nested
Python floats and ``BatchMath.matvec`` as arrays, each converted once
by the model.

Both run the same expressions, so a row and the matching row of a batch
agree to rounding: math and numpy may differ by 1 ulp in sin, cos and
asin, and the batch's small matrix products go through BLAS, which may
fuse multiply-adds.  Domain checks belong in the body, once per call.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["RowMath", "BatchMath", "math_for", "split"]


def _nan_outside(fn):
    # math.sin/cos raise on an infinite angle where numpy returns nan;
    # returning nan keeps the row path's failure mode that of the batch
    def wrapped(a):
        try:
            return fn(a)
        except ValueError:
            return math.nan
    return wrapped


def split(a):
    """Components of ``a`` along its last axis.

    A 1-D array (a state row, a reference vector) gives Python floats,
    and a list (a stepper's state row or noise sample, or a vector field
    of its reference row) is already its components; a batch gives numpy
    views, one per component.
    """
    if isinstance(a, list):
        return a
    a = np.asarray(a, dtype=float)
    if a.ndim == 1:
        return a.tolist()
    return [a[..., i] for i in range(a.shape[-1])]


class RowMath:
    """Python floats, one state row."""

    sin = staticmethod(_nan_outside(math.sin))
    cos = staticmethod(_nan_outside(math.cos))
    sqrt = staticmethod(math.sqrt)
    asin = staticmethod(math.asin)
    all = staticmethod(bool)

    @staticmethod
    def clip(a, lo, hi):
        return min(max(a, lo), hi)

    @staticmethod
    def matvec(M, v):
        """M @ v for a 2x2 or 3x3 constant matrix M, given as nested
        Python floats, and components v."""
        # spelled out: a generic loop costs three times as much per call
        if len(v) == 2:
            (m11, m12), (m21, m22) = M
            v1, v2 = v
            return [m11 * v1 + m12 * v2, m21 * v1 + m22 * v2]
        (m11, m12, m13), (m21, m22, m23), (m31, m32, m33) = M
        v1, v2, v3 = v
        return [m11 * v1 + m12 * v2 + m13 * v3,
                m21 * v1 + m22 * v2 + m23 * v3,
                m31 * v1 + m32 * v2 + m33 * v3]

    @staticmethod
    def stack(parts, x):
        """Components back into a row of the kind of ``x``: the parts
        list for a list, one (len(parts),) array for an array."""
        if isinstance(x, list):
            return parts
        return np.array(parts, dtype=float)


class BatchMath:
    """numpy arrays, any number of leading batch axes."""

    sin = staticmethod(np.sin)
    cos = staticmethod(np.cos)
    sqrt = staticmethod(np.sqrt)
    asin = staticmethod(np.arcsin)
    clip = staticmethod(np.clip)

    @staticmethod
    def all(cond):
        return cond.all()

    @staticmethod
    def matvec(M, v):
        """M @ v for a small constant matrix array M and components v."""
        v = np.asarray(v)
        y = M @ v.reshape(len(v), -1)
        return list(y.reshape((M.shape[0],) + v.shape[1:]))

    @staticmethod
    def stack(parts, x):
        """Components back into one array over the batch axes of ``x``.

        The array takes the memory order of ``x``, so a column-major
        batch gets contiguous output columns.
        """
        out = np.empty_like(x, shape=x.shape[:-1] + (len(parts),))
        for i, q in enumerate(parts):
            out[..., i] = q
        return out


def math_for(x):
    """The namespace that evaluates a model body on state ``x``: a list
    of floats or an (n,) array is one row, an (..., n) array a batch."""
    if isinstance(x, list) or x.ndim == 1:
        return RowMath
    return BatchMath
