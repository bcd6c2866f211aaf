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

A third namespace, :class:`TraceMath`, records a body instead of running
it: its components are :class:`Sym` values, traced floats, and every
operation on them appends one line of Python to a :class:`Tape`, in
evaluation order and with its operands in their order.  A line whose
text is already on the tape is not added again; nothing else is
simplified, and no constant is folded (``x + 0.0`` stays, since it maps
-0.0 to 0.0).  ``Tape.function`` turns the tape into one compiled loop
over a block of steps, each step the straight-line Python of the row
path's IEEE operations on floats, so each returns the row path's bits.
``xp.all(cond)`` becomes a guard that
raises GuardFailed when the condition does not hold.  Reading a Sym as a
bool or a float raises TypeError, so a body that branches on data, or
hands its state to numpy or math directly, cannot be traced.
"""

from __future__ import annotations

import collections
import math
import struct

import numpy as np

__all__ = ["RowMath", "BatchMath", "TraceMath", "Tape", "math_for", "split"]


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


class GuardFailed(Exception):
    """The condition of a compiled body's ``xp.all`` did not hold."""


class Sym:
    """A traced float: the name its value has in the tape's function.

    Arithmetic (``+ - * / **`` and unary minus), comparisons and ``abs``
    with another Sym or a Python float or int constant append a line to
    the tape.  Any other use raises TypeError: a bool or float
    conversion, a constant of another type, a numpy function.
    """

    __slots__ = ("tape", "name")
    __array_ufunc__ = None  # numpy raises instead of looping over it

    def __init__(self, tape, name):
        self.tape = tape
        self.name = name

    def __bool__(self):
        raise TypeError("a traced body branched on a traced value")

    def __float__(self):
        raise TypeError("a traced value was read as a float")

    def __neg__(self):
        return self.tape.emit("-{}", self)

    def __abs__(self):
        return self.tape.emit("abs({})", self)


def _binary(op, reflected):
    fmt = "{} " + op + " {}"
    if reflected:
        return lambda self, other: self.tape.emit(fmt, other, self)
    return lambda self, other: self.tape.emit(fmt, self, other)


for _name, _op in (("add", "+"), ("sub", "-"), ("mul", "*"),
                   ("truediv", "/"), ("pow", "**")):
    setattr(Sym, f"__{_name}__", _binary(_op, False))
    setattr(Sym, f"__r{_name}__", _binary(_op, True))
# a reflected comparison (2.0 < s) arrives as the mirrored one (s > 2.0),
# which is the same IEEE predicate
for _name, _op in (("lt", "<"), ("le", "<="), ("gt", ">"), ("ge", ">="),
                   ("eq", "=="), ("ne", "!=")):
    setattr(Sym, f"__{_name}__", _binary(_op, False))

# the functions a tape's lines call, by the names they call them
_FUNCTIONS = {"sin": math.sin, "cos": math.cos, "sqrt": math.sqrt,
              "asin": math.asin, "GuardFailed": GuardFailed}
# source text -> compiled function, so a body traced again to the same
# text is not compiled again; the oldest goes once _CACHED are held
_COMPILED = {}
_CACHED = 8
# deepest nesting of parentheses that Tape.function writes into one line
_MAX_DEPTH = 32


class Tape:
    """The operations recorded from evaluating a body on Syms.

    Each is a line ``(name, fmt, operands)``: ``fmt`` with one ``{}``
    per operand, each operand the source text of a Sym or a constant,
    and ``name`` None for a guard.
    """

    def __init__(self):
        self._inputs = {}  # argument name -> the line that unpacks it
        self._lines = []
        self._names = {}   # text of an expression or guard -> its name
        self._consts = {}  # name -> non-finite constant

    def inputs(self, name, count):
        """``count`` Syms unpacked from the function's argument ``name``."""
        names = [f"{name}_{i}" for i in range(count)]
        self._inputs[name] = f"{', '.join(names)}, = {name}"
        return [Sym(self, s) for s in names]

    def input(self, name):
        """A Sym that is the function's argument ``name``."""
        return Sym(self, name)

    def operand(self, value):
        """The source text of a Sym or a Python float or int constant:
        its exact repr, or a name bound to it when it is not finite."""
        if isinstance(value, Sym):
            return value.name
        if type(value) not in (float, int):
            raise TypeError(
                f"a traced body used a {type(value).__name__} constant")
        if type(value) is int or math.isfinite(value):
            text = repr(value)
            return f"({text})" if text.startswith("-") else text
        name = "k_" + struct.pack(">d", value).hex()  # nan keeps its bits
        self._consts[name] = value
        return name

    def _record(self, fmt, args, guard=False):
        operands = [self.operand(a) for a in args]
        text = fmt.format(*operands)
        if text not in self._names:
            name = None if guard else f"v{len(self._lines)}"
            self._names[text] = name
            self._lines.append((name, fmt, operands))
        return self._names[text]

    def emit(self, fmt, *args):
        """A Sym holding the value of ``fmt`` on the operands ``args``; a
        line of the same text already on the tape gives its name."""
        return Sym(self, self._record(fmt, args))

    def guard(self, cond):
        """Raise GuardFailed at this point unless ``cond`` holds."""
        self._record("if not {}: raise GuardFailed", [cond], guard=True)

    def function(self, state, row, params, outputs):
        """The tape as a loop over a block of steps, compiled once per
        source text::

            def steps(out, <state>, rows, *params):
                for <row> in rows:
                    <the lines>
                    <state> = [<outputs>]
                    out.append(<state>)

        The inputs ``state`` and ``row`` are unpacked at the top of each
        step, and the inputs among ``params`` once, before the loop.  So
        each item of ``rows`` takes one step from the state the step
        before it left, and every new state is appended to ``out``.
        Where a line raises or a guard fails, ``out`` holds the states
        of the steps before, and ``rows`` has yielded the failed step's
        row: a caller takes that step another way and calls again with
        the rest of ``rows``.

        Each line is one statement, in tape order, except that a value
        used once is written in parentheses inside the expression that
        uses it (up to _MAX_DEPTH deep).  That moves its operation later
        but not across any use of its result, so every value has the
        same operands and the same bits.
        """
        outs = [self.operand(v) for v in outputs]
        uses = collections.Counter(
            t for _, _, operands in self._lines for t in operands)
        uses.update(outs)
        pending = {}  # name of a value used once -> (its text, its depth)
        step = [self._inputs[p] for p in (state, row) if p in self._inputs]

        def fill(fmt, operands):
            texts, depth = [], 0
            for t in operands:
                if t in pending:
                    t, d = pending.pop(t)
                    t, depth = f"({t})", max(depth, d)
                texts.append(t)
            return fmt.format(*texts), depth + 1

        for name, fmt, operands in self._lines:
            text, depth = fill(fmt, operands)
            if name is None:
                step.append(text)
            elif uses[name] == 1 and depth < _MAX_DEPTH:
                pending[name] = text, depth
            else:
                step.append(f"{name} = {text}")
        ret = fill(", ".join(["{}"] * len(outs)), outs)[0]
        step += [f"{state} = [{ret}]", f"append({state})"]
        src = "\n    ".join([
            f"def steps({', '.join(['out', state, 'rows', *params])}):",
            *(self._inputs[p] for p in params if p in self._inputs),
            "append = out.append",
            f"for {row} in rows:",
            *("    " + line for line in step)]) + "\n"
        fn = _COMPILED.get(src)
        if fn is None:
            namespace = dict(_FUNCTIONS, **self._consts)
            exec(compile(src, "<traced steps>", "exec"), namespace)
            if len(_COMPILED) == _CACHED:
                del _COMPILED[next(iter(_COMPILED))]
            fn = _COMPILED[src] = namespace["steps"]
        return fn


def _traced(name, fn):
    """``name(*args)`` as a line when an argument is a Sym, else fn(*args)."""
    def call(*args):
        if not any(isinstance(a, Sym) for a in args):
            return fn(*args)
        tape = next(a.tape for a in args if isinstance(a, Sym))
        return tape.emit(name + "(" + ", ".join(["{}"] * len(args)) + ")",
                         *args)
    return staticmethod(call)


class TraceMath(RowMath):
    """Syms, one state row being recorded on a Tape.

    ``matvec`` and ``stack`` are RowMath's, on nested Python floats and
    lists.  The compiled lines call :mod:`math` directly: where RowMath's
    sin or cos would return nan for an infinite angle, math raises, and
    the caller redoes that step on RowMath.
    """

    sin = _traced("sin", RowMath.sin)
    cos = _traced("cos", RowMath.cos)
    sqrt = _traced("sqrt", math.sqrt)
    asin = _traced("asin", math.asin)
    _min = _traced("min", min)
    _max = _traced("max", max)

    @staticmethod
    def clip(a, lo, hi):
        return TraceMath._min(TraceMath._max(a, lo), hi)

    @staticmethod
    def all(cond):
        if not isinstance(cond, Sym):
            return bool(cond)
        cond.tape.guard(cond)
        return True


def math_for(x):
    """The namespace that evaluates a model body on state ``x``: a list
    of floats or an (n,) array is one row, an (..., n) array a batch,
    and a list of Syms a row being traced."""
    if isinstance(x, list):
        return TraceMath if x and isinstance(x[0], Sym) else RowMath
    if x.ndim == 1:
        return RowMath
    return BatchMath
