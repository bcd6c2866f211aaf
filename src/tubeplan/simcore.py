"""Time grids, closed-loop integration, linearization and Monte Carlo.

One stepper advances the closed loop across a grid, on one state row or
on a (runs, n) batch.  Without noise it takes classic RK4 steps on a
row, giving the nominal trajectory; with noise samples it takes
Euler-Maruyama steps under piecewise-constant white noise
n_k ~ N(0, 1/dt), the step-limit approximation of unit-intensity
continuous white noise.  A row is stepped as a list of n Python floats
from the first step to the last: ``deriv`` is handed that list and may
return any sequence of n numbers (the bundled models return a list),
and each stage sum is a list comprehension that does the IEEE
operations of the array expression, in its order, so the bits are
those of stepping an (n,) array.  The desired
trajectory is sampled with one call per set of step times (profiles take
arrays of times, see ``vehicles.reference``), and each step reads its
own row of those samples.

The row steppers ``_rk4`` and ``_em`` are the one definition of a row
step.  A row integration runs its stepper once on traced floats
(``vehicles.elementwise.TraceMath``) and compiles what it recorded into
one loop over a block of steps: each step is the straight-line Python
of the same IEEE operations on the same operands, so it has the
stepper's bits.  The loop reads the reference rows and noise samples,
converted to Python floats a block of 256 steps at a time, and appends
each new state to a list; the history is stored a block at a time.  A
step where a traced ``xp.all`` condition fails, or where the loop
raises, is taken again by the stepper, which raises what it raises
uncompiled, and the loop resumes after it.  The loop is traced once
per model object, stepper and reference layout and then reused, so a
model's constants must not change after its first integration.  A
body that cannot be traced (it branches on a state value, or reads the
state with numpy or math) is stepped by the stepper throughout.

Randomness comes from numpy's Philox counter generator (run i of an ensemble seeds Philox with base_seed + i), with
normal variates produced by numpy's ziggurat sampler; given the same
(model, x0, reference, grid, seed) every output bit is reproducible.

Work that may go to a second core (an ensemble pass's noise, LinCov
behind validate's nominal, validate's CSV files) is written once, as a
generator job, and ``_forked`` alone decides where it runs: in a forked
child when two cores are usable, else in-process while the parent waits
for the job's next message.  The parent's side is the same code either
way, and so are the output bits.
"""

from __future__ import annotations

import collections
import contextlib
import dataclasses
import functools
import itertools
import math
import os
import time
import weakref
from dataclasses import dataclass, field

import numpy as np

from .errors import ModelDomainError
from .vehicles.elementwise import Tape

__all__ = [
    "TimeGrid",
    "Trajectory",
    "LinearizationHistory",
    "CovarianceHistory",
    "integrate_nominal",
    "linearize",
    "mc_run",
    "mc_ensemble",
]

# widest pass of ensemble runs integrated together: wide enough to spread
# numpy's per-call dispatch over many rows, capped so that a pass's state
# columns and model temporaries stay cache-sized at any run count
_PASS = 2048
# each pass draws its runs' noise ahead in time chunks that together
# take at most this many bytes (one chunk in-process, two when a forked
# child draws ahead), instead of holding a (runs, count - 1, m) array
_NOISE_BYTES = 12_000_000
# runs whose chunks the noise job draws into one contiguous block, which
# one divide then scales and transposes into the pass's buffer
_FILL_RUNS = 128


@dataclass(frozen=True)
class TimeGrid:
    """Uniform time grid; count = round((tf - t0)/dt) + 1."""

    t0: float
    tf: float
    dt: float
    count: int = field(init=False)

    def __post_init__(self):
        if self.dt <= 0.0:
            raise ValueError("dt must be positive")
        if self.tf <= self.t0:
            raise ValueError("tf must exceed t0")
        object.__setattr__(self, "count", int(round((self.tf - self.t0) / self.dt)) + 1)

    def times(self):
        return self.t0 + self.dt * np.arange(self.count)


@dataclass
class Trajectory:
    """States sampled on a grid."""

    grid: TimeGrid
    states: np.ndarray

    def __post_init__(self):
        self.states = np.asarray(self.states, dtype=float)
        if self.states.shape[0] != self.grid.count:
            raise ValueError("state history length does not match the grid")


@dataclass
class LinearizationHistory:
    """Jacobians of the closed-loop dynamics along a nominal trajectory."""

    grid: TimeGrid
    A: np.ndarray    # (count, n, n), d f / d x
    B_n: np.ndarray  # (count, n, m), d f / d noise


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


def _wrap_domain_error(err, t):
    return ModelDomainError(f"model domain error at t={t:.6g}: {err}")


def _step_refs(des, grid, rk4):
    """des sampled at the step starts, and for RK4 the mids and ends too.

    Step k starts at t = t0 + k dt; RK4 also samples t + dt/2 and t + dt
    (not t0 + (k + 1) dt, which can differ in the last bit and would
    change the nominal trajectory).  Each set of times is one call of des.
    """
    t = grid.times()[:-1]
    sets = (t, t + 0.5 * grid.dt, t + grid.dt) if rk4 else (t,)
    return [des(times) for times in sets]


# rows converted to Python floats at a time: enough to spread the
# conversion's numpy calls, few enough that only a block is held
_ROW_BLOCK = 256


def _row_blocks(columns):
    """Yield the rows of ``columns`` side by side, _ROW_BLOCK rows at a
    time: each block a list of rows, each row a list of Python floats
    (so one column at least must be a float array).  A (count,) column
    takes one place in a row, a (count, d) column d."""
    for lo in range(0, len(columns[0]), _ROW_BLOCK):
        yield np.column_stack([c[lo:lo + _ROW_BLOCK]
                               for c in columns]).tolist()


def _widths(ref):
    """The layout of a flat row of the sampled reference ``ref``: per
    field, None for a scalar field (a (steps,) array) and d for a
    vector field (a (steps, d) array)."""
    return [None if a.ndim == 1 else a.shape[1]
            for a in (getattr(ref, f.name) for f in dataclasses.fields(ref))]


def _flat_rows(ref):
    """An iterator of one flat list of Python floats per time of
    ``ref``: its fields in order, a vector field's components in place."""
    return itertools.chain.from_iterable(_row_blocks(
        [getattr(ref, f.name) for f in dataclasses.fields(ref)]))


def _unflat(cls, widths, flat):
    """The reference row of class ``cls`` with the flat row ``flat``:
    Python floats for scalar fields and lists of floats for vector
    fields, so a model body reads it without numpy dispatch."""
    vals, i = [], 0
    for w in widths:
        if w is None:
            vals.append(flat[i])
            i += 1
        else:
            vals.append(flat[i:i + w])
            i += w
    return cls(*vals)


def _rows(ref):
    """Yield one reference row (see _unflat) per time of ``ref``."""
    return map(functools.partial(_unflat, type(ref), _widths(ref)),
               _flat_rows(ref))


def _rk4(model, x, ref, dt, n):
    """One classic RK4 step of the row x, a list of floats, on the
    reference rows (start, middle, end) ``ref`` and the noise sample n,
    all zeros for the nominal.

    Each comprehension is the array expression in the comment beside it,
    element by element and in the same order.
    """
    ref1, refh, ref2 = ref
    h = 0.5 * dt
    k1 = model.deriv(x, ref1, n)
    k2 = model.deriv([a + h * b for a, b in zip(x, k1)],  # x + 0.5*dt*k1
                     refh, n)
    k3 = model.deriv([a + h * b for a, b in zip(x, k2)],  # x + 0.5*dt*k2
                     refh, n)
    k4 = model.deriv([a + dt * b for a, b in zip(x, k3)],  # x + dt*k3
                     ref2, n)
    w = dt / 6.0
    # x + (dt/6) * (k1 + 2 k2 + 2 k3 + k4)
    return [a + w * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
            for a, b1, b2, b3, b4 in zip(x, k1, k2, k3, k4)]


def _em(model, x, ref, dt, n):
    """One Euler-Maruyama step x + dt * f of the row x on the reference
    row ``ref[0]`` and the noise sample n."""
    f = model.deriv(x, ref[0], n)
    return [a + dt * b for a, b in zip(x, f)]


def _split_row(cls, widths, sets, row):
    """The reference rows (_unflat) and the noise sample of a step row:
    ``sets`` flat reference rows of class ``cls``, then the noise."""
    size = sum(1 if w is None else w for w in widths)
    return ([_unflat(cls, widths, row[i * size:(i + 1) * size])
             for i in range(sets)], row[sets * size:])


def _compile(model, stepper, refs):
    """``stepper`` (_rk4 or _em) on ``model``, compiled, or None.

    The stepper runs once on Syms (see ``vehicles.elementwise``) for the
    state, a step row and dt, and what it records becomes the block loop
    ``steps(out, x, rows, dt)``: from the state row x, a list of floats,
    each step row of ``rows`` takes one step, whose state is appended to
    out.  A step row is a list of floats: a flat row (_flat_rows) of
    each set of ``refs``, then the noise sample (see _split_row).  Each
    step has the stepper's bits, or raises where the stepper may raise
    or branch otherwise (see ``Tape.function`` for how to resume).  None
    when the body cannot be traced: it reads a traced value as a number
    (a data-dependent ``if``, numpy or math called directly) or a
    constant that is not a Python float or int.
    """
    cls, widths = type(refs[0]), _widths(refs[0])
    size = sum(1 if w is None else w for w in widths)
    tape = Tape()
    x = tape.inputs("x", model.n_states)
    ref, n = _split_row(cls, widths, len(refs),
                        tape.inputs("r", len(refs) * size + model.n_noise))
    try:
        return tape.function("x", "r", ["dt"], stepper(model, x, ref,
                                                       tape.input("dt"), n))
    except Exception:  # whatever the body raises on Syms: not compiled
        return None


# model -> {(stepper, reference layout): its block loop, or None}
_LOOPS = weakref.WeakKeyDictionary()


def _loop(model, stepper, refs):
    """_compile's block loop, traced once per model object, stepper and
    reference layout (class, field widths and sets), then reused: a
    model's constants must not change after its first integration."""
    key = (stepper, type(refs[0]), tuple(_widths(refs[0])), len(refs))
    try:
        loops = _LOOPS.setdefault(model, {})
    except TypeError:  # a model that is not hashable or weakly referable
        loops = {}
    if key not in loops:
        loops[key] = _compile(model, stepper, refs)
    return loops[key]


def _steps(model, x, grid, refs, noise):
    """Yield the closed-loop state of the (runs, n) batch x at every
    grid time, starting with x.

    refs is the sample of _step_refs at the step starts, and noise an
    iterable of count - 1 (runs, m) samples: step k is Euler-Maruyama
    on row k of refs and the k-th sample (x + dt * f).  A model domain
    error is re-raised naming the step's start time.
    """
    dt = grid.dt
    yield x
    for k, (ref, n) in enumerate(zip(_rows(refs[0]), noise)):
        try:
            x = x + dt * model.deriv(x, ref, n)
        except ModelDomainError as err:
            raise _wrap_domain_error(err, grid.t0 + k * dt) from err
        yield x


# states of a row integrated per block, which a consumer of the nominal
# is handed, and grid points linearized per batched model call: large
# enough to spread numpy's per-call cost, small enough to keep
# temporaries in cache
_LIN_BLOCK = 256


def _row_states(model, x0, grid, refs, noise=None, on_rows=None):
    """The closed-loop states of the (n,) row x0 at every grid time, as a
    (count, n) array.

    refs are the samples of _step_refs; step k reads row k of each.
    Without noise each step is classic RK4 with zero noise (_rk4); with
    a (count - 1, m) array of per-step samples, step k is Euler-Maruyama
    on its row k (_em).  The states are integrated _LIN_BLOCK at a time
    by the model's block loop (_loop), on step rows converted to Python
    floats a block at a time, and ``on_rows(lo, rows)``, when given, is
    handed each block of new states as soon as it is stored.  A step
    where the loop raises is taken by the stepper, which raises what it
    raises uncompiled, and the loop resumes after it; a body that does
    not compile is stepped by the stepper throughout.  A model domain
    error is re-raised naming the step's start time.
    """
    count, dt = grid.count, grid.dt
    if noise is None:
        stepper, noise = _rk4, np.zeros((count - 1, model.n_noise))
    else:
        stepper = _em
    cls, widths = type(refs[0]), _widths(refs[0])
    columns = [getattr(ref, f.name) for ref in refs
               for f in dataclasses.fields(ref)] + [noise]
    loop = _loop(model, stepper, refs)
    states = np.empty((count, model.n_states))
    states[0] = x0
    x = x0.tolist()
    for lo in range(0, count, _LIN_BLOCK):
        hi = min(lo + _LIN_BLOCK, count)
        s = max(lo - 1, 0)  # steps s .. hi - 2 give the states s + 1 .. hi - 1
        rows = np.column_stack([c[s:hi - 1] for c in columns]).tolist()
        out = [x]  # the block's start state, then each step's
        todo = iter(rows)
        while len(out) <= len(rows):
            if loop is not None:
                try:
                    loop(out, out[-1], todo, dt)
                    break
                except Exception:  # a failed guard, or what the step raised
                    pass
            k = len(out) - 1
            ref, n = _split_row(cls, widths, len(refs), rows[k])
            try:
                out.append(stepper(model, out[-1], ref, dt, n))
            except ModelDomainError as err:
                raise _wrap_domain_error(err, grid.t0 + (s + k) * dt) from err
        if rows:
            states[s + 1:hi] = out[1:]
        x = out[-1]
        if on_rows is not None:
            on_rows(lo, states[lo:hi])
    return states


def _state_row(model, x0):
    """x0 as a float (n,) array; ValueError unless it has that shape."""
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (model.n_states,):
        raise ValueError(f"x0 must have shape ({model.n_states},)")
    return x0


def integrate_nominal(model, x0, des, grid, on_rows=None):
    """Classic fixed-step RK4 of the closed-loop dynamics with zero noise.

    With ``on_rows``, ``on_rows(lo, rows)`` is handed each block of
    _LIN_BLOCK new states (the last block may be shorter) as soon as it
    is integrated, so a consumer can linearize it while the rest is
    integrated.
    """
    x0 = _state_row(model, x0)
    refs = _step_refs(des, grid, rk4=True)
    return Trajectory(grid=grid, states=_row_states(model, x0, grid, refs,
                                                    on_rows=on_rows))


def linearize(model, nominal, des):
    """Central finite-difference Jacobians A = df/dx and B_n = df/dn.

    Evaluated at every grid point of the nominal trajectory with zero
    noise; per-column step max(1e-6, 1e-6 |x_i|).  All 2(n + m)
    perturbed evaluations of a grid point run inside one batched model
    call, with grid points blocked together for speed (see
    _linearize_rows).
    """
    grid = nominal.grid
    A = np.empty((grid.count, model.n_states, model.n_states))
    B = np.empty((grid.count, model.n_states, model.n_noise))
    _linearize_rows(model, des, grid.times(), nominal.states, A, B,
                    0, grid.count)
    return LinearizationHistory(grid=grid, A=A, B_n=B)


def _linearize_rows(model, des, times, states, A, B, start, stop):
    """Fill A[start:stop] and B[start:stop] at those grid points.

    start is a multiple of _LIN_BLOCK, and each block of _LIN_BLOCK
    points from start is one batched model call, so the Jacobians do not
    depend on how the rows are split between calls of this function.
    Each block samples des once, at a (block, 1) column of its times, so
    every grid point broadcasts against its own reference.
    """
    n = model.n_states
    m = model.n_noise
    rows = 2 * (n + m)
    idx = np.arange(n)
    jdx = np.arange(m)
    for lo in range(start, stop, _LIN_BLOCK):
        hi = min(lo + _LIN_BLOCK, stop)
        block = hi - lo
        hx = np.maximum(1e-6, 1e-6 * np.abs(states[lo:hi]))  # (block, n)
        X = np.repeat(states[lo:hi, None, :], rows, axis=1)
        X[:, 2 * idx, idx] += hx
        X[:, 2 * idx + 1, idx] -= hx
        N = np.zeros((block, rows, m))
        N[:, 2 * n + 2 * jdx, jdx] += 1e-6
        N[:, 2 * n + 2 * jdx + 1, jdx] -= 1e-6
        try:
            D = model.deriv(X, des(times[lo:hi, None]), N)
        except ModelDomainError:
            # redo pointwise so the error names the offending time
            for k in range(lo, hi):
                try:
                    model.deriv(X[k - lo], des(times[k]), N[k - lo])
                except ModelDomainError as err:
                    raise _wrap_domain_error(err, times[k]) from err
            raise
        dx = D[:, 0:2 * n:2] - D[:, 1:2 * n:2]               # (block, n, n)
        A[lo:hi] = np.transpose(dx / (2.0 * hx[:, :, None]), (0, 2, 1))
        dn = D[:, 2 * n::2] - D[:, 2 * n + 1::2]             # (block, m, n)
        B[lo:hi] = np.transpose(dn / (2.0 * 1e-6), (0, 2, 1))


def _noise_stream(seed, dt):
    """Run ``seed``'s white noise, as ``(normals, scale)``.

    ``normals`` is the ``standard_normal`` of a numpy Generator on
    Philox(seed), numpy's ziggurat sampler: ``normals((steps, m))``
    returns the next ``steps`` rows of m standard normals, and
    ``normals(out=a)`` writes them into the C-contiguous (steps, m)
    array a.  A step's sample is its row divided by ``scale``, sqrt(dt),
    so each component is N(0, 1/dt).  Successive calls continue one
    stream, so drawing it in chunks gives the bits of one draw of the
    total length.
    """
    rng = np.random.Generator(np.random.Philox(seed))
    return rng.standard_normal, np.sqrt(dt)


def mc_run(model, x0, des, grid, seed):
    """One Euler-Maruyama sample path, fully determined by the seed."""
    x0 = _state_row(model, x0)
    normals, scale = _noise_stream(seed, grid.dt)
    noise = normals((grid.count - 1, model.n_noise)) / scale
    refs = _step_refs(des, grid, rk4=False)
    return Trajectory(grid=grid, states=_row_states(model, x0, grid, refs,
                                                    noise))


def _usable_cpus():
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _fork_context():
    """The "fork" context when a second core can take forked work, else None.

    Besides the core count, the main process must be the only Python
    thread (a forked child would inherit locks other threads hold) and
    must not be a daemonic worker, which may not start children.
    """
    if _usable_cpus() < 2:
        return None
    import multiprocessing
    import threading
    if ("fork" not in multiprocessing.get_all_start_methods()
            or multiprocessing.current_process().daemon
            or threading.active_count() > 1):
        return None
    return multiprocessing.get_context("fork")


def _shared(shape):
    """A zeroed float array in an anonymous shared mapping, so that what
    a forked child writes into it is seen by the parent."""
    import mmap

    return np.frombuffer(mmap.mmap(-1, 8 * math.prod(shape))).reshape(shape)


def _child_main(conn, job, args):
    """Body of a child of _forked: the job, fed from the pipe, sends its
    messages back over it, and so does an exception it raises (no
    message of a job is an exception)."""
    import signal

    signal.signal(signal.SIGINT, signal.SIG_IGN)  # the parent handles ^C
    end = _Local(job(*args), take=conn.recv)
    try:
        while True:
            conn.send(end.recv())
    except StopIteration:  # the job is done
        pass
    except Exception as err:
        conn.send(err)


class _Child:
    """The parent's end of a job that _forked runs in a child."""

    def __init__(self, conn, proc, what):
        self.conn, self.proc, self.what = conn, proc, what

    def send(self, obj):
        """Send obj to the child; a child that has died shows at recv."""
        with contextlib.suppress(BrokenPipeError, ConnectionResetError):
            self.conn.send(obj)

    def recv(self):
        """The child's next message.

        Waits on the pipe and the child's sentinel together.  Re-raises
        an exception the child raised, and raises ChildProcessError with
        the exit code when the child exits without a message.
        """
        from multiprocessing.connection import wait

        if self.conn in wait([self.conn, self.proc.sentinel]):
            try:
                msg = self.conn.recv()
            except (EOFError, ConnectionResetError):  # the child has exited
                pass
            else:
                if isinstance(msg, Exception):
                    raise msg
                return msg
        self.proc.join()
        raise ChildProcessError(
            f"{self.what} exited with code {self.proc.exitcode}")


class _Local:
    """A job's end in the process that runs it: ``recv`` runs the job
    until it yields a message, feeding each bare yield from ``take``, by
    default the queue of what ``send`` was given."""

    def __init__(self, gen, take=None):
        self.gen, self.inbox, self.reply = gen, collections.deque(), None
        self.take = take or self.inbox.popleft

    def send(self, obj):
        self.inbox.append(obj)

    def recv(self):
        while (msg := self.gen.send(self.reply)) is None:
            self.reply = self.take()
        self.reply = None
        return msg


@contextlib.contextmanager
def _forked(ctx, what, job, *args):
    """Run the job ``job(*args)`` beside the block; yields the parent's end.

    A job is a generator: a bare ``yield`` takes the parent's next
    ``send``, and ``yield msg`` hands msg (never None) to the parent's
    next ``recv``.  With a fork context the job runs in a forked child
    (``what`` names it in errors); the child is killed if the block
    raises, and is always joined before this returns.  With ``ctx`` None
    the job runs in-process, only inside ``recv``, so the parent's side
    is the same code on any core count.
    """
    if ctx is None:
        with contextlib.closing(job(*args)) as gen:
            yield _Local(gen)
        return
    conn, child_conn = ctx.Pipe()
    proc = ctx.Process(target=_child_main, daemon=True,
                       args=(child_conn, job, args))
    proc.start()
    child_conn.close()
    try:
        yield _Child(conn, proc, what)
    except BaseException:
        proc.kill()
        raise
    finally:
        proc.join()
        conn.close()


def _call(fn, *args):
    """Job of _beside: fn(*args), then report that it is done."""
    fn(*args)
    yield True


@contextlib.contextmanager
def _beside(what, fn, *args):
    """Run fn(*args) beside the block: in a forked child when a second
    core is usable, else in-process once the block is done.  Leaving
    waits for it and raises what it raised."""
    with _forked(_fork_context(), what, _call, fn, *args) as child:
        yield
        child.recv()


def _noise_chunks(bufs, seeds, sizes, dt):
    """Job of _pass_noise: fill chunk j into bufs[j % len(bufs)] and send
    j, once the parent has released that buffer's previous chunk.

    A buffer holds a chunk as (steps, m, runs).  The job draws
    _FILL_RUNS runs at a time, each run's normals (_noise_stream) into
    its own contiguous rows of one block, and one divide by the scale
    writes the block's samples, transposed, into the buffer: the bits of
    dividing each run's draw on its own.
    """
    nbuf, runs = len(bufs), len(seeds)
    normals, scales = zip(*(_noise_stream(seed, dt) for seed in seeds))
    block = np.empty((min(_FILL_RUNS, runs),) + bufs.shape[1:3])
    for j, size in enumerate(sizes):
        if j >= nbuf:
            yield  # the parent has stepped through chunk j - nbuf
        buf = bufs[j % nbuf]
        for lo in range(0, runs, _FILL_RUNS):
            part = block[:min(_FILL_RUNS, runs - lo), :size]
            for draw, rows in zip(normals[lo:], part):
                draw(out=rows)
            # every run has the same dt, so one scale serves the block
            np.divide(part.transpose(1, 2, 0), scales[lo],
                      out=buf[:size, :, lo:lo + len(part)])
        yield j


@contextlib.contextmanager
def _pass_noise(seeds, steps, m, dt, timings):
    """Per-step (runs, m) noise of the runs ``seeds``, drawn in time chunks.

    Entering yields an iterator over the steps' samples, which a
    _noise_chunks job fills from the runs' own streams, a block of runs
    at a time.  With a second usable core the job is a forked child that
    starts drawing on entry, while the caller still prepares, and draws
    chunk j + 1 while the caller steps through chunk j, in two buffers
    that split _NOISE_BYTES.  Otherwise it fills one buffer in-process,
    each chunk when the caller reaches it.  Each sample is a
    Fortran-ordered view, so every component's column is contiguous; a
    later chunk overwrites it.  How long the caller waits for each chunk
    is added to ``timings["noise_wait_ms"]``; in-process, that is the
    fill itself.  Leaving ends the job.
    """
    ctx = _fork_context()
    nbuf = 1 if ctx is None else 2
    chunk = min(steps, max(1, _NOISE_BYTES // (nbuf * 8 * m * len(seeds))))
    sizes = [min(chunk, steps - lo) for lo in range(0, steps, chunk)]
    bufs = _shared((nbuf, chunk, m, len(seeds)))
    with _forked(ctx, "noise process", _noise_chunks,
                 bufs, seeds, sizes, dt) as job:
        def samples():
            for j, size in enumerate(sizes):
                tic = time.perf_counter()
                job.recv()
                timings["noise_wait_ms"] += 1e3 * (time.perf_counter() - tic)
                buf = bufs[j % nbuf]
                for k in range(size):
                    yield buf[k].T
                if j + nbuf < len(sizes):
                    job.send(j)  # release the buffer

        # closed on leaving, so that the caller's name for it holds no
        # chunk buffer once the pass is over
        with contextlib.closing(samples()) as noise:
            yield noise


def mc_ensemble(model, x0, des, grid, runs, base_seed, record_indices=None,
                on_start=None, timings=None):
    """Seeded Monte Carlo ensemble: mean trajectory and sample covariance.

    Run i draws its noise exactly as ``mc_run(..., seed=base_seed + i)``
    would, in time chunks of about 12 MB across a pass, by one noise job
    per pass (see _pass_noise), which draws a block of runs into one
    contiguous array and scales it into the pass's buffer in one divide.
    With two usable cores the job is a forked child, and the first
    pass's child starts before ``on_start`` and the shared reference
    path.  Each child is joined before its pass ends, also when a step
    or the hook raises, and a child that dies raises ChildProcessError.
    Runs are integrated in passes of up to 2048, each holding its state
    column-major so the model works on contiguous state columns; a run's
    states do not depend on the pass it falls in.  Each step of a pass
    adds its deviations to the sums in one reduction, pass after pass in
    run order, so results are reproducible bit for bit.  The sample
    covariance is the unbiased estimator, accumulated about a
    deterministic reference path to keep the reduction well conditioned.

    When ``record_indices`` (distinct grid indices) is given, per-run
    states at those indices are returned as an extra
    (runs, len(indices), n) array.

    ``on_start()``, when given, is called once the first pass's noise
    job has started, so that with two cores the child draws beside it;
    mc-compare runs LinCov there.  Should it raise, the noise job is
    ended and the exception propagates.  ``timings``, when given, is a
    dict that gains ``noise_wait_ms``: how long the ensemble waited on
    the noise jobs of all passes (on one core, the time they took).
    """
    if runs < 2:
        raise ValueError("an ensemble needs at least two runs")
    x0 = _state_row(model, x0)
    n = model.n_states
    m = model.n_noise
    dt = grid.dt
    count = grid.count
    recorded = None
    if record_indices is not None:
        record_indices = [int(i) for i in record_indices]
        if (len(set(record_indices)) != len(record_indices)
                or not all(0 <= k < count for k in record_indices)):
            raise ValueError("record_indices must be distinct grid indices")
        recorded = np.empty((runs, len(record_indices), n))
        record_pos = {k: j for j, k in enumerate(record_indices)}
    sum_d = np.zeros((count, n))
    sum_o = np.zeros((count, n, n))
    seeds = range(base_seed, base_seed + runs)
    timings = {} if timings is None else timings
    timings["noise_wait_ms"] = 0.0

    for lo in range(0, runs, _PASS):
        hi = min(lo + _PASS, runs)
        with _pass_noise(seeds[lo:hi], count - 1, m, dt, timings) as noise:
            if lo == 0:
                if on_start is not None:
                    on_start()
                # inside the first pass, so that its noise child draws
                # beside the reference path, which every pass shares
                # with one sample of des
                refs = _step_refs(des, grid, rk4=False)
                ref_path = _row_states(model, x0, grid, refs,
                                       np.zeros((count - 1, m)))
            x = np.full((hi - lo, n), x0, order="F")
            for k, X in enumerate(_steps(model, x, grid, refs, noise)):
                d = X - ref_path[k]
                sum_d[k] += d.sum(axis=0)
                sum_o[k] += d.T @ d
                if recorded is not None and k in record_pos:
                    recorded[lo:hi, record_pos[k]] = X

    mean = ref_path + sum_d / runs
    cov = (sum_o - np.einsum("ki,kj->kij", sum_d, sum_d) / runs) / (runs - 1)
    cov = 0.5 * (cov + np.transpose(cov, (0, 2, 1)))

    mean_traj = Trajectory(grid=grid, states=mean)
    cov_hist = CovarianceHistory(grid=grid, P=cov)
    if recorded is not None:
        return mean_traj, cov_hist, recorded
    return mean_traj, cov_hist
