"""The compiled row loop has the bits of the stepper it is traced from.

``simcore._compile`` runs ``_rk4`` or ``_em`` once on a model body with
traced floats (``vehicles.elementwise.Sym``) and compiles the tape into
one loop over a block of steps, each step straight-line Python;
``simcore._loop`` keeps it per model object, stepper and reference
layout.  The oracle everywhere here is the stepper itself on Python
floats: a row integration through ``simcore._row_states`` (the
compiled loop, or the stepper where the loop raises, after which the
loop resumes) must return its bits or raise its exact error.
"""

from __future__ import annotations

import dataclasses
import math
import re
import struct

import numpy as np
import pytest

from tubeplan import simcore
from tubeplan.errors import ModelDomainError
from tubeplan.simcore import TimeGrid, integrate_nominal
from tubeplan.uncertainty import lincov
from tubeplan.vehicles import QuadrotorModel, QuadrotorParams
from tubeplan.vehicles.elementwise import Sym, Tape, math_for, split
from tubeplan.vehicles.reference import QuadrotorRef

BUNDLED = ["quad_scenario", "fw_scenario"]
STEPPERS = {"rk4": simcore._rk4, "em": simcore._em}


def _bits(values):
    return struct.pack(f">{len(values)}d", *values)


def _sampled_refs(sc, stepper, steps=50):
    grid = TimeGrid(sc.grid.t0, sc.grid.t0 + steps * sc.grid.dt, sc.grid.dt)
    return simcore._step_refs(sc.profile, grid, rk4=stepper is simcore._rk4)


def _one_row(cls, flat, widths):
    """The sampled reference of one time whose flat row is ``flat``."""
    row = simcore._unflat(cls, widths, flat)
    return cls(*(np.array([getattr(row, f.name)])
                 for f in dataclasses.fields(cls)))


def _one_step(loop, x, rows, noise, dt):
    """The state after one step of a compiled block loop."""
    out = []
    loop(out, x, iter([[v for r in rows for v in r] + noise]), dt)
    return out[0]


def _outcome(fn):
    try:
        return "value", _bits(fn())
    except Exception as err:
        return type(err).__name__, str(err)


@pytest.mark.parametrize("stepper", STEPPERS)
@pytest.mark.parametrize("fixture", BUNDLED)
def test_the_bundled_bodies_compile(fixture, stepper, request):
    # a body edit that reads a traced value as a number (a data-dependent
    # ``if``, or numpy or math called directly) would not be compiled
    # and would only run slower; here it fails instead
    sc = request.getfixturevalue(fixture)
    refs = _sampled_refs(sc, STEPPERS[stepper])
    assert simcore._compile(sc.model, STEPPERS[stepper], refs) is not None


def _cases(sc, flat_rows, rng, count):
    """(x, flat reference rows, noise, dt) near the scenario's flight,
    every third with signed zeros in every input."""
    model = sc.model
    x0 = np.asarray(sc.initial_state())
    n_rows = len(flat_rows[0])
    cases = []
    for i in range(count):
        scale = 0.2 + np.abs(x0)
        x = x0 + 0.1 * scale * rng.standard_normal(len(x0))
        k = int(rng.integers(n_rows))
        rows = [np.asarray(r[k]) * (1.0 + 0.01 * rng.standard_normal(len(r[k])))
                for r in flat_rows]
        noise = rng.standard_normal(model.n_noise) * 10.0
        if i % 3 == 0:  # signed zeros in every input
            for a in (x, noise, *rows):
                a[rng.random(len(a)) < 0.3] = 0.0
                a[rng.random(len(a)) < 0.3] = -0.0
        cases.append((x.tolist(), [r.tolist() for r in rows],
                      noise.tolist(), float(rng.uniform(1e-3, 0.1))))
    return cases


def _edge_cases(sc, case):
    """Edits of one case that reach each guard, the asin clamp and the
    angles where math.sin and math.cos raise."""
    x, rows, noise, dt = case
    labels = sc.model.state_labels
    edits = {"quadrotor": [{"vx": 0.0, "vy": 0.0, "vz": 0.0},
                           {"vx": -0.0, "vy": 0.0, "vz": -0.0},
                           {"eta_x": math.inf}, {"x": math.nan}],
             "fixedwing": [{"V": 0.0}, {"V": 1e-6}, {"gamma": math.pi / 2},
                           {"V_des": -0.0}, {"h": 1e4}, {"h": -1e4},
                           {"psi": math.inf}, {"psi_des": -math.inf},
                           {"gamma": math.inf}, {"eta_u": math.nan}]}
    out = []
    for edit in edits[sc.model.name]:
        y = list(x)
        for label, value in edit.items():
            y[labels.index(label)] = value
        out.append((y, rows, noise, dt))
    return out


@pytest.mark.parametrize("stepper", STEPPERS)
@pytest.mark.parametrize("fixture", BUNDLED)
def test_a_compiled_row_step_has_the_bits_of_the_stepper(fixture, stepper,
                                                          request):
    sc = request.getfixturevalue(fixture)
    model, fn = sc.model, STEPPERS[stepper]
    refs = _sampled_refs(sc, fn)
    cls, widths = type(refs[0]), simcore._widths(refs[0])
    flat_rows = [list(simcore._flat_rows(r)) for r in refs]
    loop = simcore._compile(model, fn, refs)
    rng = np.random.default_rng(2311)
    cases = _cases(sc, flat_rows, rng, 60)
    checked = 0
    for x, rows, noise, dt in cases:
        if fn is simcore._rk4:
            noise = [0.0] * model.n_noise
        want = _outcome(lambda: fn(model, x, [
            simcore._unflat(cls, widths, r) for r in rows], dt, noise))
        if want[0] == "value":
            # where the stepper returns, so does the compiled step
            assert ("value", _bits(_one_step(loop, x, rows, noise, dt))) \
                == want
            checked += 1
    assert checked >= 40  # a zero speed fails a guard
    for x, rows, noise, dt in cases + _edge_cases(sc, cases[0]):
        if fn is simcore._rk4:
            noise = [0.0] * model.n_noise

        def oracle(x=x, rows=rows, noise=noise, dt=dt):
            ref = [simcore._unflat(cls, widths, r) for r in rows]
            try:
                return fn(model, x, ref, dt, noise)
            except ModelDomainError as err:
                raise simcore._wrap_domain_error(err, 0.0) from err

        def stepped(x=x, rows=rows, noise=noise, dt=dt):
            sampled = [_one_row(cls, r, widths) for r in rows]
            states = simcore._row_states(
                model, np.array(x), TimeGrid(0.0, dt, dt), sampled,
                None if fn is simcore._rk4 else np.array([noise]))
            return states[1].tolist()

        assert _outcome(stepped) == _outcome(oracle)


def _straight(tape, outputs):
    """The tape's outputs on its input x, one step of its block loop."""
    loop = tape.function("x", "r", [], outputs)

    def step(x):
        out = []
        loop(out, x, [[]])
        return out[0]
    return step


def test_the_tracer_folds_no_constant_and_keeps_operand_order():
    tape = Tape()
    a, b = tape.inputs("x", 2)
    step = _straight(tape, [a + 0.0, 0.0 * b, a - 0.0, a * 1.0,
                            a + b, b + a, a + b, -a, abs(b)])
    # two NaNs of different payloads: which one a sum keeps depends on
    # its operand order on most hardware
    nan1 = struct.unpack(">d", bytes.fromhex("7ff8000000000001"))[0]
    nan2 = struct.unpack(">d", bytes.fromhex("fff8000000000002"))[0]
    for u, v in [(-0.0, math.inf), (nan1, nan2), (-0.0, -0.0), (1.5, -2.0)]:
        want = [u + 0.0, 0.0 * v, u - 0.0, u * 1.0, u + v, v + u, u + v,
                -u, abs(v)]
        assert _bits(step([u, v])) == _bits(want)


def test_a_non_finite_constant_keeps_its_bits():
    tape = Tape()
    (a,) = tape.inputs("x", 1)
    nan = struct.unpack(">d", bytes.fromhex("7ff8000000000123"))[0]
    step = _straight(tape, [a * math.inf, a + nan, -math.inf + a])
    want = [2.0 * math.inf, 2.0 + nan, -math.inf + 2.0]
    assert _bits(step([2.0])) == _bits(want)


@dataclasses.dataclass
class _Ref:
    t: float


def _still(t):
    return _Ref(t=np.asarray(t, dtype=float))


class _Oscillator:
    """p'' = -p - c p', written against xp like the bundled bodies; the
    damping law switches where p changes sign, in one of three ways."""

    n_states = 2
    n_noise = 1

    def __init__(self, branch):
        self.branch = branch

    def deriv(self, x, ref, noise):
        if self.branch == "numpy":
            x = np.asarray(x, dtype=float)
        xp = math_for(x)
        p, v = split(x)
        (n,) = split(noise)
        if self.branch == "if":
            damped = p > 0.0
        elif self.branch == "guard":
            damped = xp.all(p > 0.0)
        else:
            damped = True
        c = 0.5 if damped else 0.1
        return xp.stack([v, -p - c * v + n], x)


def _rk4_states(model, x0, grid):
    """The nominal by _rk4 on Python floats, step after step."""
    zero = [0.0] * model.n_noise
    x = list(x0)
    states = [x]
    for k in range(grid.count - 1):
        t = grid.t0 + k * grid.dt
        ref = [_Ref(t), _Ref(t + 0.5 * grid.dt), _Ref(t + grid.dt)]
        x = simcore._rk4(model, x, ref, grid.dt, zero)
        states.append(x)
    return np.array(states)


@pytest.mark.parametrize("branch, compiled", [
    ("if", False), ("numpy", False), ("guard", True)])
def test_a_branch_on_data_is_refused_or_guarded(branch, compiled):
    # a Python ``if`` on a state value, or numpy reading the state, cannot
    # be traced: that body steps uncompiled.  A branch through ``xp.all``
    # is traced as a guard, and a step where it fails is taken by _rk4
    model = _Oscillator(branch)
    grid = TimeGrid(0.0, 6.0, 0.01)
    refs = simcore._step_refs(_still, grid, rk4=True)
    assert (simcore._compile(model, simcore._rk4, refs) is not None) \
        == compiled
    states = integrate_nominal(model, [1.0, 0.0], _still, grid).states
    assert states.tobytes() == _rk4_states(model, [1.0, 0.0], grid).tobytes()
    assert states[:, 0].min() < 0.0 < states[:, 0].max()  # both branches


@pytest.fixture
def loops(monkeypatch):
    """The results of simcore._loop, as they are returned."""
    seen = []
    real = simcore._loop

    def spy(*args):
        seen.append(real(*args))
        return seen[-1]

    monkeypatch.setattr(simcore, "_loop", spy)
    return seen


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("fixture, label, value, message", [
    ("quad_scenario", "vx vy vz", 0.0, "model domain error at t=0: quadrotor"
     " gust filters are singular at zero vehicle speed"),
    ("fw_scenario", "V", 0.0,
     "model domain error at t=0: fixed-wing dynamics need airspeed > 0"),
    ("fw_scenario", "V", 2.0,
     "model domain error at t=0.04: fixed-wing dynamics need airspeed > 0"),
    ("fw_scenario", "gamma", math.pi / 2, "model domain error at t=0:"
     " fixed-wing dynamics singular near vertical flight"),
    ("fw_scenario", "gamma", math.pi / 2 - 1e-4, "model domain error at"
     " t=3.97: fixed-wing dynamics singular near vertical flight"),
    ("fw_scenario", "V_des", 0.0, "model domain error at t=0:"
     " fixed-wing guidance needs desired speed > 0"),
    ("fw_scenario", "gamma", 1.5, "model domain error at t=0.4:"
     " fixed-wing guidance needs desired speed > 0"),
], ids=["quad-still", "fw-V0", "fw-V-falls", "fw-vertical",
        "fw-turns-vertical", "fw-Vdes0", "fw-Vdes-falls"])
def test_a_domain_error_through_the_compiled_step_names_its_time(
        fixture, label, value, message, cpus, request, monkeypatch,
        loops, child_guard):
    # the messages and times are those of the uncompiled stepper
    monkeypatch.setattr(simcore, "_usable_cpus", lambda: cpus)
    sc = request.getfixturevalue(fixture)
    grid = TimeGrid(sc.grid.t0, sc.grid.t0 + 5.0, sc.grid.dt)
    x0 = np.array(sc.initial_state())
    for name in label.split():
        x0[sc.model.state_labels.index(name)] = value
    with pytest.raises(ModelDomainError) as compiled:
        lincov(sc.model, x0, sc.profile, grid, sc.P0)
    assert loops and loops[-1] is not None
    monkeypatch.setattr(simcore, "_loop", lambda *args: None)
    with pytest.raises(ModelDomainError) as uncompiled:
        lincov(sc.model, x0, sc.profile, grid, sc.P0)
    assert str(compiled.value) == str(uncompiled.value) == message


# --------------------------------------------------------------------------
# the block loop over a whole integration


def _stepper_states(model, x0, grid, refs, noise=None):
    """The oracle: the stepper alone, one step after another, on the
    reference rows of ``refs`` and the (count - 1, m) noise, if any."""
    stepper = simcore._rk4 if noise is None else simcore._em
    rows = [list(simcore._rows(r)) for r in refs]
    x = np.asarray(x0, dtype=float).tolist()
    states = [x]
    for k in range(grid.count - 1):
        n = [0.0] * model.n_noise if noise is None else noise[k].tolist()
        x = stepper(model, x, [r[k] for r in rows], grid.dt, n)
        states.append(x)
    return np.array(states)


def _noise(model, grid, seed=7):
    normals, scale = simcore._noise_stream(seed, grid.dt)
    return normals((grid.count - 1, model.n_noise)) / scale


@pytest.mark.parametrize("stepper", STEPPERS)
@pytest.mark.parametrize("fixture", BUNDLED)
def test_the_block_loop_has_the_stepper_bits_over_a_whole_integration(
        fixture, stepper, request):
    # the bundled flights, every block of 256 steps and the short last
    # one, through integrate_nominal and mc_run
    sc = request.getfixturevalue(fixture)
    x0, grid = sc.initial_state(), sc.grid
    assert grid.count > 3 * simcore._LIN_BLOCK
    rk4 = stepper == "rk4"
    refs = simcore._step_refs(sc.profile, grid, rk4=rk4)
    if rk4:
        states = integrate_nominal(sc.model, x0, sc.profile, grid).states
        want = _stepper_states(sc.model, x0, grid, refs)
    else:
        states = simcore.mc_run(sc.model, x0, sc.profile, grid, 7).states
        want = _stepper_states(sc.model, x0, grid, refs,
                               _noise(sc.model, grid))
    assert simcore._loop(sc.model, STEPPERS[stepper], refs) is not None
    assert states.tobytes() == want.tobytes()


@dataclasses.dataclass
class _GateRef:
    t: float
    g: float


class _Gated:
    """p'' = -p - c p' + n, where c is 0.5 while the reference's gate g
    is positive and 0.1 where it is not, through a traced guard; a gate
    below -2 is outside the domain."""

    n_states = 2
    n_noise = 1

    def deriv(self, x, ref, noise):
        xp = math_for(x)
        p, v = split(x)
        (n,) = split(noise)
        if not xp.all(ref.g > -2.0):
            raise ModelDomainError("the gate is broken")
        c = 0.5 if xp.all(ref.g > 0.0) else 0.1
        return xp.stack([v, -p - c * v + n], x)


def _gate(dt, closed, broken=()):
    """A reference whose gate is shut at the grid indices ``closed`` and
    broken at those of ``broken``."""
    def des(t):
        t = np.asarray(t, dtype=float)
        g = np.ones_like(t)
        for indices, value in ((closed, -1.0), (broken, -3.0)):
            for j in indices:
                g[np.abs(t - j * dt) < 0.25 * dt] = value
        return _GateRef(t=t, g=g)
    return des


@pytest.mark.parametrize("rk4", [True, False], ids=["rk4", "em"])
def test_a_failed_guard_is_stepped_and_the_loop_resumes(rk4, monkeypatch):
    # blocks of steps 0-254, 255-510 and 511-699; the gate is shut at the
    # start of steps 0 (the first of all), 254 (the last of a block),
    # 255 and 511 (the first of one) and 300 (mid-block), and RK4 also
    # reads it at the end of each step before those
    dt = 0.01
    grid = TimeGrid(0.0, 7.0, dt)
    closed = [0, 254, 255, 300, 511]
    refs = simcore._step_refs(_gate(dt, closed), grid, rk4=rk4)
    model, x0 = _Gated(), [1.0, 0.0]
    noise = None if rk4 else _noise(model, grid)
    name = "_rk4" if rk4 else "_em"
    stepper = getattr(simcore, name)
    taken = []

    def logged(model, x, ref, dt, n):
        if not isinstance(x[0], Sym):  # not the trace
            taken.append(round(ref[0].t / dt))
        return stepper(model, x, ref, dt, n)

    monkeypatch.setattr(simcore, name, logged)
    got = simcore._row_states(model, np.array(x0), grid, refs, noise)
    monkeypatch.setattr(simcore, name, stepper)
    assert got.tobytes() == _stepper_states(model, x0, grid, refs,
                                            noise).tobytes()
    # exactly the failed steps were taken by the stepper
    assert taken == sorted({k for j in closed
                            for k in ((j - 1, j) if rk4 else (j,)) if k >= 0})


@pytest.mark.parametrize("rk4, t", [(True, "2.99"), (False, "3")],
                         ids=["rk4", "em"])
def test_a_domain_error_mid_block_names_its_step_time(rk4, t):
    # step 300 lies mid-block; RK4 reads the gate at the end of step 299
    grid = TimeGrid(0.0, 7.0, 0.01)
    refs = simcore._step_refs(_gate(0.01, [120], [300]), grid, rk4=rk4)
    model = _Gated()
    noise = None if rk4 else _noise(model, grid)
    with pytest.raises(ModelDomainError, match=re.escape(
            f"model domain error at t={t}: the gate is broken")):
        simcore._row_states(model, np.zeros(2), grid, refs, noise)
    assert simcore._loop(model, simcore._rk4 if rk4 else simcore._em,
                         refs) is not None


@dataclasses.dataclass
class _TaggedRef(QuadrotorRef):
    """A quadrotor reference with one more field, which no body reads."""

    tag: float = 0.0


def test_a_loop_is_traced_once_per_model_stepper_and_layout(
        quad_scenario, monkeypatch):
    sc = quad_scenario
    traces = []
    real = simcore._compile

    def spy(model, stepper, refs):
        traces.append((model, stepper.__name__, type(refs[0]).__name__))
        return real(model, stepper, refs)

    monkeypatch.setattr(simcore, "_compile", spy)
    model = QuadrotorModel(sc.model.params)  # no integration has seen it
    x0 = sc.initial_state()
    short = TimeGrid(0.0, 3.0, sc.grid.dt)
    first = integrate_nominal(model, x0, sc.profile, short).states
    integrate_nominal(model, x0, sc.profile, sc.grid)
    lincov(model, x0, sc.profile, short, sc.P0)
    assert traces == [(model, "_rk4", "QuadrotorRef")]
    simcore.mc_run(model, x0, sc.profile, short, 1)
    simcore.mc_ensemble(model, x0, sc.profile, short, runs=2, base_seed=1)
    assert traces[1:] == [(model, "_em", "QuadrotorRef")]

    def tagged(t):
        ref = sc.profile(t)
        return _TaggedRef(*(getattr(ref, f.name)
                            for f in dataclasses.fields(ref)),
                          tag=np.zeros(np.shape(t)))

    again = integrate_nominal(model, x0, tagged, short).states
    assert traces[2:] == [(model, "_rk4", "_TaggedRef")]
    other = QuadrotorModel(sc.model.params)
    integrate_nominal(other, x0, sc.profile, short)
    assert traces[3:] == [(other, "_rk4", "QuadrotorRef")]
    assert again.tobytes() == first.tobytes()


def test_models_with_other_params_do_not_share_a_loop(quad_scenario):
    sc = quad_scenario
    x0 = sc.initial_state()
    grid = TimeGrid(0.0, 5.0, sc.grid.dt)
    refs = simcore._step_refs(sc.profile, grid, rk4=True)
    calm = QuadrotorModel(QuadrotorParams())
    draggy = QuadrotorModel(QuadrotorParams(C_D=1.5, K=3.0 * np.eye(3)))
    integrate_nominal(calm, x0, sc.profile, grid)
    got = integrate_nominal(draggy, x0, sc.profile, grid).states
    want = _stepper_states(draggy, x0, grid, refs)
    assert got.tobytes() == want.tobytes()
    assert got.tobytes() != _stepper_states(calm, x0, grid, refs).tobytes()
