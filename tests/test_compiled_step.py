"""The compiled row step has the bits of the stepper it is traced from.

``simcore._compile`` runs ``_rk4`` or ``_em`` once on a model body with
traced floats (``vehicles.elementwise.Sym``) and compiles the tape into
one straight-line function.  The oracle everywhere here is the stepper
itself on Python floats: a row step through ``simcore._row_steps``
(the compiled step, or the stepper again where the compiled step
raises) must return its bits or raise its exact error.
"""

from __future__ import annotations

import dataclasses
import math
import struct

import numpy as np
import pytest

from tubeplan import simcore
from tubeplan.errors import ModelDomainError
from tubeplan.simcore import TimeGrid, integrate_nominal
from tubeplan.uncertainty import lincov
from tubeplan.vehicles.elementwise import Tape, math_for, split

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
    step = simcore._compile(model, fn, refs)
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
            assert ("value", _bits(step(x, *rows, noise, dt))) == want
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
            states = simcore._row_steps(
                model, list(x), TimeGrid(0.0, dt, dt), sampled,
                None if fn is simcore._rk4 else [noise])
            next(states)
            return next(states)

        assert _outcome(stepped) == _outcome(oracle)


def test_the_tracer_folds_no_constant_and_keeps_operand_order():
    tape = Tape()
    a, b = tape.inputs("x", 2)
    step = tape.function(["x"], [a + 0.0, 0.0 * b, a - 0.0, a * 1.0,
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
    step = tape.function(["x"], [a * math.inf, a + nan, -math.inf + a])
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
def compiles(monkeypatch):
    """The results of simcore._compile, as they are returned."""
    seen = []
    real = simcore._compile

    def spy(*args):
        seen.append(real(*args))
        return seen[-1]

    monkeypatch.setattr(simcore, "_compile", spy)
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
        compiles, child_guard):
    # the messages and times are those of the uncompiled stepper
    monkeypatch.setattr(simcore, "_usable_cpus", lambda: cpus)
    sc = request.getfixturevalue(fixture)
    grid = TimeGrid(sc.grid.t0, sc.grid.t0 + 5.0, sc.grid.dt)
    x0 = np.array(sc.initial_state())
    for name in label.split():
        x0[sc.model.state_labels.index(name)] = value
    with pytest.raises(ModelDomainError) as compiled:
        lincov(sc.model, x0, sc.profile, grid, sc.P0)
    assert compiles and compiles[-1] is not None
    monkeypatch.setattr(simcore, "_compile", lambda *args: None)
    with pytest.raises(ModelDomainError) as uncompiled:
        lincov(sc.model, x0, sc.profile, grid, sc.P0)
    assert str(compiled.value) == str(uncompiled.value) == message
