"""Integration, linearization and Monte Carlo machinery.

Toy models with closed-form solutions serve as oracles: a scalar
Ornstein-Uhlenbeck channel (stationary variance b^2/(2a)), a linear
system whose Jacobians are known exactly, and a rotation with an exact
solution for order-of-accuracy checks.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import multiprocessing
import os
import re
import time
from dataclasses import dataclass

import numpy as np
import pytest

from tubeplan import simcore
from tubeplan.errors import ModelDomainError
from tubeplan.simcore import (
    TimeGrid,
    Trajectory,
    integrate_nominal,
    linearize,
    mc_ensemble,
    mc_run,
)


@dataclass
class ToyRef:
    t: float


def toy_des(t):
    return ToyRef(t=np.asarray(t, dtype=float))


class LinearModel:
    """x_dot = A x + B n with known constant Jacobians."""

    name = "linear"

    def __init__(self, A, B):
        self.A = np.asarray(A, dtype=float)
        self.B = np.asarray(B, dtype=float)
        self.n_states = self.A.shape[0]
        self.n_noise = self.B.shape[1]

    def deriv(self, x, ref, noise):
        x = np.asarray(x, dtype=float)
        noise = np.asarray(noise, dtype=float)
        return x @ self.A.T + noise @ self.B.T


class SpiralModel:
    """x_dot = [[0, -w], [w, 0]] x: exact solution is a rotation."""

    name = "spiral"
    n_states = 2
    n_noise = 1

    def __init__(self, w=1.0):
        self.w = float(w)

    def deriv(self, x, ref, noise):
        x = np.asarray(x, dtype=float)
        out = np.empty_like(x)
        out[..., 0] = -self.w * x[..., 1]
        out[..., 1] = self.w * x[..., 0]
        return out


class GuardedModel(LinearModel):
    """Linear model that rejects states with x[0] > limit."""

    def __init__(self, A, B, limit):
        super().__init__(A, B)
        self.limit = float(limit)

    def deriv(self, x, ref, noise):
        x = np.asarray(x, dtype=float)
        if np.any(x[..., 0] > self.limit):
            raise ModelDomainError("state left the valid domain")
        return super().deriv(x, ref, noise)


# --------------------------------------------------------------------------
# time grid


def test_time_grid_count_and_times():
    grid = TimeGrid(0.0, 1.0, 0.1)
    assert grid.count == 11
    times = grid.times()
    assert times[0] == 0.0
    assert times[-1] == pytest.approx(1.0)
    assert np.allclose(np.diff(times), 0.1)


def test_time_grid_validation():
    with pytest.raises(ValueError):
        TimeGrid(0.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        TimeGrid(1.0, 1.0, 0.1)
    with pytest.raises(ValueError):
        TimeGrid(2.0, 1.0, 0.1)


def test_trajectory_checks_grid_length():
    grid = TimeGrid(0.0, 1.0, 0.5)
    with pytest.raises(ValueError):
        Trajectory(grid=grid, states=np.zeros((2, 3)))


# --------------------------------------------------------------------------
# nominal integration


def test_rk4_reproduces_rotation_to_fourth_order():
    model = SpiralModel(w=2.0)
    x0 = np.array([1.0, 0.0])

    def max_err(dt):
        grid = TimeGrid(0.0, 2.0, dt)
        traj = integrate_nominal(model, x0, toy_des, grid)
        t = grid.times()
        exact = np.column_stack([np.cos(2.0 * t), np.sin(2.0 * t)])
        return float(np.max(np.linalg.norm(traj.states - exact, axis=1)))

    e1, e2 = max_err(0.02), max_err(0.01)
    assert e1 / e2 == pytest.approx(16.0, rel=0.15)
    assert e2 < 1e-7


@pytest.mark.parametrize("integrate", [
    integrate_nominal,
    functools.partial(mc_run, seed=0),
    functools.partial(mc_ensemble, runs=2, base_seed=0),
], ids=["integrate_nominal", "mc_run", "mc_ensemble"])
def test_integration_wraps_domain_errors_with_time(integrate):
    # x_dot = x + n leaves x <= 5 well inside the 5 s grid
    model = GuardedModel([[1.0]], [[1.0]], limit=5.0)
    grid = TimeGrid(0.0, 5.0, 0.01)
    with pytest.raises(ModelDomainError, match="t="):
        integrate(model, np.array([1.0]), toy_des, grid)


def test_reference_is_sampled_once_per_distinct_time():
    model = LinearModel([[-1.0]], [[1.0]])
    grid = TimeGrid(0.0, 1.0, 0.01)
    calls = []

    def des(t):
        calls.append(np.array(t, dtype=float))
        return toy_des(t)

    # RK4 samples its step starts, midpoints and ends in one call each
    integrate_nominal(model, np.zeros(1), des, grid)
    dt = grid.dt
    steps = [grid.t0 + k * dt for k in range(grid.count - 1)]
    assert len(calls) <= 3
    assert {t for c in calls for t in c.ravel().tolist()} == {
        s for t in steps for s in (t, t + 0.5 * dt, t + dt)}

    # Euler-Maruyama samples the step starts once; the ensemble's
    # reference path and every pass share that one sample
    small = TimeGrid(0.0, 0.2, 0.02)
    for run in (functools.partial(mc_run, seed=3),
                functools.partial(mc_ensemble, runs=simcore._PASS + 2,
                                  base_seed=3)):
        calls.clear()
        run(model, np.zeros(1), des, small)
        assert len(calls) == 1
        assert calls[0].tolist() == [0.02 * k for k in range(10)]


def test_integration_validates_shapes():
    model = LinearModel(np.zeros((2, 2)), np.eye(2))
    grid = TimeGrid(0.0, 1.0, 0.1)
    with pytest.raises(ValueError):
        integrate_nominal(model, np.zeros(3), toy_des, grid)


def _array_steps(model, x0, des, grid, noise=None):
    """The row stepper in (n,) array arithmetic: classic RK4 without
    noise, Euler-Maruyama on the (count - 1, m) noise samples with it.
    Each step reads row k of the reference sampled at the step starts,
    and for RK4 at t + dt/2 and t + dt."""
    dt = grid.dt
    t = grid.times()[:-1]
    sets = [des(t)] if noise is not None else [
        des(t), des(t + 0.5 * dt), des(t + dt)]

    def ref(sample, k):
        return type(sample)(*(getattr(sample, f.name)[k]
                              for f in dataclasses.fields(sample)))

    zero = np.zeros(model.n_noise)
    x = np.asarray(x0, dtype=float)
    states = [x]
    for k in range(grid.count - 1):
        if noise is not None:
            x = x + dt * model.deriv(x, ref(sets[0], k), noise[k])
        else:
            r1, rh, r2 = (ref(sample, k) for sample in sets)
            k1 = model.deriv(x, r1, zero)
            k2 = model.deriv(x + 0.5 * dt * k1, rh, zero)
            k3 = model.deriv(x + 0.5 * dt * k2, rh, zero)
            k4 = model.deriv(x + dt * k3, r2, zero)
            x = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        states.append(x)
    return np.array(states)


@pytest.mark.parametrize("fixture", ["quad_scenario", "fw_scenario"])
def test_row_stepping_has_the_bits_of_array_stepping(fixture, request):
    # the stepper steps a row as a list of floats; its stage sums must do
    # the array expressions' operations in their order
    sc = request.getfixturevalue(fixture)
    # past the quadrotor's climb-to-cruise corner at 3 s: before it the
    # stage sums are exact, so any order would give the same bits
    grid = TimeGrid(sc.grid.t0, sc.grid.t0 + 5.0, sc.grid.dt)
    x0 = sc.initial_state()
    nominal = integrate_nominal(sc.model, x0, sc.profile, grid)
    assert np.array_equal(nominal.states,
                          _array_steps(sc.model, x0, sc.profile, grid))
    seed, m = 5, sc.model.n_noise
    noise = np.random.Generator(np.random.Philox(seed)).standard_normal(
        (grid.count - 1, m)) / np.sqrt(grid.dt)
    run = mc_run(sc.model, x0, sc.profile, grid, seed=seed)
    assert np.array_equal(run.states,
                          _array_steps(sc.model, x0, sc.profile, grid, noise))


@pytest.mark.parametrize("run", [
    lambda sc, x0: integrate_nominal(sc.model, x0, sc.profile, sc.grid),
    lambda sc, x0: mc_run(sc.model, x0, sc.profile, sc.grid, seed=1),
    lambda sc, x0: mc_ensemble(sc.model, x0, sc.profile, sc.grid, runs=2,
                               base_seed=1),
], ids=["integrate_nominal", "mc_run", "mc_ensemble"])
def test_a_wrong_length_initial_state_is_named(run, quad_scenario):
    x0 = quad_scenario.initial_state()[:-1]
    with pytest.raises(ValueError, match=re.escape("x0 must have shape (9,")):
        run(quad_scenario, x0)


# --------------------------------------------------------------------------
# linearization


def test_linearize_recovers_exact_jacobians_of_a_linear_system():
    A = np.array([[0.0, 1.0, 0.0], [-2.0, -0.4, 0.3], [0.1, 0.0, -1.0]])
    B = np.array([[0.0, 0.0], [1.0, 0.5], [0.0, 2.0]])
    model = LinearModel(A, B)
    grid = TimeGrid(0.0, 0.5, 0.1)
    states = np.linspace(-1.0, 1.0, grid.count * 3).reshape(grid.count, 3)
    nominal = Trajectory(grid=grid, states=states)
    lin = linearize(model, nominal, toy_des)
    assert lin.A.shape == (grid.count, 3, 3)
    assert lin.B_n.shape == (grid.count, 3, 2)
    # central differences of a linear map are exact to round-off
    for k in range(grid.count):
        assert np.allclose(lin.A[k], A, atol=1e-9)
        assert np.allclose(lin.B_n[k], B, atol=1e-9)


def test_linearize_covers_more_grid_points_than_one_block():
    # spans several internal batching blocks and an uneven tail
    A = np.array([[-0.3]])
    B = np.array([[1.0]])
    model = LinearModel(A, B)
    grid = TimeGrid(0.0, 6.0, 0.01)
    states = np.ones((grid.count, 1))
    nominal = Trajectory(grid=grid, states=states)
    lin = linearize(model, nominal, toy_des)
    assert np.allclose(lin.A[:, 0, 0], -0.3, atol=1e-9)
    assert np.allclose(lin.B_n[:, 0, 0], 1.0, atol=1e-9)


def test_linearize_domain_error_names_the_failing_time():
    model = GuardedModel([[0.0]], [[1.0]], limit=2.0)
    grid = TimeGrid(0.0, 1.0, 0.1)
    states = np.linspace(0.0, 3.0, grid.count)[:, None]
    nominal = Trajectory(grid=grid, states=states)
    with pytest.raises(ModelDomainError, match="t="):
        linearize(model, nominal, toy_des)


def test_quadrotor_noise_enters_only_gust_rows():
    from tubeplan.vehicles import QuadrotorModel, ascent_cruise_descent

    model = QuadrotorModel()
    prof = ascent_cruise_descent(
        (0.0, 0.0), 0.0, start_altitude=1.0, cruise_altitude=5.0,
        cruise_distance=20.0, final_altitude=2.0, climb_rate=2.0,
        cruise_speed=5.0, descent_rate=2.0)
    grid = TimeGrid(0.0, 2.0, 0.01)
    x0 = np.zeros(9)
    x0[0:3] = prof(0.0).r
    x0[3:6] = prof(0.0).rdot
    nominal = integrate_nominal(model, x0, prof, grid)
    lin = linearize(model, nominal, prof)
    assert np.allclose(lin.B_n[:, 0:6, :], 0.0, atol=1e-12)
    for k in range(0, grid.count, 37):
        assert np.allclose(lin.B_n[k, 6:9, :], np.eye(3), atol=1e-9)


# --------------------------------------------------------------------------
# Monte Carlo


def test_mc_run_is_seed_deterministic():
    model = LinearModel([[-1.0]], [[1.0]])
    grid = TimeGrid(0.0, 1.0, 0.01)
    a = mc_run(model, np.zeros(1), toy_des, grid, seed=42)
    b = mc_run(model, np.zeros(1), toy_des, grid, seed=42)
    c = mc_run(model, np.zeros(1), toy_des, grid, seed=43)
    assert np.array_equal(a.states, b.states)
    assert not np.array_equal(a.states, c.states)


def test_ensemble_mean_is_the_average_of_individual_runs():
    model = LinearModel([[-0.5, 0.1], [0.0, -1.0]], [[1.0], [0.3]])
    grid = TimeGrid(0.0, 0.5, 0.05)
    x0 = np.array([0.2, -0.1])
    runs = 7
    mean, cov = mc_ensemble(model, x0, toy_des, grid, runs=runs,
                            base_seed=100)
    paths = np.stack([
        mc_run(model, x0, toy_des, grid, seed=100 + i).states
        for i in range(runs)])
    assert np.allclose(mean.states, paths.mean(axis=0), atol=1e-12)
    sample_cov = np.einsum("rki,rkj->kij",
                           paths - paths.mean(axis=0),
                           paths - paths.mean(axis=0)) / (runs - 1)
    assert np.allclose(cov.P, sample_cov, atol=1e-12)


def test_ensemble_is_bit_reproducible_across_chunk_boundaries():
    model = LinearModel([[-1.0]], [[1.0]])
    # one run more than a pass holds, on a grid 20 steps longer than one
    # noise chunk of a full pass
    runs = simcore._PASS + 1
    chunk = simcore._NOISE_BYTES // (8 * simcore._PASS)
    grid = TimeGrid(0.0, 0.02 * (chunk + 20), 0.02)
    x0 = np.zeros(1)
    idx = [0, chunk - 1, chunk, chunk + 1, grid.count - 1]
    m1, c1, rec = mc_ensemble(model, x0, toy_des, grid, runs=runs,
                              base_seed=9, record_indices=idx)
    m2, c2 = mc_ensemble(model, x0, toy_des, grid, runs=runs, base_seed=9)
    assert np.array_equal(m1.states, m2.states)
    assert np.array_equal(c1.P, c2.P)
    for i in (0, runs - 2, runs - 1):
        path = mc_run(model, x0, toy_des, grid, seed=9 + i).states
        assert np.array_equal(rec[i], path[idx])


def _scenario_setup(scenario):
    return scenario.model, scenario.profile, scenario.initial_state()


@pytest.mark.parametrize("which", ["quad_scenario", "fw_scenario"])
def test_ensemble_runs_do_not_depend_on_pass_or_noise_chunk(
        which, request, monkeypatch):
    model, profile, x0 = _scenario_setup(request.getfixturevalue(which))
    grid = TimeGrid(0.0, 0.3, 0.01)
    idx = list(range(grid.count))
    runs = 8
    one_pass = mc_ensemble(model, x0, profile, grid, runs=runs,
                           base_seed=40, record_indices=idx)
    # passes of 3, 3 and 2 runs, drawing noise 7, 7 and 10 steps at a time
    monkeypatch.setattr(simcore, "_PASS", 3)
    monkeypatch.setattr(simcore, "_NOISE_BYTES", 8 * model.n_noise * 3 * 7)
    mean, cov, rec = mc_ensemble(model, x0, profile, grid, runs=runs,
                                 base_seed=40, record_indices=idx)
    assert np.array_equal(rec, one_pass[2])
    # only the cross-run reduction order differs
    assert np.allclose(mean.states, one_pass[0].states, rtol=1e-14, atol=0)
    assert np.allclose(cov.P, one_pass[1].P, rtol=1e-12, atol=1e-20)
    for i in range(runs):
        path = mc_run(model, x0, profile, grid, seed=40 + i).states
        if model.name == "quadrotor":
            assert np.array_equal(rec[i], path)
        else:
            # a row steps in Python floats, whose math.sin/cos may differ
            # from numpy's by an ulp, so the fixed-wing agrees to rounding
            assert np.allclose(rec[i], path, rtol=1e-12, atol=1e-12)


_needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the noise process is forked")


@_needs_fork
@pytest.mark.parametrize("which", ["quad_scenario", "fw_scenario"])
def test_forked_and_in_process_noise_give_the_same_bits(
        which, request, monkeypatch, forks):
    model, profile, x0 = _scenario_setup(request.getfixturevalue(which))
    grid = TimeGrid(0.0, 0.3, 0.01)
    idx = list(range(grid.count))
    # passes of 3, 3 and 2 runs; in-process noise chunks of 7, 7 and 10
    # steps, forked chunks of 3, 3 and 5 steps in each of two buffers
    monkeypatch.setattr(simcore, "_PASS", 3)
    monkeypatch.setattr(simcore, "_NOISE_BYTES", 8 * model.n_noise * 3 * 7)
    bits = {}
    for cpus in (2, 1):
        monkeypatch.setattr(simcore, "_usable_cpus", lambda c=cpus: c)
        mean, cov, rec = mc_ensemble(model, x0, profile, grid, runs=8,
                                     base_seed=40, record_indices=idx)
        bits[cpus] = (mean.states.tobytes(), cov.P.tobytes(), rec.tobytes())
    # one child per pass, on the two-core path only
    assert forks == ["noise process"] * 3
    assert bits[2] == bits[1]


@_needs_fork
def test_domain_error_mid_ensemble_names_its_time_and_ends_the_child(
        monkeypatch, forks):
    # the noise-free reference stays at 0; noisy runs cross 0.5 early in
    # a 5 s grid, while the child still has chunks of 5 steps to draw
    model = GuardedModel([[-1.0]], [[1.0]], limit=0.5)
    grid = TimeGrid(0.0, 5.0, 0.01)
    monkeypatch.setattr(simcore, "_NOISE_BYTES", 8 * 4 * 10)
    with pytest.raises(ModelDomainError) as err:
        mc_ensemble(model, np.zeros(1), toy_des, grid, runs=4, base_seed=0)
    t = float(re.search(r"at t=(\S+):", str(err.value)).group(1))
    assert 0.0 < t < 4.0
    assert forks == ["noise process"]
    assert multiprocessing.active_children() == []


@_needs_fork
@pytest.mark.parametrize("draws_before_death", [0, 2])
def test_a_noise_process_that_dies_makes_the_ensemble_raise(
        draws_before_death, monkeypatch, forks):
    stream = simcore._noise_stream

    def dying_stream(seed, dt):
        (normals, scale), calls = stream(seed, dt), itertools.count()

        def dying(*args, **kwargs):
            if next(calls) == draws_before_death:
                os._exit(3)
            return normals(*args, **kwargs)
        return dying, scale

    monkeypatch.setattr(simcore, "_noise_stream", dying_stream)
    monkeypatch.setattr(simcore, "_NOISE_BYTES", 8 * 4 * 10)
    model = LinearModel([[-1.0]], [[1.0]])
    with pytest.raises(ChildProcessError,
                       match="noise process exited with code 3"):
        mc_ensemble(model, np.zeros(1), toy_des, TimeGrid(0.0, 1.0, 0.01),
                    runs=4, base_seed=0)
    assert forks == ["noise process"]
    assert multiprocessing.active_children() == []


@_needs_fork
def test_an_error_in_the_noise_process_is_raised_in_the_ensemble(
        monkeypatch, forks):
    def failing_stream(seed, dt):
        raise ArithmeticError(f"no stream for seed {seed}")

    monkeypatch.setattr(simcore, "_noise_stream", failing_stream)
    model = LinearModel([[-1.0]], [[1.0]])
    with pytest.raises(ArithmeticError, match="no stream for seed 7"):
        mc_ensemble(model, np.zeros(1), toy_des, TimeGrid(0.0, 1.0, 0.01),
                    runs=4, base_seed=7)
    assert forks == ["noise process"]


@_needs_fork
def test_the_first_noise_process_starts_before_the_reference_path(
        forks):
    # the fork and the model calls land in one list, in the order made
    class Logged(LinearModel):
        def deriv(self, x, ref, noise):
            forks.append("deriv")
            return super().deriv(x, ref, noise)

    mc_ensemble(Logged([[-1.0]], [[1.0]]), np.zeros(1), toy_des,
                TimeGrid(0.0, 0.1, 0.01), runs=4, base_seed=0)
    assert forks[0] == "noise process"
    # one trace of the row step (which refuses this numpy body), the
    # reference path, then the pass
    assert forks.count("deriv") == 1 + 2 * 10


def _draw(seed, m, dt, steps):
    """Run ``seed``'s first ``steps`` noise samples, drawn in one call."""
    normals, scale = simcore._noise_stream(seed, dt)
    return normals((steps, m)) / scale


@_needs_fork
def test_the_noise_child_refills_a_buffer_only_once_it_is_released(forks):
    seeds, sizes = range(5, 7), [3, 3, 3]
    whole = [_draw(seed, 1, 0.01, 9) for seed in seeds]

    def chunk(j):  # (steps, m, runs), as the job fills a buffer
        return np.stack([w[3 * j:3 * j + 3] for w in whole], axis=-1)

    bufs = simcore._shared((2, 3, 1, len(seeds)))
    with simcore._forked(simcore._fork_context(), "noise process",
                         simcore._noise_chunks, bufs, seeds, sizes,
                         0.01) as job:
        assert [job.recv(), job.recv()] == [0, 1]
        time.sleep(0.2)  # time for a child that did not wait to refill
        assert np.array_equal(bufs[0], chunk(0))
        assert np.array_equal(bufs[1], chunk(1))
        job.send(0)
        assert job.recv() == 2
        assert np.array_equal(bufs[0], chunk(2))
    assert forks == ["noise process"]


@pytest.mark.parametrize("cpus", [1, 2])
def test_each_pass_noise_sample_is_its_runs_own_stream(
        cpus, request, monkeypatch):
    if cpus == 2:
        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("the noise process is forked")
        forks = request.getfixturevalue("forks")
    monkeypatch.setattr(simcore, "_usable_cpus", lambda: cpus)
    # blocks of 4 runs, so a 10-run pass ends on a block of 2; chunks of
    # 7 steps in one buffer or 3 in each of two, so that 17 steps end on
    # a short chunk; then a second pass of 3 runs in one chunk
    monkeypatch.setattr(simcore, "_FILL_RUNS", 4)
    m, dt, steps = 3, 0.01, 17
    monkeypatch.setattr(simcore, "_NOISE_BYTES", 8 * m * 10 * 7)
    for seeds in (range(20, 30), range(30, 33)):
        timings = {"noise_wait_ms": 0.0}
        with simcore._pass_noise(seeds, steps, m, dt, timings) as noise:
            got = np.stack([sample.copy() for sample in noise])
        want = np.stack([_draw(seed, m, dt, steps) for seed in seeds], axis=1)
        assert np.array_equal(got, want)
        assert timings["noise_wait_ms"] > 0.0
    if cpus == 2:
        assert forks == ["noise process"] * 2


def test_chunked_noise_draws_equal_one_draw():
    whole = _draw(5, 3, 0.01, 100)
    normals, scale = simcore._noise_stream(5, 0.01)
    chunks = [normals((1, 3)), normals((32, 3)), normals((0, 3))]
    for k in (60, 7):  # writing into an array continues the same stream
        chunks.append(np.empty((k, 3)))
        normals(out=chunks[-1])
    assert np.array_equal(np.concatenate(chunks) / scale, whole)
    rng = np.random.Generator(np.random.Philox(5))
    assert np.array_equal(whole, rng.standard_normal((100, 3)) / 0.1)


def test_recorded_indices_must_be_distinct_grid_indices():
    model = LinearModel([[-1.0]], [[1.0]])
    grid = TimeGrid(0.0, 0.3, 0.03)
    for idx in ([0, 4, 4], [0, grid.count]):
        with pytest.raises(ValueError):
            mc_ensemble(model, np.zeros(1), toy_des, grid, runs=3,
                        base_seed=1, record_indices=idx)


def test_recorded_states_match_individual_runs():
    model = LinearModel([[-1.0]], [[1.0]])
    grid = TimeGrid(0.0, 0.3, 0.03)
    x0 = np.zeros(1)
    mean, cov, rec = mc_ensemble(model, x0, toy_des, grid, runs=5,
                                 base_seed=77, record_indices=[0, 4, 10])
    assert rec.shape == (5, 3, 1)
    for i in range(5):
        path = mc_run(model, x0, toy_des, grid, seed=77 + i).states
        assert np.array_equal(rec[i], path[[0, 4, 10]])


def test_ensemble_requires_two_runs():
    model = LinearModel([[-1.0]], [[1.0]])
    grid = TimeGrid(0.0, 0.1, 0.05)
    with pytest.raises(ValueError):
        mc_ensemble(model, np.zeros(1), toy_des, grid, runs=1, base_seed=0)


def test_ou_variance_approaches_stationary_value():
    # x_dot = -a x + b n: Var(t) -> b^2/(2a); Euler bias is O(a dt)
    a, b = 2.0, 1.5
    model = LinearModel([[-a]], [[b]])
    grid = TimeGrid(0.0, 5.0, 0.005)
    mean, cov = mc_ensemble(model, np.zeros(1), toy_des, grid, runs=4000,
                            base_seed=2024)
    target = b * b / (2.0 * a)
    tail = cov.P[-200:, 0, 0]
    assert float(tail.mean()) == pytest.approx(target, rel=0.05)


def test_ensemble_mean_converges_toward_the_noise_free_path():
    """The ensemble mean approaches the zero-noise path as runs grow.

    The comparison path uses the same Euler stepper as the ensemble, so
    the gap is pure Monte Carlo error and must shrink; the stepper
    difference to RK4 stays separately small.
    """
    a, b = 1.0, 1.0
    model = LinearModel([[-a]], [[b]])
    grid = TimeGrid(0.0, 1.0, 0.01)
    x0 = np.array([1.0])

    # zero-noise Euler reference
    euler = np.empty(grid.count)
    euler[0] = 1.0
    for k in range(grid.count - 1):
        euler[k + 1] = euler[k] * (1.0 - a * grid.dt)

    gaps = []
    for runs in (64, 512, 4096):
        mean, _ = mc_ensemble(model, x0, toy_des, grid, runs=runs,
                              base_seed=5)
        gaps.append(float(np.max(np.abs(mean.states[:, 0] - euler))))
    assert gaps[0] > gaps[1] > gaps[2]
    # and the two integrators agree closely on the nominal path
    rk4 = integrate_nominal(model, x0, toy_des, grid).states[:, 0]
    assert np.max(np.abs(rk4 - euler)) < a * a * grid.dt


def test_zero_noise_gain_collapses_the_ensemble():
    """With B = 0 every run equals the deterministic Euler path."""
    model = LinearModel([[-1.0, 0.2], [0.0, -0.5]],
                        np.zeros((2, 1)))
    grid = TimeGrid(0.0, 0.5, 0.05)
    x0 = np.array([1.0, -1.0])
    mean, cov = mc_ensemble(model, x0, toy_des, grid, runs=32, base_seed=1)
    assert np.allclose(cov.P, 0.0, atol=1e-30)
    euler = np.empty((grid.count, 2))
    euler[0] = x0
    x = x0.copy()
    A = np.array([[-1.0, 0.2], [0.0, -0.5]])
    for k in range(grid.count - 1):
        x = x + grid.dt * (A @ x)
        euler[k + 1] = x
    assert np.allclose(mean.states, euler, atol=1e-14)
