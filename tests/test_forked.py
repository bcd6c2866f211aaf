"""Jobs give the same bits wherever they run.

``lincov`` hands each block of nominal rows to one job that linearizes
it and maps its steps, and ``run_validate`` writes variances.csv in
another; nominal.csv is written by the parent before it waits for the
first.  With two usable cores each job runs in a forked child beside
the parent's work; with one core it runs in-process after that work.
The oracle for LinCov on either core count is the chain of
``integrate_nominal``, ``linearize`` and ``propagate_covariance``
called directly; for the artifacts it is the one-core run.  Errors
raised in a child reach the parent with their own type and message, a
child that dies raises ChildProcessError with its exit code, and no
child outlives its call (``child_guard``).
"""

from __future__ import annotations

import multiprocessing
import os
import re
import time
from dataclasses import dataclass

import numpy as np
import pytest

from tubeplan import runner, simcore, uncertainty
from tubeplan.errors import ModelDomainError
from tubeplan.runner import run_mc_compare, run_plan, run_validate
from tubeplan.simcore import TimeGrid, integrate_nominal, linearize
from tubeplan.uncertainty import lincov, propagate_covariance

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the two-core paths fork")

VALIDATE_ARTIFACTS = ["nominal.csv", "variances.csv", "tube.jsonl",
                      "report.json"]
PLAN_ARTIFACTS = ["path.csv", "tube.jsonl", "buffers.json", "tree.jsonl",
                  "report.json"]


def _cores(monkeypatch, cpus):
    monkeypatch.setattr(simcore, "_usable_cpus", lambda: cpus)


@dataclass
class ToyRef:
    t: float


def toy_des(t):
    return ToyRef(t=np.asarray(t, dtype=float))


class ToyModel:
    """x_dot = A x + B n + sin(t) e_0, with a domain that can end at t_bad
    for the batched calls of the linearization only."""

    n_states = 2
    n_noise = 1

    def __init__(self, t_bad=np.inf):
        self.A = np.array([[-0.5, 1.0], [-1.0, -0.3]])
        self.B = np.array([[0.2], [1.0]])
        self.t_bad = t_bad

    def deriv(self, x, ref, noise):
        x = np.asarray(x, dtype=float)
        if x.ndim > 1 and np.any(ref.t >= self.t_bad):
            raise ModelDomainError("linearized past t_bad")
        out = x @ self.A.T + np.asarray(noise) @ self.B.T
        out[..., 0] += np.sin(ref.t)
        return out


def _lincov_bits(monkeypatch, cpus, model, x0, des, grid, P0):
    _cores(monkeypatch, cpus)
    nominal, cov, timings = lincov(model, x0, des, grid, P0)
    assert set(timings) == {"nominal_ms", "linearize_ms", "covariance_ms",
                            "lincov_wait_ms"}
    return nominal.states.tobytes(), cov.P.tobytes()


def test_lincov_wait_leaves_out_the_on_nominal_hook(monkeypatch, forks):
    # the hook sleeps longer than the whole job takes on either core count
    seen = []

    def hook(nominal):
        seen.append(nominal.states.shape)
        time.sleep(0.3)

    for cpus in (2, 1):
        _cores(monkeypatch, cpus)
        _, _, timings = lincov(ToyModel(), np.zeros(2), toy_des,
                               TimeGrid(0.0, 1.0, 0.01), np.eye(2),
                               on_nominal=hook)
        assert timings["lincov_wait_ms"] < 300.0
    assert seen == [(101, 2), (101, 2)]
    assert forks == ["LinCov process"]


def _chain_bits(model, x0, des, grid, P0):
    """The oracle: the three LinCov stages called one after another."""
    nominal = integrate_nominal(model, x0, des, grid)
    cov = propagate_covariance(linearize(model, nominal, des), P0)
    return nominal.states.tobytes(), cov.P.tobytes()


# grid counts around the 256-row blocks and chunks: fewer than one block,
# block edges, one past them, and an uneven tail
@pytest.mark.parametrize("count", [2, 255, 256, 257, 512, 513, 700])
def test_streamed_lincov_gives_the_bits_of_the_one_core_chain(
        count, monkeypatch, forks):
    model = ToyModel()
    grid = TimeGrid(0.0, 0.01 * (count - 1), 0.01)
    assert grid.count == count
    P0 = np.diag([0.3, 0.1])
    args = (model, np.array([1.0, -0.5]), toy_des, grid, P0)
    chain = _chain_bits(*args)
    assert _lincov_bits(monkeypatch, 2, *args) == chain
    assert _lincov_bits(monkeypatch, 1, *args) == chain
    assert forks == ["LinCov process"]


@pytest.mark.parametrize("which", ["quad_scenario", "fw_scenario"])
def test_streamed_lincov_of_each_vehicle_gives_the_one_core_bits(
        which, request, monkeypatch, forks):
    sc = request.getfixturevalue(which)
    args = (sc.model, sc.initial_state(), sc.profile, sc.grid, sc.P0)
    chain = _chain_bits(*args)
    assert _lincov_bits(monkeypatch, 2, *args) == chain
    assert _lincov_bits(monkeypatch, 1, *args) == chain
    assert forks == ["LinCov process"]


def _artifacts(directory, names):
    return {name: (directory / name).read_bytes() for name in names}


@pytest.mark.parametrize("which", ["quad_scenario", "fw_scenario"])
def test_validate_artifacts_do_not_depend_on_the_core_count(
        which, request, monkeypatch, forks, tmp_path):
    sc = request.getfixturevalue(which)
    run_validate(sc, tmp_path / "forked")
    assert forks == ["LinCov process", "CSV writer"]
    _cores(monkeypatch, 1)
    run_validate(sc, tmp_path / "one-core")
    assert len(forks) == 2
    assert _artifacts(tmp_path / "forked", VALIDATE_ARTIFACTS) == \
        _artifacts(tmp_path / "one-core", VALIDATE_ARTIFACTS)


def test_shipped_plan_does_not_depend_on_the_core_count(
        plan_scenario, monkeypatch, forks, tmp_path):
    run_plan(plan_scenario, tmp_path / "forked")
    evaluations = len(forks)
    assert evaluations >= 2 and set(forks) == {"LinCov process"}
    _cores(monkeypatch, 1)
    run_plan(plan_scenario, tmp_path / "one-core")
    assert len(forks) == evaluations
    assert _artifacts(tmp_path / "forked", PLAN_ARTIFACTS) == \
        _artifacts(tmp_path / "one-core", PLAN_ARTIFACTS)


def test_domain_error_in_the_lincov_child_names_its_time(forks):
    # the nominal never calls deriv in batches, so only the child fails,
    # in the second of four blocks, while the parent integrates on
    model = ToyModel(t_bad=3.0)
    grid = TimeGrid(0.0, 10.0, 0.01)
    with pytest.raises(ModelDomainError, match="linearized past") as err:
        lincov(model, np.zeros(2), toy_des, grid, np.zeros((2, 2)))
    t = float(re.search(r"at t=(\S+):", str(err.value)).group(1))
    assert t == pytest.approx(3.0, abs=1e-9)
    assert forks == ["LinCov process"]


def test_a_lincov_child_that_dies_mid_stream_raises_with_its_exit_code(
        monkeypatch, forks):
    rows = uncertainty._linearize_rows

    def dying(model, des, times, states, A, B, start, stop):
        if start >= 256:
            os._exit(5)
        rows(model, des, times, states, A, B, start, stop)

    monkeypatch.setattr(uncertainty, "_linearize_rows", dying)
    with pytest.raises(ChildProcessError,
                       match="LinCov process exited with code 5"):
        lincov(ToyModel(), np.zeros(2), toy_des, TimeGrid(0.0, 10.0, 0.01),
               np.zeros((2, 2)))
    assert forks == ["LinCov process"]


def _failing_csv(monkeypatch, name):
    """Make the write of the CSV file ``name`` raise, as a full disk would."""
    write = runner._write_csv

    def failing(path, *args):
        if path.name == name:
            raise OSError(f"{path}: disk full")
        write(path, *args)

    monkeypatch.setattr(runner, "_write_csv", failing)


def test_a_csv_writer_that_raises_fails_the_run_before_its_report(
        quad_scenario, monkeypatch, forks, tmp_path):
    _failing_csv(monkeypatch, "variances.csv")
    with pytest.raises(OSError, match="disk full"):
        run_validate(quad_scenario, tmp_path)
    assert forks == ["LinCov process", "CSV writer"]
    assert (tmp_path / "tube.jsonl").exists()
    assert not (tmp_path / "report.json").exists()


def test_a_nominal_csv_write_that_raises_ends_the_lincov_child(
        quad_scenario, monkeypatch, forks, tmp_path):
    # the write runs in the parent while the child still works; the
    # child is killed and joined (child_guard), and nothing follows
    _failing_csv(monkeypatch, "nominal.csv")
    with pytest.raises(OSError, match="disk full"):
        run_validate(quad_scenario, tmp_path)
    assert forks == ["LinCov process"]
    assert not (tmp_path / "tube.jsonl").exists()
    assert not (tmp_path / "report.json").exists()


def test_on_two_cores_nominal_csv_is_written_before_the_lincov_wait(
        quad_scenario, monkeypatch, forks, tmp_path):
    waits = []
    recv = simcore._Child.recv

    def logged(child):
        waits.append((child.what, (tmp_path / "nominal.csv").exists()))
        return recv(child)

    monkeypatch.setattr(simcore._Child, "recv", logged)
    report = run_validate(quad_scenario, tmp_path)
    assert waits == [("LinCov process", True), ("CSV writer", True)]
    assert report.timings_ms["nominal_csv_ms"] > 0.0


def test_on_one_core_each_job_runs_after_the_work_it_could_overlap(
        quad_scenario, monkeypatch, tmp_path):
    # each entry is logged when its call returns
    log = []

    def logged(name, fn):
        def call(*args):
            out = fn(*args)
            log.append(name(args))
            return out
        return call

    _cores(monkeypatch, 1)
    monkeypatch.setattr(uncertainty, "integrate_nominal", logged(
        lambda args: "nominal", integrate_nominal))
    monkeypatch.setattr(uncertainty, "_linearize_rows", logged(
        lambda args: "linearize", uncertainty._linearize_rows))
    monkeypatch.setattr(runner, "_write_tube", logged(
        lambda args: args[0].name, runner._write_tube))
    monkeypatch.setattr(runner, "_write_csv", logged(
        lambda args: args[0].name, runner._write_csv))
    run_validate(quad_scenario, tmp_path)
    assert log[:2] == ["nominal", "nominal.csv"]
    assert set(log[2:-2]) == {"linearize"}
    assert log[-2:] == ["tube.jsonl", "variances.csv"]


def test_mc_compare_forks_the_noise_process_before_lincov(
        quad_scenario, tmp_path, forks):
    # the first pass's noise child draws while LinCov runs
    run_mc_compare(quad_scenario, tmp_path, runs=100)
    assert forks == ["noise process", "LinCov process"]


def test_a_lincov_error_in_mc_compare_ends_the_noise_child(
        quad_scenario, tmp_path, monkeypatch, forks):
    def failing_scan(*args):
        raise FloatingPointError("the scan failed")

    monkeypatch.setattr(uncertainty, "_scan", failing_scan)
    # noise chunks of 5 steps: the noise child still waits to refill a
    # buffer when LinCov fails, so it must be ended, not just joined
    monkeypatch.setattr(simcore, "_NOISE_BYTES", 8 * 3 * 100 * 10)
    with pytest.raises(FloatingPointError, match="the scan failed"):
        run_mc_compare(quad_scenario, tmp_path, runs=100)
    assert forks == ["noise process", "LinCov process"]
    assert multiprocessing.active_children() == []
    assert not (tmp_path / "report.json").exists()
