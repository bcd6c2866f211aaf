"""Shared fixtures: repository paths, the bundled scenarios, a guard
for tests that fork and a log of the jobs that fork."""

from __future__ import annotations

import multiprocessing
import os
import signal
from pathlib import Path

import pytest

from tubeplan import simcore, uncertainty
from tubeplan.scenario import load_scenario

REPO = Path(__file__).resolve().parents[1]
SCENARIOS = REPO / "scenarios"


@pytest.fixture(scope="session")
def repo_root():
    return REPO


@pytest.fixture(scope="session")
def quad_scenario_path():
    return SCENARIOS / "quadrotor_ascent_cruise_descent.json"


@pytest.fixture(scope="session")
def fw_scenario_path():
    return SCENARIOS / "fixedwing_lateral_sinusoid.json"


@pytest.fixture(scope="session")
def plan_scenario_path():
    return SCENARIOS / "quadrotor_three_obstacles.json"


@pytest.fixture(scope="session")
def quad_scenario(quad_scenario_path):
    return load_scenario(quad_scenario_path)


@pytest.fixture(scope="session")
def fw_scenario(fw_scenario_path):
    return load_scenario(fw_scenario_path)


@pytest.fixture(scope="session")
def plan_scenario(plan_scenario_path):
    return load_scenario(plan_scenario_path)


@pytest.fixture
def child_guard():
    """Fail a test that runs past 60 s or leaves a child process behind.

    SIGALRM raises TimeoutError in the test after 60 s, so a parent that
    waits forever on a child fails instead of hanging the suite.  Once
    the test is done, a child that still runs, or that has exited but
    was never joined, fails it; ``os.waitpid`` sees both before
    ``multiprocessing.active_children`` would reap an exited one.
    """
    def expire(signum, frame):
        raise TimeoutError("still running after 60 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, 60)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    try:
        left = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:  # no child at all
        left = None
    assert left is None, f"a child process was left unjoined: {left}"
    assert multiprocessing.active_children() == []


@pytest.fixture
def forks(monkeypatch, child_guard):
    """Take the two-core paths under child_guard; the list gets the
    ``what`` of each job that forks, and nothing for a job that runs
    in-process (a test may set one core after this)."""
    started = []
    fork = simcore._forked

    def counting(ctx, what, *args):
        if ctx is not None:
            started.append(what)
        return fork(ctx, what, *args)

    monkeypatch.setattr(simcore, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(simcore, "_forked", counting)
    monkeypatch.setattr(uncertainty, "_forked", counting)
    return started
