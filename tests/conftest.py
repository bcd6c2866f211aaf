"""Shared fixtures: repository paths, the bundled scenarios and a guard
for tests that fork."""

from __future__ import annotations

import multiprocessing
import os
import signal
from pathlib import Path

import pytest

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
