"""Command-line interface: exit codes, artifact sets, reproducibility,
and an independent re-check of the reported verdicts.
"""

from __future__ import annotations

import collections
import dataclasses
import json
import math
import multiprocessing
import os
import subprocess
import sys

import numpy as np
import pytest

from tubeplan import planner, uncertainty
from tubeplan.cli import main
from tubeplan.errors import PlanningError, ScenarioError
from tubeplan.geometry import CuboidObstacle, solve_qp, sphere_prefilter
from tubeplan.planner import PlannerConfig, PlanTree
from tubeplan.runner import (RunReport, _write_csv, _write_tree, _write_tube,
                             run_plan, run_validate)
from tubeplan.scenario import load_scenario
from tubeplan.uncertainty import ConfidenceEllipsoid, Tube
from tubeplan.vehicles import QuadrotorModel


def write_quad_scenario(tmp_path, name="small.json", obstacle_y=12.0,
                        **edits):
    raw = {
        "schema_version": 1,
        "name": "cli-quad",
        "seed": 11,
        "beta": 0.999,
        "vehicle": {"type": "quadrotor", "params": {}},
        "grid": {"t0": 0.0, "tf": 6.0, "dt": 0.02},
        "desired_trajectory": {
            "profile": "waypoints",
            "points": [[0.0, 0.0, 10.0], [30.0, 0.0, 10.0]],
            "speed": 5.0,
        },
        "obstacles": [
            {"id": "side", "box": {"center": [15.0, obstacle_y, 10.0],
                                   "half_extents": [2.0, 2.0, 10.0],
                                   "yaw": 0.0}},
        ],
    }
    raw.update(edits)
    path = tmp_path / name
    path.write_text(json.dumps(raw))
    return path


def write_plan_scenario(tmp_path, name="plan-small.json", **edits):
    raw = {
        "schema_version": 1,
        "name": "cli-plan",
        "seed": 21,
        "beta": 0.999,
        "vehicle": {"type": "quadrotor", "params": {}},
        "grid": {"t0": 0.0, "tf": 10.0, "dt": 0.02},
        "obstacles": [
            {"id": "mid", "box": {"center": [28.0, 0.0, 10.0],
                                  "half_extents": [3.0, 3.0, 10.0],
                                  "yaw": 0.0}},
        ],
        "planner": {
            "bounds": {"lo": [-5.0, -20.0], "hi": [65.0, 20.0]},
            "start": [0.0, 0.0], "goal": [55.0, 0.0],
            "altitude": 10.0, "cruise_speed": 5.0,
            "N_max": 600, "N_conv": 80, "M": 2, "goal_bias": 0.05,
        },
    }
    raw.update(edits)
    path = tmp_path / name
    path.write_text(json.dumps(raw))
    return path


def read_bytes(directory, names):
    return {n: (directory / n).read_bytes() for n in names}


VALIDATE_ARTIFACTS = {"nominal.csv", "variances.csv", "tube.jsonl",
                      "report.json", "timings.json"}
PLAN_ARTIFACTS = {"path.csv", "tube.jsonl", "buffers.json", "tree.jsonl",
                  "report.json", "timings.json"}
MC_ARTIFACTS = {"lc_variances.csv", "mc_variances.csv", "deviation.json",
                "report.json", "timings.json"}


# --------------------------------------------------------------------------
# validate


def test_validate_clear_run(tmp_path, capsys):
    scn = write_quad_scenario(tmp_path)
    out = tmp_path / "out"
    code = main(["validate", "--scenario", str(scn), "--out", str(out)])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "scenario: cli-quad" in stdout
    assert "verdict: clear" in stdout
    assert "obstacle side" in stdout
    assert {p.name for p in out.iterdir()} == VALIDATE_ARTIFACTS


def test_validate_report_embeds_provenance(tmp_path):
    # as do plan's and mc-compare's: every RunReport field but the
    # wall-clock timings, under the same keys
    keys = {"mode", "scenario_name", "scenario_hash", "seed", "beta",
            "verdict", "clearance", "extras"}
    assert keys == {f.name for f in dataclasses.fields(RunReport)
                    } - {"timings_ms"}
    for mode, write, extra in (("validate", write_quad_scenario, []),
                               ("plan", write_plan_scenario, []),
                               ("mc-compare", write_quad_scenario,
                                ["--runs", "100"])):
        scn = write(tmp_path)
        raw = json.loads(scn.read_text())
        out = tmp_path / mode
        main([mode, "--scenario", str(scn), "--out", str(out), *extra])
        report = json.loads((out / "report.json").read_text())
        assert set(report) == keys
        assert report["mode"] == mode
        assert report["scenario_name"] == raw["name"]
        assert report["scenario_hash"] == load_scenario(scn).hash()
        assert report["seed"] == raw["seed"]
        assert report["beta"] == 0.999
        for entry in report["clearance"]:
            assert set(entry) == {"obstacle_id", "min_cstar2", "argmin_t",
                                  "z_star", "c2", "verdict"}


def test_validate_rerun_is_byte_identical_except_timings(tmp_path):
    scn = write_quad_scenario(tmp_path)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    main(["validate", "--scenario", str(scn), "--out", str(out1)])
    main(["validate", "--scenario", str(scn), "--out", str(out2)])
    stable = VALIDATE_ARTIFACTS - {"timings.json"}
    assert read_bytes(out1, stable) == read_bytes(out2, stable)


def test_seed_override_changes_the_recorded_scenario(tmp_path):
    scn = write_quad_scenario(tmp_path)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    main(["validate", "--scenario", str(scn), "--out", str(out1)])
    main(["validate", "--scenario", str(scn), "--out", str(out2),
          "--seed", "99"])
    r1 = json.loads((out1 / "report.json").read_text())
    r2 = json.loads((out2 / "report.json").read_text())
    assert r2["seed"] == 99
    assert r1["scenario_hash"] != r2["scenario_hash"]


def test_beta_override_changes_the_threshold(tmp_path):
    scn = write_quad_scenario(tmp_path)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    main(["validate", "--scenario", str(scn), "--out", str(out1)])
    main(["validate", "--scenario", str(scn), "--out", str(out2),
          "--beta", "0.9"])
    r1 = json.loads((out1 / "report.json").read_text())
    r2 = json.loads((out2 / "report.json").read_text())
    assert r2["beta"] == 0.9
    assert r2["extras"]["c2"] < r1["extras"]["c2"]


def test_validate_collision_exits_two(tmp_path, capsys):
    scn = write_quad_scenario(tmp_path, obstacle_y=0.0)
    out = tmp_path / "out"
    code = main(["validate", "--scenario", str(scn), "--out", str(out)])
    assert code == 2
    assert "verdict: collide" in capsys.readouterr().out
    report = json.loads((out / "report.json").read_text())
    assert report["verdict"] == "collide"
    (entry,) = report["clearance"]
    assert entry["min_cstar2"] == 0.0          # nominal passes through it
    assert entry["verdict"] == "collide"


def test_missing_scenario_exits_one(tmp_path, capsys):
    code = main(["validate", "--scenario", str(tmp_path / "absent.json"),
                 "--out", str(tmp_path / "out")])
    assert code == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="the LinCov child is forked")
def test_a_child_that_dies_exits_one_with_its_exit_code(
        quad_scenario_path, tmp_path, capsys, monkeypatch, forks):
    parent = os.getpid()

    def dying(*args):
        assert os.getpid() != parent, "the LinCov job ran in-process"
        os._exit(5)

    monkeypatch.setattr(uncertainty, "_linearize_rows", dying)
    code = main(["validate", "--scenario", str(quad_scenario_path),
                 "--out", str(tmp_path)])
    assert code == 1
    assert "error: LinCov process exited with code 5" in \
        capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()
    assert forks == ["LinCov process"]


def test_malformed_scenario_exits_one(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code = main(["validate", "--scenario", str(bad),
                 "--out", str(tmp_path / "out")])
    assert code == 1
    assert "invalid JSON" in capsys.readouterr().err


def test_schema_violation_exits_one(tmp_path, capsys):
    scn = write_quad_scenario(tmp_path, beta=3.0)
    code = main(["validate", "--scenario", str(scn),
                 "--out", str(tmp_path / "out")])
    assert code == 1
    assert "beta" in capsys.readouterr().err


@pytest.mark.parametrize("edits, section", [
    ({"vehicle": {"type": "fixedwing", "params": {"m": -1.0}},
      "desired_trajectory": {"profile": "lateral-sinusoid",
                             "cruise_speed": 15.0, "amplitude": 10.0,
                             "period": 12.0, "altitude": 50.0}},
     "vehicle.params"),
    ({"vehicle": {"type": "quadrotor", "params": {"K": [1.0, -1.0, 1.0]}}},
     "vehicle.params"),
    ({"desired_trajectory": {"profile": "waypoints",
                             "points": [[0.0, 0.0, 10.0], [0.0, 0.0, 10.0],
                                        [30.0, 0.0, 10.0]],
                             "speed": 5.0}},
     "desired_trajectory"),
], ids=["fixedwing-mass", "quadrotor-gain", "repeated-waypoint"])
def test_range_errors_exit_one_naming_the_file_and_the_section(
        tmp_path, capsys, edits, section):
    scn = write_quad_scenario(tmp_path, name="out-of-range.json", **edits)
    out = tmp_path / "out"
    code = main(["validate", "--scenario", str(scn), "--out", str(out)])
    assert code == 1
    assert f"out-of-range.json: {section}: " in capsys.readouterr().err
    assert not out.exists()


def test_an_out_of_range_beta_override_names_the_file(tmp_path, capsys):
    # the override is checked when the scenario is parsed again
    scn = write_quad_scenario(tmp_path, name="override.json")
    out = tmp_path / "out"
    code = main(["validate", "--scenario", str(scn), "--out", str(out),
                 "--beta", "3"])
    assert code == 1
    assert f"{scn}: beta: must lie strictly inside (0, 1)" in \
        capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("mode, message", [
    ("validate", "desired_trajectory: required for this mode"),
    ("mc-compare", "desired_trajectory: required for this mode"),
], ids=["validate", "mc-compare"])
def test_a_plan_scenario_in_a_trajectory_mode_names_the_file(
        tmp_path, capsys, mode, message):
    scn = write_plan_scenario(tmp_path)
    code = main([mode, "--scenario", str(scn), "--out", str(tmp_path / "o")])
    assert code == 1
    assert f"{scn}: {message}" in capsys.readouterr().err


def test_plan_mode_without_a_planner_block_names_the_file(tmp_path, capsys):
    scn = write_quad_scenario(tmp_path)
    code = main(["plan", "--scenario", str(scn), "--out", str(tmp_path / "o")])
    assert code == 1
    assert f"{scn}: planner: required for plan mode" in \
        capsys.readouterr().err


def test_help_runs_as_a_module():
    proc = subprocess.run([sys.executable, "-m", "tubeplan.cli", "--help"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "validate" in proc.stdout
    assert "mc-compare" in proc.stdout


# --------------------------------------------------------------------------
# independent re-check of the reported clearance


def test_reported_clearance_matches_a_direct_recomputation(tmp_path):
    scn = write_quad_scenario(tmp_path)
    out = tmp_path / "out"
    main(["validate", "--scenario", str(scn), "--out", str(out)])
    report = json.loads((out / "report.json").read_text())
    obstacles = load_scenario(scn).obstacles
    records = [json.loads(line)
               for line in (out / "tube.jsonl").read_text().splitlines()]
    assert len(records) == report["extras"]["grid_points"]
    for obs in obstacles:
        best = math.inf
        for rec in records:
            sigma = np.array(rec["sigma"]).reshape(3, 3)
            center = np.array(rec["center"])
            ell = ConfidenceEllipsoid(t=rec["t"], center=center,
                                      sigma=sigma, c2=rec["c2"])
            if not sphere_prefilter(ell, obs):
                continue
            _, cstar2 = solve_qp(sigma, center, obs.A, obs.b)
            best = min(best, cstar2)
        (entry,) = [e for e in report["clearance"]
                    if e["obstacle_id"] == obs.id]
        if entry["min_cstar2"] is None:
            assert best == math.inf
        else:
            assert best == pytest.approx(entry["min_cstar2"], rel=1e-9)
        expected = "collide" if best < records[0]["c2"] else "clear"
        assert entry["verdict"] == expected


# --------------------------------------------------------------------------
# mc-compare


def test_mc_compare_small_ensemble(tmp_path, capsys):
    scn = write_quad_scenario(tmp_path)
    out = tmp_path / "out"
    code = main(["mc-compare", "--scenario", str(scn), "--out", str(out),
                 "--runs", "150"])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "position max relative deviation" in stdout
    assert {p.name for p in out.iterdir()} == MC_ARTIFACTS
    dev = json.loads((out / "deviation.json").read_text())
    assert dev["runs"] == 150
    assert 0.0 <= dev["position_max_rel_dev"] < 1.5
    assert set(dev["channels"]) == {"x", "y", "z", "vx", "vy", "vz",
                                    "eta_x", "eta_y", "eta_z"}


def test_timings_keys_mean_the_same_stages_in_validate_and_mc_compare(
        tmp_path):
    # lc_ms is the LinCov work after the nominal stage in every mode:
    # linearize + covariance, plus the tube where one is built
    scn = write_quad_scenario(tmp_path)
    main(["validate", "--scenario", str(scn), "--out", str(tmp_path / "v")])
    main(["mc-compare", "--scenario", str(scn), "--out", str(tmp_path / "m"),
          "--runs", "100"])
    val = json.loads((tmp_path / "v" / "timings.json").read_text())
    mc = json.loads((tmp_path / "m" / "timings.json").read_text())
    assert set(val) == {"nominal_ms", "linearize_ms", "covariance_ms",
                        "lincov_wait_ms", "tube_ms", "lc_ms", "collision_ms",
                        "nominal_csv_ms", "tube_jsonl_ms"}
    assert set(mc) == {"nominal_ms", "linearize_ms", "covariance_ms",
                       "lincov_wait_ms", "lc_ms", "mc_ms", "noise_wait_ms"}
    assert val["lc_ms"] == pytest.approx(
        val["linearize_ms"] + val["covariance_ms"] + val["tube_ms"])
    assert mc["lc_ms"] == pytest.approx(
        mc["linearize_ms"] + mc["covariance_ms"])
    # LinCov runs inside the ensemble's first pass, but mc_ms leaves it
    # out; the wait on the noise jobs is a part of mc_ms
    assert 0.0 <= mc["noise_wait_ms"] <= mc["mc_ms"]
    # mc-compare runs LinCov in-process, so its wait is its linearize
    # and covariance stages
    assert mc["lincov_wait_ms"] == pytest.approx(mc["lc_ms"])


def test_plan_timings_split_plan_ms_into_its_stages(tmp_path):
    # tree growth, tube evaluation and buffer sizing, each summed over
    # the rounds, lie inside plan_ms, and tube.jsonl is written after
    # it; the report carries none of them
    main(["plan", "--scenario", str(write_plan_scenario(tmp_path)),
          "--out", str(tmp_path / "p")])
    t = json.loads((tmp_path / "p" / "timings.json").read_text())
    assert set(t) == {"plan_ms", "tree_ms", "tube_eval_ms",
                      "buffer_sizing_ms", "tube_jsonl_ms", "nominal_ms",
                      "linearize_ms", "covariance_ms"}
    assert all(v > 0.0 for v in t.values())
    assert t["tree_ms"] + t["tube_eval_ms"] + t["buffer_sizing_ms"] \
        <= t["plan_ms"]
    # the LinCov stages, summed over the rounds, lie inside tube_eval_ms
    assert t["nominal_ms"] + t["linearize_ms"] + t["covariance_ms"] \
        <= t["tube_eval_ms"]
    report = json.loads((tmp_path / "p" / "report.json").read_text())
    assert not any(k.endswith("_ms") for k in report["extras"])
    # without a path no tube is evaluated or written
    run_plan(load_scenario(write_walled_plan_scenario(tmp_path)),
             tmp_path / "w")
    t = json.loads((tmp_path / "w" / "timings.json").read_text())
    assert t["tree_ms"] > 0.0
    assert t["tube_eval_ms"] == t["buffer_sizing_ms"] == 0.0
    assert t["nominal_ms"] == t["linearize_ms"] == t["covariance_ms"] == 0.0
    assert t["tube_jsonl_ms"] == 0.0


def test_mc_compare_rejects_tiny_ensembles(tmp_path, capsys):
    scn = write_quad_scenario(tmp_path)
    code = main(["mc-compare", "--scenario", str(scn),
                 "--out", str(tmp_path / "out"), "--runs", "50"])
    assert code == 1
    assert "runs >= 100" in capsys.readouterr().err


def test_mc_compare_is_reproducible(tmp_path):
    scn = write_quad_scenario(tmp_path)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    main(["mc-compare", "--scenario", str(scn), "--out", str(out1),
          "--runs", "120"])
    main(["mc-compare", "--scenario", str(scn), "--out", str(out2),
          "--runs", "120"])
    stable = MC_ARTIFACTS - {"timings.json"}
    assert read_bytes(out1, stable) == read_bytes(out2, stable)


# --------------------------------------------------------------------------
# plan


def test_plan_small_problem(tmp_path, capsys):
    scn = write_plan_scenario(tmp_path)
    out = tmp_path / "out"
    code = main(["plan", "--scenario", str(scn), "--out", str(out)])
    assert code == 0
    assert "verdict: clear" in capsys.readouterr().out
    assert {p.name for p in out.iterdir()} == PLAN_ARTIFACTS
    report = json.loads((out / "report.json").read_text())
    assert report["extras"]["solved"] is True
    assert report["extras"]["path_length"] >= 55.0
    rows = (out / "path.csv").read_text().splitlines()
    assert rows[0] == "x,y"
    first = [float(v) for v in rows[1].split(",")]
    last = [float(v) for v in rows[-1].split(",")]
    assert np.allclose(first, (0.0, 0.0))
    assert np.allclose(last, (55.0, 0.0))


def test_plan_rerun_is_byte_identical_except_timings(tmp_path):
    scn = write_plan_scenario(tmp_path)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    main(["plan", "--scenario", str(scn), "--out", str(out1)])
    main(["plan", "--scenario", str(scn), "--out", str(out2)])
    stable = PLAN_ARTIFACTS - {"timings.json"}
    assert read_bytes(out1, stable) == read_bytes(out2, stable)


def write_walled_plan_scenario(tmp_path):
    """A wall across the whole sampling region between start and goal."""
    return write_plan_scenario(
        tmp_path, name="walled.json",
        obstacles=[{"id": "wall",
                    "box": {"center": [30.0, 0.0, 10.0],
                            "half_extents": [2.0, 25.0, 10.0],
                            "yaw": 0.0}}],
        planner={
            "bounds": {"lo": [-5.0, -20.0], "hi": [65.0, 20.0]},
            "start": [0.0, 0.0], "goal": [55.0, 0.0],
            "altitude": 10.0, "cruise_speed": 5.0,
            "N_max": 300, "N_conv": 50, "M": 2,
        })


def test_plan_unreachable_goal_exits_one(tmp_path, capsys):
    scn = write_walled_plan_scenario(tmp_path)
    code = main(["plan", "--scenario", str(scn),
                 "--out", str(tmp_path / "out")])
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_run_plan_without_a_path_reports_error_and_writes_no_path(tmp_path):
    out = tmp_path / "out"
    report = run_plan(load_scenario(write_walled_plan_scenario(tmp_path)),
                      out)
    assert report.verdict == "error"
    assert report.extras["solved"] is False
    assert report.extras["message"] == "no path to the goal was found"
    assert report.clearance == []
    assert {p.name for p in out.iterdir()} == (
        PLAN_ARTIFACTS - {"path.csv", "tube.jsonl"})
    assert json.loads((out / "report.json").read_text())["verdict"] == "error"


def test_run_plan_raises_before_writing_when_the_start_is_blocked(tmp_path):
    scn = write_plan_scenario(
        tmp_path, obstacles=[{"id": "ontop",
                              "box": {"center": [0.0, 0.0, 10.0],
                                      "half_extents": [3.0, 3.0, 10.0],
                                      "yaw": 0.0}}])
    out = tmp_path / "out"
    with pytest.raises(PlanningError, match="start lies inside buffered "
                       "obstacle 'ontop'"):
        run_plan(load_scenario(scn), out)
    assert list(out.iterdir()) == []


def test_plan_exits_two_when_buffers_still_grow_at_the_round_cap(
        tmp_path, capsys, monkeypatch):
    real = planner.comp_obs_dist

    def always_grow(tree, sections, evaluator, cfg, **kw):
        adjustments, tube = real(tree, sections, evaluator, cfg, **kw)
        adjustments["mid"] = -0.01
        return adjustments, tube

    monkeypatch.setattr(planner, "comp_obs_dist", always_grow)
    out = tmp_path / "out"
    code = main(["plan", "--scenario", str(write_plan_scenario(tmp_path)),
                 "--out", str(out)])
    assert code == 2
    assert "verdict: clear" in capsys.readouterr().out
    extras = json.loads((out / "report.json").read_text())["extras"]
    assert extras["converged"] is False
    assert extras["outer_iterations"] == 4  # 2M, with M = 2


def test_plan_reports_converged_when_buffers_settle(tmp_path):
    report = run_plan(load_scenario(write_plan_scenario(tmp_path)),
                      tmp_path / "out")
    assert report.extras["converged"] is True
    assert report.extras["outer_iterations"] == len(
        report.extras["cost_history"])


def test_plan_scenario_checks_the_length_of_an_explicit_initial_state(
        tmp_path, capsys):
    # the planner's start state is checked once, at parse, so a plan run
    # writes nothing
    scn = write_plan_scenario(tmp_path, initial_state=[0.0] * 5)
    with pytest.raises(ScenarioError, match="initial_state: must have "
                       "length 9"):
        load_scenario(scn)
    out = tmp_path / "out"
    assert main(["plan", "--scenario", str(scn), "--out", str(out)]) == 1
    assert "initial_state: must have length 9" in capsys.readouterr().err
    assert not out.exists()


def test_one_plan_run_builds_each_scenario_object_once(
        plan_scenario_path, tmp_path, monkeypatch):
    built = collections.Counter()
    for cls in (QuadrotorModel, CuboidObstacle, PlannerConfig):
        def counting(self, *args, _init=cls.__init__, _name=cls.__name__,
                     **kwargs):
            built[_name] += 1
            _init(self, *args, **kwargs)
        monkeypatch.setattr(cls, "__init__", counting)
    run_plan(load_scenario(plan_scenario_path), tmp_path / "out")
    assert built == {"QuadrotorModel": 1, "CuboidObstacle": 3,
                     "PlannerConfig": 1}


@pytest.mark.parametrize("mode", ["validate", "plan"])
def test_a_scenario_runs_twice_with_the_same_bits(
        mode, quad_scenario, plan_scenario, tmp_path):
    # the run objects are built once and shared by every run, here
    # through the session-scoped fixtures as well
    run, scenario, names = {
        "validate": (run_validate, quad_scenario, VALIDATE_ARTIFACTS),
        "plan": (run_plan, plan_scenario, PLAN_ARTIFACTS),
    }[mode]
    run(scenario, tmp_path / "a")
    run(scenario, tmp_path / "b")
    stable = names - {"timings.json"}
    assert read_bytes(tmp_path / "a", stable) == \
        read_bytes(tmp_path / "b", stable)


# --------------------------------------------------------------------------
# deterministic writers

AWKWARD = [-0.0, 5e-324, 0.1 + 0.2, 1e16, -1.5e-300, 2.0**53 + 2.0, 1.0 / 3.0]
NONFINITE = [math.nan, math.inf, -math.inf]


def _spread(count, values):
    """count floats: ``values`` cycled, each cycle scaled, so that the
    rows on either side of a 256-row block boundary differ."""
    cycles = np.arange(count) // len(values) + 1.0
    return np.resize(np.array(values), count) * cycles


def test_csv_bytes_match_the_per_element_formulation(tmp_path):
    # 513 rows: two 256-row blocks and a one-row tail
    columns = [_spread(513, AWKWARD + NONFINITE),
               _spread(513, AWKWARD[::-1]), np.arange(513, dtype=float)]
    _write_csv(tmp_path / "a.csv", ["p", "q", "r"], columns)
    lines = ["p,q,r"] + [",".join(repr(float(c[k])) for c in columns)
                         for k in range(513)]
    assert (tmp_path / "a.csv").read_bytes() == \
        ("\n".join(lines) + "\n").encode("utf-8")


def _symmetric_sigmas(count, values):
    upper = np.stack([_spread(count, values[i:] + values[:i])
                      for i in range(6)], axis=1)
    return upper[:, [0, 1, 2, 1, 3, 4, 2, 4, 5]].reshape(count, 3, 3)


def _tube_cases():
    n = 513
    vals = AWKWARD + NONFINITE
    times = _spread(n, vals)
    centers = np.stack([_spread(n, vals[i:] + vals[:i]) for i in (1, 2, 3)],
                       axis=1)
    # bitwise symmetric, with nan and ±inf in sigma, center and t
    yield Tube(times, centers, _symmetric_sigmas(n, vals), c2=0.1 + 0.2)
    # equal to its transpose but for -0.0 against 0.0 across the diagonal
    # of one sample past the first block
    sigmas = _symmetric_sigmas(n, AWKWARD)
    sigmas[300, 0, 1], sigmas[300, 1, 0] = -0.0, 0.0
    assert np.array_equal(sigmas, sigmas.transpose(0, 2, 1))
    yield Tube(times, centers, sigmas, c2=math.inf)
    # no symmetry at all
    rng = np.random.default_rng(5)
    yield Tube(times, centers, rng.standard_normal((n, 3, 3)), c2=7.8)
    # one sample per value, each broadcast over the whole sample
    v = np.array(vals)
    yield Tube(v, np.column_stack([v] * 3),
               np.broadcast_to(v[:, None, None], (len(v), 3, 3)), c2=1.0)
    yield Tube(np.empty(0), np.empty((0, 3)), np.empty((0, 3, 3)), c2=1.0)


def test_tube_jsonl_bytes_match_the_per_element_formulation(tmp_path):
    for case, tube in enumerate(_tube_cases()):
        path = tmp_path / f"tube{case}.jsonl"
        _write_tube(path, tube)
        lines = [json.dumps({"t": float(tube.times[k]),
                             "center": [float(v) for v in tube.centers[k]],
                             "sigma": [float(v) for v in
                                       tube.sigmas[k].reshape(-1)],
                             "c2": float(tube.c2)},
                            sort_keys=True, separators=(",", ":"))
                 for k in range(len(tube))]
        assert path.read_bytes() == \
            "".join(line + "\n" for line in lines).encode("utf-8"), case


def _tree_cases():
    # the root at (-0.0, 0.0), then 700 nodes, node i under node (i - 1) // 2
    tree = PlanTree((-0.0, 0.0), (1e3, 1e3), goal_radius=1.0)
    n = 700
    xs, ys = _spread(n, AWKWARD), _spread(n, AWKWARD[3:] + AWKWARD[:3])
    costs = _spread(n, AWKWARD[1:] + AWKWARD[:1])
    for i in range(1, n + 1):
        tree.insert((xs[i - 1], ys[i - 1]), (i - 1) // 2, costs[i - 1])
    # killed leaves (nodes past 349 have no children), and the orphaned
    # component of node 9, whose nodes fall in all three 256-row blocks
    killed = [351, 352, 511, 512, 700]
    for i in killed:
        tree.kill(i)
    orphaned = tree.component(9)
    tree.detach_orphan(9)
    gone = set(killed) | set(orphaned)
    live = [i for i in range(n + 1) if i not in gone]
    assert len(live) > 512 and len(orphaned) > 20
    yield tree, live
    # the root alone, parent -1
    yield PlanTree((0.1 + 0.2, -0.0), (5.0, 5.0), goal_radius=1.0), [0]
    # costs that json writes as NaN and ±Infinity
    tree = PlanTree((0.0, 0.0), (5.0, 5.0), goal_radius=1.0)
    for i, c in enumerate(NONFINITE + AWKWARD):
        tree.insert((1.0 + i, -0.0), i, c)
    yield tree, list(range(tree.size))


def test_tree_jsonl_bytes_match_the_per_element_formulation(tmp_path):
    for case, (tree, live) in enumerate(_tree_cases()):
        path = tmp_path / f"tree{case}.jsonl"
        _write_tree(path, tree)
        lines = [json.dumps({"index": i, "parent": tree.parent(i),
                             "x": float(tree.coords(i)[0]),
                             "y": float(tree.coords(i)[1]),
                             "cost": tree.cost(i)},
                            sort_keys=True, separators=(",", ":"))
                 for i in live]
        assert path.read_bytes() == \
            "".join(line + "\n" for line in lines).encode("utf-8"), case
