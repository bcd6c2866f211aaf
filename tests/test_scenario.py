"""Scenario schema: parsing, normalization, diagnostics and hashing."""

from __future__ import annotations

import copy
import dataclasses
import json

import numpy as np
import pytest

from tubeplan.errors import ScenarioError
from tubeplan.scenario import (
    SCHEMA_VERSION,
    load_scenario,
    parse_scenario,
)
from tubeplan.vehicles import FixedWingParams, QuadrotorParams


def quad_raw():
    return {
        "schema_version": SCHEMA_VERSION,
        "name": "unit-quad",
        "seed": 7,
        "beta": 0.999,
        "vehicle": {"type": "quadrotor", "params": {}},
        "grid": {"t0": 0.0, "tf": 10.0, "dt": 0.01},
        "desired_trajectory": {
            "profile": "waypoints",
            "points": [[0.0, 0.0, 5.0], [40.0, 0.0, 5.0]],
            "speed": 4.0,
        },
    }


def variant(**edits):
    raw = quad_raw()
    raw.update(copy.deepcopy(edits))
    return raw


def fw_raw(**params):
    return {
        "schema_version": SCHEMA_VERSION,
        "vehicle": {"type": "fixedwing", "params": params},
        "grid": {"tf": 20.0, "dt": 0.01},
        "desired_trajectory": {
            "profile": "lateral-sinusoid", "cruise_speed": 15.0,
            "amplitude": 10.0, "period": 12.0, "altitude": 50.0,
        },
    }


# --------------------------------------------------------------------------
# happy path and round trips


def test_parse_normalizes_and_round_trips():
    s = parse_scenario(quad_raw())
    assert s.name == "unit-quad"
    assert s.seed == 7
    assert s.model.name == "quadrotor"
    again = parse_scenario(s.to_dict())
    assert again.canonical_json() == s.canonical_json()
    assert again.hash() == s.hash()
    assert len(s.hash()) == 64
    assert all(c in "0123456789abcdef" for c in s.hash())


def test_defaults_are_materialized():
    raw = quad_raw()
    del raw["beta"], raw["seed"], raw["name"]
    s = parse_scenario(raw)
    assert s.beta == 0.999
    assert s.seed == 0
    assert s.name == "unnamed"
    assert s.data["initial_state"] == "auto"
    assert s.data["initial_covariance"] == "zero"
    assert s.data["obstacles"] == []
    assert s.data["planner"] is None


def test_hash_tracks_content_not_formatting():
    a = parse_scenario(quad_raw())
    b = parse_scenario(quad_raw())
    assert a.hash() == b.hash()
    c = parse_scenario(variant(seed=8))
    assert c.hash() != a.hash()


def test_bundled_scenarios_parse_and_round_trip(quad_scenario, fw_scenario,
                                                plan_scenario):
    for s in (quad_scenario, fw_scenario, plan_scenario):
        model = s.model
        assert model.n_states in (9, 14)
        again = parse_scenario(s.to_dict())
        assert again.hash() == s.hash()
    assert quad_scenario.model.name == "quadrotor"
    assert fw_scenario.model.name == "fixedwing"
    assert plan_scenario.data["planner"] is not None


# --------------------------------------------------------------------------
# vehicle parameter normalization


# sha256 of each bundled scenario's canonical JSON; a change here changes
# the hash embedded in every report made from it
BUNDLED_HASHES = {
    "quad": "07f553dadfe093988d3fc4610f2dea7094436712a1f5dec7c43b54519ef9616c",
    "fw": "bb02c9edc74f5f6925500597320133d5415be62632e229e65b21afc25f209d27",
    "plan": "c52795db48ec94257618b77fbc9a8a781e0ad0976f85a549e34d3a403a48103e",
}


def test_bundled_scenario_hashes_are_pinned(quad_scenario, fw_scenario,
                                            plan_scenario):
    got = {"quad": quad_scenario.hash(), "fw": fw_scenario.hash(),
           "plan": plan_scenario.hash()}
    assert got == BUNDLED_HASHES

def test_gust_intensity_scalar_broadcasts_to_three_axes():
    s = parse_scenario(variant(
        vehicle={"type": "quadrotor", "params": {"sigma": 2.0}}))
    assert s.data["vehicle"]["params"]["sigma"] == [2.0, 2.0, 2.0]
    model = s.model
    assert np.allclose(model.params.sigma, [2.0, 2.0, 2.0])


def test_gain_scalar_becomes_a_scaled_identity():
    s = parse_scenario(variant(
        vehicle={"type": "quadrotor", "params": {"K": 3.0}}))
    assert s.data["vehicle"]["params"]["K"] == (3.0 * np.eye(3)).tolist()
    assert np.allclose(s.model.params.K, 3.0 * np.eye(3))


def test_gain_list_becomes_a_diagonal():
    s = parse_scenario(variant(
        vehicle={"type": "quadrotor", "params": {"Lam": [1.0, 2.0, 3.0]}}))
    assert s.data["vehicle"]["params"]["Lam"] == np.diag(
        [1.0, 2.0, 3.0]).tolist()


def test_gain_matrix_passes_through():
    M = [[2.0, 0.1, 0.0], [0.1, 2.0, 0.0], [0.0, 0.0, 1.5]]
    s = parse_scenario(variant(
        vehicle={"type": "quadrotor", "params": {"K": M}}))
    assert s.data["vehicle"]["params"]["K"] == M


def test_fixedwing_params_accept_their_own_keys():
    s = parse_scenario(fw_raw(kappa_mu=6.0, Lam_f=0.5, sigma_u=1.2))
    params = s.data["vehicle"]["params"]
    assert params["Lam_f"] == (0.5 * np.eye(2)).tolist()
    assert params["kappa_mu"] == 6.0
    model = s.model
    assert model.params.kappa_mu == 6.0


def test_quadrotor_rejects_fixedwing_keys_and_vice_versa():
    with pytest.raises(ScenarioError, match="vehicle.params"):
        parse_scenario(variant(
            vehicle={"type": "quadrotor", "params": {"kappa_mu": 6.0}}))
    with pytest.raises(ScenarioError, match="vehicle.type"):
        parse_scenario(variant(vehicle={"type": "hexacopter", "params": {}}))


@pytest.mark.parametrize("raw_for, params_cls", [
    (lambda params: variant(vehicle={"type": "quadrotor", "params": params}),
     QuadrotorParams),
    (lambda params: fw_raw(**params), FixedWingParams),
], ids=["quadrotor", "fixedwing"])
def test_every_model_parameter_is_a_scenario_key(raw_for, params_cls):
    defaults = params_cls()
    params = {f.name: np.asarray(getattr(defaults, f.name)).tolist()
              for f in dataclasses.fields(params_cls)}
    built = parse_scenario(raw_for(params)).model.params
    for f in dataclasses.fields(params_cls):
        assert np.array_equal(getattr(built, f.name),
                              getattr(defaults, f.name)), f.name


def test_negative_gust_scale_is_rejected():
    with pytest.raises(ScenarioError, match="sigma"):
        parse_scenario(variant(
            vehicle={"type": "quadrotor", "params": {"sigma": -1.0}}))
    with pytest.raises(ScenarioError, match=r"params\.L"):
        parse_scenario(variant(
            vehicle={"type": "quadrotor", "params": {"L": [100.0, 0.0,
                                                           100.0]}}))


# --------------------------------------------------------------------------
# top-level field validation


def test_unknown_keys_name_the_offender():
    with pytest.raises(ScenarioError, match="bogus"):
        parse_scenario(variant(bogus=1))
    with pytest.raises(ScenarioError, match="grid"):
        parse_scenario(variant(grid={"tf": 1.0, "dt": 0.1, "step": 3}))


def test_schema_version_is_pinned():
    with pytest.raises(ScenarioError, match="schema_version"):
        parse_scenario(variant(schema_version=99))
    raw = quad_raw()
    del raw["schema_version"]
    with pytest.raises(ScenarioError, match="schema_version"):
        parse_scenario(raw)


def test_seed_and_beta_validation():
    with pytest.raises(ScenarioError, match="seed"):
        parse_scenario(variant(seed=-1))
    with pytest.raises(ScenarioError, match="seed"):
        parse_scenario(variant(seed=True))
    with pytest.raises(ScenarioError, match="seed"):
        parse_scenario(variant(seed=1.5))
    with pytest.raises(ScenarioError, match="beta"):
        parse_scenario(variant(beta=1.0))
    with pytest.raises(ScenarioError, match="beta"):
        parse_scenario(variant(beta=0.0))


def test_grid_validation():
    with pytest.raises(ScenarioError, match="grid.dt"):
        parse_scenario(variant(grid={"tf": 1.0, "dt": -0.1}))
    with pytest.raises(ScenarioError, match="grid.tf"):
        parse_scenario(variant(grid={"t0": 5.0, "tf": 1.0, "dt": 0.1}))
    with pytest.raises(ScenarioError, match="tf"):
        parse_scenario(variant(grid={"dt": 0.1}))


def test_initial_state_forms():
    s = parse_scenario(variant(initial_state="auto"))
    assert s.data["initial_state"] == "auto"
    explicit = [1.0] * 9
    s = parse_scenario(variant(initial_state=explicit))
    assert s.data["initial_state"] == explicit
    with pytest.raises(ScenarioError, match="initial_state"):
        parse_scenario(variant(initial_state=[1.0, 2.0]))
    with pytest.raises(ScenarioError, match="initial_state"):
        parse_scenario(variant(initial_state="origin"))


def test_an_auto_initial_state_needs_a_desired_trajectory(plan_scenario):
    # the bundled plan scenario starts "auto" without a trajectory: the
    # planner takes each candidate path's own start state instead
    assert plan_scenario.x0 is None and plan_scenario.profile is None
    with pytest.raises(ScenarioError) as err:
        plan_scenario.initial_state()
    assert str(err.value) == (f"{plan_scenario.source}: desired_trajectory: "
                              'required for an "auto" initial state')


def test_initial_covariance_forms():
    s = parse_scenario(variant(initial_covariance="zero"))
    assert np.array_equal(s.P0, np.zeros((9, 9)))
    diag = [0.1] * 9
    s = parse_scenario(variant(initial_covariance=diag))
    assert np.array_equal(s.P0, 0.1 * np.eye(9))
    with pytest.raises(ScenarioError, match=r"initial_covariance\[2\]"):
        parse_scenario(variant(initial_covariance=[0.1, 0.1, -0.1]))
    with pytest.raises(ScenarioError, match="initial_covariance"):
        parse_scenario(variant(initial_covariance=[0.1, 0.1]))
    # a full matrix is not a form the schema accepts
    with pytest.raises(ScenarioError, match=r"initial_covariance\[0\]"):
        parse_scenario(variant(initial_covariance=np.eye(9).tolist()))


# --------------------------------------------------------------------------
# profiles


def test_profile_must_match_the_vehicle():
    with pytest.raises(ScenarioError, match="desired_trajectory.profile"):
        parse_scenario(variant(desired_trajectory={
            "profile": "lateral-sinusoid", "cruise_speed": 15.0,
            "amplitude": 10.0, "period": 12.0, "altitude": 50.0}))


def test_climb_profile_requires_all_fields():
    partial = {"profile": "ascent-cruise-descent", "start_altitude": 1.0,
               "cruise_altitude": 10.0, "cruise_distance": 100.0,
               "final_altitude": 2.0, "climb_rate": 3.0,
               "descent_rate": 3.0}
    with pytest.raises(ScenarioError, match="cruise_speed"):
        parse_scenario(variant(desired_trajectory=partial))


def test_waypoint_profile_validation():
    with pytest.raises(ScenarioError, match="points"):
        parse_scenario(variant(desired_trajectory={
            "profile": "waypoints", "points": [[0.0, 0.0, 5.0]],
            "speed": 4.0}))
    with pytest.raises(ScenarioError, match=r"speed\[0\]"):
        parse_scenario(variant(desired_trajectory={
            "profile": "waypoints",
            "points": [[0.0, 0.0, 5.0], [1.0, 0.0, 5.0]],
            "speed": [-1.0]}))
    # per-segment speeds must match the segment count
    with pytest.raises(ScenarioError, match="speed"):
        parse_scenario(variant(desired_trajectory={
            "profile": "waypoints",
            "points": [[0.0, 0.0, 5.0], [1.0, 0.0, 5.0]],
            "speed": [1.0, 2.0]}))


def test_fixedwing_waypoint_grid_must_end_before_the_path():
    # (0, 0) -> (500, 0) -> (1000, 50) at 18 m/s lasts 55.694 s; past its
    # end the path holds still, which a fixed-wing cannot fly
    def raw(tf):
        return {
            "schema_version": SCHEMA_VERSION,
            "vehicle": {"type": "fixedwing", "params": {}},
            "grid": {"t0": 0.0, "tf": tf, "dt": 0.01},
            "desired_trajectory": {
                "profile": "waypoints", "altitude": 100.0, "speed": 18.0,
                "points": [[0.0, 0.0], [500.0, 0.0], [1000.0, 50.0]]},
        }

    with pytest.raises(ScenarioError) as err:
        parse_scenario(raw(60.0))
    assert str(err.value) == ("grid.tf: must end before the waypoint path "
                              "does, at 55.6941 s")
    assert parse_scenario(raw(55.69)).grid.tf == 55.69


# --------------------------------------------------------------------------
# obstacles


def obstacle_box(oid="tower", center=(10.0, 0.0, 5.0),
                 half=(1.0, 1.0, 5.0)):
    return {"id": oid, "box": {"center": list(center),
                               "half_extents": list(half), "yaw": 0.0}}


def test_obstacles_parse_and_build():
    s = parse_scenario(variant(obstacles=[obstacle_box()]))
    (obs,) = s.obstacles
    assert obs.id == "tower"
    assert np.allclose(obs.centroid, (10.0, 0.0, 5.0))


def test_obstacle_requires_exactly_one_geometry():
    both = obstacle_box()
    both["halfspaces"] = {"A": [[1, 0, 0]] * 6, "b": [1] * 6}
    with pytest.raises(ScenarioError, match="exactly one"):
        parse_scenario(variant(obstacles=[both]))
    with pytest.raises(ScenarioError, match="exactly one"):
        parse_scenario(variant(obstacles=[{"id": "empty"}]))


def test_duplicate_obstacle_ids_are_rejected():
    with pytest.raises(ScenarioError, match="duplicate"):
        parse_scenario(variant(obstacles=[obstacle_box("a"),
                                          obstacle_box("a")]))


def test_obstacle_ids_default_to_their_index():
    entry = obstacle_box()
    del entry["id"]
    s = parse_scenario(variant(obstacles=[entry]))
    assert s.data["obstacles"][0]["id"] == "obstacle-0"


def test_degenerate_box_is_rejected():
    with pytest.raises(ScenarioError, match=r"half_extents\[1\]"):
        parse_scenario(variant(obstacles=[
            obstacle_box(half=(1.0, 0.0, 5.0))]))


def test_unbounded_halfspace_region_is_rejected():
    entry = {"id": "open", "halfspaces": {
        "A": [[1.0, 0, 0], [-1.0, 0, 0], [0, 1.0, 0], [0, -1.0, 0]],
        "b": [1.0, 1.0, 1.0, 1.0]}}
    with pytest.raises(ScenarioError, match="unbounded"):
        parse_scenario(variant(obstacles=[entry]))


def test_halfspace_shapes_are_checked():
    entry = {"id": "short", "halfspaces": {
        "A": [[1.0, 0, 0], [-1.0, 0, 0], [0, 1.0, 0]],
        "b": [1.0, 1.0, 1.0]}}
    with pytest.raises(ScenarioError, match="halfspaces.A"):
        parse_scenario(variant(obstacles=[entry]))


def test_empty_halfspace_region_is_rejected_under_its_entry():
    entry = {"id": "void", "halfspaces": {
        "A": [[1.0, 0, 0], [-1.0, 0, 0], [0, 1.0, 0], [0, -1.0, 0],
              [0, 0, 1.0], [0, 0, -1.0]],
        "b": [-1.0, -1.0, 1.0, 1.0, 1.0, 1.0]}}
    with pytest.raises(ScenarioError, match=r"^obstacles\[1\]: .*empty"):
        parse_scenario(variant(obstacles=[obstacle_box(), entry]))


# --------------------------------------------------------------------------
# range checks of the built objects


CONSTRUCTOR_RANGE_ERRORS = {
    "fixedwing-negative-mass": (
        fw_raw(m=-1.0), "vehicle.params", "must be positive"),
    "fixedwing-lam-f-not-hurwitz": (
        fw_raw(Lam_f=[[1.0, 0.0], [0.0, -0.5]]), "vehicle.params",
        "positive real part"),
    "quadrotor-gain-not-positive-definite": (
        variant(vehicle={"type": "quadrotor",
                         "params": {"K": [1.0, -1.0, 1.0]}}),
        "vehicle.params", "positive definite"),
    "repeated-waypoint": (
        variant(desired_trajectory={
            "profile": "waypoints",
            "points": [[0.0, 0.0, 5.0], [0.0, 0.0, 5.0], [40.0, 0.0, 5.0]],
            "speed": 4.0}),
        "desired_trajectory", "zero-length segment"),
}


@pytest.mark.parametrize("raw, section, detail",
                         CONSTRUCTOR_RANGE_ERRORS.values(),
                         ids=CONSTRUCTOR_RANGE_ERRORS.keys())
def test_constructor_range_errors_name_their_section(raw, section, detail,
                                                     tmp_path):
    with pytest.raises(ScenarioError) as err:
        parse_scenario(raw)
    assert str(err.value).startswith(f"{section}: ")
    assert detail in str(err.value)
    f = tmp_path / "range.json"
    f.write_text(json.dumps(raw))
    with pytest.raises(ScenarioError) as err:
        load_scenario(f)
    assert str(err.value).startswith(f"{f}: {section}: ")


# --------------------------------------------------------------------------
# planner block


def planner_block(**over):
    p = {"bounds": {"lo": [0.0, -20.0], "hi": [100.0, 20.0]},
         "start": [0.0, 0.0], "goal": [95.0, 0.0],
         "altitude": 10.0, "cruise_speed": 5.0}
    p.update(over)
    return p


def test_planner_parses_with_defaults():
    s = parse_scenario(variant(planner=planner_block()))
    cfg = s.planner
    assert cfg.N_max == 3000
    assert cfg.goal_bias == 0.05
    assert cfg.step == pytest.approx(cfg.bounds.diagonal() / 50.0)
    start, goal = s.start, s.goal
    assert np.allclose(start, (0.0, 0.0))
    assert np.allclose(goal, (95.0, 0.0))


def test_planner_endpoints_must_lie_inside_the_bounds():
    with pytest.raises(ScenarioError, match="planner.goal"):
        parse_scenario(variant(planner=planner_block(goal=[120.0, 0.0])))
    with pytest.raises(ScenarioError, match="planner.start"):
        parse_scenario(variant(planner=planner_block(start=[0.0, -30.0])))


@pytest.mark.parametrize("key", ["N_max", "N_conv", "M"])
@pytest.mark.parametrize("value", [2.7, 1.5, 0.5])
def test_planner_counts_must_be_integers(key, value):
    with pytest.raises(ScenarioError,
                       match=f"^planner.{key}: must be an integer$"):
        parse_scenario(variant(planner=planner_block(**{key: value})))


def test_integral_float_planner_counts_normalize_to_integers():
    floats = parse_scenario(variant(planner=planner_block(
        N_max=3000.0, N_conv=200.0, M=4.0)))
    ints = parse_scenario(variant(planner=planner_block(
        N_max=3000, N_conv=200, M=4)))
    assert floats.hash() == ints.hash()
    assert floats.planner.N_max == 3000
    assert type(floats.data["planner"]["M"]) is int


def test_planner_goal_bias_cap():
    with pytest.raises(ScenarioError, match="goal_bias"):
        parse_scenario(variant(planner=planner_block(goal_bias=0.5)))


def test_planner_bounds_ordering():
    bad = planner_block(bounds={"lo": [0.0, 20.0], "hi": [100.0, -20.0]})
    with pytest.raises(ScenarioError, match="planner.bounds"):
        parse_scenario(variant(planner=bad))


# --------------------------------------------------------------------------
# file loading


def test_load_scenario_reports_missing_files(tmp_path):
    with pytest.raises(ScenarioError, match="nope.json"):
        load_scenario(tmp_path / "nope.json")


def test_load_scenario_reports_json_position(tmp_path):
    bad = tmp_path / "broken.json"
    bad.write_text('{"name": "x",,}\n')
    with pytest.raises(ScenarioError, match="line 1"):
        load_scenario(bad)


def test_load_scenario_prefixes_field_errors_with_the_path(tmp_path):
    f = tmp_path / "bad-field.json"
    f.write_text(json.dumps(variant(beta=2.0)))
    with pytest.raises(ScenarioError, match="bad-field.json.*beta"):
        load_scenario(f)


def test_the_built_arrays_and_the_data_are_read_only(plan_scenario):
    # every run of a Scenario shares them, so none may change them
    sc = parse_scenario({**plan_scenario.data, "initial_state": [0.0] * 9,
                         "initial_covariance": [0.1] * 9})
    for name in ("P0", "x0", "start", "goal"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(sc, name)[0] += 1.0
    with pytest.raises(TypeError):
        sc.data["seed"] = 5
    for name in ("seed", "model"):
        with pytest.raises(AttributeError):
            setattr(sc, name, getattr(sc, name))
    with pytest.raises(AttributeError):
        sc.obstacles.pop()
    for name in ("A", "b", "vertices", "centroid"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(sc.obstacles[0], name)[0] += 1.0
    with pytest.raises(AttributeError):
        sc.planner.N_max = 5
    assert len(sc.obstacles) == 3 and sc.planner.N_max == 3000
    assert sc.seed == plan_scenario.seed
    assert sc.hash() != plan_scenario.hash()
    assert sc.with_overrides(seed=5).data["seed"] == 5


def test_edits_of_nested_data_change_nothing_the_scenario_reports(
        plan_scenario_path):
    sc = load_scenario(plan_scenario_path)
    digest, text = sc.hash(), sc.canonical_json()
    sc.data["obstacles"].pop()
    sc.data["vehicle"]["params"]["C_D"] = 9.0
    assert sc.hash() == digest
    assert sc.canonical_json() == text
    assert sc.to_dict() == json.loads(text)
    assert "C_D" not in sc.data["vehicle"]["params"]
    assert len(sc.with_overrides(seed=7).obstacles) == len(sc.obstacles) == 3
