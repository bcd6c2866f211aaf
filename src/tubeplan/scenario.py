"""Scenario files: schema, validation, normalization and hashing.

A scenario is a single JSON document (SI units, radians unless a key
says ``_deg``) that fully determines a run: vehicle and parameters, time
grid, initial state and covariance, desired trajectory or planner
problem, obstacles, confidence level and RNG seed.  Parsing is strict —
unknown keys and malformed fields raise ScenarioError with the offending
field path — and normalization is canonical, so the round trip
parse -> serialize -> parse is the identity and the scenario hash is
stable across platforms.
A parsed ``Scenario`` holds the run objects built from it, once, at
parse; a constructor's range error is reported under its section.
"""

from __future__ import annotations

import hashlib
import json
import math
import types
from dataclasses import dataclass, fields

import numpy as np

from .errors import ScenarioError
from .geometry import CuboidObstacle
from .planner import Bounds, PlannerConfig
from .simcore import TimeGrid
from .vehicles import (
    FixedWingModel,
    FixedWingParams,
    FixedWingPolylineProfile,
    LateralSinusoidProfile,
    PolylineProfile3D,
    QuadrotorModel,
    QuadrotorParams,
    ascent_cruise_descent,
)

__all__ = ["Scenario", "load_scenario", "parse_scenario", "SCHEMA_VERSION"]

SCHEMA_VERSION = 1

_TOP_KEYS = {"schema_version", "name", "seed", "beta", "vehicle", "grid",
             "initial_state", "initial_covariance", "desired_trajectory",
             "obstacles", "planner"}
_VEHICLE_KEYS = {"type", "params"}
_GRID_KEYS = {"t0", "tf", "dt"}
_PLANNER_KEYS = {f.name for f in fields(PlannerConfig)} | {"start", "goal"}

_MODELS = {
    "quadrotor": (QuadrotorModel, QuadrotorParams),
    "fixedwing": (FixedWingModel, FixedWingParams),
}

_PROFILES = {
    "quadrotor": {"ascent-cruise-descent", "waypoints"},
    "fixedwing": {"lateral-sinusoid", "waypoints"},
}


def _fail(path, msg):
    raise ScenarioError(f"{path}: {msg}")


def _require(cond, path, msg):
    if not cond:
        _fail(path, msg)


def _check_keys(obj, allowed, path):
    _require(isinstance(obj, dict), path, "must be an object")
    unknown = set(obj) - allowed
    if unknown:
        _fail(path, f"unknown key(s) {sorted(unknown)}")


def _number(obj, path, *, positive=False, nonnegative=False):
    _require(isinstance(obj, (int, float)) and not isinstance(obj, bool),
             path, "must be a number")
    v = float(obj)
    _require(math.isfinite(v), path, "must be finite")
    if positive:
        _require(v > 0.0, path, "must be positive")
    if nonnegative:
        _require(v >= 0.0, path, "must be nonnegative")
    return v


def _count(obj, path):
    """A positive integer; an integral float such as 3000.0 is accepted."""
    v = _number(obj, path, positive=True)
    _require(v == int(v), path, "must be an integer")
    return int(v)


def _vector(obj, path, length=None):
    _require(isinstance(obj, list), path, "must be a list of numbers")
    out = [_number(v, f"{path}[{i}]") for i, v in enumerate(obj)]
    if length is not None:
        _require(len(out) == length, path, f"must have length {length}")
    return out


def _gain_matrix(obj, path, size):
    """Scalar -> scaled identity, list -> diagonal, nested list -> matrix."""
    if isinstance(obj, (int, float)) and not isinstance(obj, bool):
        return (_number(obj, path) * np.eye(size)).tolist()
    _require(isinstance(obj, list) and len(obj) == size, path,
             f"must be a scalar, a {size}-list or a {size}x{size} matrix")
    if all(isinstance(v, (int, float)) and not isinstance(v, bool)
           for v in obj):
        return np.diag(_vector(obj, path, size)).tolist()
    return [_vector(row, f"{path}[{i}]", size) for i, row in enumerate(obj)]


def _per_axis(obj, path, *, positive=False, nonnegative=False):
    """Scalar -> three copies, or an explicit 3-list."""
    if isinstance(obj, (int, float)) and not isinstance(obj, bool):
        v = _number(obj, path, positive=positive, nonnegative=nonnegative)
        return [v, v, v]
    vec = _vector(obj, path, 3)
    for i, v in enumerate(vec):
        _number(v, f"{path}[{i}]", positive=positive,
                nonnegative=nonnegative)
    return vec


@dataclass(frozen=True, eq=False)
class Scenario:
    """Frozen, normalized scenario: the canonical JSON text of its dict
    form, then ``name``, ``seed``, ``beta`` and the run objects, all set at
    parse.  ``data`` is a read-only view of a fresh copy of the dict form,
    so editing it changes nothing the scenario hashes, reports or parses
    again.  ``x0`` is None for an "auto" initial state; ``profile``,
    ``planner``, ``start`` and ``goal`` are None when their block is absent.
    Runs share these objects, so ``P0``, ``x0``, ``start``, ``goal`` and
    each obstacle's ``A``, ``b``, ``vertices`` and ``centroid`` are
    read-only, ``obstacles`` is a tuple, and ``planner`` and the model's
    parameters are frozen; the profile stays writable."""

    _json: str
    source: str
    name: str
    seed: int
    beta: float
    model: QuadrotorModel | FixedWingModel
    grid: TimeGrid
    P0: np.ndarray
    x0: np.ndarray | None
    profile: object
    obstacles: tuple[CuboidObstacle, ...]
    planner: PlannerConfig | None
    start: np.ndarray | None
    goal: np.ndarray | None

    # -- accessors ---------------------------------------------------------

    @property
    def data(self):
        return types.MappingProxyType(json.loads(self._json))

    def initial_state(self):
        """Explicit initial state, or the model's start state on the
        profile at t0."""
        if self.x0 is not None:
            return self.x0
        if self.profile is None:
            raise ScenarioError(f"{self.source}: desired_trajectory: "
                                'required for an "auto" initial state')
        return self.model.start_state(self.profile(self.grid.t0))

    def with_overrides(self, seed=None, beta=None):
        """This scenario parsed again with the seed and/or confidence
        level that are not None; itself when both are None.  Errors name
        the source, as those of ``load_scenario`` do."""
        edits = {k: v for k, v in (("seed", seed), ("beta", beta))
                 if v is not None}
        if not edits:
            return self
        return _parse_from({**self.data, **edits}, self.source)

    # -- serialization -----------------------------------------------------

    def to_dict(self):
        return json.loads(self._json)

    def canonical_json(self):
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)

    def hash(self):
        return hashlib.sha256(self._json.encode("utf-8")).hexdigest()


# --------------------------------------------------------------------------
# parsing: each section is checked, normalized and built in one pass


def _built(path, make, *args, **kwargs):
    """make(*args, **kwargs), its ValueError re-raised under ``path``."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise ScenarioError(f"{path}: {exc}") from exc


def _parse_vehicle(obj):
    _check_keys(obj, _VEHICLE_KEYS, "vehicle")
    vtype = obj.get("type")
    _require(vtype in ("quadrotor", "fixedwing"), "vehicle.type",
             "must be 'quadrotor' or 'fixedwing'")
    model_cls, params_cls = _MODELS[vtype]
    raw = obj.get("params", {})
    _check_keys(raw, {f.name for f in fields(params_cls)}, "vehicle.params")
    params = {}
    for key, val in raw.items():
        path = f"vehicle.params.{key}"
        if key in ("K", "Lam"):
            params[key] = _gain_matrix(val, path, 3)
        elif key == "Lam_f":
            params[key] = _gain_matrix(val, path, 2)
        elif key in ("sigma", "L"):
            params[key] = _per_axis(val, path, nonnegative=(key == "sigma"),
                                    positive=(key == "L"))
        else:
            params[key] = _number(val, path)
    model = model_cls(_built("vehicle.params", params_cls, **{
        k: np.asarray(v, dtype=float) if isinstance(v, list) else v
        for k, v in params.items()}))
    return {"type": vtype, "params": dict(sorted(params.items()))}, model


def _parse_grid(obj):
    _check_keys(obj, _GRID_KEYS, "grid")
    t0 = _number(obj.get("t0", 0.0), "grid.t0", nonnegative=True)
    _require("tf" in obj, "grid.tf", "is required")
    _require("dt" in obj, "grid.dt", "is required")
    tf = _number(obj["tf"], "grid.tf", positive=True)
    dt = _number(obj["dt"], "grid.dt", positive=True)
    _require(tf > t0, "grid.tf", "must exceed grid.t0")
    _require((tf - t0) / dt >= 1.0, "grid.dt", "grid must have >= 2 points")
    return {"t0": t0, "tf": tf, "dt": dt}, TimeGrid(t0, tf, dt)


def _parse_profile(obj, vehicle, grid):
    _require(isinstance(obj, dict), "desired_trajectory", "must be an object")
    kind = obj.get("profile")
    _require(kind in _PROFILES[vehicle], "desired_trajectory.profile",
             f"must be one of {sorted(_PROFILES[vehicle])} for {vehicle}")
    path = "desired_trajectory"
    if kind == "ascent-cruise-descent":
        keys = {"profile", "start_xy", "heading_deg", "start_altitude",
                "cruise_altitude", "cruise_distance", "final_altitude",
                "climb_rate", "cruise_speed", "descent_rate"}
        _check_keys(obj, keys, path)
        spec = {"start_xy": _vector(obj.get("start_xy", [0.0, 0.0]),
                                    f"{path}.start_xy", 2),
                "heading_deg": _number(obj.get("heading_deg", 0.0),
                                       f"{path}.heading_deg")}
        for key in ("start_altitude", "cruise_altitude", "cruise_distance",
                    "final_altitude", "climb_rate", "cruise_speed",
                    "descent_rate"):
            _require(key in obj, f"{path}.{key}", "is required")
            positive = key not in ("start_altitude", "final_altitude")
            spec[key] = _number(obj[key], f"{path}.{key}", positive=positive)
        profile = _built(path, ascent_cruise_descent, **spec)
    elif kind == "lateral-sinusoid":
        keys = {"profile", "cruise_speed", "amplitude", "period",
                "altitude", "origin"}
        _check_keys(obj, keys, path)
        spec = {"origin": _vector(obj.get("origin", [0.0, 0.0]),
                                  f"{path}.origin", 2)}
        for key, positive in (("cruise_speed", True), ("amplitude", False),
                              ("period", True), ("altitude", True)):
            _require(key in obj, f"{path}.{key}", "is required")
            spec[key] = _number(obj[key], f"{path}.{key}", positive=positive)
        profile = _built(path, LateralSinusoidProfile, **spec,
                         fd_step=grid.dt)
    else:  # waypoints
        keys = {"profile", "points", "speed"}
        if vehicle == "fixedwing":
            keys.add("altitude")
        _check_keys(obj, keys, path)
        pts = obj.get("points")
        _require(isinstance(pts, list) and len(pts) >= 2, f"{path}.points",
                 "must list at least two waypoints")
        dim = 3 if vehicle == "quadrotor" else 2
        points = [_vector(p, f"{path}.points[{i}]", dim)
                  for i, p in enumerate(pts)]
        speed = obj.get("speed")
        if isinstance(speed, list):
            speed = _vector(speed, f"{path}.speed", len(points) - 1)
            for i, v in enumerate(speed):
                _require(v > 0.0, f"{path}.speed[{i}]", "must be positive")
        else:
            speed = _number(speed, f"{path}.speed", positive=True)
        spec = {"points": points, "speed": speed}
        if vehicle == "quadrotor":
            profile = _built(path, PolylineProfile3D, points, speed)
        else:
            spec["altitude"] = _number(obj.get("altitude"),
                                       f"{path}.altitude", positive=True)
            profile = _built(path, FixedWingPolylineProfile, points,
                             spec["altitude"], speed, fd_step=grid.dt)
            # past its last waypoint the path holds still, which a
            # fixed-wing cannot fly
            _require(grid.times()[-1] < profile.duration, "grid.tf",
                     "must end before the waypoint path does, at "
                     f"{profile.duration:.6g} s")
    return dict(sorted({"profile": kind, **spec}.items())), profile


def _parse_obstacles(obj):
    _require(isinstance(obj, list), "obstacles", "must be a list")
    entries, obstacles = [], []
    seen = set()
    for k, entry in enumerate(obj):
        path = f"obstacles[{k}]"
        _require(isinstance(entry, dict), path, "must be an object")
        has_box = "box" in entry
        has_hs = "halfspaces" in entry
        _require(has_box != has_hs, path,
                 "needs exactly one of 'box' or 'halfspaces'")
        _check_keys(entry, {"id", "box", "halfspaces"}, path)
        oid = entry.get("id", f"obstacle-{k}")
        _require(isinstance(oid, str) and oid, f"{path}.id",
                 "must be a nonempty string")
        _require(oid not in seen, f"{path}.id", f"duplicate id {oid!r}")
        seen.add(oid)
        if has_box:
            box = entry["box"]
            _check_keys(box, {"center", "half_extents", "yaw"}, f"{path}.box")
            parsed = {
                "center": _vector(box.get("center"), f"{path}.box.center", 3),
                "half_extents": _vector(box.get("half_extents"),
                                        f"{path}.box.half_extents", 3),
                "yaw": _number(box.get("yaw", 0.0), f"{path}.box.yaw"),
            }
            for i, h in enumerate(parsed["half_extents"]):
                _require(h > 0.0, f"{path}.box.half_extents[{i}]",
                         "must be positive")
            entries.append({"id": oid, "box": parsed})
            obstacles.append(_built(path, CuboidObstacle.from_box, **parsed,
                                    id=oid))
        else:
            hs = entry["halfspaces"]
            _check_keys(hs, {"A", "b"}, f"{path}.halfspaces")
            A = hs.get("A")
            _require(isinstance(A, list) and len(A) >= 4,
                     f"{path}.halfspaces.A", "must list >= 4 rows")
            rows = [_vector(r, f"{path}.halfspaces.A[{i}]", 3)
                    for i, r in enumerate(A)]
            b = _vector(hs.get("b"), f"{path}.halfspaces.b", len(rows))
            entries.append({"id": oid, "halfspaces": {"A": rows, "b": b}})
            obstacles.append(_built(path, CuboidObstacle,
                                    A=np.asarray(rows, dtype=float),
                                    b=np.asarray(b, dtype=float), id=oid))
    return entries, tuple(obstacles)


def _parse_planner(obj):
    _check_keys(obj, _PLANNER_KEYS, "planner")
    for key in ("bounds", "start", "goal", "altitude", "cruise_speed"):
        _require(key in obj, f"planner.{key}", "is required")
    bounds = obj["bounds"]
    _check_keys(bounds, {"lo", "hi"}, "planner.bounds")
    lo = _vector(bounds.get("lo"), "planner.bounds.lo", 2)
    hi = _vector(bounds.get("hi"), "planner.bounds.hi", 2)
    _require(all(a < b for a, b in zip(lo, hi)), "planner.bounds",
             "must satisfy lo < hi componentwise")
    start = _vector(obj["start"], "planner.start", 2)
    goal = _vector(obj["goal"], "planner.goal", 2)
    for label, q in (("start", start), ("goal", goal)):
        inside = all(l <= v <= h for v, l, h in zip(q, lo, hi))
        _require(inside, f"planner.{label}", "must lie inside the bounds")
    default = {f.name: f.default for f in fields(PlannerConfig)}

    def given(key, parse, **kw):
        return parse(obj.get(key, default[key]), f"planner.{key}", **kw)

    knobs = {
        "altitude": given("altitude", _number, positive=True),
        "cruise_speed": given("cruise_speed", _number, positive=True),
        "N_max": given("N_max", _count),
        "N_conv": given("N_conv", _count),
        "M": given("M", _count),
        "tol": given("tol", _number, positive=True),
        "step": (None if obj.get("step") is None
                 else _number(obj["step"], "planner.step", positive=True)),
        "r_w": (None if obj.get("r_w") is None
                else _number(obj["r_w"], "planner.r_w", positive=True)),
        "goal_radius": given("goal_radius", _number, positive=True),
        "goal_bias": given("goal_bias", _number, nonnegative=True),
    }
    _require(knobs["goal_bias"] <= 0.2, "planner.goal_bias",
             "must not exceed 0.2")
    config = _built("planner", lambda: PlannerConfig(Bounds(lo, hi),
                                                     **knobs))
    block = {"bounds": {"lo": lo, "hi": hi}, "start": start, "goal": goal,
             **knobs}
    return (dict(sorted(block.items())), config, np.asarray(start),
            np.asarray(goal))


def parse_scenario(raw, source="<dict>") -> Scenario:
    """Validate a raw dict against the schema, normalize it and build
    its run objects once."""
    _check_keys(raw, _TOP_KEYS, "scenario")
    version = raw.get("schema_version")
    _require(version == SCHEMA_VERSION, "schema_version",
             f"must be {SCHEMA_VERSION}")
    name = raw.get("name", "unnamed")
    _require(isinstance(name, str) and name, "name",
             "must be a nonempty string")
    seed = raw.get("seed", 0)
    _require(isinstance(seed, int) and not isinstance(seed, bool)
             and seed >= 0, "seed", "must be a nonnegative integer")
    beta = _number(raw.get("beta", 0.999), "beta")
    _require(0.0 < beta < 1.0, "beta", "must lie strictly inside (0, 1)")
    _require("vehicle" in raw, "vehicle", "is required")
    _require("grid" in raw, "grid", "is required")
    vehicle, model = _parse_vehicle(raw["vehicle"])
    grid_block, grid = _parse_grid(raw["grid"])
    spec = profile = None
    if raw.get("desired_trajectory") is not None:
        spec, profile = _parse_profile(raw["desired_trajectory"],
                                       vehicle["type"], grid)
    entries, obstacles = _parse_obstacles(raw.get("obstacles", []))
    block = planner = start = goal = None
    if raw.get("planner") is not None:
        block, planner, start, goal = _parse_planner(raw["planner"])
    n = model.n_states
    ist = raw.get("initial_state", "auto")
    x0 = None
    if ist != "auto":
        _require(isinstance(ist, list), "initial_state",
                 "must be 'auto' or a list of numbers")
        ist = _vector(ist, "initial_state", n)
        x0 = np.asarray(ist)
    icov = raw.get("initial_covariance", "zero")
    P0 = np.zeros((n, n))
    if icov != "zero":
        _require(isinstance(icov, list), "initial_covariance",
                 "must be 'zero' or a diagonal list")
        icov = [_number(v, f"initial_covariance[{i}]", nonnegative=True)
                for i, v in enumerate(icov)]
        _require(len(icov) == n, "initial_covariance",
                 f"diagonal must have length {n}")
        P0 = np.diag(icov)
    for array in (P0, x0, start, goal):
        if array is not None:
            array.setflags(write=False)
    data = {"schema_version": SCHEMA_VERSION, "name": name, "seed": seed,
            "beta": beta, "vehicle": vehicle, "grid": grid_block,
            "initial_state": ist, "initial_covariance": icov,
            "desired_trajectory": spec, "obstacles": entries,
            "planner": block}
    return Scenario(
        _json=json.dumps(data, sort_keys=True, separators=(",", ":")),
        source=source, name=name, seed=seed, beta=beta, model=model,
        grid=grid, P0=P0, x0=x0, profile=profile, obstacles=obstacles,
        planner=planner, start=start, goal=goal)


def load_scenario(path) -> Scenario:
    """Parse a scenario JSON file with field-level diagnostics."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ScenarioError(f"{path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ScenarioError(
            f"{path}: invalid JSON at line {exc.lineno}, column "
            f"{exc.colno}: {exc.msg}") from exc
    return _parse_from(raw, str(path))


def _parse_from(raw, source):
    """parse_scenario(raw, source), its errors prefixed with the source."""
    try:
        return parse_scenario(raw, source=source)
    except ScenarioError as exc:
        raise ScenarioError(f"{source}: {exc}") from exc
