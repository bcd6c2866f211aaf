"""Seeded input generator: workload seed in, scenario dicts out.

Nothing here imports ``tubeplan``; the program only ever sees the dicts
these functions return (after ``parse_scenario``).  Scenario ``i`` of a
workload depends only on (workload, seed, i), so a run that fits more
operations into its time budget still sees the same first inputs.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

SCENARIO_DIR = Path("scenarios")
WORKLOADS = ("validate", "plan", "mc-compare")

MC_RUNS = 2000
# mc-compare ops whose ensembles are pooled for the quality figure; a
# 38 s run fits 5-7 ops
MC_POOLED_OPS = 4
# validate: one 20-face prism per op (ROADMAP item 2 benches the QP up to
# m ~ 20 faces), plus a seeded mix of boxes and smaller prisms
MAX_PRISM_SIDES = 18


def _rng(workload, seed, index):
    return random.Random(f"{workload}/{seed}/{index}")


def _r(x):
    return round(float(x), 6)


def _load(name):
    with open(SCENARIO_DIR / f"{name}.json", encoding="utf-8") as fh:
        return json.load(fh)


def _path_point(profile, t):
    """Desired (x, y) of the lateral-sinusoid profile at time t."""
    x0, y0 = profile["origin"]
    x = x0 + profile["cruise_speed"] * t
    y = y0 + profile["amplitude"] * math.sin(2.0 * math.pi * t
                                             / profile["period"])
    return x, y


def _prism(rng, center_xy, radius, sides, z_lo, z_hi):
    """Halfspaces of a vertical prism over a convex polygon.

    Side normals are evenly spaced (so the region is bounded) with a
    random phase; each face's offset from the centre is jittered.
    """
    phase = rng.uniform(0.0, 2.0 * math.pi)
    A, b = [], []
    for k in range(sides):
        th = phase + 2.0 * math.pi * k / sides
        n = (math.cos(th), math.sin(th), 0.0)
        off = radius * rng.uniform(0.8, 1.0)
        A.append([_r(n[0]), _r(n[1]), 0.0])
        b.append(_r(n[0] * center_xy[0] + n[1] * center_xy[1] + off))
    A.append([0.0, 0.0, 1.0])
    b.append(_r(z_hi))
    A.append([0.0, 0.0, -1.0])
    b.append(_r(-z_lo))
    return {"A": A, "b": b}


def validate_scenario(seed, index):
    """Fixed-wing lateral-sinusoid plan (35 s) with a seeded obstacle field.

    Obstacles straddle the flight level and sit a few tube radii (the
    tube is ~6-12 m across its axes here) to the side of the desired
    path, so the sphere prefilter passes for part of the pass and the
    QP decides both 'clear' and 'collide'.
    """
    rng = _rng("validate", seed, index)
    raw = _load("fixedwing_lateral_sinusoid")
    profile = raw["desired_trajectory"]
    profile.update({
        "cruise_speed": _r(rng.uniform(18.0, 22.0)),
        "amplitude": _r(rng.uniform(6.0, 14.0)),
        "period": _r(rng.uniform(16.0, 24.0)),
        "altitude": _r(rng.uniform(80.0, 120.0)),
        "origin": [_r(rng.uniform(-50.0, 50.0)), _r(rng.uniform(-50.0, 50.0))],
    })
    alt = profile["altitude"]
    count = rng.randint(4, 7)
    tf = raw["grid"]["tf"]
    slots = sorted(rng.uniform(0.1, 0.95) * tf for _ in range(count))
    obstacles = []
    for k, t in enumerate(slots):
        px, py = _path_point(profile, t)
        side = rng.choice((-1.0, 1.0))
        gap = rng.uniform(2.0, 24.0)
        z_lo = alt - rng.uniform(5.0, 12.0)
        z_hi = alt + rng.uniform(5.0, 12.0)
        if k == 0 or rng.random() < 0.5:
            sides = MAX_PRISM_SIDES if k == 0 else rng.randint(6, MAX_PRISM_SIDES)
            radius = rng.uniform(4.0, 10.0)
            cy = py + side * (gap + radius)
            obstacles.append({"id": f"prism-{k}", "halfspaces": _prism(
                rng, (px, cy), radius, sides, z_lo, z_hi)})
        else:
            hx, hy = rng.uniform(3.0, 8.0), rng.uniform(3.0, 8.0)
            cy = py + side * (gap + hy)
            obstacles.append({"id": f"box-{k}", "box": {
                "center": [_r(px), _r(cy), _r(0.5 * (z_lo + z_hi))],
                "half_extents": [_r(hx), _r(hy), _r(0.5 * (z_hi - z_lo))],
                "yaw": _r(rng.uniform(-0.3, 0.3))}})
    raw["name"] = f"bench-validate-{seed}-{index}"
    raw["obstacles"] = obstacles
    return raw


def plan_scenario(seed, index):
    """The bundled three-obstacles problem, planner seed as shipped.

    Every op plans the same problem with the scenario's own planner
    seed, which plans a clear path.  About 5 % of other planner seeds
    end in a colliding plan (the buffer-sizing defect noted in the
    README); a workload seed that drew them would make the number of
    failed ops depend on how many ops fit into a run.
    """
    raw = _load("quadrotor_three_obstacles")
    raw["name"] = f"bench-plan-{seed}-{index}"
    return raw


def mc_compare_scenario(seed, index):
    """The bundled ascent-cruise-descent flight with a per-op MC base seed."""
    rng = _rng("mc-compare", seed, index)
    raw = _load("quadrotor_ascent_cruise_descent")
    raw["name"] = f"bench-mc-compare-{seed}-{index}"
    raw["seed"] = rng.randrange(2**31)
    return raw


_MAKERS = {"validate": validate_scenario, "plan": plan_scenario,
           "mc-compare": mc_compare_scenario}


def scenario(workload, seed, index):
    """Scenario dict ``index`` of ``workload`` under workload seed ``seed``."""
    return _MAKERS[workload](seed, index)


def canonical(data):
    """The byte form the self-test compares."""
    return json.dumps(data, sort_keys=True, separators=(",", ":")).encode()
