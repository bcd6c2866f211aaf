"""Independent correctness checks of one op's artifacts.

Each check reads what the op wrote to its output directory and the
scenario dict it was given, and recomputes what it can without calling
tubeplan.  A check raises ``CheckFailed`` when an output is wrong, and
``GoalMissed`` when the outputs are right but report that the op did not
reach its goal (a planned path whose tube collides).  Both count as a
failed op.  On success a check returns the op's quality figures.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

MC_GATE = 0.20  # the README's 20 % acceptance gate on position variance


class CheckFailed(Exception):
    """An artifact is wrong or inconsistent."""


class GoalMissed(Exception):
    """The artifacts are consistent but report a failed outcome."""


def _require(cond, msg):
    if not cond:
        raise CheckFailed(msg)


def _box_rotation(yaw):
    c, s = math.cos(yaw), math.sin(yaw)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def _halfspaces(obstacle):
    """Unit-row (A, b) of a scenario obstacle entry."""
    if "box" in obstacle:
        box = obstacle["box"]
        R = _box_rotation(box["yaw"])
        c = np.asarray(box["center"], dtype=float)
        h = np.asarray(box["half_extents"], dtype=float)
        A = np.concatenate([R.T, -R.T])
        b = np.concatenate([R.T @ c + h, -(R.T @ c) + h])
        return A, b
    A = np.asarray(obstacle["halfspaces"]["A"], dtype=float)
    b = np.asarray(obstacle["halfspaces"]["b"], dtype=float)
    n = np.linalg.norm(A, axis=1)
    return A / n[:, None], b / n


def _read_csv(path):
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def _check_verdicts(report):
    """Per-obstacle and overall verdicts agree with min_cstar2 vs c2."""
    collide = False
    for cl in report["clearance"]:
        m = cl["min_cstar2"]
        want = "clear" if m is None or m >= cl["c2"] else "collide"
        _require(cl["verdict"] == want, f"{cl['obstacle_id']}: verdict "
                 f"{cl['verdict']} but min_cstar2 {m} vs c2 {cl['c2']}")
        collide |= want == "collide"
    _require(report["verdict"] == ("collide" if collide else "clear"),
             "overall verdict disagrees with the per-obstacle verdicts")


def check_validate(data, out: Path):
    report = json.loads((out / "report.json").read_text())
    _check_verdicts(report)
    tube = {}
    with open(out / "tube.jsonl", encoding="utf-8") as fh:
        for line in fh:
            rec = json.loads(line)
            tube[rec["t"]] = rec
    obstacles = {o["id"]: o for o in data["obstacles"]}
    clearance = report["clearance"]
    _require([c["obstacle_id"] for c in clearance] == list(obstacles),
             "clearance reports do not match the obstacles")
    for cl in clearance:
        oid, m = cl["obstacle_id"], cl["min_cstar2"]
        if m is None:
            _require(cl["z_star"] is None,
                     f"{oid}: unchecked obstacle has a z_star")
            continue
        A, b = _halfspaces(obstacles[oid])
        z = np.asarray(cl["z_star"], dtype=float)
        _require(float(np.max(A @ z - b)) <= 1e-6,
                 f"{oid}: z_star lies outside the obstacle")
        rec = tube.get(cl["argmin_t"])
        _require(rec is not None, f"{oid}: argmin_t not on the tube")
        sigma = np.asarray(rec["sigma"], dtype=float).reshape(3, 3)
        d = z - np.asarray(rec["center"], dtype=float)
        maha = float(d @ np.linalg.solve(sigma, d)) if d.any() else 0.0
        _require(abs(maha - m) <= 1e-6 * max(1.0, m),
                 f"{oid}: Mahalanobis distance {maha} != min_cstar2 {m}")
    return {}


def _footprint(obstacle, altitude):
    """Corners of a box obstacle's cross-section at ``altitude``, or None."""
    _require("box" in obstacle, "plan check handles box obstacles only")
    box = obstacle["box"]
    cz, hz = box["center"][2], box["half_extents"][2]
    if not cz - hz <= altitude <= cz + hz:
        return None
    R = _box_rotation(box["yaw"])[:2, :2]
    hx, hy = box["half_extents"][:2]
    local = np.array([[hx, hy], [-hx, hy], [-hx, -hy], [hx, -hy]])
    return np.asarray(box["center"][:2]) + local @ R.T


def _segment_meets_polygon(p, q, corners, tol=1e-9):
    """Separating-axis test: segment pq against a convex polygon."""
    axes = [np.array([-(q - p)[1], (q - p)[0]])]
    for i in range(len(corners)):
        e = corners[(i + 1) % len(corners)] - corners[i]
        axes.append(np.array([-e[1], e[0]]))
    for ax in axes:
        n = float(np.linalg.norm(ax))
        if n == 0.0:
            continue
        ax = ax / n
        s = [float(p @ ax), float(q @ ax)]
        c = corners @ ax
        if max(s) < c.min() + tol or c.max() < min(s) + tol:
            return False
    return True


def check_plan(data, out: Path):
    report = json.loads((out / "report.json").read_text())
    if report["verdict"] == "error":
        raise GoalMissed("the planner found no path")
    _check_verdicts(report)
    planner = data["planner"]
    path = _read_csv(out / "path.csv")
    start = np.asarray(planner["start"], dtype=float)
    goal = np.asarray(planner["goal"], dtype=float)
    _require(np.linalg.norm(path[0] - start) <= 1e-9,
             "path does not begin at the start")
    _require(np.linalg.norm(path[-1] - goal) <= planner["goal_radius"],
             "path does not end within goal_radius of the goal")
    for obstacle in data["obstacles"]:
        corners = _footprint(obstacle, planner["altitude"])
        if corners is None:
            continue
        for p, q in zip(path[:-1], path[1:]):
            _require(not _segment_meets_polygon(p, q, corners),
                     f"path segment {p.tolist()}->{q.tolist()} crosses "
                     f"{obstacle['id']}")
    length = float(np.sum(np.linalg.norm(np.diff(path, axis=0), axis=1)))
    _require(abs(length - report["extras"]["path_length"]) <= 1e-9 * length,
             "reported path_length disagrees with path.csv")
    if report["verdict"] != "clear":
        raise GoalMissed(f"planned path's tube verdict is "
                         f"{report['verdict']!r}")
    return {"plan_path_ratio": length / float(np.linalg.norm(goal - start))}


def _position_rel_dev(lc_var, mc_var):
    """|lc - mc| / mc of each position channel, as the runner masks it.

    Only instants where the MC variance is at least 5 % of that
    channel's peak count.  Both vehicle models keep position in the
    first three state columns.
    """
    out = []
    for i in range(3):
        mc = mc_var[:, i]
        mask = mc >= 0.05 * mc.max()
        out.append(np.abs(lc_var[mask, i] - mc[mask]) / mc[mask])
    return np.concatenate(out)


def position_max_rel_dev(lc_var, mc_var):
    """The runner's position_max_rel_dev."""
    return float(np.max(_position_rel_dev(lc_var, mc_var)))


def position_rms_rel_dev(lc_var, mc_var):
    """Root mean square of the same relative deviations."""
    return float(np.sqrt(np.mean(_position_rel_dev(lc_var, mc_var) ** 2)))


class McPool:
    """Monte Carlo variances pooled over a run's first mc-compare ops.

    Every op has the same flight and so the same LinCov variances; the
    pooled deviation is that of one ensemble of (ops x runs) members.
    Its root mean square over time is far steadier than the maximum,
    which one op's sampling noise moves by about 10 %.  Only the first
    ``limit`` ops are pooled, so the figure depends on the seed alone
    and not on how many ops fit into a run.
    """

    def __init__(self, limit):
        self.limit = limit
        self.lc = None
        self.mc_sum = 0.0
        self.ops = 0

    def add(self, lc_var, mc_var):
        if self.lc is None:
            self.lc = lc_var
        _require(np.array_equal(self.lc, lc_var),
                 "LinCov variances differ between ops of one flight")
        if self.ops < self.limit:
            self.mc_sum = self.mc_sum + mc_var
            self.ops += 1

    def deviation(self):
        return position_rms_rel_dev(self.lc, self.mc_sum / self.ops)


def check_mc_compare(data, out: Path, runs, pool: McPool):
    deviation = json.loads((out / "deviation.json").read_text())
    _require(deviation["runs"] == runs, "ensemble size differs")
    dev = deviation["position_max_rel_dev"]
    _require(isinstance(dev, float) and 0.0 < dev <= MC_GATE,
             f"position_max_rel_dev {dev} outside (0, {MC_GATE}]")
    lc_var = _read_csv(out / "lc_variances.csv")[:, 1:]
    mc_var = _read_csv(out / "mc_variances.csv")[:, 1:]
    _require(abs(position_max_rel_dev(lc_var, mc_var) - dev) <= 1e-12,
             "position_max_rel_dev disagrees with the variance files")
    pool.add(lc_var, mc_var)
    return {}
