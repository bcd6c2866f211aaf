"""Chance-constrained path planning in the constant-altitude plane.

The inner planner is an informed RRT*: once a first solution exists,
samples are drawn only from the ellipse of points that could shorten it,
and both a choose-parent pass and a rewiring pass keep the tree
asymptotically optimal.  The planner keeps one buffer per obstacle and,
for each buffer value, cuts the obstacle inflated by that buffer at the
planning altitude once (``CrossSection``) and stacks their rows, so that
one segment test is two matrix-vector products for all of them; every
collision gate reads these cross-sections, and the obstacles themselves
never change.

The outer loop makes the plan chance-constrained.  Each round it
propagates the closed-loop state covariance along the current best path,
measures how far the resulting probability tube is from touching each
true obstacle (``buffer_touch_distance``), and shifts that obstacle's
buffer by exactly that amount, so buffers contract toward the size at
which the tube is tangent to the true obstacle.  A buffer that grows
invalidates part of the tree; those nodes are removed and the stranded
subtrees are either reconnected through fresh samples or pruned.  The
loop stops once no buffer grows and the buffers have settled.
"""

from __future__ import annotations

import itertools
import math
import operator
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import PlanningError
from .geometry import (
    CuboidObstacle,
    buffer_touch_distance,
    check_tube_collision,
)
from .simcore import TimeGrid
from .uncertainty import Tube, build_tube, chi2_quantile, lincov
from .vehicles import FixedWingPolylineProfile, PolylineProfile3D

__all__ = [
    "Bounds",
    "PlannerConfig",
    "PlanTree",
    "sample_ellipse",
    "CrossSection",
    "no_collision_2d",
    "add_node",
    "informed_rrt_star",
    "TubeEvaluator",
    "comp_obs_dist",
    "cleanup_and_regrow",
    "dynamic_informed_rrt_star",
    "path_to_trajectory",
    "PlanResult",
]

_ROOT = -1
_ORPHAN = -3
_DEAD, _LIVE, _ORPHANED = 0, 1, 2


@dataclass(frozen=True)
class Bounds:
    """Axis-aligned sampling rectangle for the planner."""

    lo: tuple[float, float]
    hi: tuple[float, float]

    def __post_init__(self):
        object.__setattr__(self, "lo", tuple(float(v) for v in self.lo))
        object.__setattr__(self, "hi", tuple(float(v) for v in self.hi))
        if len(self.lo) != 2 or len(self.hi) != 2:
            raise ValueError("bounds must be 2D")
        if not all(l < h for l, h in zip(self.lo, self.hi)):
            raise ValueError("bounds must satisfy lo < hi componentwise")

    def contains(self, q):
        return bool(np.all(np.asarray(q) >= np.asarray(self.lo) - 1e-12)
                    and np.all(np.asarray(q) <= np.asarray(self.hi) + 1e-12))

    def diagonal(self):
        return float(np.linalg.norm(np.asarray(self.hi) - np.asarray(self.lo)))

    def sample(self, rng):
        lo = np.asarray(self.lo)
        hi = np.asarray(self.hi)
        return lo + rng.random(2) * (hi - lo)


@dataclass(frozen=True)
class PlannerConfig:
    """Tuning knobs of the planner; unset step/r_w derive from the bounds."""

    bounds: Bounds
    altitude: float
    cruise_speed: float
    N_max: int = 3000
    N_conv: int = 200
    M: int = 4
    tol: float = 0.01
    step: float | None = None
    r_w: float | None = None
    goal_radius: float = 1.0
    goal_bias: float = 0.05

    def __post_init__(self):
        if self.step is None:
            object.__setattr__(self, "step", self.bounds.diagonal() / 50.0)
        if self.r_w is None:
            object.__setattr__(self, "r_w", 3.0 * self.step)
        for name in ("N_max", "N_conv", "M"):
            v = getattr(self, name)
            if int(v) != v or v <= 0:
                raise ValueError(f"{name} must be a positive integer")
            object.__setattr__(self, name, int(v))
        pos = {"tol": self.tol, "step": self.step, "r_w": self.r_w,
               "goal_radius": self.goal_radius, "altitude": self.altitude,
               "cruise_speed": self.cruise_speed}
        for name, v in pos.items():
            if not v > 0.0:
                raise ValueError(f"{name} must be positive")
        if not 0.0 <= self.goal_bias <= 0.2:
            raise ValueError("goal_bias must lie in [0, 0.2]")


class PlanTree:
    """Rooted tree over 2D waypoints with cost-to-come bookkeeping.

    Nodes are stored in flat arrays and never physically deleted.  Each
    has one ``_state``: live (seen by every query), orphaned (detached by
    obstacle growth, unseen until reconnected) or dead, as is an unused
    slot.  A node is a goal node when it lies within ``goal_radius`` of
    the goal; that is fixed at insert, since nodes never move, and the
    root is never one, so every path to the goal has at least one tree
    edge.  So is a node's distance to the goal (``_leg``, the
    ``np.linalg.norm`` taken at insert).  ``c_best`` is recomputed on
    every call from the live goal nodes' costs plus these closing-leg
    lengths; ``add_node`` and ``cleanup_and_regrow`` keep each closing
    segment free of every cross-section.
    """

    def __init__(self, start, goal, goal_radius):
        self.start = np.asarray(start, dtype=float).reshape(2)
        self.goal = np.asarray(goal, dtype=float).reshape(2)
        self.goal_radius = float(goal_radius)
        cap = 256
        self._xy = np.zeros((cap, 2))
        self._parent = np.zeros(cap, dtype=int)
        self._cost = np.zeros(cap)
        self._leg = np.zeros(cap)
        self._state = np.zeros(cap, dtype=np.int8)
        self._children: list[list[int]] = [[] for _ in range(cap)]
        self.size = 0
        self._goal_nodes: list[int] = []  # ascending, dead ones included
        self.root = self.insert(self.start, _ROOT, 0.0)

    # -- storage ----------------------------------------------------------

    def _ensure_capacity(self):
        cap = self._xy.shape[0]
        if self.size < cap:
            return
        for name in ("_xy", "_parent", "_cost", "_leg", "_state"):
            a = getattr(self, name)
            setattr(self, name, np.concatenate([a, np.zeros_like(a)]))
        self._children.extend([] for _ in range(cap))

    def insert(self, xy, parent, cost):
        self._ensure_capacity()
        i = self.size
        self.size += 1
        self._xy[i] = xy
        self._parent[i] = parent
        self._cost[i] = cost
        self._leg[i] = _norm(self._xy[i] - self.goal)
        self._state[i] = _LIVE
        if parent >= 0:
            self._children[parent].append(i)
            if self._leg[i] <= self.goal_radius:
                self._goal_nodes.append(i)
        return i

    # -- queries ----------------------------------------------------------

    def _active_mask(self):
        return self._state[:self.size] == _LIVE

    def coords(self, i):
        return self._xy[i].copy()

    def cost(self, i):
        return float(self._cost[i])

    def parent(self, i):
        return int(self._parent[i])

    def num_alive(self):
        return int(np.count_nonzero(self._active_mask()))

    def _sq_dists(self, q):
        """Squared distance from every slot to q, x*x + y*y per slot (the
        bits of a row-wise ``einsum``), formed one column at a time: a
        row-wise difference array is formed two numbers at a time."""
        x = self._xy[:self.size, 0] - q[0]
        y = self._xy[:self.size, 1] - q[1]
        return x * x + y * y

    def nearest(self, q):
        d2 = self._sq_dists(q)
        d2[self._state[:self.size] != _LIVE] = np.inf
        i = int(np.argmin(d2))
        return i if self._state[i] == _LIVE else None

    def near(self, q, radius):
        hit = self._sq_dists(q) <= radius * radius
        return (hit & self._active_mask()).nonzero()[0]

    def _best_solution(self):
        """(total cost, node) of the cheapest solution, or (inf, None)."""
        best, best_i = math.inf, None
        for i in self._goal_nodes:
            if self._state[i] != _LIVE:
                continue
            total = self._cost[i] + self._leg[i]
            if total < best:
                best, best_i = float(total), i
        return best, best_i

    def c_best(self):
        return self._best_solution()[0]

    def best_goal_node(self):
        return self._best_solution()[1]

    def best_path(self):
        """Waypoints root -> goal of the cheapest solution, goal appended."""
        i = self.best_goal_node()
        if i is None:
            raise PlanningError("tree holds no path reaching the goal")
        chain = []
        while i >= 0:
            chain.append(self._xy[i])
            i = self._parent[i]
        pts = list(reversed(chain))
        if np.linalg.norm(pts[-1] - self.goal) > 1e-12:
            pts.append(self.goal.copy())
        out = [pts[0]]
        for p in pts[1:]:
            if np.linalg.norm(p - out[-1]) > 1e-9:
                out.append(p)
        return np.array(out)

    def live_columns(self):
        """Index, parent, x, y and cost of the live nodes, as arrays in
        index order."""
        i = np.flatnonzero(self._active_mask())
        return (i, self._parent[i], self._xy[i, 0], self._xy[i, 1],
                self._cost[i])

    # -- mutation ---------------------------------------------------------

    def reparent(self, i, new_parent, new_cost):
        """Move node i under new_parent, shifting its subtree's costs."""
        old_parent = self._parent[i]
        if old_parent >= 0:
            self._children[old_parent].remove(i)
        self._parent[i] = new_parent
        self._children[new_parent].append(i)
        delta = new_cost - self._cost[i]
        stack = [i]
        while stack:
            k = stack.pop()
            self._cost[k] += delta
            stack.extend(self._children[k])

    def kill(self, i):
        """Make live or orphaned node i dead, unlinked from a parent that is
        not dead (the caller handles its children beforehand)."""
        p = self._parent[i]
        if p >= 0 and self._state[p] != _DEAD:
            self._children[p].remove(i)
        self._state[i] = _DEAD
        self._children[i] = []

    def component(self, r):
        """All node indices in the subtree rooted at r."""
        out = []
        stack = [r]
        while stack:
            k = stack.pop()
            out.append(k)
            stack.extend(self._children[k])
        return out

    def detach_orphan(self, r):
        """Cut r from its parent and flag its whole subtree as orphaned."""
        p = self._parent[r]
        if p >= 0 and self._state[p] != _DEAD:
            self._children[p].remove(r)
        self._parent[r] = _ORPHAN
        self._state[self.component(r)] = _ORPHANED

    def adopt_orphan(self, n_o, new_parent):
        """Reconnect an orphaned component through its node n_o.

        The path from n_o up to the component's detached root is
        reversed so n_o becomes the component root, then the whole
        component gets fresh costs and rejoins every query.
        """
        chain = [n_o]
        while self._parent[chain[-1]] != _ORPHAN:
            chain.append(int(self._parent[chain[-1]]))
        for a, b in zip(chain, chain[1:]):
            # b was the parent of a; flip the edge
            self._children[b].remove(a)
            self._parent[b] = a
            self._children[a].append(b)
        self._parent[n_o] = new_parent
        self._children[new_parent].append(n_o)
        self._cost[n_o] = self._cost[new_parent] + float(
            np.linalg.norm(self._xy[n_o] - self._xy[new_parent]))
        stack = [n_o]
        while stack:
            k = stack.pop()
            self._state[k] = _LIVE
            for ch in self._children[k]:
                self._cost[ch] = self._cost[k] + float(
                    np.linalg.norm(self._xy[ch] - self._xy[k]))
                stack.append(ch)

    def orphan_nodes(self):
        return np.flatnonzero(self._state[:self.size] == _ORPHANED)

    # -- diagnostics -------------------------------------------------------

    def check_consistency(self):
        """Raise AssertionError on any structural violation (test hook)."""
        state = self._state[:self.size]
        assert np.isin(state, (_DEAD, _LIVE, _ORPHANED)).all(), (
            "a node state is none of dead, live and orphaned")
        assert state[self.root] == _LIVE
        assert self._parent[self.root] == _ROOT
        goal_nodes = set(self._goal_nodes)
        for i in range(self.size):
            if state[i] == _DEAD:
                continue
            # the root is never a goal node, whatever its distance
            in_goal = (i != self.root and np.linalg.norm(
                self._xy[i] - self.goal) <= self.goal_radius)
            assert (i in goal_nodes) == in_goal, (
                f"goal membership of node {i} disagrees with goal_radius")
            assert self._leg[i] == np.linalg.norm(self._xy[i] - self.goal), (
                f"cached closing leg of node {i} is stale")
            for ch in self._children[i]:
                assert state[ch] != _DEAD, f"dead child {ch} linked under {i}"
                assert self._parent[ch] == i
            p = self._parent[i]
            if state[i] == _ORPHANED:
                assert p == _ORPHAN or (p >= 0 and state[p] == _ORPHANED), (
                    f"orphan {i} hangs under a node that is not orphaned")
                continue
            if i == self.root:
                assert self._cost[i] == 0.0
                continue
            assert p >= 0, f"connected node {i} lacks a parent"
            assert state[p] == _LIVE
            edge = float(np.linalg.norm(self._xy[i] - self._xy[p]))
            assert abs(self._cost[i] - (self._cost[p] + edge)) <= 1e-9, (
                f"cost recursion violated at node {i}")
            # acyclicity: walk to the root with a step budget
            k, steps = i, 0
            while k != self.root:
                k = int(self._parent[k])
                steps += 1
                assert k >= 0 and steps <= self.size, f"cycle through {i}"


# --------------------------------------------------------------------------
# sampling and collision gates


def sample_ellipse(start, goal, c_best, bounds: Bounds, rng):
    """Uniform sample from the informed subset (or the bounds if unsolved).

    With a finite incumbent cost the sample is uniform over the ellipse
    whose foci are start and goal and whose major axis is c_best, drawn
    by scaling a unit-disk sample to the half-axes c_best/2 and
    sqrt(c_best^2 - c_min^2)/2, rotated onto the focal line; samples
    falling outside the bounds are rejected and redrawn.  The arithmetic
    is done in Python floats, each component in the order of the array
    expression ``center + (a r cos phi) ex + (b r sin phi) ey``.
    """
    start = np.asarray(start, dtype=float)
    goal = np.asarray(goal, dtype=float)
    if not math.isfinite(c_best):
        return bounds.sample(rng)
    c_min = _norm(goal - start)
    c_best = max(float(c_best), c_min)
    (sx, sy), (gx, gy) = start.tolist(), goal.tolist()
    cx, cy = 0.5 * (sx + gx), 0.5 * (sy + gy)
    a = 0.5 * c_best
    b = 0.5 * math.sqrt(max(c_best * c_best - c_min * c_min, 0.0))
    if c_min > 0.0:
        ux, uy = (gx - sx) / c_min, (gy - sy) / c_min
    else:
        ux, uy = 1.0, 0.0
    lo_x, lo_y = (v - 1e-12 for v in bounds.lo)
    hi_x, hi_y = (v + 1e-12 for v in bounds.hi)
    for _ in range(10000):
        r = math.sqrt(rng.random())
        phi = 2.0 * math.pi * rng.random()
        u, v = a * r * math.cos(phi), b * r * math.sin(phi)
        # the major axis is (ux, uy), the minor one (-uy, ux)
        x = cx + u * ux + v * -uy
        y = cy + u * uy + v * ux
        if lo_x <= x <= hi_x and lo_y <= y <= hi_y:
            return np.array([x, y])
    return np.clip(np.array([x, y]), bounds.lo, bounds.hi)


@dataclass(frozen=True, eq=False)
class CrossSection:
    """Planar region {q : A2 q <= rhs} where ``obstacle``, inflated by the
    planner's ``buffer``, meets the plane z = ``altitude``.

    Built once per buffer value; ``obstacle`` is left as it is.
    """

    obstacle: CuboidObstacle
    altitude: float
    buffer: float
    A2: np.ndarray = field(init=False, repr=False)
    rhs: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        A = self.obstacle.A
        object.__setattr__(self, "A2", A[:, :2])
        object.__setattr__(self, "rhs", (self.obstacle.b + self.buffer)
                           - A[:, 2] * self.altitude)

    @property
    def id(self):
        return self.obstacle.id

    def contains(self, q):
        return bool(np.all(self.A2 @ np.asarray(q, dtype=float)
                           <= self.rhs + 1e-12))

    def meets_segment(self, p, q):
        """Exact test: does segment pq meet the region?  Grazing contact
        counts as a hit (see ``_meets_any``)."""
        return _meets_any(self.A2, self.rhs, (len(self.rhs),),
                          np.asarray(p, dtype=float),
                          np.asarray(q, dtype=float))


class _Stacked(tuple):
    """A tuple of cross-sections with their rows stacked once: ``A2`` and
    ``rhs`` hold every section's rows in order, and ``ends`` the row
    index after each section's last."""

    def __new__(cls, sections):
        self = super().__new__(cls, sections)
        self.A2 = np.concatenate([np.zeros((0, 2))] + [s.A2 for s in self])
        self.rhs = np.concatenate([np.zeros(0)] + [s.rhs for s in self])
        self.ends = list(itertools.accumulate(len(s.rhs) for s in self))
        return self


def _stacked(sections):
    """The sections as a ``_Stacked``, stacking them unless they are."""
    return sections if isinstance(sections, _Stacked) else _Stacked(sections)


def _meets_any(A2, rhs, ends, p, q):
    """Does segment pq meet any region {A2[k:e] x <= rhs[k:e]}, where each
    region's rows end at one entry of ``ends``?

    Every half-space constraint is affine along the segment, so a
    region's feasible parameter set is an interval obtained by clipping
    [0, 1]; the segment meets the region iff the interval is nonempty.
    Grazing contact (within 1e-12) counts as a hit.  One matrix-vector
    product per side serves every region, with the bits of the
    region-by-region products; the clipping runs in Python floats.
    """
    alpha = (A2 @ p - rhs).tolist()
    beta = (A2 @ (q - p)).tolist()
    start = 0
    for end in ends:
        t0, t1 = 0.0, 1.0
        for al, be in zip(alpha[start:end], beta[start:end]):
            if abs(be) < 1e-15:
                if al > 1e-12:
                    break
                continue
            crossing = -al / be
            if be > 0.0:
                if crossing < t1:
                    t1 = crossing
            elif crossing > t0:
                t0 = crossing
            if t0 > t1 + 1e-12:
                break
        else:
            return True
        start = end
    return False


def no_collision_2d(p, q, sections):
    """True iff segment pq avoids every obstacle cross-section."""
    stack = _stacked(sections)
    return not _meets_any(stack.A2, stack.rhs, stack.ends,
                          np.asarray(p, dtype=float),
                          np.asarray(q, dtype=float))


def _norm(v):
    """``np.linalg.norm`` of a 1-D float array, computed as numpy does it,
    sqrt(v . v), without its dispatch."""
    return math.sqrt(v.dot(v))


def _norms(D):
    """Row lengths of an (n, 2) array, each with the bits of the 1-D
    ``np.linalg.norm`` of its row: a dot product, which a BLAS may fuse
    into a multiply-add, so ``x*x + y*y`` or ``axis=1`` can differ."""
    return np.sqrt(D[:, None, :] @ D[:, :, None]).ravel().tolist()


# --------------------------------------------------------------------------
# tree growth


def add_node(tree: PlanTree, sections, cfg: PlannerConfig, rng):
    """One sampling/steer/choose-parent/rewire round.

    Returns the index of the inserted node, or None when the sample was
    rejected (out of steer reach of free space, or within goal_radius of
    the goal but blocked from it); a rejected sample leaves the tree
    untouched.  Before a first solution exists the goal itself is
    sampled with probability ``goal_bias``.
    """
    c_best = tree.c_best()
    if (not math.isfinite(c_best)) and cfg.goal_bias > 0.0 \
            and rng.random() < cfg.goal_bias:
        x_rand = tree.goal.copy()
    else:
        x_rand = sample_ellipse(tree.start, tree.goal, c_best,
                                cfg.bounds, rng)
    i_near = tree.nearest(x_rand)
    if i_near is None:
        return None
    x_near = tree.coords(i_near)
    gap = _norm(x_rand - x_near)
    if gap < 1e-12:
        return None
    x_new = x_near + min(cfg.step, gap) / gap * (x_rand - x_near)
    if not no_collision_2d(x_near, x_new, sections):
        return None
    # best_path closes a goal-region node's path straight to the goal
    if _norm(x_new - tree.goal) <= tree.goal_radius \
            and not no_collision_2d(x_new, tree.goal, sections):
        return None
    near_idx = tree.near(x_new, cfg.r_w)
    near = near_idx.tolist()
    dists = _norms(tree._xy[near_idx] - x_new)
    if dists and min(dists) < 1e-9:
        return None
    # choose parent: cheapest collision-free connection among neighbors,
    # with the steering node as always-valid fallback
    candidates = sorted(zip(map(operator.add, tree._cost[near_idx].tolist(),
                                dists), near))
    parent = i_near
    new_cost = tree.cost(i_near) + _norm(x_new - x_near)
    for total, i in candidates:
        if total >= new_cost:
            break
        if i == i_near or no_collision_2d(tree.coords(i), x_new,
                                          sections):
            parent, new_cost = i, total
            break
    j = tree.insert(x_new, parent, new_cost)
    # rewire neighbors through the new node when strictly cheaper
    for i, d in zip(near, dists):
        if i == parent:
            continue
        through = new_cost + d
        if through < tree.cost(i) - 1e-12 and no_collision_2d(
                x_new, tree.coords(i), sections):
            tree.reparent(i, j, through)
    return j


def _require_free_endpoint(label, q, sections, cfg):
    if not cfg.bounds.contains(q):
        raise PlanningError(f"{label} {np.round(q, 3).tolist()} is outside "
                            "the sampling bounds")
    for s in sections:
        if s.contains(q):
            raise PlanningError(
                f"{label} lies inside buffered obstacle {s.id!r} "
                f"(buffer {s.buffer:.3f} m)")


def informed_rrt_star(start, goal, sections, cfg: PlannerConfig, rng,
                      tree: PlanTree | None = None):
    """Grow (or continue) a tree until the best cost stalls or N_max.

    Convergence: after at least N_conv iterations, stop when
    |c_i - c_{i-N_conv}| / c_{i-N_conv} <= tol with both costs finite.
    The returned tree may still hold no solution; callers decide whether
    that is fatal.
    """
    start = np.asarray(start, dtype=float).reshape(2)
    goal = np.asarray(goal, dtype=float).reshape(2)
    sections = _stacked(sections)
    _require_free_endpoint("start", start, sections, cfg)
    _require_free_endpoint("goal", goal, sections, cfg)
    if tree is None:
        tree = PlanTree(start, goal, cfg.goal_radius)
    history = []
    for _ in range(cfg.N_max):
        add_node(tree, sections, cfg, rng)
        c = tree.c_best()
        history.append(c)
        if len(history) > cfg.N_conv:
            prev = history[-1 - cfg.N_conv]
            if math.isfinite(c) and math.isfinite(prev) and prev > 0.0:
                if abs((c - prev) / prev) <= cfg.tol:
                    break
    return tree


# --------------------------------------------------------------------------
# tube evaluation along a candidate path


def path_to_trajectory(path_xy, altitude, cruise_speed, vehicle, fd_step):
    """Desired-trajectory callable for a planar waypoint path.

    Quadrotor: constant-altitude, constant-speed 3D polyline (piecewise
    linear position, piecewise constant velocity, zero commanded
    acceleration).  Fixed-wing: planar polyline track at the given
    altitude with finite-difference track acceleration.
    """
    path = np.asarray(path_xy, dtype=float)
    if path.ndim != 2 or path.shape[0] < 2 or path.shape[1] != 2:
        raise PlanningError("path must contain at least two 2D waypoints")
    if vehicle == "quadrotor":
        pts = np.column_stack([path, np.full(len(path), float(altitude))])
        return PolylineProfile3D(pts, float(cruise_speed))
    if vehicle == "fixedwing":
        return FixedWingPolylineProfile(path, float(altitude),
                                        float(cruise_speed), float(fd_step))
    raise PlanningError(f"unknown vehicle {vehicle!r}")


@dataclass
class TubeEvaluator:
    """Covariance pipeline bound to one vehicle and one time step.

    ``tube_for_path`` runs the LinCov chain (``lincov``) and tube
    extraction for a candidate planar path.  When no explicit initial
    state is given, the model's ``start_state`` on the path's reference
    at t = 0 is used: the first waypoint, heading along the first leg at
    cruise speed.  ``P0`` defaults to zero, a deterministic start.
    """

    model: object
    dt: float
    beta: float
    P0: np.ndarray | None = None
    initial_state: np.ndarray | None = None
    c2: float = field(init=False)

    def __post_init__(self):
        if self.dt <= 0.0:
            raise ValueError("dt must be positive")
        self.c2 = chi2_quantile(self.beta, dof=3)
        self.P0 = (np.zeros((self.model.n_states,) * 2) if self.P0 is None
                   else np.asarray(self.P0, dtype=float))

    def initial_buffer(self):
        """c * sqrt(largest position variance) of P0."""
        lam = float(np.linalg.eigvalsh(self.P0[:3, :3])[-1])
        # +0.0, never -0.0, for a zero P0: the buffer goes into buffers.json
        return math.sqrt(self.c2) * math.sqrt(lam) if lam > 0.0 else 0.0

    def tube_for_path(self, path_xy, altitude, cruise_speed):
        """(tube, nominal trajectory, covariance history) for a path."""
        des = path_to_trajectory(path_xy, altitude, cruise_speed,
                                 vehicle=self.model.name, fd_step=self.dt)
        if des.duration < 2.0 * self.dt:
            raise PlanningError("path is too short for the time grid")
        grid = TimeGrid(0.0, des.duration, self.dt)
        x0 = (self.model.start_state(des(grid.t0))
              if self.initial_state is None
              else np.asarray(self.initial_state, dtype=float))
        nominal, cov, _ = lincov(self.model, x0, des, grid, self.P0)
        return build_tube(nominal, cov, self.beta), nominal, cov


# --------------------------------------------------------------------------
# the dynamic outer loop


def comp_obs_dist(tree: PlanTree, sections, evaluator: TubeEvaluator,
                  cfg: PlannerConfig, timings=None):
    """Signed buffer adjustment per obstacle from the current best path.

    Propagates the tube along the tree's best path, then for every
    cross-section returns d_j = min(buffer_touch_distance of its true
    obstacle, its current buffer):
    positive d_j shrinks the buffer by the tube's spare clearance
    (capped so buffers stay nonnegative), negative d_j grows it by the
    violation depth.  Also returns the evaluated tube.  A ``timings``
    dict gets the wall-clock ms of both steps added to its
    ``tube_eval_ms`` and ``buffer_sizing_ms``.
    """
    tic = time.perf_counter()
    path = tree.best_path()
    tube, _, _ = evaluator.tube_for_path(path, cfg.altitude,
                                         cfg.cruise_speed)
    toc = time.perf_counter()
    adjustments = {}
    for s in sections:
        d_touch = buffer_touch_distance(tube, s.obstacle, tube.c2)
        adjustments[s.id] = min(d_touch, s.buffer)
    if timings is not None:
        timings["tube_eval_ms"] += 1e3 * (toc - tic)
        timings["buffer_sizing_ms"] += 1e3 * (time.perf_counter() - toc)
    return adjustments, tube


def cleanup_and_regrow(tree: PlanTree, grown: CrossSection, sections,
                       cfg: PlannerConfig, rng):
    """Repair the tree after an obstacle's buffer grew to ``grown``.

    Nodes inside the grown cross-section die, and so do goal-region nodes
    whose closing segment to the goal meets it; surviving subtrees
    hanging under them, and surviving nodes whose parent edge now
    crosses the region, are detached as orphan components.  Fresh
    add_node growth then tries to reconnect each component through any
    of its nodes within r_w of a new sample (re-rooting the component
    there); components still orphaned after N_max/4 iterations are
    pruned.
    """
    sections = _stacked(sections)
    nodes = np.flatnonzero(tree._state[:tree.size] != _DEAD).tolist()
    dead = {i for i in nodes if grown.contains(tree._xy[i])}
    dead.update(i for i in tree._goal_nodes if tree._state[i] != _DEAD
                and grown.meets_segment(tree._xy[i], tree.goal))
    if tree.root in dead:
        raise PlanningError(
            f"start became infeasible: buffered obstacle {grown.id!r} "
            f"(buffer {grown.buffer:.3f} m) covers it")
    # every node that is not dead hangs under its parent, so the roots
    # are the survivors whose parent dies or whose parent edge is cut
    roots = [i for i in nodes if i not in dead and i != tree.root
             and (p := tree.parent(i)) >= 0 and (
                 p in dead or grown.meets_segment(tree._xy[p], tree._xy[i]))]
    for i in sorted(dead):
        tree.kill(i)
    for r in roots:
        tree.detach_orphan(r)

    cap = max(cfg.N_max // 4, 1)
    for _ in range(cap):
        if tree.orphan_nodes().size == 0:
            break
        j = add_node(tree, sections, cfg, rng)
        if j is None:
            continue
        x_new = tree.coords(j)
        # adopt through the nearest orphan (ties by index) that x_new sees
        while (orphans := tree.orphan_nodes()).size:
            d = np.linalg.norm(tree._xy[orphans] - x_new, axis=1)
            n_o = next((int(orphans[k]) for k in np.argsort(d, kind="stable")
                        if d[k] <= cfg.r_w and no_collision_2d(
                            x_new, tree._xy[orphans[k]], sections)), None)
            if n_o is None:
                break
            tree.adopt_orphan(n_o, j)
    for k in tree.orphan_nodes():
        tree.kill(k)
    return tree


@dataclass
class PlanResult:
    """Everything the dynamic planner produces for reporting."""

    path: np.ndarray | None
    tube: Tube | None
    reports: list
    buffer_history: list[dict]
    cost_history: list[float]
    outer_iterations: int
    solved: bool
    converged: bool
    tree: PlanTree
    timings_ms: dict
    message: str = ""


def dynamic_informed_rrt_star(start, goal, obstacles, cfg: PlannerConfig,
                              evaluator: TubeEvaluator, rng):
    """Rounds of plan / propagate / resize buffers / repair tree.

    The planner keeps one buffer per obstacle, as a ``CrossSection``
    rebuilt once per resize.  Buffers start at
    c * sqrt(lambda_max) of the initial position covariance (zero for a
    deterministic start).  Every round grows the tree and runs
    comp_obs_dist on its best path.  The run stops after a round in
    which no buffer grew (no d_j < 0) if every |d_j| <= tol * b_j, read
    relatively as ``informed_rrt_star`` reads tol for cost, or once M
    rounds have run.  Otherwise it applies b_j <- b_j - d_j, repairs the
    tree around every grown buffer and runs one more round, up to 2M
    rounds; ``converged`` is False only when the run stopped there with
    a buffer still growing.  ``buffer_history`` holds the buffers each
    round planned against.  The reported tube is the one comp_obs_dist
    built for the final path, and its clearances are checked against
    the caller's true obstacles, which are never changed.  Buffers are
    keyed by obstacle id, so a repeated id raises ``ValueError``.
    ``timings_ms`` sums the wall-clock ms of tree growth (with repairs),
    tube evaluation and buffer sizing over the rounds.
    """
    seen = set()
    for obs in obstacles:
        if obs.id in seen:
            raise ValueError(f"obstacle id {obs.id!r} is repeated; "
                             "the planner sizes buffers by id")
        seen.add(obs.id)
    start = np.asarray(start, dtype=float).reshape(2)
    goal = np.asarray(goal, dtype=float).reshape(2)
    init = evaluator.initial_buffer()
    sections = _Stacked(CrossSection(obs, cfg.altitude, init)
                        for obs in obstacles)
    buffer_history = []
    cost_history = []
    timings = dict.fromkeys(("tree_ms", "tube_eval_ms", "buffer_sizing_ms"),
                            0.0)
    tree = None
    for rounds in range(1, 2 * cfg.M + 1):
        buffer_history.append({s.id: s.buffer for s in sections})
        tic = time.perf_counter()
        tree = informed_rrt_star(start, goal, sections, cfg, rng, tree=tree)
        timings["tree_ms"] += 1e3 * (time.perf_counter() - tic)
        cost_history.append(tree.c_best())
        if not math.isfinite(tree.c_best()):
            return PlanResult(
                path=None, tube=None, reports=[],
                buffer_history=buffer_history, cost_history=cost_history,
                outer_iterations=rounds, solved=False, converged=True,
                message="no path to the goal was found", tree=tree,
                timings_ms=timings)
        adjustments, tube = comp_obs_dist(tree, sections, evaluator, cfg,
                                          timings=timings)
        d = [adjustments[s.id] for s in sections]
        grew = any(d_j < -1e-12 for d_j in d)
        settled = all(abs(d_j) <= cfg.tol * s.buffer
                      for d_j, s in zip(d, sections))
        if (not grew and (settled or rounds >= cfg.M)) \
                or rounds == 2 * cfg.M:
            break
        sections = _Stacked(
            CrossSection(s.obstacle, cfg.altitude, s.buffer - d_j)
            for d_j, s in zip(d, sections))
        tic = time.perf_counter()
        for d_j, s in zip(d, sections):
            if d_j < -1e-12:
                cleanup_and_regrow(tree, s, sections, cfg, rng)
        timings["tree_ms"] += 1e3 * (time.perf_counter() - tic)
    return PlanResult(
        path=tree.best_path(), tube=tube,
        reports=check_tube_collision(tube, obstacles),
        buffer_history=buffer_history, cost_history=cost_history,
        outer_iterations=rounds, solved=True, converged=not grew, tree=tree,
        timings_ms=timings)
