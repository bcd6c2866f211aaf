"""Sampling-tree planner: tree invariants, collision gates, surgery,
and the buffer-resizing outer loop.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tubeplan import planner
from tubeplan.errors import PlanningError
from tubeplan.geometry import CuboidObstacle, check_tube_collision
from tubeplan.planner import (
    _DEAD,
    _LIVE,
    _ORPHAN,
    _ORPHANED,
    Bounds,
    CrossSection,
    PlannerConfig,
    PlanTree,
    TubeEvaluator,
    add_node,
    cleanup_and_regrow,
    comp_obs_dist,
    dynamic_informed_rrt_star,
    informed_rrt_star,
    no_collision_2d,
    path_to_trajectory,
    sample_ellipse,
)
from tubeplan.scenario import SCHEMA_VERSION, parse_scenario
from tubeplan.uncertainty import chi2_quantile
from tubeplan.vehicles import QuadrotorModel


def free_config(**kw):
    defaults = dict(bounds=Bounds((0.0, 0.0), (100.0, 100.0)),
                    altitude=10.0, cruise_speed=5.0)
    defaults.update(kw)
    return PlannerConfig(**defaults)


# --------------------------------------------------------------------------
# configuration


def test_bounds_validation_and_queries():
    b = Bounds((0.0, -1.0), (10.0, 1.0))
    assert b.contains((5.0, 0.0))
    assert not b.contains((11.0, 0.0))
    assert b.diagonal() == pytest.approx(math.hypot(10.0, 2.0))
    rng = np.random.default_rng(0)
    for _ in range(50):
        assert b.contains(b.sample(rng))
    with pytest.raises(ValueError):
        Bounds((0.0, 0.0), (0.0, 1.0))
    with pytest.raises(ValueError):
        Bounds((0.0, 2.0), (1.0, 1.0))


def test_config_derives_step_and_rewire_radius():
    cfg = free_config()
    assert cfg.step == pytest.approx(cfg.bounds.diagonal() / 50.0)
    assert cfg.r_w == pytest.approx(3.0 * cfg.step)
    explicit = free_config(step=2.0, r_w=7.0)
    assert explicit.step == 2.0 and explicit.r_w == 7.0


def test_config_rejects_bad_values():
    with pytest.raises(ValueError):
        free_config(goal_bias=0.3)
    with pytest.raises(ValueError):
        free_config(goal_bias=-0.01)
    with pytest.raises(ValueError):
        free_config(N_max=0)
    with pytest.raises(ValueError):
        free_config(M=2.5)
    with pytest.raises(ValueError):
        free_config(tol=0.0)
    with pytest.raises(ValueError):
        free_config(cruise_speed=-1.0)


def test_config_stores_integral_float_counts_as_ints():
    # integral floats pass the check, so they must plan as their ints do
    kw = dict(bounds=Bounds((0.0, 0.0), (10.0, 10.0)), altitude=5.0,
              cruise_speed=2.0)
    cfg = PlannerConfig(**kw, N_max=50.0, N_conv=10.0, M=2.0)
    trees = [informed_rrt_star((1.0, 1.0), (9.0, 9.0), [], c,
                               np.random.default_rng(3))
             for c in (cfg, PlannerConfig(**kw, N_max=50, N_conv=10, M=2))]
    for a, b in zip(*(t.live_columns() for t in trees)):
        assert np.array_equal(a, b)
    assert [type(v) for v in (cfg.N_max, cfg.N_conv, cfg.M)] == [int] * 3


# --------------------------------------------------------------------------
# tree bookkeeping


def small_tree():
    """root(0,0) - a(3,0) - b(6,0) - c(6,3); d(0,4) under root."""
    tree = PlanTree((0.0, 0.0), (20.0, 0.0), goal_radius=1.0)
    a = tree.insert((3.0, 0.0), tree.root, 3.0)
    b = tree.insert((6.0, 0.0), a, 6.0)
    c = tree.insert((6.0, 3.0), b, 9.0)
    d = tree.insert((0.0, 4.0), tree.root, 4.0)
    return tree, a, b, c, d


def test_tree_queries():
    tree, a, b, c, d = small_tree()
    assert tree.num_alive() == 5
    assert tree.parent(tree.root) == -1
    assert tree.nearest((5.5, 0.2)) == b
    hits = set(tree.near((6.0, 0.0), 3.01).tolist())
    assert hits == {a, b, c}
    assert np.allclose(tree.coords(c), (6.0, 3.0))
    assert tree.parent(b) == a and tree.cost(b) == 6.0
    tree.check_consistency()


def test_consistency_catches_a_stale_closing_leg():
    tree = PlanTree((0.0, 0.0), (10.0, 0.0), goal_radius=1.5)
    a = tree.insert((5.0, 0.0), tree.root, 5.0)
    near_goal = tree.insert((9.3, 0.7), a, 5.0 + math.hypot(4.3, 0.7))
    tree.check_consistency()
    for i in (a, near_goal):
        leg = tree._leg[i]
        tree._leg[i] = np.nextafter(leg, np.inf)
        with pytest.raises(AssertionError, match="closing leg"):
            tree.check_consistency()
        tree._leg[i] = leg


def test_c_best_adds_the_leg_computed_at_insert_bit_for_bit():
    rng = np.random.default_rng(11)
    goal = np.array([7.3, -2.1])
    tree = PlanTree((0.0, 0.0), goal, goal_radius=2.0)
    for _ in range(300):
        xy = goal + rng.uniform(-2.0, 2.0, 2)
        tree.insert(xy, tree.root, float(np.linalg.norm(xy)))
    best, best_i = math.inf, None
    for i in tree._goal_nodes:
        total = tree._cost[i] + float(np.linalg.norm(tree._xy[i] - goal))
        if total < best:
            best, best_i = float(total), i
    assert len(tree._goal_nodes) > 100
    assert (tree.c_best(), tree.best_goal_node()) == (best, best_i)
    tree.check_consistency()


def test_distances_have_the_bits_of_the_per_node_norm():
    rng = np.random.default_rng(5)
    D = np.concatenate([rng.normal(size=(20_000, 2)) * scale
                        for scale in (1e-6, 1.0, 40.0, 1e5)])
    per_node = [float(np.linalg.norm(d)) for d in D]
    assert planner._norms(D) == per_node
    assert [planner._norm(d) for d in D] == per_node
    assert planner._norms(np.zeros((0, 2))) == []


def test_query_distances_have_the_bits_of_the_row_wise_einsum():
    rng = np.random.default_rng(6)
    tree = PlanTree((0.0, 0.0), (50.0, 20.0), goal_radius=1.0)
    for _ in range(2000):
        tree.insert(rng.uniform(-5.0, 55.0, 2), tree.root, 1.0)
    for q in rng.uniform(-5.0, 55.0, (50, 2)):
        D = tree._xy[:tree.size] - q
        assert np.array_equal(tree._sq_dists(q),
                              np.einsum("ij,ij->i", D, D))


def test_c_best_includes_the_closing_segment():
    tree = PlanTree((0.0, 0.0), (10.0, 0.0), goal_radius=1.5)
    a = tree.insert((5.0, 0.0), tree.root, 5.0)
    assert tree.c_best() == math.inf
    assert tree.best_goal_node() is None
    near_goal = tree.insert((9.0, 0.0), a, 9.0)
    assert tree.c_best() == pytest.approx(10.0)
    assert tree.best_goal_node() == near_goal
    path = tree.best_path()
    assert np.allclose(path, [(0, 0), (5, 0), (9, 0), (10, 0)])
    exact = tree.insert((10.0, 0.0), near_goal, 10.0)
    # goal-coincident leaf: closing segment has zero length, no dup point
    assert tree.best_goal_node() in (near_goal, exact)
    assert np.allclose(tree.best_path()[-1], (10.0, 0.0))


def test_reparent_shifts_the_whole_subtree():
    tree, a, b, c, d = small_tree()
    # move b under d: new cost 4 + |(6,0)-(0,4)| = 4 + sqrt(52)
    new_cost = 4.0 + math.hypot(6.0, -4.0)
    tree.reparent(b, d, new_cost)
    assert tree.parent(b) == d
    assert tree.cost(b) == pytest.approx(new_cost)
    # child c keeps its edge length: cost shifts by the same delta
    assert tree.cost(c) == pytest.approx(new_cost + 3.0)
    tree.check_consistency()


def test_reparent_consistent_costs_pass_the_check():
    tree, a, b, c, d = small_tree()
    edge = float(np.linalg.norm(tree.coords(b) - tree.coords(d)))
    tree.reparent(b, d, tree.cost(d) + edge)
    tree.check_consistency()


def test_kill_and_component():
    tree, a, b, c, d = small_tree()
    assert sorted(tree.component(a)) == sorted([a, b, c])
    tree.kill(c)
    tree.kill(b)
    assert tree.num_alive() == 3
    assert tree.nearest((6.0, 0.0)) == a
    tree.check_consistency()


def test_consistency_catches_cost_corruption():
    tree, a, b, c, d = small_tree()
    tree._cost[b] = 100.0
    with pytest.raises(AssertionError):
        tree.check_consistency()


def test_consistency_catches_a_bad_state_and_an_orphan_under_a_live_node():
    tree, a, b, c, d = small_tree()
    tree._state[d] = 7
    with pytest.raises(AssertionError, match="state"):
        tree.check_consistency()
    tree, a, b, c, d = small_tree()
    tree._state[c] = _ORPHANED              # its parent b is still live
    with pytest.raises(AssertionError, match="orphan"):
        tree.check_consistency()


def test_pruned_orphans_read_dead():
    # samples stay in the unit square, out of r_w of every orphan
    cfg = free_config(bounds=Bounds((0.0, 0.0), (1.0, 1.0)))
    tree, a, b, c, d = small_tree()
    # a wall across the a-b edge orphans {b, c}
    grown = cut(box(4.5, 0.0, hx=0.2, hy=2.0, id="grown"))
    cleanup_and_regrow(tree, grown, [grown], cfg, np.random.default_rng(0))
    assert tree._state[b] == tree._state[c] == _DEAD
    assert tree.orphan_nodes().size == 0
    tree.check_consistency()


def test_consistency_catches_a_wrong_goal_membership():
    tree = PlanTree((0.0, 0.0), (0.5, 0.0), goal_radius=1.0)
    a = tree.insert((0.0, 2.0), tree.root, 2.0)
    tree.check_consistency()
    for wrong in (tree.root, a):
        tree._goal_nodes.append(wrong)
        with pytest.raises(AssertionError, match="goal"):
            tree.check_consistency()
        tree._goal_nodes.remove(wrong)


def test_orphan_detach_and_adopt_reverses_the_chain():
    tree, a, b, c, d = small_tree()
    tree.detach_orphan(b)                   # cuts {b, c} loose
    assert set(tree.orphan_nodes().tolist()) == {b, c}
    assert [i for i in tree.orphan_nodes()
            if tree.parent(i) == _ORPHAN] == [b]
    assert tree.num_alive() == 3            # orphans leave the queries
    assert tree.nearest((6.0, 0.0)) == a
    tree.check_consistency()
    # reconnect through c: the b->c edge flips, c becomes component root
    tree.adopt_orphan(c, d)
    assert tree.parent(c) == d
    assert tree.parent(b) == c
    assert tree.num_alive() == 5
    edge_dc = float(np.linalg.norm(tree.coords(c) - tree.coords(d)))
    edge_cb = float(np.linalg.norm(tree.coords(b) - tree.coords(c)))
    assert tree.cost(c) == pytest.approx(4.0 + edge_dc)
    assert tree.cost(b) == pytest.approx(4.0 + edge_dc + edge_cb)
    tree.check_consistency()


def test_adopted_goal_nodes_rejoin_the_solution_set():
    tree = PlanTree((0.0, 0.0), (10.0, 0.0), goal_radius=1.0)
    mid = tree.insert((5.0, 0.0), tree.root, 5.0)
    tip = tree.insert((9.5, 0.0), mid, 9.5)
    assert math.isfinite(tree.c_best())
    tree.detach_orphan(tip)
    assert tree.c_best() == math.inf
    tree.adopt_orphan(tip, mid)
    assert tree.c_best() == pytest.approx(10.0)
    tree.check_consistency()


# --------------------------------------------------------------------------
# sampling


def test_sample_ellipse_falls_back_to_the_bounds():
    bounds = Bounds((0.0, 0.0), (10.0, 10.0))
    rng = np.random.default_rng(1)
    pts = np.array([sample_ellipse((1, 1), (9, 9), math.inf, bounds, rng)
                    for _ in range(200)])
    assert np.all(pts >= -1e-12) and np.all(pts <= 10.0 + 1e-12)
    # fills the square, not just the diagonal band
    assert pts[:, 0].std() > 1.5 and pts[:, 1].std() > 1.5


def test_sample_ellipse_respects_the_informed_set():
    bounds = Bounds((-50.0, -50.0), (50.0, 50.0))
    start, goal = np.array([-10.0, 0.0]), np.array([10.0, 0.0])
    c_best = 25.0
    rng = np.random.default_rng(2)
    for _ in range(500):
        q = sample_ellipse(start, goal, c_best, bounds, rng)
        total = (np.linalg.norm(q - start) + np.linalg.norm(q - goal))
        assert total <= c_best + 1e-9
        assert bounds.contains(q)


def test_sample_ellipse_degenerate_cost_stays_on_the_segment():
    bounds = Bounds((-50.0, -50.0), (50.0, 50.0))
    start, goal = np.array([-10.0, 0.0]), np.array([10.0, 0.0])
    rng = np.random.default_rng(3)
    q = sample_ellipse(start, goal, 20.0, bounds, rng)   # c_best == c_min
    assert abs(q[1]) < 1e-9
    assert -10.0 - 1e-9 <= q[0] <= 10.0 + 1e-9


def _reference_sample_ellipse(start, goal, c_best, bounds, rng):
    """Reference: sample_ellipse in numpy array arithmetic."""
    start = np.asarray(start, dtype=float)
    goal = np.asarray(goal, dtype=float)
    c_min = float(np.linalg.norm(goal - start))
    c_best = max(float(c_best), c_min)
    center = 0.5 * (start + goal)
    a = 0.5 * c_best
    b = 0.5 * math.sqrt(max(c_best * c_best - c_min * c_min, 0.0))
    ex = (goal - start) / c_min if c_min > 0.0 else np.array([1.0, 0.0])
    ey = np.array([-ex[1], ex[0]])
    for _ in range(10000):
        r = math.sqrt(rng.random())
        phi = 2.0 * math.pi * rng.random()
        q = center + (a * r * math.cos(phi)) * ex + (b * r * math.sin(phi)) * ey
        if bounds.contains(q):
            return q
    return np.clip(q, bounds.lo, bounds.hi)


@pytest.mark.parametrize("start, goal, c_best, bounds", [
    # the ellipse pokes out of the bounds, so draws are rejected
    ((-10.0, 0.3), (10.0, -0.7), 30.0, Bounds((-12.0, -3.0), (12.0, 3.0))),
    ((1.0, 2.0), (37.0, 19.0), 51.7, Bounds((-5.0, -5.0), (55.0, 25.0))),
    # c_best == c_min, and below it
    ((-10.0, 0.0), (10.0, 0.0), 20.0, Bounds((-50.0, -50.0), (50.0, 50.0))),
    ((0.1, 0.2), (3.7, -1.9), 1.0, Bounds((-5.0, -5.0), (5.0, 5.0))),
    # start == goal
    ((2.0, 2.0), (2.0, 2.0), 3.0, Bounds((0.0, 0.0), (3.0, 3.0))),
    # the ellipse misses the bounds: every draw is rejected, then clipped
    ((20.0, 20.0), (24.0, 20.0), 5.0, Bounds((0.0, 0.0), (10.0, 10.0))),
])
def test_sample_ellipse_has_the_bits_of_the_array_form(start, goal, c_best,
                                                       bounds):
    ours, ref = np.random.default_rng(8), np.random.default_rng(8)
    for _ in range(3 if start[0] == 20.0 else 400):
        q = sample_ellipse(start, goal, c_best, bounds, ours)
        assert np.array_equal(
            q, _reference_sample_ellipse(start, goal, c_best, bounds, ref))
        assert q.dtype == np.float64 and q.shape == (2,)
    # both consumed the same draws
    assert ours.random() == ref.random()


# --------------------------------------------------------------------------
# segment collision gate


def box(cx, cy, hx=5.0, hy=5.0, z0=0.0, z1=20.0, id="o"):
    return CuboidObstacle.from_box(
        (cx, cy, 0.5 * (z0 + z1)), (hx, hy, 0.5 * (z1 - z0)), id=id)


def cut(obs, buffer=0.0, altitude=10.0):
    """The planner's cross-section of ``obs`` inflated by ``buffer``."""
    return CrossSection(obs, altitude, buffer)


def test_segment_through_the_box_is_blocked():
    obs = cut(box(10.0, 0.0))
    assert not no_collision_2d((0.0, 0.0), (20.0, 0.0), [obs])


def test_segment_missing_the_box_is_free():
    obs = cut(box(10.0, 0.0))
    assert no_collision_2d((0.0, 8.0), (20.0, 8.0), [obs])
    assert no_collision_2d((0.0, 0.0), (20.0, 0.0), [])


def test_grazing_contact_counts_as_a_hit():
    obs = cut(box(10.0, 0.0))                 # face at y = 5
    assert not no_collision_2d((0.0, 5.0), (20.0, 5.0), [obs])
    assert no_collision_2d((0.0, 5.0 + 1e-6), (20.0, 5.0 + 1e-6), [obs])


def test_altitude_above_the_box_is_free():
    obs = box(10.0, 0.0, z1=8.0)
    assert not no_collision_2d((0.0, 0.0), (20.0, 0.0),
                               [cut(obs, altitude=7.0)])
    assert no_collision_2d((0.0, 0.0), (20.0, 0.0), [cut(obs, altitude=9.0)])


def test_buffer_inflates_the_cross_section():
    obs = cut(box(10.0, 0.0), buffer=2.0)     # blocked band now |y| <= 7
    assert not no_collision_2d((0.0, 6.0), (20.0, 6.0), [obs])
    assert no_collision_2d((0.0, 7.5), (20.0, 7.5), [obs])


def test_segment_endpoints_inside_count():
    obs = cut(box(10.0, 0.0))
    assert not no_collision_2d((10.0, 0.0), (30.0, 0.0), [obs])
    assert not no_collision_2d((9.0, 0.0), (11.0, 0.0), [obs])


def _reference_meets(section, p, q):
    """Reference: the clipping loop, one section at a time."""
    alpha = section.A2 @ p - section.rhs
    beta = section.A2 @ (q - p)
    t0, t1 = 0.0, 1.0
    for al, be in zip(alpha, beta):
        if abs(be) < 1e-15:
            if al > 1e-12:
                return False
            continue
        crossing = -al / be
        if be > 0.0:
            t1 = min(t1, crossing)
        else:
            t0 = max(t0, crossing)
        if t0 > t1 + 1e-12:
            return False
    return t0 <= t1 + 1e-12


def _prism_section(rng, sides, cx, cy, radius, buffer=0.0):
    """A vertical prism of sides + 2 faces, cut at altitude 10."""
    phase = rng.uniform(0.0, 2.0 * math.pi)
    A, b = [], []
    for k in range(sides):
        th = phase + 2.0 * math.pi * k / sides
        A.append([math.cos(th), math.sin(th), 0.0])
        b.append(A[-1][0] * cx + A[-1][1] * cy
                 + radius * rng.uniform(0.8, 1.0))
    A += [[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]]
    b += [20.0, 0.0]
    return cut(CuboidObstacle(A=np.array(A), b=np.array(b), id=f"p{sides}"),
               buffer=buffer)


def _assert_gate_matches_reference(p, q, sections):
    p, q = np.asarray(p, dtype=float), np.asarray(q, dtype=float)
    hits = [_reference_meets(s, p, q) for s in sections]
    assert [s.meets_segment(p, q) for s in sections] == hits
    assert no_collision_2d(p, q, sections) is (not any(hits))
    return hits


def test_edge_test_has_the_bits_of_the_per_section_loop_on_random_segments():
    rng = np.random.default_rng(9)
    sections = [_prism_section(rng, int(rng.integers(6, 19)),
                               *rng.uniform(-10.0, 10.0, 2),
                               rng.uniform(1.0, 6.0), rng.uniform(0.0, 0.5))
                for _ in range(5)]
    sections.append(cut(box(3.0, -4.0, hx=2.0, hy=5.0), buffer=0.25))
    assert {len(s.rhs) for s in sections[:5]} <= set(range(8, 21))
    hits = []
    for _ in range(3000):
        p, q = rng.uniform(-20.0, 20.0, (2, 2))
        hits += _assert_gate_matches_reference(p, q, sections)
        # zero-length segments, inside and outside
        hits += _assert_gate_matches_reference(p, p, sections)
    assert 0 < sum(hits) < len(hits)
    assert no_collision_2d((0.0, 0.0), (1.0, 1.0), [])
    assert no_collision_2d((0.0, 0.0), (0.0, 0.0), [])


@pytest.mark.parametrize("eps", [0.0, 3e-13, -3e-13, 5e-13, 2e-12, -2e-12,
                                 1e-9, -1e-9])
def test_edge_test_keeps_the_grazing_slack_of_the_per_section_loop(eps):
    box_ = cut(box(10.0, 0.0))                # [5, 15] x [-5, 5]
    far = cut(box(40.0, 40.0))
    rng = np.random.default_rng(10)
    tilted = _prism_section(rng, 14, 0.0, 0.0, 3.0)
    n = tilted.A2[0]                          # the first face's normal
    foot = (tilted.rhs[0] + eps) * n
    along = 3.0 * np.array([-n[1], n[0]])
    cases = [
        ((0.0, 5.0 + eps), (20.0, 5.0 + eps)),              # along a face
        ((15.0 + eps, -8.0), (15.0 + eps, 8.0)),            # along a face
        ((10.0, 10.0 + eps), (20.0, 0.0 + eps)),            # over a vertex
        ((15.0 + eps, 5.0 + eps), (25.0, 5.0 + eps)),       # from a vertex
        ((0.0, -5.0 - eps), (5.0 - eps, -5.0 - eps)),       # ends at a vertex
        ((5.0 - eps, 0.0), (5.0 - eps, 0.0)),               # a point on a face
        (foot - along, foot + along),             # along a slanted face
    ]
    for p, q in cases:
        _assert_gate_matches_reference(p, q, [far, box_, tilted])
        _assert_gate_matches_reference(q, p, [box_])
    # a slack that is never used would let a dropped one pass
    if 0.0 < eps <= 1e-12:
        assert not no_collision_2d(*cases[0], [box_])
        assert not no_collision_2d(*cases[2], [box_])


# --------------------------------------------------------------------------
# growth


def test_add_node_grows_a_consistent_tree():
    cfg = free_config(goal_bias=0.0)
    tree = PlanTree((5.0, 5.0), (95.0, 95.0), cfg.goal_radius)
    rng = np.random.default_rng(7)
    obstacles = [cut(box(50.0, 50.0, hx=8.0, hy=8.0, id="mid"))]
    inserted = 0
    for _ in range(400):
        j = add_node(tree, obstacles, cfg, rng)
        if j is not None:
            inserted += 1
            # every accepted node lies in free buffered space
            q = tree.coords(j)
            assert no_collision_2d(q, q, obstacles)
    assert inserted > 200
    tree.check_consistency()


def test_best_cost_never_increases_while_growing():
    cfg = free_config()
    tree = PlanTree((5.0, 5.0), (95.0, 5.0), cfg.goal_radius)
    rng = np.random.default_rng(11)
    prev = math.inf
    for _ in range(800):
        add_node(tree, [], cfg, rng)
        c = tree.c_best()
        assert c <= prev + 1e-9
        prev = c
    assert math.isfinite(prev)


def test_informed_rrt_star_obstacle_free_is_near_straight():
    cfg = free_config(N_max=2000, N_conv=150, tol=0.01)
    rng = np.random.default_rng(42)
    tree = informed_rrt_star((5.0, 5.0), (95.0, 95.0), [], cfg, rng)
    c = tree.c_best()
    straight = math.hypot(90.0, 90.0)
    assert c <= 1.02 * straight
    path = tree.best_path()
    assert np.allclose(path[0], (5.0, 5.0))
    assert np.allclose(path[-1], (95.0, 95.0))
    tree.check_consistency()


def start_near_goal():
    """Start (0, 0) within goal_radius 1 of goal (0.9, 0); a thin wall
    between them, clear of both."""
    cfg = PlannerConfig(bounds=Bounds((-5.0, -5.0), (5.0, 5.0)),
                        altitude=10.0, cruise_speed=1.0, goal_radius=1.0)
    wall = cut(box(0.45, 0.0, hx=0.05, hy=3.0, id="wall"))
    assert not wall.contains((0.0, 0.0)) and not wall.contains((0.9, 0.0))
    return cfg, wall


def test_a_start_within_the_goal_radius_is_not_a_solution():
    cfg, _ = start_near_goal()
    tree = PlanTree((0.0, 0.0), (0.9, 0.0), cfg.goal_radius)
    assert tree.c_best() == math.inf and tree.best_goal_node() is None
    tree.check_consistency()


def test_a_start_within_the_goal_radius_never_plans_through_a_wall():
    cfg, wall = start_near_goal()
    tree = informed_rrt_star((0.0, 0.0), (0.9, 0.0), [wall], cfg,
                             np.random.default_rng(0))
    path = tree.best_path()
    assert all(no_collision_2d(p, q, [wall]) for p, q in zip(path, path[1:]))
    assert tree.c_best() > 6.0      # round the end of the wall at |y| = 3
    tree.check_consistency()


def test_a_start_within_the_goal_radius_plans_through_a_tree_edge():
    cfg, _ = start_near_goal()
    tree = informed_rrt_star((0.0, 0.0), (0.9, 0.0), [], cfg,
                             np.random.default_rng(0))
    assert len(tree.best_path()) >= 3
    assert abs(tree.c_best() - 0.9) <= 1e-9
    tree.check_consistency()


def test_planner_rejects_blocked_endpoints():
    cfg = free_config()
    rng = np.random.default_rng(0)
    obs = [cut(box(50.0, 50.0, id="blocker"), buffer=0.5)]
    with pytest.raises(PlanningError, match=r"start lies inside buffered "
                       r"obstacle 'blocker' \(buffer 0\.500 m\)"):
        informed_rrt_star((50.0, 50.0), (95.0, 95.0), obs, cfg, rng)
    with pytest.raises(PlanningError, match="goal"):
        informed_rrt_star((5.0, 5.0), (50.0, 50.0), obs, cfg, rng)
    with pytest.raises(PlanningError, match="outside"):
        informed_rrt_star((5.0, 5.0), (110.0, 5.0), [], cfg, rng)


# --------------------------------------------------------------------------
# tree surgery


def corridor_tree():
    """Tree whose only goal route passes x = 50 at y = 0 (later blocked)."""
    tree = PlanTree((5.0, 0.0), (95.0, 0.0), goal_radius=2.0)
    prev, cost = tree.root, 0.0
    xs = np.linspace(5.0, 95.0, 19)
    for x in xs[1:]:
        cost += float(xs[1] - xs[0])
        prev = tree.insert((float(x), 0.0), prev, cost)
    return tree


def test_cleanup_kills_covered_nodes_and_keeps_the_rest_consistent():
    cfg = free_config(bounds=Bounds((0.0, -40.0), (100.0, 40.0)),
                      N_max=2000)
    tree = corridor_tree()
    before = tree.num_alive()
    grown = cut(box(50.0, 0.0, hx=6.0, hy=6.0, id="grown"), buffer=2.0)
    rng = np.random.default_rng(5)
    cleanup_and_regrow(tree, grown, [grown], cfg, rng)
    tree.check_consistency()
    # nodes inside the buffered region died
    for i in range(tree.size):
        if tree._state[i] != _DEAD:
            assert not grown.contains(tree.coords(i))
    # no surviving edge crosses the region
    for i in range(tree.size):
        if tree._state[i] == _DEAD or i == tree.root:
            continue
        p = tree.parent(i)
        if p >= 0:
            assert no_collision_2d(tree.coords(p), tree.coords(i), [grown])
    assert len(tree.orphan_nodes()) == 0
    assert tree.num_alive() < before + cfg.N_max // 4


def test_cleanup_raises_when_the_root_is_covered():
    cfg = free_config()
    tree = corridor_tree()
    grown = cut(box(5.0, 0.0, hx=3.0, hy=3.0, id="ontop"))
    with pytest.raises(PlanningError, match="start"):
        cleanup_and_regrow(tree, grown, [grown], cfg,
                           np.random.default_rng(0))


def test_cleanup_kills_a_goal_node_whose_closing_segment_is_blocked():
    cfg = free_config()
    tree = PlanTree((0.0, 0.0), (10.0, 0.0), goal_radius=2.0)
    a = tree.insert((5.0, 0.0), tree.root, 5.0)
    near_goal = tree.insert((9.0, 0.0), a, 9.0)
    # a thin wall between the goal node and the goal, clear of both
    grown = cut(box(9.5, 0.0, hx=0.1, hy=3.0, id="grown"))
    assert not grown.contains(tree.coords(near_goal))
    assert no_collision_2d(tree.coords(a), tree.coords(near_goal), [grown])
    cleanup_and_regrow(tree, grown, [grown], cfg, np.random.default_rng(0))
    assert tree._state[near_goal] == _DEAD and tree._state[a] != _DEAD
    assert tree.best_goal_node() is None and tree.c_best() == math.inf
    tree.check_consistency()


def test_cleanup_blocking_the_start_goal_leg_keeps_the_start():
    # the start's own leg to the goal is no path, so a wall across it
    # kills goal nodes, never the start
    cfg, wall = start_near_goal()
    tree = informed_rrt_star((0.0, 0.0), (0.9, 0.0), [], cfg,
                             np.random.default_rng(0))
    cleanup_and_regrow(tree, wall, [wall], cfg, np.random.default_rng(1))
    tree.check_consistency()
    path = tree.best_path()
    assert all(no_collision_2d(p, q, [wall]) for p, q in zip(path, path[1:]))


def test_no_path_crosses_an_obstacle_on_its_closing_segment():
    # a wall just short of the goal: nodes beyond the goal radius cannot
    # see the goal, nodes inside it can only from behind the wall
    wall = CrossSection(CuboidObstacle.from_box((49.6, 0.0, 10.0),
                                                (0.1, 3.0, 10.0)), 10.0, 0.0)
    cfg = free_config(bounds=Bounds((-5.0, -20.0), (55.0, 20.0)))
    solved = 0
    for seed in range(5):
        tree = informed_rrt_star((0.0, 0.0), (50.0, 0.0), [wall], cfg,
                                 np.random.default_rng(seed))
        if math.isfinite(tree.c_best()):
            solved += 1
            path = tree.best_path()
            assert all(no_collision_2d(p, q, [wall])
                       for p, q in zip(path, path[1:])), seed
    assert solved > 0


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_random_surgery_preserves_the_invariants(seed):
    rng = np.random.default_rng(seed)
    cfg = free_config(N_max=400, goal_bias=0.0)
    tree = PlanTree((5.0, 5.0), (95.0, 95.0), cfg.goal_radius)
    for _ in range(150):
        add_node(tree, [], cfg, rng)
    tree.check_consistency()
    cx, cy = rng.uniform(20, 80, size=2)
    grown = cut(box(float(cx), float(cy), hx=6.0, hy=6.0, id="g"),
                buffer=float(rng.uniform(0, 3)))
    if grown.contains(tree.coords(tree.root)):
        return
    cleanup_and_regrow(tree, grown, [grown], cfg, rng)
    tree.check_consistency()
    assert len(tree.orphan_nodes()) == 0


# --------------------------------------------------------------------------
# tube evaluation and the dynamic loop


def test_path_to_trajectory_validation():
    with pytest.raises(PlanningError):
        path_to_trajectory([(0.0, 0.0)], 10.0, 5.0, "quadrotor", 0.01)
    with pytest.raises(PlanningError):
        path_to_trajectory([(0, 0), (1, 0)], 10.0, 5.0, "blimp", 0.01)
    des = path_to_trajectory([(0.0, 0.0), (10.0, 0.0)], 7.0, 5.0,
                             "quadrotor", 0.01)
    ref = des(0.0)
    assert np.allclose(ref.r, (0.0, 0.0, 7.0))
    assert np.allclose(ref.rdot, (5.0, 0.0, 0.0))
    assert des.duration == pytest.approx(2.0)


def test_initial_buffer_closed_form():
    model = QuadrotorModel()
    P0 = np.zeros((9, 9))
    P0[0, 0], P0[1, 1], P0[2, 2] = 0.04, 0.09, 0.01
    ev = TubeEvaluator(model=model, dt=0.01, beta=0.999, P0=P0)
    expected = math.sqrt(chi2_quantile(0.999, 3)) * 0.3
    assert ev.initial_buffer() == pytest.approx(expected, rel=1e-12)
    # a zero P0 (the default) gives +0.0, written as 0.0 in buffers.json
    zero = TubeEvaluator(model=model, dt=0.01, beta=0.999).initial_buffer()
    assert zero == 0.0 and math.copysign(1.0, zero) == 1.0


def test_tube_evaluator_validation():
    model = QuadrotorModel()
    with pytest.raises(ValueError):
        TubeEvaluator(model=model, dt=0.01, beta=1.0)
    with pytest.raises(ValueError):
        TubeEvaluator(model=model, dt=-0.1, beta=0.9)
    ev = TubeEvaluator(model=model, dt=0.01, beta=0.999)
    with pytest.raises(PlanningError, match="too short"):
        ev.tube_for_path([(0.0, 0.0), (0.00001, 0.0)], 10.0, 5.0)


def test_tube_for_path_synthesizes_a_matched_start():
    model = QuadrotorModel()
    ev = TubeEvaluator(model=model, dt=0.02, beta=0.999)
    tube, nominal, cov = ev.tube_for_path(
        [(0.0, 0.0), (40.0, 0.0)], 10.0, 5.0)
    assert np.allclose(nominal.states[0, :3], (0.0, 0.0, 10.0))
    assert np.allclose(nominal.states[0, 3:6], (5.0, 0.0, 0.0))
    assert len(tube) == nominal.grid.count
    # gusts pump variance into the tube
    assert np.trace(tube.sigmas[-1]) > np.trace(tube.sigmas[0])


@pytest.mark.parametrize("vehicle, speed", [("quadrotor", 5.0),
                                            ("fixedwing", 18.0)])
def test_planner_start_equals_the_scenario_start_on_the_same_waypoints(
        vehicle, speed):
    # a first leg on which heading-and-speed and the profile's own first
    # velocity differ in the last bit: one rule must give both starts
    path = [(0.0, 0.0), (30.0, 40.0), (60.0, 40.0)]
    altitude, dt = 10.0, 0.02
    if vehicle == "quadrotor":
        trajectory = {"points": [[x, y, altitude] for x, y in path]}
    else:
        trajectory = {"points": [list(p) for p in path], "altitude": altitude}
    sc = parse_scenario({
        "schema_version": SCHEMA_VERSION,
        "vehicle": {"type": vehicle, "params": {}},
        "grid": {"t0": 0.0, "tf": 1.0, "dt": dt},
        "desired_trajectory": {"profile": "waypoints", "speed": speed,
                               **trajectory},
    })
    model = sc.model
    expected = sc.initial_state()
    ev = TubeEvaluator(model=model, dt=dt, beta=0.999)
    _, nominal, _ = ev.tube_for_path(path, altitude, speed)
    assert nominal.states[0].tolist() == expected.tolist()


def test_comp_obs_dist_caps_at_the_current_buffer():
    model = QuadrotorModel()
    ev = TubeEvaluator(model=model, dt=0.02, beta=0.999)
    cfg = free_config(bounds=Bounds((-10.0, -30.0), (110.0, 30.0)),
                      altitude=10.0, cruise_speed=5.0)
    tree = PlanTree((0.0, 0.0), (100.0, 0.0), cfg.goal_radius)
    tree.insert((100.0, 0.0), tree.root, 100.0)
    far = cut(box(50.0, 25.0, hx=2.0, hy=2.0, id="far"), buffer=0.4)
    adjustments, tube = comp_obs_dist(tree, [far], ev, cfg)
    # far obstacle: spare clearance huge, adjustment capped at the buffer
    assert adjustments["far"] == pytest.approx(0.4)
    assert len(tube) > 100


def test_dynamic_planner_is_deterministic_and_shrinks_buffers():
    model = QuadrotorModel()
    obstacles = [box(45.0, 0.0, hx=4.0, hy=4.0, id="wall")]
    cfg = free_config(bounds=Bounds((-10.0, -30.0), (110.0, 30.0)),
                      N_max=900, N_conv=100, M=3, goal_bias=0.05)
    P0 = np.zeros((9, 9))
    P0[:3, :3] = 0.01 * np.eye(3)

    def run():
        ev = TubeEvaluator(model=model, dt=0.02, beta=0.999, P0=P0.copy())
        rng = np.random.default_rng(123)
        return dynamic_informed_rrt_star((0.0, 0.0), (100.0, 0.0), obstacles,
                                         cfg, ev, rng)

    res1 = run()
    res2 = run()
    assert res1.solved and res2.solved
    assert np.array_equal(res1.path, res2.path)
    assert res1.buffer_history == res2.buffer_history
    assert res1.cost_history == res2.cost_history
    # round 0 buffer is the initial-covariance radius
    init = math.sqrt(chi2_quantile(0.999, 3)) * 0.1
    assert res1.buffer_history[0]["wall"] == pytest.approx(init)
    # clearance spare at this scale: subsequent rounds shrink the buffer
    assert res1.buffer_history[1]["wall"] < init
    assert res1.buffer_history[-1]["wall"] <= init + 1e-12
    assert all(r.verdict == "clear" for r in res1.reports)


def test_dynamic_planner_leaves_the_callers_obstacles_unchanged():
    # the planner sizes buffers of its own; what the caller passed stays
    model = QuadrotorModel()
    obstacles = [box(45.0, 0.0, hx=4.0, hy=4.0, id="wall"),
                 box(45.0, 20.0, hx=3.0, hy=3.0, id="side")]
    before = [(obs.A.copy(), obs.b.copy()) for obs in obstacles]
    cfg = free_config(bounds=Bounds((-10.0, -30.0), (110.0, 30.0)),
                      N_max=600, N_conv=100, M=2)
    P0 = np.zeros((9, 9))
    P0[:3, :3] = 0.01 * np.eye(3)
    ev = TubeEvaluator(model=model, dt=0.02, beta=0.999, P0=P0)
    res = dynamic_informed_rrt_star((0.0, 0.0), (100.0, 0.0), obstacles,
                                    cfg, ev, np.random.default_rng(5))
    assert res.solved
    init = math.sqrt(chi2_quantile(0.999, 3)) * 0.1
    assert res.buffer_history[0] == {"wall": init, "side": init}
    for obs, (A, b) in zip(obstacles, before):
        assert np.array_equal(obs.A, A) and np.array_equal(obs.b, b)


def test_dynamic_planner_with_zero_start_covariance_keeps_zero_buffers():
    model = QuadrotorModel()
    obstacles = [box(45.0, 20.0, hx=3.0, hy=3.0, id="side")]
    cfg = free_config(bounds=Bounds((-10.0, -30.0), (110.0, 30.0)),
                      N_max=600, N_conv=100, M=2)
    ev = TubeEvaluator(model=model, dt=0.02, beta=0.999)
    rng = np.random.default_rng(9)
    res = dynamic_informed_rrt_star((0.0, 0.0), (100.0, 0.0), obstacles,
                                    cfg, ev, rng)
    assert res.solved
    assert res.buffer_history[0]["side"] == 0.0
    # buffers never go negative
    for round_buffers in res.buffer_history:
        assert round_buffers["side"] >= -1e-12


def test_dynamic_planner_rejects_repeated_obstacle_ids():
    # buffers are keyed by id: two obstacles sharing one would be sized
    # as one
    obstacles = [box(25.0, 2.5, hx=3.0, hy=1.5, id="obstacle"),
                 box(50.0, -17.0, hx=1.0, hy=1.0, id="obstacle")]
    cfg = free_config(bounds=Bounds((-10.0, -30.0), (110.0, 30.0)),
                      N_max=600, N_conv=100, M=2)
    ev = TubeEvaluator(model=QuadrotorModel(), dt=0.02, beta=0.999)
    with pytest.raises(ValueError, match="'obstacle' is repeated"):
        dynamic_informed_rrt_star((0.0, 0.0), (55.0, 0.0), obstacles, cfg,
                                  ev, np.random.default_rng(5))


def plan_three_obstacles(sc, seed, evaluator_cls=TubeEvaluator):
    ev = evaluator_cls(model=sc.model, dt=sc.grid.dt, beta=sc.beta,
                       P0=sc.P0)
    return dynamic_informed_rrt_star(
        sc.start, sc.goal, sc.obstacles,
        sc.planner, ev, np.random.default_rng(seed)), ev


def test_dynamic_planner_repairs_the_tree_when_a_buffer_grows(plan_scenario):
    # at planner seed 1001 the last resize grows block-c's buffer from 0;
    # no edge of the final tree may cross the grown cross-section
    sc = plan_scenario
    cfg = sc.planner
    obstacles = sc.obstacles
    res, _ = plan_three_obstacles(sc, 1001)
    before, after = res.buffer_history[-2:]
    assert after["block-c"] > before["block-c"]
    final = [cut(obs, after[obs.id], cfg.altitude) for obs in obstacles]
    tree = res.tree
    tree.check_consistency()
    for i in range(tree.size):
        if tree._state[i] == _LIVE and i != tree.root:
            assert no_collision_2d(tree.coords(tree.parent(i)),
                                   tree.coords(i), final)


def test_dynamic_planner_resizes_the_last_path_it_reports(plan_scenario):
    # at planner seed 1025 the fourth round's path was reported without a
    # resize and its tube cut into an obstacle
    res, _ = plan_three_obstacles(plan_scenario, 1025)
    assert res.solved
    assert [r.verdict for r in res.reports] == ["clear"] * 3


def test_shipped_plan_stops_once_buffers_settle_and_reports_the_checked_tube(
        plan_scenario):
    calls = []

    class CountingEvaluator(TubeEvaluator):
        def tube_for_path(self, path_xy, altitude, cruise_speed):
            calls.append(np.array(path_xy))
            return super().tube_for_path(path_xy, altitude, cruise_speed)

    sc, cfg = plan_scenario, plan_scenario.planner
    res, ev = plan_three_obstacles(sc, sc.seed, CountingEvaluator)
    assert res.solved and res.converged
    assert res.outer_iterations == 2 < cfg.M
    assert len(calls) == 2
    assert len(res.buffer_history) == len(res.cost_history) == 2
    assert np.array_equal(calls[-1], res.path)
    fresh, _, _ = TubeEvaluator.tube_for_path(ev, res.path, cfg.altitude,
                                              cfg.cruise_speed)
    for name in ("times", "centers", "sigmas"):
        assert getattr(res.tube, name).tobytes() == \
            getattr(fresh, name).tobytes()
    assert res.tube.c2 == fresh.c2
    recheck = check_tube_collision(fresh, sc.obstacles)
    assert [(r.obstacle_id, r.min_cstar2, r.argmin_t) for r in res.reports] \
        == [(r.obstacle_id, r.min_cstar2, r.argmin_t) for r in recheck]


def test_buffers_that_keep_growing_stop_the_planner_at_twice_m(monkeypatch):
    real = planner.comp_obs_dist

    def always_grow(tree, sections, evaluator, cfg, **kw):
        adjustments, tube = real(tree, sections, evaluator, cfg, **kw)
        adjustments["wall"] = -0.01
        return adjustments, tube

    monkeypatch.setattr(planner, "comp_obs_dist", always_grow)
    obstacles = [box(45.0, 0.0, hx=4.0, hy=4.0, id="wall")]
    cfg = free_config(bounds=Bounds((-10.0, -30.0), (110.0, 30.0)),
                      N_max=600, N_conv=100, M=2)
    ev = TubeEvaluator(model=QuadrotorModel(), dt=0.02, beta=0.999)
    res = dynamic_informed_rrt_star((0.0, 0.0), (100.0, 0.0), obstacles,
                                    cfg, ev, np.random.default_rng(3))
    assert res.solved and not res.converged
    assert res.outer_iterations == 4
    assert [b["wall"] for b in res.buffer_history] == pytest.approx(
        [0.0, 0.01, 0.02, 0.03])
