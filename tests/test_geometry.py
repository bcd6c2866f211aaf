"""Obstacles, the collision QP, the prefilter and buffer sizing.

The QP oracle evaluates the Mahalanobis objective on a dense lattice
covering the constraint box; closed forms for single-face problems pin
the exact answers.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tubeplan.errors import InfeasibleRegionError, ScenarioError
from tubeplan.geometry import (
    ClearanceReport,
    CuboidObstacle,
    buffer_touch_distance,
    check_tube_collision,
    overall_verdict,
    solve_qp,
    sphere_prefilter,
)
from tubeplan.uncertainty import ConfidenceEllipsoid, Tube, chi2_quantile


def make_tube(centers, sigmas, c2, t0=0.0, dt=1.0):
    centers = np.atleast_2d(np.asarray(centers, dtype=float))
    sigmas = np.asarray(sigmas, dtype=float)
    if sigmas.ndim == 2:
        sigmas = np.repeat(sigmas[None], centers.shape[0], axis=0)
    times = t0 + dt * np.arange(centers.shape[0])
    return Tube(times=times, centers=centers, sigmas=sigmas, c2=c2)


def random_spd(rng, scale=1.0):
    """Random SPD matrix with eigenvalues in [0.2, 2.5] * scale."""
    Q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    eig = rng.uniform(0.2, 2.5, size=3) * scale
    return (Q * eig) @ Q.T


def grid_min_mahalanobis(sigma, center, obs, pts_per_axis=40):
    """Dense-lattice oracle for the QP over a box obstacle."""
    # lattice in the box's own frame, mapped through its rotation
    yaw_axes = obs.A[0::2]                  # outward unit normals
    mid = obs.centroid
    # box half extents along its own axes from the face offsets
    h = obs.b[0::2] - yaw_axes @ mid
    axes = [np.linspace(-hk, hk, pts_per_axis) for hk in h]
    G = np.meshgrid(*axes, indexing="ij")
    local = np.stack([g.ravel() for g in G], axis=1)
    pts = mid + local @ yaw_axes
    d = pts - center
    Sinv = np.linalg.inv(sigma)
    return float(np.min(np.einsum("ki,ij,kj->k", d, Sinv, d)))


# --------------------------------------------------------------------------
# obstacle construction


def test_from_box_geometry():
    obs = CuboidObstacle.from_box((1.0, 2.0, 3.0), (0.5, 1.0, 1.5),
                                  id="b")
    assert obs.vertices.shape == (8, 3)
    assert np.allclose(obs.centroid, (1.0, 2.0, 3.0))
    assert obs.circumradius == pytest.approx(np.linalg.norm([0.5, 1.0, 1.5]))
    assert obs.contains((1.0, 2.0, 3.0))
    assert obs.contains((1.5, 3.0, 4.5))          # corner
    assert not obs.contains((1.6, 2.0, 3.0))
    assert np.allclose(np.linalg.norm(obs.A, axis=1), 1.0)


def test_from_box_yaw_rotates_the_faces():
    obs = CuboidObstacle.from_box((0.0, 0.0, 0.0), (2.0, 1.0, 1.0),
                                  yaw=np.pi / 2)
    # after a quarter turn the long axis lies along y
    assert obs.contains((0.0, 1.9, 0.0))
    assert not obs.contains((1.9, 0.0, 0.0))


def test_buffer_is_a_metric_inflation():
    obs = CuboidObstacle.from_box((0.0, 0.0, 0.0), (1.0, 1.0, 1.0))
    inflated = CuboidObstacle(obs.A, obs.b + 0.5)
    assert not obs.contains((1.4, 0.0, 0.0))
    assert inflated.contains((1.4, 0.0, 0.0))
    assert not inflated.contains((1.6, 0.0, 0.0))


def test_degenerate_obstacles_are_rejected():
    with pytest.raises(ScenarioError):
        CuboidObstacle.from_box((0, 0, 0), (1.0, 0.0, 1.0))
    # five faces leave the region unbounded
    A = np.array([[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0],
                  [0, 0, 1.0]])
    with pytest.raises(ScenarioError, match="unbounded"):
        CuboidObstacle(A=A, b=np.ones(5))
    # contradictory faces make it empty
    A = np.array([[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0],
                  [0, 0, 1], [0, 0, -1.0]])
    b = np.array([-2.0, 1.0, 1.0, 1.0, 1.0, 1.0])
    with pytest.raises(ScenarioError, match="empty"):
        CuboidObstacle(A=A, b=b)


# --------------------------------------------------------------------------
# the QP


def test_qp_single_face_closed_form():
    obs = CuboidObstacle.from_box((2.0, 0.0, 0.0), (1.0, 1.0, 1.0))
    z, c2 = solve_qp(np.eye(3), np.zeros(3), obs.A, obs.b)
    assert np.allclose(z, (1.0, 0.0, 0.0), atol=1e-9)
    assert c2 == pytest.approx(1.0, abs=1e-9)


def test_qp_feasible_center_returns_zero():
    obs = CuboidObstacle.from_box((0.0, 0.0, 0.0), (1.0, 1.0, 1.0))
    z, c2 = solve_qp(np.eye(3), np.array([0.2, -0.3, 0.0]), obs.A, obs.b)
    assert c2 == 0.0
    assert np.allclose(z, (0.2, -0.3, 0.0))


def test_qp_metric_stretches_the_distance():
    # wall at x >= 2 with Var(x) = 4: Mahalanobis distance (2/2)^2 = 1
    obs = CuboidObstacle.from_box((3.0, 0.0, 0.0), (1.0, 5.0, 5.0))
    sigma = np.diag([4.0, 1.0, 1.0])
    z, c2 = solve_qp(sigma, np.zeros(3), obs.A, obs.b)
    assert np.allclose(z, (2.0, 0.0, 0.0), atol=1e-8)
    assert c2 == pytest.approx(1.0, abs=1e-9)


def test_qp_corner_solution():
    # center diagonal from a cube corner: nearest point is the corner
    obs = CuboidObstacle.from_box((0.0, 0.0, 0.0), (1.0, 1.0, 1.0))
    center = np.array([3.0, 3.0, 3.0])
    z, c2 = solve_qp(np.eye(3), center, obs.A, obs.b)
    assert np.allclose(z, (1.0, 1.0, 1.0), atol=1e-9)
    assert c2 == pytest.approx(12.0, abs=1e-8)


def test_qp_empty_region_raises():
    A = np.array([[1.0, 0, 0], [-1.0, 0, 0], [0, 1.0, 0], [0, -1.0, 0],
                  [0, 0, 1.0], [0, 0, -1.0]])
    b = np.array([-2.0, 1.0, 1.0, 1.0, 1.0, 1.0])
    with pytest.raises(InfeasibleRegionError):
        solve_qp(np.eye(3), np.zeros(3), A, b)


def test_qp_rotation_invariance():
    rng = np.random.default_rng(17)
    for _ in range(10):
        yaw = rng.uniform(-np.pi, np.pi)
        cy, sy = np.cos(yaw), np.sin(yaw)
        R = np.array([[cy, -sy, 0.0], [sy, cy, 0.0], [0.0, 0.0, 1.0]])
        center = rng.uniform(-4, 4, size=3)
        sigma = random_spd(rng)
        half = rng.uniform(0.3, 2.0, size=3)
        mid = rng.uniform(-2, 2, size=3)
        plain = CuboidObstacle.from_box(mid, half, yaw=0.0)
        turned = CuboidObstacle.from_box(R @ mid, half, yaw=yaw)
        _, c2a = solve_qp(sigma, center, plain.A, plain.b)
        _, c2b = solve_qp(R @ sigma @ R.T, R @ center, turned.A, turned.b)
        assert c2b == pytest.approx(c2a, rel=1e-8, abs=1e-10)


def test_qp_matches_grid_oracle_on_random_instances():
    rng = np.random.default_rng(99)
    c2_level = chi2_quantile(0.999, 3)
    for _ in range(25):
        sigma = random_spd(rng)
        half = rng.uniform(0.4, 2.0, size=3)
        mid = rng.uniform(-3, 3, size=3)
        yaw = rng.uniform(-np.pi, np.pi)
        obs = CuboidObstacle.from_box(mid, half, yaw=yaw)
        center = mid + rng.uniform(-6, 6, size=3)
        z, c2 = solve_qp(sigma, center, obs.A, obs.b)
        # solution feasibility and objective consistency
        assert np.all(obs.A @ z <= obs.b + 1e-8)
        d = z - center
        assert d @ np.linalg.inv(sigma) @ d == pytest.approx(
            c2, rel=1e-9, abs=1e-12)
        oracle = grid_min_mahalanobis(sigma, center, obs, pts_per_axis=45)
        # the lattice only overestimates the minimum
        assert c2 <= oracle + 1e-9
        if c2 > 0.05:
            assert oracle == pytest.approx(c2, rel=2e-2)
        assert (c2 < c2_level) == (oracle < c2_level) or \
            abs(c2 - c2_level) < 0.3


# --------------------------------------------------------------------------
# prefilter


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_prefilter_never_rejects_a_true_intersection(data):
    seed = data.draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    sigma = random_spd(rng)
    obs = CuboidObstacle.from_box(rng.uniform(-2, 2, size=3),
                                  rng.uniform(0.3, 1.5, size=3),
                                  yaw=rng.uniform(-np.pi, np.pi))
    center = rng.uniform(-4, 4, size=3)
    c2 = chi2_quantile(0.999, 3)
    ell = ConfidenceEllipsoid(t=0.0, center=center, sigma=sigma, c2=c2)
    _, cstar2 = solve_qp(sigma, center, obs.A, obs.b)
    if cstar2 < c2:                           # true intersection
        assert sphere_prefilter(ell, obs)


def test_prefilter_rejects_far_separation():
    ell = ConfidenceEllipsoid(t=0.0, center=np.zeros(3),
                              sigma=0.01 * np.eye(3), c2=9.0)
    obs = CuboidObstacle.from_box((100.0, 0.0, 0.0), (1.0, 1.0, 1.0))
    assert not sphere_prefilter(ell, obs)


# --------------------------------------------------------------------------
# tube-level checks


def test_check_tube_collision_reports_the_critical_section():
    obs = CuboidObstacle.from_box((5.0, 0.0, 0.0), (1.0, 1.0, 1.0),
                                  id="wall")
    centers = [(0.0, 0.0, 0.0), (3.5, 0.0, 0.0), (8.0, 0.0, 0.0)]
    tube = make_tube(centers, 0.25 * np.eye(3), c2=9.0)
    reports = check_tube_collision(tube, [obs])
    (rep,) = reports
    assert rep.obstacle_id == "wall"
    # nearest section is the middle one: distance 0.5, variance 0.25
    assert rep.argmin_t == pytest.approx(1.0)
    assert rep.min_cstar2 == pytest.approx(0.5**2 / 0.25, abs=1e-6)
    assert rep.verdict == "collide"           # 1 < 9
    assert np.allclose(rep.z_star, (4.0, 0.0, 0.0), atol=1e-6)


def test_check_tube_collision_clear_case():
    obs = CuboidObstacle.from_box((50.0, 0.0, 0.0), (1.0, 1.0, 1.0),
                                  id="far")
    centers = [(t, 0.0, 0.0) for t in np.linspace(0, 5, 11)]
    tube = make_tube(centers, 0.01 * np.eye(3), c2=9.0)
    reports = check_tube_collision(tube, [obs])
    (rep,) = reports
    assert rep.verdict == "clear"
    assert rep.min_cstar2 == math.inf         # prefilter rejected everywhere
    assert rep.argmin_t is None


def test_overall_verdict_aggregates():
    clear = ClearanceReport("a", 20.0, 0.0, np.zeros(3), c2=9.0)
    hit = ClearanceReport("b", 1.0, 0.0, np.zeros(3), c2=9.0)
    assert overall_verdict([clear]) == "clear"
    assert overall_verdict([clear, hit]) == "collide"
    assert overall_verdict([]) == "clear"


# --------------------------------------------------------------------------
# buffer sizing


def test_buffer_touch_single_face_closed_form():
    # isotropic tube at distance g from a face: c*^2(d) = ((g - d)/s)^2
    s = 0.5                                    # position std dev
    g = 3.0                                    # face distance
    c2 = chi2_quantile(0.999, 3)
    obs = CuboidObstacle.from_box((g + 1.0, 0.0, 0.0), (1.0, 4.0, 4.0))
    tube = make_tube([(0.0, 0.0, 0.0)], s**2 * np.eye(3), c2=c2)
    d = buffer_touch_distance(tube, obs, c2)
    assert d == pytest.approx(g - math.sqrt(c2) * s, abs=1e-5)


def test_buffer_touch_zero_at_exact_tangency():
    c2 = 4.0                                   # c = 2
    s = 0.5
    g = 2.0 * s                                # face exactly at c*sigma
    obs = CuboidObstacle.from_box((g + 1.0, 0.0, 0.0), (1.0, 4.0, 4.0))
    tube = make_tube([(0.0, 0.0, 0.0)], s**2 * np.eye(3), c2=c2)
    assert buffer_touch_distance(tube, obs, c2) == pytest.approx(0.0,
                                                                 abs=1e-5)


def test_buffer_touch_negative_when_tube_penetrates():
    # center 1.0 inside the face: the obstacle must shrink by
    # (penetration + c s) for the tube to escape
    s = 0.25
    c2 = 9.0                                   # c = 3
    obs = CuboidObstacle.from_box((0.0, 0.0, 0.0), (2.0, 4.0, 4.0))
    tube = make_tube([(1.0, 0.0, 0.0)], s**2 * np.eye(3), c2=c2)
    d = buffer_touch_distance(tube, obs, c2)
    assert d == pytest.approx(-(1.0 + 3.0 * s), abs=1e-5)


def test_buffer_touch_picks_the_most_critical_sample():
    s = 0.5
    c2 = 4.0
    obs = CuboidObstacle.from_box((10.0, 0.0, 0.0), (1.0, 4.0, 4.0))
    centers = [(0.0, 0.0, 0.0), (6.0, 0.0, 0.0), (2.0, 0.0, 0.0)]
    tube = make_tube(centers, s**2 * np.eye(3), c2=c2)
    d = buffer_touch_distance(tube, obs, c2)
    # closest section is x = 6, i.e. 3 m from the face
    assert d == pytest.approx(3.0 - 2.0 * s, abs=1e-5)


def test_buffer_touch_monotone_in_confidence_level():
    s, g = 0.4, 2.5
    obs = CuboidObstacle.from_box((g + 1.0, 0.0, 0.0), (1.0, 4.0, 4.0))
    tube_c2 = chi2_quantile(0.999, 3)
    tube = make_tube([(0.0, 0.0, 0.0)], s**2 * np.eye(3), c2=tube_c2)
    levels = [chi2_quantile(b, 3) for b in (0.9, 0.99, 0.999, 0.9999)]
    touches = [buffer_touch_distance(tube, obs, c2) for c2 in levels]
    # more confidence -> bigger tube -> less spare clearance
    assert all(a > b for a, b in zip(touches, touches[1:]))


def test_buffer_touch_rejects_empty_tube():
    obs = CuboidObstacle.from_box((3.0, 0.0, 0.0), (1.0, 1.0, 1.0))
    empty = Tube(times=np.empty(0), centers=np.empty((0, 3)),
                 sigmas=np.empty((0, 3, 3)), c2=9.0)
    with pytest.raises(ValueError):
        buffer_touch_distance(empty, obs, 9.0)


def test_buffer_touch_is_tube_wide():
    # Sample B is the more critical one against the true box (c*^2 20.25
    # against 25), but sample A reaches the level first as the box grows:
    # d' = min_k (g_k - c s_k), not the touch of the initially critical B.
    c2 = chi2_quantile(0.999, 3)
    c = math.sqrt(c2)
    obs = CuboidObstacle.from_box((0.0, 0.0, 0.0), (1.0, 1.0, 1.0))
    tube = make_tube([(1.5, 0.0, 0.0), (5.5, 0.0, 0.0)],
                     [0.01 * np.eye(3), np.eye(3)], c2=c2)
    expected = min(0.5 - c * 0.1, 4.5 - c * 1.0)
    assert expected == pytest.approx(0.0967, abs=1e-4)
    assert buffer_touch_distance(tube, obs, c2) == pytest.approx(
        expected, abs=1e-9)


def _inflated_lattice_touch(centers, sigmas, mid, half, yaw, c2, points):
    """Bisection on d of the lattice minimum over the box grown by d."""

    def lattice(d):
        grown = CuboidObstacle.from_box(mid, half + d, yaw=yaw)
        return min(grid_min_mahalanobis(S, r, grown, pts_per_axis=points)
                   for r, S in zip(centers, sigmas))

    lo = -float(np.min(half)) + 1e-6
    hi = float(np.max(np.linalg.norm(centers - mid, axis=1)))
    if lattice(lo) <= c2:
        return None                        # touches before the box vanishes
    for _ in range(24):
        mid_d = 0.5 * (lo + hi)
        if lattice(mid_d) > c2:
            lo = mid_d
        else:
            hi = mid_d
    return hi


@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_buffer_touch_matches_inflated_lattice_bisection(data):
    seed = data.draw(st.integers(0, 2**32 - 1))
    n = data.draw(st.integers(2, 5))
    rng = np.random.default_rng(seed)
    c2 = chi2_quantile(0.999, 3)
    half = rng.uniform(0.3, 1.0, size=3)
    mid = rng.uniform(-2.0, 2.0, size=3)
    yaw = rng.uniform(-np.pi, np.pi)
    obs = CuboidObstacle.from_box(mid, half, yaw=yaw)
    centers, sigmas = [], []
    for _ in range(n):
        u = rng.normal(size=3)
        centers.append(mid + u / np.linalg.norm(u)
                       * (np.linalg.norm(half) + rng.uniform(0.0, 1.5)))
        Q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        eig = rng.uniform(0.7, 1.3, size=3) * rng.uniform(0.05, 0.4) ** 2
        sigmas.append((Q * eig) @ Q.T)
    centers, sigmas = np.array(centers), np.array(sigmas)
    points = 30
    oracle = _inflated_lattice_touch(centers, sigmas, mid, half, yaw, c2,
                                     points)
    if oracle is None:
        return
    d = buffer_touch_distance(make_tube(centers, sigmas, c2), obs, c2)
    # Lattice points lie inside the box, so the lattice crosses the level
    # no earlier than the true minimum.  A face minimizer is within half a
    # cell diagonal of a face lattice point; Euclidean error e costs at
    # most e sqrt(cond Sigma) of buffer.
    cell = 2.0 * float(np.max(half + oracle)) / (points - 1)
    slack = cell * math.sqrt(0.5) * math.sqrt(1.3 / 0.7)
    assert d <= oracle + 1e-6
    assert d >= oracle - slack - 1e-6


# --------------------------------------------------------------------------
# polytopes beyond boxes


def make_prism(rng, sides, radius=1.5, z_lo=-1.0, z_hi=1.0):
    """Vertical prism over a jittered regular polygon (as in perfbench)."""
    phase = rng.uniform(0.0, 2.0 * math.pi)
    th = phase + 2.0 * math.pi * np.arange(sides) / sides
    A = np.column_stack([np.cos(th), np.sin(th), np.zeros(sides)])
    b = radius * rng.uniform(0.8, 1.0, size=sides)
    A = np.vstack([A, [[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]]])
    return CuboidObstacle(A=A, b=np.r_[b, z_hi, -z_lo])


def lattice_min_in_polytope(sigma, center, obs, pts_per_axis):
    """Dense-lattice oracle over the polytope's bounding box, restricted
    to the lattice points inside the polytope."""
    lo, hi = obs.vertices.min(axis=0), obs.vertices.max(axis=0)
    axes = [np.linspace(lo[i], hi[i], pts_per_axis) for i in range(3)]
    pts = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")],
                   axis=1)
    pts = pts[np.all(pts @ obs.A.T <= obs.b + 1e-12, axis=1)]
    d = pts - center
    return float(np.min(np.einsum("ki,ki->k", d @ np.linalg.inv(sigma), d)))


@pytest.mark.parametrize("sides", [6, 9, 13, 18])
def test_qp_on_prisms_matches_lattice_oracle(sides):
    rng = np.random.default_rng(sides)
    obs = make_prism(rng, sides)
    points = 70
    for _ in range(8):
        sigma = random_spd(rng)
        center = rng.uniform(-4.0, 4.0, size=3)
        z, c2 = solve_qp(sigma, center, obs.A, obs.b)
        assert np.all(obs.A @ z <= obs.b + 1e-8)
        d = z - center
        assert d @ np.linalg.inv(sigma) @ d == pytest.approx(
            c2, rel=1e-9, abs=1e-12)
        oracle = lattice_min_in_polytope(sigma, center, obs, points)
        assert c2 <= oracle + 1e-9
        # some lattice point lies within two cells of the minimizer, and a
        # Euclidean step e moves the Mahalanobis distance by at most
        # e / sqrt(lambda_min)
        cell = float(np.max(np.ptp(obs.vertices, axis=0))) / (points - 1)
        reach = 2.0 * cell / math.sqrt(np.linalg.eigvalsh(sigma)[0])
        assert math.sqrt(oracle) <= math.sqrt(c2) + reach


def test_twenty_face_prism_lists_its_face_sets():
    obs = make_prism(np.random.default_rng(0), 18)
    singles, pairs, triples = obs.face_sets
    # 18 side normals lie in a plane: 9 opposite pairs and the two caps
    # are parallel, and any three sides are dependent.
    assert (len(singles), len(pairs), len(triples)) == (20, 180, 288)


def test_qp_empty_prism_raises():
    rng = np.random.default_rng(3)
    obs = make_prism(rng, 12)
    A = obs.A
    b = obs.b.copy()
    b[-2:] = [-2.0, 1.0]                       # z <= -2 and z >= -1
    with pytest.raises(InfeasibleRegionError):
        solve_qp(np.eye(3), np.zeros(3), A, b)


def test_zero_covariance_samples_inside_a_batch():
    # Sections with Sigma = 0 are regularized one by one to 1e-30 I and
    # do not disturb their neighbours.
    c2 = 9.0
    obs = CuboidObstacle.from_box((5.0, 0.0, 0.0), (1.0, 4.0, 4.0))
    centers = [(1.0, 0.0, 0.0), (3.5, 0.0, 0.0), (2.0, 0.0, 0.0)]
    sigmas = np.array([0.25 * np.eye(3), np.zeros((3, 3)),
                       np.zeros((3, 3))])
    tube = make_tube(centers, sigmas, c2=c2)
    (rep,) = check_tube_collision(tube, [obs])
    assert rep.min_cstar2 == pytest.approx(3.0**2 / 0.25, rel=1e-12)
    assert rep.argmin_t == 0.0
    for k, sigma in enumerate(sigmas):
        _, alone = solve_qp(sigma, np.asarray(centers[k]), obs.A, obs.b)
        assert np.isfinite(alone) and alone >= rep.min_cstar2
    # the zero-covariance section 0.5 m off the face touches first
    d = buffer_touch_distance(tube, obs, c2)
    assert d == pytest.approx(0.5, abs=1e-9)


def test_tube_results_equal_the_per_section_extremes():
    # Sections are visited in lower-bound order and pruned; the results
    # must equal the extremes taken over every section one at a time.
    rng = np.random.default_rng(8)
    obs = make_prism(rng, 11)
    c2 = chi2_quantile(0.999, 3)
    n = 60
    u = rng.normal(size=(n, 3))
    centers = obs.centroid + u / np.linalg.norm(u, axis=1)[:, None] \
        * rng.uniform(2.0, 5.0, size=(n, 1))
    sigmas = np.array([random_spd(rng, scale=rng.uniform(0.01, 0.5))
                       for _ in range(n)])
    tube = make_tube(centers, sigmas, c2=c2)
    values = [solve_qp(sigmas[k], centers[k], obs.A, obs.b)[1]
              if sphere_prefilter(tube[k], obs) else math.inf
              for k in range(n)]
    (rep,) = check_tube_collision(tube, [obs])
    first = int(np.argmin(values))
    assert 0.0 < rep.min_cstar2 < math.inf
    assert rep.min_cstar2 == pytest.approx(values[first], rel=1e-12)
    assert rep.argmin_t == tube.times[first]
    touches = [buffer_touch_distance(make_tube(centers[k], sigmas[k], c2),
                                     obs, c2) for k in range(n)]
    assert buffer_touch_distance(tube, obs, c2) == pytest.approx(
        min(touches), abs=1e-12)


def test_pruning_looks_past_a_misleading_lower_bound():
    # Ten sections sit diagonally off a corner: their separating-face
    # bounds (c*^2 >= t^2 / 3, d' >= t / sqrt 3 - c) are the smallest, so
    # they are visited first, but the face-on section last in the tube
    # has the least c*^2 and touches first.
    c2, t = 9.0, 2.9
    obs = CuboidObstacle.from_box((0.0, 0.0, 0.0), (2.0, 2.0, 2.0))
    corner = (2.0 + t / math.sqrt(3.0)) * np.ones(3)
    centers = [corner] * 10 + [(4.0, 0.0, 0.0)]
    tube = make_tube(centers, np.eye(3), c2=c2)
    (rep,) = check_tube_collision(tube, [obs])
    assert rep.min_cstar2 == pytest.approx(4.0, rel=1e-12)
    assert rep.argmin_t == 10.0
    assert buffer_touch_distance(tube, obs, c2) == pytest.approx(
        -1.0, abs=1e-12)
    corner_only = make_tube(centers[:10], np.eye(3), c2=c2)
    (rep,) = check_tube_collision(corner_only, [obs])
    assert rep.min_cstar2 == pytest.approx(t * t, rel=1e-12)
    assert buffer_touch_distance(corner_only, obs, c2) == pytest.approx(
        (t - 3.0) / math.sqrt(3.0), abs=1e-12)
