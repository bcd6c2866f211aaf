"""Acceptance gate: one test per advertised guarantee.

Every test checks its full criterion at the stated tolerance and
runtime budget, prints a single ``[criterion n] PASS/FAIL`` line with
the measured numbers, and fails loudly when the guarantee is missed.
Run with ``pytest -v`` to see one line per criterion.
"""

from __future__ import annotations

import json
import math
import os
import time
from dataclasses import dataclass

import numpy as np
import pytest

from tubeplan.geometry import (
    CuboidObstacle,
    solve_qp,
    sphere_prefilter,
)
from tubeplan.planner import (
    _DEAD,
    _LIVE,
    Bounds,
    CrossSection,
    PlannerConfig,
    PlanTree,
    TubeEvaluator,
    add_node,
    cleanup_and_regrow,
    dynamic_informed_rrt_star,
    informed_rrt_star,
)
from tubeplan.runner import run_plan
from tubeplan.scenario import parse_scenario
from tubeplan.simcore import TimeGrid, mc_ensemble
from tubeplan.uncertainty import (
    ConfidenceEllipsoid,
    build_tube,
    chi2_cdf,
    chi2_quantile,
    lincov,
)
from tubeplan.vehicles import QuadrotorModel, QuadrotorParams
from tubeplan.vehicles.dryden import longitudinal
from tubeplan.vehicles.elementwise import BatchMath


def _criterion(n, ok, detail):
    print(f"[criterion {n}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {n}: {detail}"


def _clocks():
    """Wall time, and CPU time of this process and of the children it
    has joined (such as a forked LinCov job), both in s."""
    t = os.times()
    return np.array([time.perf_counter(), t.user + t.system
                     + t.children_user + t.children_system])


def _wall_and_cpu(start):
    """'W s wall, C s CPU' since ``start`` (_clocks): a wall time well
    above the CPU time means the machine was busy with other work."""
    wall, cpu = _clocks() - start
    return f"{wall:.2f} s wall, {cpu:.2f} s CPU"


def _pipeline(scenario):
    return (scenario.model, scenario.profile, scenario.grid,
            scenario.initial_state(), scenario.P0)


def _masked_channel_devs(lc_P, mc_P, rows):
    """Per-channel max of |lc - mc| / mc where mc >= 5% of its peak."""
    lc = np.diagonal(lc_P, axis1=1, axis2=2)
    mc = np.diagonal(mc_P, axis1=1, axis2=2)
    out = {}
    for i in rows:
        peak = float(np.max(mc[:, i]))
        mask = mc[:, i] >= 0.05 * peak
        out[i] = float(np.max(np.abs(lc[mask, i] - mc[mask, i])
                              / mc[mask, i]))
    return out


def random_spd(rng):
    Q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    eig = rng.uniform(0.2, 2.5, size=3)
    return (Q * eig) @ Q.T


# ==========================================================================
# 1. quadrotor: propagated position variances track a 10k-run ensemble


def test_criterion_01_quadrotor_variances_within_20pct_of_10k_mc(
        quad_scenario):
    model, profile, grid, x0, P0 = _pipeline(quad_scenario)
    start = _clocks()
    nominal, cov, timings = lincov(model, x0, profile, grid, P0)
    tic = time.perf_counter()
    build_tube(nominal, cov, quad_scenario.beta)
    lc_s = (time.perf_counter() - tic
            + 1e-3 * (timings["linearize_ms"] + timings["covariance_ms"]))
    lc_clocks = _wall_and_cpu(start)

    tic = time.perf_counter()
    _, mc_cov = mc_ensemble(model, x0, profile, grid, runs=10000,
                            base_seed=quad_scenario.seed)
    mc_s = time.perf_counter() - tic

    devs = _masked_channel_devs(cov.P, mc_cov.P, rows=(0, 1, 2))
    worst = max(devs.values())
    ok = worst <= 0.20 and lc_s <= 0.5 and mc_s <= 300.0
    _criterion(1, ok,
               f"position channel devs x/y/z = "
               f"{devs[0]:.3f}/{devs[1]:.3f}/{devs[2]:.3f} "
               f"(limit 0.20), lc {lc_s*1e3:.0f} ms (limit 500; lincov and "
               f"tube {lc_clocks}), "
               f"mc {mc_s:.1f} s (limit 300)")


# ==========================================================================
# 2. fixed-wing: same bound on the lateral-sinusoid scenario


def test_criterion_02_fixedwing_variances_within_20pct_of_10k_mc(
        fw_scenario):
    model, profile, grid, x0, P0 = _pipeline(fw_scenario)
    start = _clocks()
    nominal, cov, timings = lincov(model, x0, profile, grid, P0)
    tic = time.perf_counter()
    build_tube(nominal, cov, fw_scenario.beta)
    lc_s = (time.perf_counter() - tic
            + 1e-3 * (timings["linearize_ms"] + timings["covariance_ms"]))
    lc_clocks = _wall_and_cpu(start)

    tic = time.perf_counter()
    _, mc_cov = mc_ensemble(model, x0, profile, grid, runs=10000,
                            base_seed=fw_scenario.seed)
    mc_s = time.perf_counter() - tic

    devs = _masked_channel_devs(cov.P, mc_cov.P, rows=(0, 1, 2))
    worst = max(devs.values())
    ok = worst <= 0.20 and lc_s <= 0.5
    _criterion(2, ok,
               f"position channel devs x/y/h = "
               f"{devs[0]:.3f}/{devs[1]:.3f}/{devs[2]:.3f} "
               f"(limit 0.20), lc {lc_s*1e3:.0f} ms (limit 500; lincov and "
               f"tube {lc_clocks}), "
               f"mc {mc_s:.1f} s")


# ==========================================================================
# 3. chi-square threshold: Monte Carlo CDF check and exact round trip


def test_criterion_03_chi_square_quantile_vs_million_sample_mc():
    q = chi2_quantile(0.999, dof=3)
    rng = np.random.default_rng(20240814)
    x = rng.standard_normal((1_000_000, 3))
    r2 = np.einsum("ij,ij->i", x, x)
    frac = float(np.mean(r2 <= q))
    cdf_err = abs(frac - 0.999)

    rt_err = 0.0
    for dof in (1, 2, 3, 4, 6, 9):
        for beta in (0.5, 0.9, 0.99, 0.999, 0.9999):
            back = chi2_cdf(chi2_quantile(beta, dof), dof)
            rt_err = max(rt_err, abs(back - beta))

    ok = cdf_err <= 2e-4 and rt_err <= 1e-10
    _criterion(3, ok,
               f"empirical CDF at q(0.999, 3)={q:.6f} is {frac:.6f} "
               f"(err {cdf_err:.2e}, limit 2e-4); "
               f"round-trip max err {rt_err:.2e} (limit 1e-10)")


# ==========================================================================
# 4. collision QP agrees with a million-point lattice oracle


def _lattice_min_mahalanobis(sigma, center, obs, pts_per_axis=100):
    normals = obs.A[0::2]
    mid = obs.centroid
    h = obs.b[0::2] - normals @ mid
    # lattice offsets from the center, broadcast over the three face axes
    u, v, w = (np.linspace(-hk, hk, pts_per_axis)[:, None] * nk
               for hk, nk in zip(h, normals))
    d = (mid - center) + u[:, None, None] + v[:, None] + w
    S_inv = np.linalg.inv(sigma)
    return float(np.min(np.einsum("...i,...i->...", d @ S_inv, d)))


def test_criterion_04_qp_matches_million_point_grid_on_100_instances():
    rng = np.random.default_rng(424242)
    c2 = chi2_quantile(0.999, dof=3)
    tic = time.perf_counter()
    start = _clocks()
    verdict_mismatches = 0
    worst_rel = 0.0
    done = 0
    while done < 100:
        sigma = random_spd(rng)
        half = rng.uniform(0.4, 2.0, size=3)
        mid = rng.uniform(-3.0, 3.0, size=3)
        yaw = rng.uniform(-np.pi, np.pi)
        obs = CuboidObstacle.from_box(mid, half, yaw=yaw)
        center = mid + rng.uniform(-6.0, 6.0, size=3)
        _, qp = solve_qp(sigma, center, obs.A, obs.b)
        if 1e-9 < qp < 0.5:
            # below the lattice's resolving power; redraw the instance
            continue
        done += 1
        grid_min = _lattice_min_mahalanobis(sigma, center, obs)
        if (qp < c2) != (grid_min < c2):
            verdict_mismatches += 1
        if qp <= 1e-9:
            worst_rel = max(worst_rel, grid_min)  # both essentially zero
        else:
            worst_rel = max(worst_rel, abs(qp - grid_min) / qp)
    elapsed = time.perf_counter() - tic
    ok = verdict_mismatches == 0 and worst_rel <= 1e-2 and elapsed <= 30.0
    _criterion(4, ok,
               f"100 instances: {verdict_mismatches} verdict mismatches "
               f"(limit 0), worst relative c*^2 gap {worst_rel:.2e} "
               f"(limit 1e-2), {elapsed:.1f} s (limit 30; "
               f"{_wall_and_cpu(start)})")


# ==========================================================================
# 5. bounding-sphere prefilter never discards a true intersection


def test_criterion_05_prefilter_zero_false_negatives_on_10k_instances():
    rng = np.random.default_rng(31415)
    c2 = chi2_quantile(0.999, dof=3)
    false_negatives = 0
    rejected = 0
    for _ in range(10_000):
        sigma = random_spd(rng)
        obs = CuboidObstacle.from_box(
            rng.uniform(-2.0, 2.0, size=3), rng.uniform(0.3, 1.5, size=3),
            yaw=rng.uniform(-np.pi, np.pi))
        center = rng.uniform(-5.0, 5.0, size=3)
        ell = ConfidenceEllipsoid(t=0.0, center=center, sigma=sigma, c2=c2)
        if sphere_prefilter(ell, obs):
            continue
        rejected += 1
        _, cstar2 = solve_qp(sigma, center, obs.A, obs.b)
        if cstar2 < c2:
            false_negatives += 1
    ok = false_negatives == 0
    _criterion(5, ok,
               f"10000 instances, {rejected} prefilter rejections, "
               f"{false_negatives} false negatives (limit 0)")


# ==========================================================================
# 6. planner quality: free space and a single wall


def _shortest_around_rect(start, goal, center, half):
    """Exact shortest path around one axis-aligned rectangle (2D)."""
    eps = 1e-9
    lo = np.array([center[0] - half[0] + eps, center[1] - half[1] + eps])
    hi = np.array([center[0] + half[0] - eps, center[1] + half[1] - eps])

    def blocked(p, q):
        p, q = np.asarray(p, float), np.asarray(q, float)
        d = q - p
        t0, t1 = 0.0, 1.0
        for ax in range(2):
            if abs(d[ax]) < 1e-15:
                if not lo[ax] < p[ax] < hi[ax]:
                    return False
            else:
                ta = (lo[ax] - p[ax]) / d[ax]
                tb = (hi[ax] - p[ax]) / d[ax]
                if ta > tb:
                    ta, tb = tb, ta
                t0, t1 = max(t0, ta), min(t1, tb)
                if t0 >= t1:
                    return False
        return True

    corners = [(center[0] + sx * half[0], center[1] + sy * half[1])
               for sx in (-1.0, 1.0) for sy in (-1.0, 1.0)]
    nodes = [tuple(start), tuple(goal)] + corners
    n = len(nodes)
    dist = np.full(n, np.inf)
    dist[0] = 0.0
    todo = set(range(n))
    while todo:
        u = min(todo, key=lambda i: dist[i])
        todo.discard(u)
        if not math.isfinite(dist[u]):
            break
        for v in list(todo):
            if blocked(nodes[u], nodes[v]):
                continue
            step = math.dist(nodes[u], nodes[v])
            if dist[u] + step < dist[v]:
                dist[v] = dist[u] + step
    return float(dist[1])


def test_criterion_06_planner_near_optimal_free_space_and_single_wall():
    bounds = Bounds((0.0, -30.0), (100.0, 30.0))
    cfg = PlannerConfig(bounds=bounds, altitude=10.0, cruise_speed=5.0,
                        N_max=3000, N_conv=200, tol=0.005)

    tic = time.perf_counter()
    tree = informed_rrt_star((10.0, 0.0), (90.0, 0.0), [], cfg,
                             np.random.default_rng(4242))
    free_s = time.perf_counter() - tic
    free_cost = tree.c_best()
    free_ratio = free_cost / 80.0

    wall = CuboidObstacle.from_box((50.0, 0.0, 10.0), (2.0, 10.0, 10.0),
                                   id="wall")
    oracle = _shortest_around_rect((10.0, 0.0), (90.0, 0.0),
                                   (50.0, 0.0), (2.0, 10.0))
    closed_form = 2.0 * math.hypot(38.0, 10.0) + 4.0
    assert oracle == pytest.approx(closed_form, rel=1e-9)

    tic = time.perf_counter()
    tree_w = informed_rrt_star((10.0, 0.0), (90.0, 0.0),
                               [CrossSection(wall, cfg.altitude, 0.0)], cfg,
                               np.random.default_rng(31))
    wall_s = time.perf_counter() - tic
    wall_cost = tree_w.c_best()
    wall_ratio = wall_cost / oracle

    ok = (free_ratio <= 1.02 and wall_ratio <= 1.05
          and free_s <= 30.0 and wall_s <= 30.0)
    _criterion(6, ok,
               f"free-space cost ratio {free_ratio:.4f} (limit 1.02, "
               f"{free_s:.1f} s); single-wall ratio {wall_ratio:.4f} "
               f"vs graph optimum {oracle:.3f} (limit 1.05, "
               f"{wall_s:.1f} s)")


# ==========================================================================
# 7. end-to-end plan through three obstacles satisfies the chance bound


def test_criterion_07_three_obstacle_plan_clears_at_beta(plan_scenario,
                                                         tmp_path):
    tic = time.perf_counter()
    report = run_plan(plan_scenario, tmp_path / "plan")
    elapsed = time.perf_counter() - tic
    c2 = report.extras["c2"]
    assert report.beta == 0.999
    mins = {e["obstacle_id"]: e["min_cstar2"] for e in report.clearance}
    margin_ok = all(m is None or m >= 0.95 * c2 for m in mins.values())
    shown = {k: ("inf" if v is None else f"{v:.0f}")
             for k, v in sorted(mins.items())}
    ok = (report.verdict == "clear" and report.extras["solved"]
          and margin_ok and elapsed <= 60.0)
    _criterion(7, ok,
               f"verdict {report.verdict}, min c*^2 per obstacle {shown} "
               f"vs 0.95*c^2 = {0.95 * c2:.2f}, {elapsed:.1f} s (limit 60)")


# ==========================================================================
# 8. structural properties


def test_criterion_08a_covariance_histories_symmetric_and_psd(
        quad_scenario, fw_scenario):
    worst_asym = 0.0
    worst_ratio = 0.0
    for scenario in (quad_scenario, fw_scenario):
        model, profile, grid, x0, P0 = _pipeline(scenario)
        _, cov, _ = lincov(model, x0, profile, grid, P0)
        asym = np.max(np.abs(cov.P - np.transpose(cov.P, (0, 2, 1))))
        worst_asym = max(worst_asym, float(asym))
        eigs = np.linalg.eigvalsh(cov.P)
        # any negative eigenvalue must be integration-scale float noise
        # relative to the covariance magnitudes the run actually reaches
        scale = max(float(np.max(eigs)), 1.0)
        worst_ratio = min(worst_ratio, float(np.min(eigs[:, 0])) / scale)
    ok = worst_asym <= 1e-10 and worst_ratio >= -1e-10
    _criterion("8a", ok,
               f"covariance asymmetry {worst_asym:.2e} (limit 1e-10), "
               f"eigenvalue floor / covariance scale {worst_ratio:.2e} "
               f"(limit -1e-10)")


def test_criterion_08b_tree_fuzz_10k_mutations_zero_violations():
    rng = np.random.default_rng(808)
    bounds = Bounds((0.0, 0.0), (100.0, 100.0))
    cfg = PlannerConfig(bounds=bounds, altitude=10.0, cruise_speed=5.0,
                        N_max=200, goal_bias=0.05)
    obstacles = [CrossSection(obs, cfg.altitude, 0.0) for obs in (
        CuboidObstacle.from_box((35.0, 40.0, 10.0), (6.0, 6.0, 10.0),
                                id="a"),
        CuboidObstacle.from_box((70.0, 60.0, 10.0), (5.0, 8.0, 10.0),
                                yaw=0.4, id="b"),
    )]

    def fresh():
        return PlanTree((5.0, 5.0), (95.0, 95.0), cfg.goal_radius)

    tree = fresh()
    mutations = 0
    violations = 0
    tic = time.perf_counter()
    while mutations < 10_000:
        if tree.size > 400:
            tree = fresh()
        r = rng.random()
        if r < 0.70:
            add_node(tree, obstacles, cfg, rng)
            mutations += 1
        elif r < 0.78:
            connected = [i for i in range(tree.size)
                         if tree._state[i] == _LIVE and i != tree.root]
            if connected:
                tree.detach_orphan(int(rng.choice(connected)))
                mutations += 1
        elif r < 0.86:
            orphans = tree.orphan_nodes()
            if orphans.size:
                connected = [i for i in range(tree.size)
                             if tree._state[i] == _LIVE]
                tree.adopt_orphan(int(rng.choice(orphans)),
                                  int(rng.choice(connected)))
                mutations += 1
        elif r < 0.93:
            leaves = [i for i in range(tree.size)
                      if tree._state[i] != _DEAD and not tree._children[i]
                      and i != tree.root]
            if leaves:
                tree.kill(int(rng.choice(leaves)))
                mutations += 1
        else:
            grown = CrossSection(CuboidObstacle.from_box(
                (float(rng.uniform(15, 85)), float(rng.uniform(15, 85)),
                 10.0), (4.0, 4.0, 10.0), id="grown"),
                cfg.altitude, float(rng.uniform(0.0, 2.0)))
            if grown.contains(tree.coords(tree.root)):
                continue
            cleanup_and_regrow(tree, grown, obstacles, cfg, rng)
            mutations += 1
        try:
            tree.check_consistency()
        except AssertionError:
            violations += 1
            break
    elapsed = time.perf_counter() - tic
    ok = violations == 0 and mutations >= 10_000
    _criterion("8b", ok,
               f"{mutations} mutations, {violations} invariant violations "
               f"(limit 0), {elapsed:.1f} s")


def test_criterion_08c_each_cli_mode_reproduces_identical_bytes(tmp_path):
    from tubeplan.cli import main

    raw = {
        "schema_version": 1, "name": "acceptance-repro", "seed": 5,
        "beta": 0.999,
        "vehicle": {"type": "quadrotor", "params": {}},
        "grid": {"t0": 0.0, "tf": 6.0, "dt": 0.02},
        "desired_trajectory": {
            "profile": "waypoints",
            "points": [[0.0, 0.0, 10.0], [30.0, 0.0, 10.0]],
            "speed": 5.0},
        "obstacles": [{"id": "side",
                       "box": {"center": [15.0, 10.0, 10.0],
                               "half_extents": [2.0, 2.0, 10.0],
                               "yaw": 0.0}}],
        "planner": {
            "bounds": {"lo": [-5.0, -20.0], "hi": [40.0, 20.0]},
            "start": [0.0, 0.0], "goal": [30.0, 0.0],
            "altitude": 10.0, "cruise_speed": 5.0,
            "N_max": 500, "N_conv": 80, "M": 2},
    }
    scn = tmp_path / "repro.json"
    scn.write_text(json.dumps(raw))

    stable = {
        "validate": ["nominal.csv", "variances.csv", "tube.jsonl",
                     "report.json"],
        "plan": ["path.csv", "tube.jsonl", "buffers.json", "tree.jsonl",
                 "report.json"],
        "mc-compare": ["lc_variances.csv", "mc_variances.csv",
                       "deviation.json", "report.json"],
    }
    extra = {"mc-compare": ["--runs", "200"]}
    mismatched = []
    for mode, names in stable.items():
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / f"{mode}-{tag}"
            code = main([mode, "--scenario", str(scn), "--out", str(out)]
                        + extra.get(mode, []))
            assert code == 0, f"{mode} run {tag} exited {code}"
            outs.append(out)
        for name in names:
            if (outs[0] / name).read_bytes() != (outs[1] / name).read_bytes():
                mismatched.append(f"{mode}/{name}")
    ok = not mismatched
    _criterion("8c", ok,
               "validate/plan/mc-compare reruns byte-identical "
               f"(excluding timings.json); mismatches: {mismatched or 'none'}")


def test_criterion_08d_zero_noise_degeneracies():
    model = QuadrotorModel(QuadrotorParams(sigma=np.zeros(3)))
    raw = {
        "schema_version": 1, "name": "still-air", "seed": 3, "beta": 0.999,
        "vehicle": {"type": "quadrotor", "params": {"sigma": 0.0}},
        "grid": {"t0": 0.0, "tf": 6.0, "dt": 0.02},
        "desired_trajectory": {
            "profile": "waypoints",
            "points": [[0.0, 0.0, 10.0], [30.0, 0.0, 10.0]],
            "speed": 5.0},
    }
    scenario = parse_scenario(raw)
    profile = scenario.profile
    grid = scenario.grid
    x0 = scenario.initial_state()

    mean, cov = mc_ensemble(model, x0, profile, grid, runs=64, base_seed=3)
    # the gust filter states still integrate their unit-gain noise; with
    # the output gain at zero every vehicle row must be exactly
    # deterministic, so the vehicle block and its cross terms vanish
    cov_zero = float(np.max(np.abs(cov.P[:, :6, :])))

    # explicit forward-Euler reference of the deterministic dynamics
    euler = np.empty((grid.count, model.n_states))
    euler[0] = x0
    zero_noise = np.zeros(model.n_noise)
    for k in range(grid.count - 1):
        t = grid.t0 + k * grid.dt
        euler[k + 1] = euler[k] + grid.dt * model.deriv(
            euler[k], profile(t), zero_noise)
    mean_gap = float(np.max(np.abs(mean.states[:, :6] - euler[:, :6])))

    # planner buffers stay pinned at zero without process noise
    cfg = PlannerConfig(bounds=Bounds((-5.0, -20.0), (40.0, 20.0)),
                        altitude=10.0, cruise_speed=5.0, N_max=500,
                        N_conv=80, M=2)
    obstacles = [CuboidObstacle.from_box((15.0, 10.0, 10.0),
                                         (2.0, 2.0, 10.0), id="side")]
    evaluator = TubeEvaluator(model=model, dt=0.02, beta=0.999)
    result = dynamic_informed_rrt_star(
        (0.0, 0.0), (30.0, 0.0), obstacles, cfg, evaluator,
        np.random.default_rng(3))
    buffers = [b for record in result.buffer_history
               for b in record.values()]
    tube_spread = float(np.max(np.abs(result.tube.sigmas)))

    ok = (cov_zero == 0.0 and mean_gap == 0.0 and result.solved
          and all(b == 0.0 for b in buffers) and tube_spread == 0.0)
    _criterion("8d", ok,
               f"zero-gust ensemble: vehicle-row max |cov| = {cov_zero:.1e}, "
               f"vehicle-row mean-vs-Euler gap {mean_gap:.1e}, planner "
               f"buffers {sorted(set(buffers))}, tube spread "
               f"{tube_spread:.1e} (all must be exactly 0)")


# ==========================================================================
# 9. stochastic building blocks against closed forms


class _ScalarOU:
    """x_dot = -a x + b n: stationary variance b^2 / (2 a)."""

    name = "scalar-ou"
    n_states = 1
    n_noise = 1

    def __init__(self, a, b):
        self.a = float(a)
        self.b = float(b)

    def deriv(self, x, ref, noise):
        return -self.a * np.asarray(x, dtype=float) \
            + self.b * np.asarray(noise, dtype=float)


class _GustChannel:
    """1-state longitudinal gust filter with unit-gain driving noise."""

    name = "gust-u"
    n_states = 1
    n_noise = 1

    def __init__(self, V, sigma, length):
        self.a, self.c = longitudinal(BatchMath, V, sigma, length)

    def deriv(self, x, ref, noise):
        return self.a * np.asarray(x, dtype=float) \
            + np.asarray(noise, dtype=float)


@dataclass
class _StillRef:
    """A reference that carries only its times: the channels track nothing."""

    t: np.ndarray


def _still(t):
    return _StillRef(t=np.asarray(t, dtype=float))


def test_criterion_09_ou_and_gust_channel_match_their_closed_forms():
    # scalar relaxation: final-time ensemble variance vs b^2/(2a)
    a, b = 1.3, 0.7
    model = _ScalarOU(a, b)
    grid = TimeGrid(0.0, 8.0, 0.005)
    _, cov = mc_ensemble(model, np.zeros(1), _still, grid, runs=10000,
                         base_seed=90210)
    ou_mc = float(cov.P[-1, 0, 0])
    ou_exact = b * b / (2.0 * a)
    ou_rel = abs(ou_mc - ou_exact) / ou_exact

    # longitudinal gust channel: long-run output variance vs sigma^2
    V, sigma_u, L_u = 12.0, 1.4, 30.0
    gust = _GustChannel(V, sigma_u, L_u)
    grid = TimeGrid(0.0, 20.0, 0.01)
    _, cov = mc_ensemble(gust, np.zeros(1), _still, grid, runs=10000,
                         base_seed=60601)
    times = grid.times()
    tail = times >= 10.0
    var_eta = float(np.mean(cov.P[tail, 0, 0]))
    gust_mc = gust.c * gust.c * var_eta
    gust_rel = abs(gust_mc - sigma_u**2) / sigma_u**2

    ok = ou_rel <= 0.05 and gust_rel <= 0.02
    _criterion(9, ok,
               f"OU variance {ou_mc:.5f} vs {ou_exact:.5f} "
               f"(rel {ou_rel:.3f}, limit 0.05); gust output variance "
               f"{gust_mc:.4f} vs {sigma_u**2:.4f} "
               f"(rel {gust_rel:.3f}, limit 0.02)")
