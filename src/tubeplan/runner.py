"""Run orchestration: validate, plan and mc-compare modes with artifacts.

Every mode writes a deterministic artifact set into an output directory
— identical scenario + seed produce byte-identical files — plus a
``timings.json`` that carries the wall-clock stage times and is the one
deliberately non-reproducible artifact.  Reports embed the scenario
hash and seed so any artifact can be traced to its inputs.  Runners
read the run objects a ``Scenario`` holds; ``Scenario.with_overrides``
gives one with another seed or confidence level.  A scenario that lacks
a block its mode needs raises ScenarioError naming the file.

LinCov behind the nominal (``uncertainty.lincov``) and validate's two
CSV files are each one job.  With a second usable core each job runs in
a forked child, beside the nominal and beside the tube check; on one
core it runs in-process after them.  The artifacts are the same bytes
either way.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ScenarioError
from .geometry import check_tube_collision, overall_verdict
from .planner import TubeEvaluator, dynamic_informed_rrt_star
from .scenario import Scenario
from .simcore import _beside, mc_ensemble
from .uncertainty import build_tube, lincov

__all__ = ["RunReport", "run_validate", "run_plan", "run_mc_compare"]


@dataclass
class RunReport:
    """Outcome summary of one run; ``timings_ms`` is kept out of report.json."""

    mode: str
    scenario_name: str
    scenario_hash: str
    seed: int
    beta: float
    verdict: str
    clearance: list[dict] = field(default_factory=list)
    extras: dict = field(default_factory=dict)
    timings_ms: dict = field(default_factory=dict)

    def to_dict(self):
        return {
            "mode": self.mode,
            "scenario_name": self.scenario_name,
            "scenario_hash": self.scenario_hash,
            "seed": self.seed,
            "beta": self.beta,
            "verdict": self.verdict,
            "clearance": self.clearance,
            "extras": self.extras,
        }


# --------------------------------------------------------------------------
# deterministic writers


def _json_default(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    raise TypeError(f"not JSON serializable: {type(obj)!r}")


def _write_json(path, obj):
    text = json.dumps(obj, sort_keys=True, indent=2, default=_json_default)
    Path(path).write_text(text + "\n", encoding="utf-8")


def _write_jsonl(path, records):
    encode = json.JSONEncoder(sort_keys=True, separators=(",", ":"),
                              default=_json_default).encode
    lines = [encode(rec) for rec in records]
    Path(path).write_text("\n".join(lines) + ("\n" if lines else ""),
                          encoding="utf-8")


def _write_csv(path, header, columns):
    """Column-major CSV writer using repr() floats for exact round trips."""
    rows = np.asarray(np.column_stack(columns), dtype=float).tolist()
    lines = [",".join(header)]
    lines.extend(",".join(map(repr, row)) for row in rows)
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _write_variances(path, times, labels, variances):
    """One ``var_<label>`` column per state, from a (count, n) array."""
    _write_csv(path, ["t"] + [f"var_{s}" for s in labels],
               [times] + [variances[:, i] for i in range(len(labels))])


def _write_state_csvs(out, times, labels, states, P):
    """nominal.csv and variances.csv of a validate run."""
    _write_csv(out / "nominal.csv", ["t"] + labels,
               [times] + [states[:, i] for i in range(len(labels))])
    _write_variances(out / "variances.csv", times, labels,
                     np.diagonal(P, axis1=1, axis2=2))


def _finite_or_none(x):
    if x is None:
        return None
    x = float(x)
    return x if math.isfinite(x) else None


def _clearance_dicts(reports):
    out = []
    for r in reports:
        out.append({
            "obstacle_id": r.obstacle_id,
            "min_cstar2": _finite_or_none(r.min_cstar2),
            "argmin_t": _finite_or_none(r.argmin_t),
            "z_star": None if r.z_star is None
            else [float(v) for v in r.z_star],
            "c2": float(r.c2),
            "verdict": r.verdict,
        })
    return out


def _tube_records(tube):
    c2 = float(tube.c2)
    return [{"t": t, "center": center, "sigma": sigma, "c2": c2}
            for t, center, sigma in zip(
                tube.times.tolist(), tube.centers.tolist(),
                tube.sigmas.reshape(-1, 9).tolist())]


# --------------------------------------------------------------------------
# modes


def _scenario_error(sc, message):
    """A ScenarioError that names the scenario's file, as parse errors do."""
    return ScenarioError(f"{sc.source}: {message}")


def run_validate(sc: Scenario, out_dir) -> RunReport:
    """Propagate the tube along the scenario trajectory and check obstacles.

    Writes nominal.csv, variances.csv, tube.jsonl, report.json and
    timings.json into ``out_dir``.  The two CSV files are written beside
    the tube, the obstacle check and tube.jsonl: in a forked child with a
    second usable core, else after tube.jsonl.
    """
    if sc.profile is None:
        raise _scenario_error(sc,
                              "desired_trajectory: required for this mode")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    model, grid = sc.model, sc.grid

    nominal, cov, timings = lincov(model, sc.initial_state(), sc.profile,
                                   grid, sc.P0)
    with _beside("CSV writer", _write_state_csvs, out, grid.times(),
                 list(model.state_labels), nominal.states, cov.P):
        tic = time.perf_counter()
        tube = build_tube(nominal, cov, sc.beta,
                          position_rows=model.position_rows)
        timings["tube_ms"] = 1e3 * (time.perf_counter() - tic)
        timings["lc_ms"] = (timings["linearize_ms"]
                            + timings["covariance_ms"] + timings["tube_ms"])
        tic = time.perf_counter()
        reports = check_tube_collision(tube, sc.obstacles)
        timings["collision_ms"] = 1e3 * (time.perf_counter() - tic)
        _write_jsonl(out / "tube.jsonl", _tube_records(tube))

    report = RunReport(
        mode="validate", scenario_name=sc.name, scenario_hash=sc.hash(),
        seed=sc.seed, beta=sc.beta,
        verdict=overall_verdict(reports),
        clearance=_clearance_dicts(reports),
        extras={"grid_points": grid.count, "c2": float(tube.c2)},
        timings_ms=timings)
    _write_json(out / "report.json", report.to_dict())
    _write_json(out / "timings.json", timings)
    return report


def run_plan(sc: Scenario, out_dir) -> RunReport:
    """Plan a chance-constrained path and post-check it against obstacles.

    Writes path.csv, tube.jsonl, buffers.json, tree.jsonl, report.json
    and timings.json.  The report's extras give the rounds run
    (``outer_iterations``) and ``converged``, false only when the planner
    stopped at its round cap with a buffer still growing.  When no path
    is found the report's verdict is "error" and path.csv and tube.jsonl
    are not written; the rest still are, for diagnosis.  Raises, before
    writing any artifact, ScenarioError when the scenario has no planner
    block, and PlanningError when the start or the goal lies inside a
    buffered obstacle (or a grown buffer later covers the start).
    """
    if sc.planner is None:
        raise _scenario_error(sc, "planner: required for plan mode")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    evaluator = TubeEvaluator(model=sc.model, dt=sc.grid.dt, beta=sc.beta,
                              P0=sc.P0, initial_state=sc.x0)
    rng = np.random.default_rng(sc.seed)

    timings = {}
    tic = time.perf_counter()
    result = dynamic_informed_rrt_star(sc.start, sc.goal, sc.obstacles,
                                       sc.planner, evaluator, rng)
    timings["plan_ms"] = 1e3 * (time.perf_counter() - tic)

    _write_json(out / "buffers.json", result.buffer_history)
    if result.tree is not None:
        _write_jsonl(out / "tree.jsonl", result.tree.to_records())
    extras = {
        "cost_history": [_finite_or_none(c) for c in result.cost_history],
        "outer_iterations": result.outer_iterations,
        "solved": result.solved,
        "converged": result.converged,
        "c2": float(evaluator.c2),
    }
    if result.solved:
        path = result.path
        extras["path_length"] = float(
            np.sum(np.linalg.norm(np.diff(path, axis=0), axis=1)))
        extras["waypoints"] = len(path)
        _write_csv(out / "path.csv", ["x", "y"],
                   [path[:, 0], path[:, 1]])
        _write_jsonl(out / "tube.jsonl", _tube_records(result.tube))
        verdict = overall_verdict(result.reports)
    else:
        extras["message"] = result.message
        verdict = "error"

    report = RunReport(
        mode="plan", scenario_name=sc.name, scenario_hash=sc.hash(),
        seed=sc.seed, beta=sc.beta, verdict=verdict,
        clearance=_clearance_dicts(result.reports),
        extras=extras, timings_ms=timings)
    _write_json(out / "report.json", report.to_dict())
    _write_json(out / "timings.json", timings)
    return report


def run_mc_compare(sc: Scenario, out_dir, *, runs=10000) -> RunReport:
    """Compare propagated variances against a Monte Carlo ensemble.

    Writes lc_variances.csv, mc_variances.csv, deviation.json,
    report.json and timings.json.  The deviation metric per channel is
    the maximum over time of |lc - mc| / mc restricted to instants where
    the MC variance is at least 5% of that channel's peak; channels
    whose MC variance is identically zero are flagged degenerate.
    """
    if runs < 100:
        raise ValueError("mc-compare needs runs >= 100")
    if sc.profile is None:
        raise _scenario_error(sc,
                              "desired_trajectory: required for this mode")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    model, profile, grid = sc.model, sc.profile, sc.grid
    x0 = sc.initial_state()

    _, cov, timings = lincov(model, x0, profile, grid, sc.P0)
    timings["lc_ms"] = timings["linearize_ms"] + timings["covariance_ms"]
    tic = time.perf_counter()
    mc_mean, mc_cov = mc_ensemble(model, x0, profile, grid, runs=runs,
                                  base_seed=sc.seed)
    timings["mc_ms"] = 1e3 * (time.perf_counter() - tic)

    lc_var = np.diagonal(cov.P, axis1=1, axis2=2)
    mc_var = np.diagonal(mc_cov.P, axis1=1, axis2=2)
    labels = list(model.state_labels)
    channels = {}
    pos_max = 0.0
    for i, label in enumerate(labels):
        peak = float(np.max(mc_var[:, i]))
        if peak <= 0.0:
            channels[label] = {"max_rel_dev": None, "degenerate": True}
            continue
        mask = mc_var[:, i] >= 0.05 * peak
        rel = np.abs(lc_var[mask, i] - mc_var[mask, i]) / mc_var[mask, i]
        dev = float(np.max(rel))
        channels[label] = {"max_rel_dev": dev, "degenerate": False}
        if i in model.position_rows:
            pos_max = max(pos_max, dev)

    times = grid.times()
    _write_variances(out / "lc_variances.csv", times, labels, lc_var)
    _write_variances(out / "mc_variances.csv", times, labels, mc_var)
    deviation = {"channels": channels,
                 "position_max_rel_dev": pos_max,
                 "runs": int(runs)}
    _write_json(out / "deviation.json", deviation)

    report = RunReport(
        mode="mc-compare", scenario_name=sc.name, scenario_hash=sc.hash(),
        seed=sc.seed, beta=sc.beta, verdict="none",
        clearance=[],
        extras=deviation,
        timings_ms=timings)
    _write_json(out / "report.json", report.to_dict())
    _write_json(out / "timings.json", timings)
    return report
