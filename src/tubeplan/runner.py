"""Run orchestration: validate, plan and mc-compare modes with artifacts.

Every mode writes a deterministic artifact set into an output directory
— identical scenario + seed produce byte-identical files — plus a
``timings.json`` that carries the wall-clock stage times and is the one
deliberately non-reproducible artifact.  Reports embed the scenario
hash and seed so any artifact can be traced to its inputs.  Runners
read the run objects a ``Scenario`` holds; ``Scenario.with_overrides``
gives one with another seed or confidence level.  A scenario that lacks
a block its mode needs raises ScenarioError naming the file.

LinCov behind the nominal (``uncertainty.lincov``), validate's
variances.csv and each Monte Carlo pass's noise are each one job.  With
a second usable core each job runs in a forked child, beside the
nominal, beside the tube check and beside the ensemble; on one core it
runs in-process after them.  validate writes nominal.csv itself,
between the nominal and the wait for LinCov.  mc-compare runs LinCov
inside the ensemble's first pass, once its noise job has started.  The
artifacts are the same bytes either way.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .errors import ScenarioError
from .geometry import check_tube_collision, overall_verdict
from .planner import TubeEvaluator, dynamic_informed_rrt_star
from .scenario import Scenario
from .simcore import _beside, _row_blocks, mc_ensemble
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
        return {f.name: getattr(self, f.name) for f in fields(self)
                if f.name != "timings_ms"}


# --------------------------------------------------------------------------
# deterministic writers


def _write_json(path, obj):
    text = json.dumps(obj, sort_keys=True, indent=2)
    Path(path).write_text(text + "\n", encoding="utf-8")


def _write_rows(path, head, columns, line):
    """head, then line(row) for each row of the columns side by side,
    where row is a list of Python floats.  The rows are converted and
    written a block at a time (simcore._row_blocks), so the whole table
    is never copied."""
    with open(path, "w", encoding="utf-8") as f:
        f.write(head)
        for rows in _row_blocks(columns):
            f.write("".join(map(line, rows)))


def _write_csv(path, header, columns):
    """Column-major CSV writer using repr() floats for exact round trips."""
    _write_rows(path, ",".join(header) + "\n", columns,
                lambda row: ",".join(map(repr, row)) + "\n")


def _write_variances(path, times, labels, variances):
    """One ``var_<label>`` column per state, from a (count, n) array."""
    _write_csv(path, ["t"] + [f"var_{s}" for s in labels],
               [times] + [variances[:, i] for i in range(len(labels))])


def _json_float(x):
    """x as json writes it: repr() when finite, else NaN or ±Infinity."""
    if math.isfinite(x):
        return repr(x)
    return "NaN" if x != x else ("Infinity" if x > 0 else "-Infinity")


def _float_format(*arrays):
    """repr when every value of the arrays is finite, else _json_float."""
    return repr if all(np.isfinite(a).all() for a in arrays) else _json_float


def _write_tube(path, tube):
    """tube.jsonl: per sample the line that json.dumps(..., sort_keys=True,
    separators=(",", ":")) writes for its t, center, sigma (row-major)
    and c2, with a row of floats formatted into a fixed template.

    Stored covariances are symmetrized bit for bit, so when every sigma
    equals its transpose in its int64 bits (which tells -0.0 from 0.0)
    each sample formats its upper triangle only; else all nine entries.
    """
    sig = tube.sigmas.reshape(-1, 9)
    bits = tube.sigmas.view(np.int64)
    if np.array_equal(bits, bits.transpose(0, 2, 1)):
        cols, order = [0, 1, 2, 4, 5, 8], [0, 1, 2, 1, 3, 4, 2, 4, 5]
    else:
        cols = order = range(9)
    fmt = _float_format(tube.times, tube.centers, tube.sigmas)
    # a str.format template over the row t, center, sigma entries
    sigma = ",".join("{%d}" % (4 + i) for i in order)
    template = ('{{"c2":%s,"center":[{1},{2},{3}],"sigma":[%s],"t":{0}}}\n'
                % (_json_float(tube.c2), sigma))
    columns = [tube.times, tube.centers, *(sig[:, i] for i in cols)]
    _write_rows(path, "", columns,
                lambda row: template.format(*map(fmt, row)))


def _write_tree(path, tree):
    """tree.jsonl: per live node the line that json.dumps(...,
    sort_keys=True, separators=(",", ":")) writes for its cost, index,
    parent (-1 for the root), x and y, formatted into a fixed template."""
    index, parent, x, y, cost = tree.live_columns()
    fmt = _float_format(x, y, cost)
    template = '{"cost":%s,"index":%d,"parent":%d,"x":%s,"y":%s}\n'
    _write_rows(path, "", [cost, index, parent, x, y],
                lambda r: template % (fmt(r[0]), r[1], r[2],
                                      fmt(r[3]), fmt(r[4])))


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


# --------------------------------------------------------------------------
# modes


def _scenario_error(sc, message):
    """A ScenarioError that names the scenario's file, as parse errors do."""
    return ScenarioError(f"{sc.source}: {message}")


def _finish(sc, out, mode, verdict, clearance, extras, timings):
    """The run's report, written to report.json beside timings.json."""
    report = RunReport(mode=mode, scenario_name=sc.name,
                       scenario_hash=sc.hash(), seed=sc.seed, beta=sc.beta,
                       verdict=verdict, clearance=clearance, extras=extras,
                       timings_ms=timings)
    _write_json(out / "report.json", report.to_dict())
    _write_json(out / "timings.json", timings)
    return report


def run_validate(sc: Scenario, out_dir) -> RunReport:
    """Propagate the tube along the scenario trajectory and check obstacles.

    Writes nominal.csv, variances.csv, tube.jsonl, report.json and
    timings.json into ``out_dir``.  nominal.csv is written by lincov's
    ``on_nominal`` hook, while the LinCov job still runs beside it.
    variances.csv is written beside the tube, the obstacle check and
    tube.jsonl: in a forked child with a second usable core, else after
    tube.jsonl.
    """
    if sc.profile is None:
        raise _scenario_error(sc,
                              "desired_trajectory: required for this mode")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    model, grid = sc.model, sc.grid
    times, labels = grid.times(), list(model.state_labels)
    written = {}

    def write_nominal(nominal):
        tic = time.perf_counter()
        _write_csv(out / "nominal.csv", ["t"] + labels,
                   [times, *nominal.states.T])
        written["nominal_csv_ms"] = 1e3 * (time.perf_counter() - tic)

    nominal, cov, timings = lincov(model, sc.initial_state(), sc.profile,
                                   grid, sc.P0, on_nominal=write_nominal)
    timings.update(written)
    with _beside("CSV writer", _write_variances, out / "variances.csv",
                 times, labels, np.diagonal(cov.P, axis1=1, axis2=2)):
        tic = time.perf_counter()
        tube = build_tube(nominal, cov, sc.beta)
        timings["tube_ms"] = 1e3 * (time.perf_counter() - tic)
        timings["lc_ms"] = (timings["linearize_ms"]
                            + timings["covariance_ms"] + timings["tube_ms"])
        tic = time.perf_counter()
        reports = check_tube_collision(tube, sc.obstacles)
        timings["collision_ms"] = 1e3 * (time.perf_counter() - tic)
        tic = time.perf_counter()
        _write_tube(out / "tube.jsonl", tube)
        timings["tube_jsonl_ms"] = 1e3 * (time.perf_counter() - tic)

    return _finish(sc, out, "validate", overall_verdict(reports),
                   _clearance_dicts(reports),
                   {"grid_points": grid.count, "c2": float(tube.c2)},
                   timings)


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
    timings.update(result.timings_ms)
    timings["tube_jsonl_ms"] = 0.0

    _write_json(out / "buffers.json", result.buffer_history)
    _write_tree(out / "tree.jsonl", result.tree)
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
        tic = time.perf_counter()
        _write_tube(out / "tube.jsonl", result.tube)
        timings["tube_jsonl_ms"] = 1e3 * (time.perf_counter() - tic)
        verdict = overall_verdict(result.reports)
    else:
        extras["message"] = result.message
        verdict = "error"

    return _finish(sc, out, "plan", verdict,
                   _clearance_dicts(result.reports), extras, timings)


def run_mc_compare(sc: Scenario, out_dir, *, runs) -> RunReport:
    """Compare propagated variances against a Monte Carlo ensemble.

    Writes lc_variances.csv, mc_variances.csv, deviation.json,
    report.json and timings.json.  The deviation metric per channel is
    the maximum over time of |lc - mc| / mc restricted to instants where
    the MC variance is at least 5% of that channel's peak; channels
    whose MC variance is identically zero are flagged degenerate.

    LinCov runs in the ensemble's ``on_start`` hook, so the first noise
    job draws beside it.  ``mc_ms`` is the ensemble's wall time without
    that hook, and ``noise_wait_ms`` the part of it spent waiting on
    the noise jobs.
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

    timings = {}
    cov, lincov_s = None, 0.0

    def run_lincov():
        nonlocal cov, lincov_s
        tic = time.perf_counter()
        _, cov, lc = lincov(model, x0, profile, grid, sc.P0)
        lincov_s = time.perf_counter() - tic
        timings.update(lc)

    tic = time.perf_counter()
    mc_mean, mc_cov = mc_ensemble(model, x0, profile, grid, runs=runs,
                                  base_seed=sc.seed, on_start=run_lincov,
                                  timings=timings)
    timings["mc_ms"] = 1e3 * (time.perf_counter() - tic - lincov_s)
    timings["lc_ms"] = timings["linearize_ms"] + timings["covariance_ms"]

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
        if i < 3:
            pos_max = max(pos_max, dev)

    times = grid.times()
    _write_variances(out / "lc_variances.csv", times, labels, lc_var)
    _write_variances(out / "mc_variances.csv", times, labels, mc_var)
    deviation = {"channels": channels,
                 "position_max_rel_dev": pos_max,
                 "runs": int(runs)}
    _write_json(out / "deviation.json", deviation)

    return _finish(sc, out, "mc-compare", "none", [], deviation, timings)
