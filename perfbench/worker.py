"""Run one workload's ops in this (fresh) process and summarise them.

Started by run.py with the BLAS thread counts pinned to 1 and ``src`` on
PYTHONPATH.  Ops run closed loop, one at a time, until ``--seconds``
have passed.  With ``--trace 1`` every second op runs traced, so the
untraced ops of the same run give the tracing overhead.  The summary
is printed as one JSON line.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import checks
import inputs
import speed
import tracing


def _median(values):
    return statistics.median(values) if values else 0.0


def _artifact_bytes(out):
    return sum(p.stat().st_size for p in out.iterdir() if p.is_file())


def _layer_metrics(tracer, op_id, out):
    summary = tracer.op_summary(op_id)
    counts = tracer.counts

    def self_s(name):
        return summary.get(name, {}).get("self_s", 0.0)

    def incl_s(name):
        return summary.get(name, {}).get("incl_s", 0.0)

    def calls(name):
        return summary.get(name, {}).get("calls", 0)

    def frac(num, den):
        return counts[num] / counts[den] if counts[den] else 0.0

    lincov = sum(incl_s(n) for n in ("simcore.nominal", "simcore.linearize",
                                     "uncertainty.covariance"))
    mc = incl_s("simcore.mc_ensemble")
    return {
        "simcore.nominal_s": self_s("simcore.nominal"),
        "simcore.nominal_calls": calls("simcore.nominal"),
        "vehicles.deriv_s": self_s("vehicles.deriv"),
        "vehicles.deriv_calls": calls("vehicles.deriv"),
        "vehicles.deriv_rows": counts["vehicles.deriv_rows"],
        "vehicles.reference_s": self_s("vehicles.reference"),
        "vehicles.reference_calls": calls("vehicles.reference"),
        "simcore.linearize_s": self_s("simcore.linearize"),
        "uncertainty.covariance_s": self_s("uncertainty.covariance"),
        "uncertainty.tube_s": self_s("uncertainty.tube"),
        "simcore.mc_ensemble_s": self_s("simcore.mc_ensemble"),
        # with the model calls nested under it, which self time leaves out
        "simcore.mc_ensemble_incl_s": mc,
        "geometry.collision_s": self_s("geometry.collision"),
        "geometry.tube_samples": counts["geometry.tube_samples"],
        "geometry.prefilter_pass_frac": frac("geometry.prefilter_passes",
                                             "geometry.prefilter_calls"),
        "geometry.buffer_sizing_s": self_s("geometry.buffer_sizing"),
        "geometry.buffer_sizing_calls": calls("geometry.buffer_sizing"),
        "planner.rrt_s": self_s("planner.rrt"),
        "planner.rounds": calls("planner.rrt"),
        "planner.add_node_calls": counts["planner.add_node_calls"],
        "planner.add_node_accept_frac": frac("planner.add_node_accepts",
                                             "planner.add_node_calls"),
        "planner.edge_checks": counts["planner.edge_checks"],
        "planner.surgery_s": self_s("planner.surgery"),
        "planner.tree_nodes": counts["planner.tree_nodes"],
        "planner.tube_eval_s": self_s("planner.tube_eval"),
        "planner.tube_eval_calls": calls("planner.tube_eval"),
        "runner.self_s": self_s("runner.run"),
        "runner.artifact_bytes": _artifact_bytes(out),
        "scenario.parse_s": incl_s("scenario.parse"),
        # inclusive times: the paper's LinCov-vs-MC headline ratio
        "mc.lc_vs_mc_ratio": mc / lincov if mc and lincov else 0.0,
    }


def run_ops(workload, seed, seconds, trace, out_root):
    """Closed-loop op loop; returns the per-op records and the tracer."""
    from tubeplan import runner, scenario

    modes = {
        "validate": lambda sc, out: runner.run_validate(sc, out),
        "plan": lambda sc, out: runner.run_plan(sc, out),
        "mc-compare": lambda sc, out: runner.run_mc_compare(
            sc, out, runs=inputs.MC_RUNS),
    }
    pool = checks.McPool(inputs.MC_POOLED_OPS)
    verify = {
        "validate": checks.check_validate,
        "plan": checks.check_plan,
        "mc-compare": lambda data, out: checks.check_mc_compare(
            data, out, inputs.MC_RUNS, pool),
    }
    tracer = tracing.Tracer()
    ops = []
    deadline = time.perf_counter() + seconds
    cals = [speed.calibrate()]
    steps = []
    i = 0
    while True:
        now = time.perf_counter()
        # stop at the op boundary nearest the deadline
        if len(ops) >= (2 if trace else 1) and (
                now + 0.5 * _median(steps) > deadline):
            break
        traced = bool(trace) and i % 2 == 1
        data = inputs.scenario(workload, seed, i)
        out = out_root / f"op-{i % 2}"
        shutil.rmtree(out, ignore_errors=True)
        rec = {"index": i, "traced": traced, "wall_s": None,
               "error": None, "wrong": False, "quality": {}}
        if traced:
            tracer.begin_op(i)
            tracer.install()
        try:
            sc = scenario.parse_scenario(data)
            tic = time.perf_counter()
            modes[workload](sc, out)
            rec["wall_s"] = time.perf_counter() - tic
        except Exception:  # an op that raises is a failed op; keep going
            rec["error"] = traceback.format_exc(limit=3)
            rec["wrong"] = True
        finally:
            if traced:
                tracer.uninstall()
        cals.append(speed.calibrate())
        if rec["error"] is None:
            try:
                rec["quality"] = verify[workload](data, out)
            except checks.GoalMissed as exc:
                rec["error"] = f"goal missed: {exc}"
            except (checks.CheckFailed, OSError, ValueError, KeyError,
                    IndexError, TypeError) as exc:
                rec["error"] = f"check failed: {exc!r}"
                rec["wrong"] = True
            if rec["error"] is not None:
                rec["wall_s"] = None
        if traced and not rec["wrong"]:
            rec["layers"] = _layer_metrics(tracer, i, out)
        if rec["error"] is not None:
            print(f"op {i} failed: {rec['error']}", file=sys.stderr)
        ops.append(rec)
        steps.append(time.perf_counter() - now)
        i += 1
    return ops, cals, tracer, pool


def summarise(ops, cals):
    """Medians over ops; a failed op counts as having missed its time."""
    def times(traced):
        return [math.inf if r["wall_s"] is None else r["wall_s"]
                for r in ops if r["traced"] == traced]

    ok = [r for r in ops if r["error"] is None]
    quality = {}
    for key in {k for r in ok for k in r["quality"]}:
        quality[key] = _median([r["quality"][key] for r in ok
                                if key in r["quality"]])
    traced = [r["layers"] for r in ops if "layers" in r]
    layers = {}
    if traced:
        for key in traced[0]:
            layers[key] = _median([m[key] for m in traced])
        plain = _median([r["wall_s"] for r in ok if not r["traced"]])
        with_trace = _median([r["wall_s"] for r in ok if r["traced"]])
        layers["trace.overhead_frac"] = (with_trace / plain - 1.0
                                         if plain and with_trace else 0.0)
    return {
        "attempted": len(ops),
        "failed": len(ops) - len(ok),
        "wrong": sum(r["wrong"] for r in ops),
        "op_wall_s": times(False),
        "cal_s": cals,
        "op_s_p50": speed.scaled(_median(times(False)), cals),
        "wall_s_p50": _median(times(False)),
        "quality": quality,
        "layers": layers,
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    args.out.mkdir(parents=True, exist_ok=True)
    ops, cals, tracer, pool = run_ops(args.workload, args.seed,
                                      args.seconds, args.trace, args.out)
    summary = summarise(ops, cals)
    if pool.ops:
        summary["quality"]["mc_pos_rms_rel_dev"] = pool.deviation()
    summary["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    summary["untraced_targets"] = tracer.missing
    summary["numpy"] = np.__version__
    if args.trace:
        tracer.save(args.out / "trace.npz")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
