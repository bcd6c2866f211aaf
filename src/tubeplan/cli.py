"""Command-line entry point.

Subcommands
-----------
validate    propagate the uncertainty tube along a scenario trajectory
            and report per-obstacle clearance verdicts
plan        grow a chance-constrained path with the dynamic informed
            RRT* and post-check it against the true obstacles
mc-compare  compare propagated variances against a Monte Carlo ensemble

Exit codes: 0 = clear / success, 2 = collision detected or, in plan
mode, buffers still growing when the planner hit its round cap, 1 = any
error (bad scenario, infeasible planning problem, numerical failure).

Randomness: run ``i`` of a Monte Carlo ensemble draws from its own
Philox(base_seed + i) stream and the ensemble adds each step's sums pass
after pass, in run order, so a given scenario + seed reproduces
byte-identical artifacts.  The planner consumes a single
default_rng(seed) stream.  Wall-clock stage times go to timings.json;
every other artifact is deterministic.
"""

from __future__ import annotations

import argparse
import sys

from .errors import (BracketError, InfeasibleRegionError, ModelDomainError,
                     PlanningError, ScenarioError)
from .runner import run_mc_compare, run_plan, run_validate
from .scenario import load_scenario

_ERRORS = (ScenarioError, PlanningError, ModelDomainError,
           InfeasibleRegionError, BracketError, ValueError, OSError)


def _add_common(sub):
    sub.add_argument("--scenario", required=True, metavar="PATH",
                     help="scenario JSON file")
    sub.add_argument("--out", required=True, metavar="DIR",
                     help="directory for artifacts (created if missing)")
    sub.add_argument("--seed", type=int, default=None,
                     help="override the scenario seed")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tubeplan",
        description="Flight-plan validation and chance-constrained "
                    "planning under wind-gust uncertainty.",
        epilog=(
            "exit codes:\n"
            "  0  clear / success\n"
            "  2  collision detected, or plan buffers did not settle\n"
            "  1  error (bad scenario, planning failure, numerics)\n\n"
            "randomness: Monte Carlo run i uses its own "
            "Philox(seed + i) stream with a fixed reduction order; the\n"
            "planner uses one default_rng(seed) stream.  All artifacts "
            "except timings.json are byte-reproducible."),
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p_val = sub.add_parser(
        "validate", help="propagate the tube and check obstacle clearance")
    _add_common(p_val)
    p_val.add_argument("--beta", type=float, default=None,
                       help="override the confidence level")

    p_plan = sub.add_parser(
        "plan", help="plan a path whose uncertainty tube clears obstacles")
    _add_common(p_plan)
    p_plan.add_argument("--beta", type=float, default=None,
                        help="override the confidence level")

    p_mc = sub.add_parser(
        "mc-compare", help="Monte Carlo check of the propagated variances")
    _add_common(p_mc)
    p_mc.add_argument("--runs", type=int, default=10000,
                      help="ensemble size, at least 100 (default 10000)")
    return parser


def exit_code(report) -> int:
    """0 clear / success, 2 collide or unsettled plan buffers, 1 error."""
    if report.verdict == "error":
        return 1
    if report.verdict == "collide" or not report.extras.get("converged",
                                                             True):
        return 2
    return 0


def clearance_lines(report):
    """The report's clearance summary, one indented line per obstacle."""
    lines = []
    for entry in report.clearance:
        c2 = entry["min_cstar2"]
        shown = "inf" if c2 is None else f"{c2:.4f}"
        lines.append(f"  obstacle {entry['obstacle_id']}: min c*^2 = {shown} "
                     f"(threshold {entry['c2']:.4f}) -> {entry['verdict']}")
    return lines


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        scenario = load_scenario(args.scenario).with_overrides(
            seed=args.seed, beta=getattr(args, "beta", None))
        if args.command == "validate":
            report = run_validate(scenario, args.out)
        elif args.command == "plan":
            report = run_plan(scenario, args.out)
        else:
            report = run_mc_compare(scenario, args.out, runs=args.runs)
    except _ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    print(f"scenario: {report.scenario_name}  "
          f"hash: {report.scenario_hash[:12]}  seed: {report.seed}")
    for line in clearance_lines(report):
        print(line)
    if report.mode == "mc-compare":
        dev = report.extras["position_max_rel_dev"]
        print(f"  position max relative deviation: {dev:.4f} "
              f"over {report.extras['runs']} runs")
    print(f"verdict: {report.verdict}  artifacts: {args.out}")
    if report.verdict == "error":
        print(f"error: {report.extras.get('message', 'planning failed')}",
              file=sys.stderr)
    elif not report.extras.get("converged", True):
        print(f"buffers still grew after "
              f"{report.extras['outer_iterations']} rounds", file=sys.stderr)
    return exit_code(report)


if __name__ == "__main__":
    sys.exit(main())
