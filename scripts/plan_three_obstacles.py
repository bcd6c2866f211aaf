#!/usr/bin/env python
"""Run the dynamic planner demo and print buffer/cost evolution.

Exits with the code ``tubeplan plan`` would give: 0 clear, 2 on a
collision or on buffers still growing at the round cap, 1 when no path
is found.
"""

import argparse
import json
import sys
from pathlib import Path

from tubeplan import load_scenario, run_plan
from tubeplan.cli import clearance_lines, exit_code

REPO = Path(__file__).resolve().parents[1]
SCENARIO = REPO / "scenarios" / "quadrotor_three_obstacles.json"


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default=REPO / "artifacts" / "plan-demo",
                        help="artifact directory")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the scenario seed")
    args = parser.parse_args()

    scenario = load_scenario(SCENARIO).with_overrides(seed=args.seed)
    report = run_plan(scenario, args.out)
    extras = report.extras
    print(f"{report.scenario_name}: verdict={report.verdict} "
          f"({report.timings_ms['plan_ms']:.0f} ms, "
          f"{extras['outer_iterations']} rounds, "
          f"converged={extras['converged']})")
    buffers = json.loads((Path(args.out) / "buffers.json").read_text())
    for k, snap in enumerate(buffers):
        row = ", ".join(f"{oid}={val:.3f}" for oid, val in sorted(snap.items()))
        print(f"  round {k}: buffers {row}")
    costs = extras["cost_history"]
    print("  best cost per round: "
          + ", ".join("inf" if c is None else f"{c:.2f}" for c in costs))
    if report.verdict != "error":
        print(f"  path length {extras['path_length']:.2f} m over "
              f"{extras['waypoints']} waypoints")
    for line in clearance_lines(report):
        print(line)
    print(f"  artifacts: {args.out}")
    return exit_code(report)


if __name__ == "__main__":
    sys.exit(main())
