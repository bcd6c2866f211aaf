#!/usr/bin/env python
"""Validate the bundled trajectory scenarios and print stage timings."""

import argparse
from pathlib import Path

from tubeplan import load_scenario, run_validate
from tubeplan.cli import clearance_lines

REPO = Path(__file__).resolve().parents[1]
SCENARIOS = [
    REPO / "scenarios" / "quadrotor_ascent_cruise_descent.json",
    REPO / "scenarios" / "fixedwing_lateral_sinusoid.json",
]


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default=REPO / "artifacts",
                        help="artifact root directory")
    args = parser.parse_args()

    for path in SCENARIOS:
        scenario = load_scenario(path)
        out = Path(args.out) / f"validate-{scenario.name}"
        report = run_validate(scenario, out)
        t = report.timings_ms
        print(f"{scenario.name}: verdict={report.verdict}")
        print(f"  nominal {t['nominal_ms']:.1f} ms | "
              f"linearize {t['linearize_ms']:.1f} ms | "
              f"covariance {t['covariance_ms']:.1f} ms | "
              f"tube {t['tube_ms']:.1f} ms | "
              f"collision {t['collision_ms']:.1f} ms")
        for line in clearance_lines(report):
            print(line)
        print(f"  artifacts: {out}")


if __name__ == "__main__":
    main()
