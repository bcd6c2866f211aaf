#!/usr/bin/env python
"""Compare propagated variances against Monte Carlo on bundled scenarios."""

import argparse
from pathlib import Path

from tubeplan import load_scenario, run_mc_compare

REPO = Path(__file__).resolve().parents[1]
SCENARIOS = [
    REPO / "scenarios" / "quadrotor_ascent_cruise_descent.json",
    REPO / "scenarios" / "fixedwing_lateral_sinusoid.json",
]


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default=REPO / "artifacts",
                        help="artifact root directory")
    parser.add_argument("--runs", type=int, default=2000,
                        help="ensemble size (default 2000 for speed; use "
                             "10000 for tight statistics)")
    args = parser.parse_args()

    for path in SCENARIOS:
        scenario = load_scenario(path)
        out = Path(args.out) / f"mc-compare-{scenario.name}"
        report = run_mc_compare(scenario, out, runs=args.runs)
        t = report.timings_ms
        print(f"{scenario.name}: {args.runs} runs | "
              f"nominal {t['nominal_ms']:.0f} ms | "
              f"lc {t['lc_ms']:.0f} ms | mc {t['mc_ms']:.0f} ms")
        for label, entry in report.extras["channels"].items():
            if entry["degenerate"]:
                print(f"  {label:8s} degenerate (MC variance is zero)")
            else:
                print(f"  {label:8s} max rel dev {entry['max_rel_dev']:.4f}")
        print(f"  position channels worst: "
              f"{report.extras['position_max_rel_dev']:.4f}")
        print(f"  artifacts: {out}")


if __name__ == "__main__":
    main()
