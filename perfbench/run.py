"""tubeplan benchmark: one workload, closed loop, one op in flight.

Usage, from the root of a tubeplan checkout:

    python3 perfbench/run.py --workload validate|plan|mc-compare \
        --seed N --seconds S --trace 0|1

Set-up time is the median of several fresh interpreter starts that
import tubeplan and parse the workload's first scenario.  The ops then
run in one more fresh process (worker.py), so peak RSS belongs to the
workload alone; BLAS and OpenMP are pinned to one thread there.  The
last line of standard output is the result object: end-to-end metrics
with ``--trace 0``, per-layer metrics with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import inputs
import speed

HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 9
DEADLINE_S = 175.0  # a run must end within 180 s
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# prints the (system-wide) monotonic clock once the scenario is parsed, so
# the parent times start-up without its own wait-loop granularity
SETUP_PROBE = ("import json, sys, time, tubeplan; "
               "tubeplan.parse_scenario(json.load(open(sys.argv[1]))); "
               "print(time.monotonic())")

# reported as a neutral 1 on workloads that do not produce the figure
NEUTRAL = 1.0


def _metric_units(trace):
    """Names and units of the metrics BENCHMARK.json asks for."""
    spec = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def _git_sha():
    if not Path(".git").exists():
        return "unknown"
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], check=True,
                              capture_output=True, text=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def measure_setup(env, scenario_path, timeout):
    """Median fresh `import tubeplan` + first parse: (scaled, wall)."""
    cmd = [sys.executable, "-c", SETUP_PROBE, str(scenario_path)]
    subprocess.run(cmd, env=env, check=True, timeout=timeout,  # warm pyc
                   capture_output=True)
    wall, cals = [], [speed.calibrate()]
    for _ in range(SETUP_REPEATS):
        tic = time.monotonic()
        done = subprocess.run(cmd, env=env, check=True, timeout=timeout,
                              capture_output=True, text=True).stdout
        wall.append(float(done) - tic)
        cals.append(speed.calibrate())
    median = statistics.median(wall)
    return speed.scaled(median, cals), median


def _finite(x):
    return x if math.isfinite(x) else 1e9


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    began = time.monotonic()

    if not (Path("src/tubeplan/__init__.py").is_file()
            and inputs.SCENARIO_DIR.is_dir()):
        print("run.py: run from the root of a tubeplan checkout "
              "(src/tubeplan and scenarios/ not found)", file=sys.stderr)
        return 2
    out = HERE / "out" / args.workload
    out.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=str(Path("src").resolve()),
               **{v: "1" for v in THREAD_VARS})

    if not args.trace:  # set-up time is an end-to-end metric only
        first = out / "setup-scenario.json"
        first.write_text(json.dumps(
            inputs.scenario(args.workload, args.seed, 0)))
        setup_s, setup_wall_s = measure_setup(env, first, timeout=10)

    remaining = DEADLINE_S - (time.monotonic() - began)
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds),
         "--trace", str(args.trace), "--out", str(out)],
        env=env, stdout=subprocess.PIPE, text=True, timeout=remaining)
    if proc.returncode != 0:
        print(f"run.py: worker exited with {proc.returncode}",
              file=sys.stderr)
        return 1
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    if summary["untraced_targets"]:
        print("untraced (not found): " + ", ".join(
            summary["untraced_targets"]), file=sys.stderr)

    attempted, failed = summary["attempted"], summary["failed"]
    units = _metric_units(args.trace)
    if args.trace:
        # all zeros when no traced op ran to the end (correct is false then)
        values = summary["layers"] or dict.fromkeys(units, 0.0)
    else:
        quality = summary["quality"]
        values = {
            "setup_s": setup_s,
            "op_s_p50": _finite(summary["op_s_p50"]),
            "peak_rss_mb": summary["peak_rss_mb"],
            "plan_path_ratio": quality.get("plan_path_ratio", NEUTRAL),
            "mc_pos_rms_rel_dev": quality.get("mc_pos_rms_rel_dev",
                                              NEUTRAL),
        }
    if set(units) != set(values):
        print("run.py: metrics differ from BENCHMARK.json: "
              f"{sorted(set(units) ^ set(values))}", file=sys.stderr)
        return 1
    metrics = {k: {"value": values[k], "unit": u} for k, u in units.items()}
    environment = {"nproc": os.cpu_count(),
                   "python": platform.python_version(),
                   "numpy": summary["numpy"], "git_sha": _git_sha(),
                   "threads": {v: env[v] for v in THREAD_VARS}}
    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          + json.dumps(environment, sort_keys=True))
    print(f"# ops attempted={attempted} failed={failed} "
          f"wrong={summary['wrong']} op_fail_frac={failed / attempted:.4g} "
          f"(1), {len(summary['op_wall_s'])} untraced")
    if not args.trace:
        print(f"# unscaled wall medians: setup {setup_wall_s:.4f} s, "
              f"op {summary['wall_s_p50']:.4f} s")
    for name, m in metrics.items():
        print(f"# {name:32s} {m['value']:.6g} {m['unit']}")
    # a plan whose tube collides is a failed op but not a wrong output
    result = {"correct": summary["wrong"] == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    record = dict(result, environment=environment,
                  op_wall_s=summary["op_wall_s"], cal_s=summary["cal_s"])
    if not args.trace:
        record["setup_wall_s"] = setup_wall_s
        record["op_wall_s_p50"] = summary["wall_s_p50"]
    (out / f"result-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
