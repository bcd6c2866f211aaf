#!/usr/bin/env python
"""Write a fixed set of artifacts and list their SHA-256 digests.

``--out DIR`` runs, in one process, on the tubeplan source and the
scenarios of ``--repo`` (default: this repository):

- validate on both bundled trajectory scenarios;
- plan on the three-obstacles scenario at its own seed and at seeds 1,
  2 and 959267911, and on its gust sigma 3 and sigma 6 variants at
  seed 1;
- mc-compare on both bundled trajectory scenarios at 200 runs, and on
  the quadrotor at 2 100 runs (two passes);
- the first benchmark op of each workload at workload seed 1, from that
  tree's ``perfbench/inputs.py``.

Each run writes into DIR/<run>/, and one ``<sha256>  <run>/<file>``
line per artifact is printed, sorted by path.  timings.json is left
out: it is the one artifact that is not reproducible.

``--compare OLD NEW`` reads two such lists and prints each artifact
whose digest differs or that only one list has.  It exits 1 if one of
them is not named in the ``--allow`` file (one path per line; blank
lines and ``#`` comments are skipped).

Example, the parent commit against the working tree::

    git worktree add --detach ../parent HEAD~1
    python scripts/artifact_digests.py --repo ../parent --out /tmp/a/parent > parent.sha256
    python scripts/artifact_digests.py --out /tmp/a/head > head.sha256
    python scripts/artifact_digests.py --compare parent.sha256 head.sha256 \\
        --allow scripts/artifact_changes.txt
"""

import argparse
import hashlib
import json
import os
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
QUAD = "quadrotor_ascent_cruise_descent"
FIXEDWING = "fixedwing_lateral_sinusoid"
PLAN = "quadrotor_three_obstacles"
BENCH_OPS = {"validate": "run_validate", "plan": "run_plan",
             "mc-compare": "run_mc_compare"}


def _runs(repo):
    """(name, runner function name, scenario, keyword arguments) of each
    run of the set, on the tree ``repo``."""
    from tubeplan.scenario import parse_scenario

    def raw(name):
        path = repo / "scenarios" / f"{name}.json"
        return json.loads(path.read_text(encoding="utf-8")), str(path)

    def scenario(name):
        return parse_scenario(*raw(name))

    for name in (QUAD, FIXEDWING):
        yield f"validate-{name}", "run_validate", scenario(name), {}
    plan = scenario(PLAN)
    yield f"plan-{PLAN}", "run_plan", plan, {}
    for seed in (1, 2, 959267911):
        yield (f"plan-{PLAN}-seed{seed}", "run_plan",
               plan.with_overrides(seed=seed), {})
    for sigma in (3.0, 6.0):
        data, source = raw(PLAN)
        data["vehicle"]["params"]["sigma"] = sigma
        data["seed"] = 1
        yield (f"plan-{PLAN}-sigma{sigma:g}-seed1", "run_plan",
               parse_scenario(data, source), {})
    for name in (QUAD, FIXEDWING):
        yield (f"mc-compare-{name}-200", "run_mc_compare", scenario(name),
               {"runs": 200})
    yield (f"mc-compare-{QUAD}-2100", "run_mc_compare", scenario(QUAD),
           {"runs": 2100})
    # perfbench/inputs.py reads the scenarios relative to the working
    # directory, and the benchmark runs mc-compare at MC_RUNS runs
    sys.path.insert(0, str(repo / "perfbench"))
    import inputs

    cwd = os.getcwd()
    os.chdir(repo)
    try:
        for workload, runner in BENCH_OPS.items():
            kw = {"runs": inputs.MC_RUNS} if workload == "mc-compare" else {}
            yield (f"bench-{workload}-seed1-op0", runner,
                   parse_scenario(inputs.scenario(workload, 1, 0)), kw)
    finally:
        os.chdir(cwd)


def write_set(repo, out):
    """Run the set on ``repo`` into ``out``; return the digest lines."""
    sys.path.insert(0, str(repo / "src"))
    import tubeplan
    from tubeplan import runner

    src = Path(tubeplan.__file__).resolve()
    if (repo / "src") not in src.parents:
        sys.exit(f"tubeplan was imported from {src}, not from {repo}/src")
    for name, fn, sc, kw in _runs(repo):
        getattr(runner, fn)(sc, out / name, **kw)
    lines = []
    for path in sorted(out.rglob("*")):
        if path.is_file() and path.name != "timings.json":
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            lines.append(f"{digest}  {path.relative_to(out).as_posix()}")
    return lines


def _digests(path):
    out = {}
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        digest, name = line.split("  ", 1)
        out[name] = digest
    return out


def compare(old, new, allow):
    """Print the artifacts that differ; 1 if one is not allowed, else 0."""
    a, b = _digests(old), _digests(new)
    changed = sorted(p for p in a.keys() | b.keys() if a.get(p) != b.get(p))
    allowed = set()
    if allow is not None:
        for line in Path(allow).read_text(encoding="utf-8").splitlines():
            line = line.split("#", 1)[0].strip()
            if line:
                allowed.add(line)
    if not a or not b:
        print("a digest list is empty")
        return 1
    unexplained = [p for p in changed if p not in allowed]
    for p in changed:
        print(f"{'changed' if p in allowed else 'CHANGED'}: {p}"
              f" ({a.get(p, 'missing')[:12]} -> {b.get(p, 'missing')[:12]})")
    print(f"{len(a)} and {len(b)} artifacts, {len(changed)} differ, "
          f"{len(unexplained)} not named in {allow}")
    return 1 if unexplained else 0


def main():
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--out", type=Path,
                      help="directory to write the set into")
    mode.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"),
                      help="two digest lists to compare")
    parser.add_argument("--repo", type=Path, default=REPO,
                        help="tree whose src/ and scenarios/ to run")
    parser.add_argument("--allow", type=Path,
                        help="file naming the artifacts that may differ")
    args = parser.parse_args()
    if args.compare:
        return compare(*args.compare, args.allow)
    out = args.out.resolve()
    if out.exists() and any(out.iterdir()):
        sys.exit(f"{out} is not empty")
    print("\n".join(write_set(args.repo.resolve(), out)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
