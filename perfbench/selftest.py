"""Self-test of the benchmark's own machinery.

Run from the root of a tubeplan checkout:

    python3 perfbench/selftest.py

Checks that the input generator is a pure function of its seed, that
validate inputs reach 20-face prisms, that tracing changes no artifact
and is fully removed afterwards, and that the correctness checks catch
a corrupted artifact.  Exits non-zero on the first failure.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path("src").resolve()))

import checks  # noqa: E402
import inputs  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402


def _fail(msg):
    raise SystemExit(f"selftest FAILED: {msg}")


def _without_name(data):
    return inputs.canonical({k: v for k, v in data.items() if k != "name"})


def test_generator():
    for w in inputs.WORKLOADS:
        for i in range(3):
            a = inputs.canonical(inputs.scenario(w, 11, i))
            b = inputs.canonical(inputs.scenario(w, 11, i))
            if a != b:
                _fail(f"{w}: seed 11 input {i} is not byte-identical")
            # plan runs the shipped scenario whatever the seed
            if w != "plan" and (_without_name(inputs.scenario(w, 11, i))
                                == _without_name(inputs.scenario(w, 12, i))):
                _fail(f"{w}: seeds 11 and 12 give the same input {i}")
    from tubeplan import parse_scenario
    faces = []
    for i in range(20):
        data = inputs.scenario("validate", 11, i)
        parse_scenario(data)
        faces.append([len(o["halfspaces"]["A"]) for o in data["obstacles"]
                      if "halfspaces" in o])
    if not all(max(f) == 20 for f in faces):
        _fail(f"validate prisms do not reach 20 faces: {faces}")
    print("generator: deterministic per seed, seeds differ (not plan), "
          f"prisms of {min(map(min, faces))}-20 faces")


def _snapshot():
    out = {}
    for name, mod in list(sys.modules.items()):
        if name == "tubeplan" or name.startswith("tubeplan."):
            for key, value in vars(mod).items():
                out[(name, key)] = value
                if isinstance(value, type):
                    for attr, v in vars(value).items():
                        out[(name, key, attr)] = v
    return out


def test_tracing_is_transparent():
    from tubeplan import parse_scenario, runner
    modes = {
        "validate": lambda sc, out: runner.run_validate(sc, out),
        "plan": lambda sc, out: runner.run_plan(sc, out),
        "mc-compare": lambda sc, out: runner.run_mc_compare(sc, out,
                                                            runs=200),
    }
    spec = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    per_layer = {m["name"] for m in spec["per_layer"]}
    before = _snapshot()
    with tempfile.TemporaryDirectory(dir=Path("perfbench")) as tmp:
        tmp = Path(tmp)
        for w, run in modes.items():
            data = inputs.scenario(w, 5, 0)
            run(parse_scenario(data), tmp / w / "plain")
            tracer = tracing.Tracer()
            tracer.begin_op(0)
            tracer.install()
            try:
                run(parse_scenario(data), tmp / w / "traced")
            finally:
                tracer.uninstall()
            if tracer.missing or not tracer.op_summary(0):
                _fail(f"{w}: traced nothing or missed {tracer.missing}")
            names = set(worker._layer_metrics(tracer, 0, tmp / w / "traced"))
            if names | {"trace.overhead_frac"} != per_layer:
                _fail(f"per-layer metrics differ from BENCHMARK.json: "
                      f"{sorted(names ^ per_layer)}")
            for path in sorted((tmp / w / "plain").iterdir()):
                if path.name == "timings.json":
                    continue
                if path.read_bytes() != (tmp / w / "traced" / path.name
                                         ).read_bytes():
                    _fail(f"{w}: tracing changed {path.name}")
            print(f"tracing: {w} artifacts byte-identical traced vs not")
    after = _snapshot()
    changed = [k for k in before if after.get(k) is not before[k]]
    wrapped = [k for k, v in after.items() if tracing.is_wrapped(v)]
    if changed or wrapped:
        _fail(f"wrappers left behind: {changed or wrapped}")
    print("tracing: every wrapper removed")


def test_checks_catch_corruption():
    from tubeplan import parse_scenario, runner
    block = inputs.scenario("plan", 5, 0)["obstacles"][0]
    corners = checks._footprint(block, 5.0)
    centre = corners.mean(axis=0)
    across = (centre - [20.0, 0.0], centre + [20.0, 0.0])
    beside = (centre + [-20.0, 10.0], centre + [20.0, 10.0])
    if not checks._segment_meets_polygon(*across, corners) or \
            checks._segment_meets_polygon(*beside, corners):
        _fail("segment-polygon test misjudges a crossing or a miss")
    with tempfile.TemporaryDirectory(dir=Path("perfbench")) as tmp:
        out = Path(tmp)
        data = inputs.scenario("validate", 5, 1)
        runner.run_validate(parse_scenario(data), out)
        checks.check_validate(data, out)
        report = json.loads((out / "report.json").read_text())
        hit = next(c for c in report["clearance"] if c["z_star"])
        hit["z_star"][0] += 1.0
        (out / "report.json").write_text(json.dumps(report))
        try:
            checks.check_validate(data, out)
        except checks.CheckFailed as exc:
            print(f"checks: corrupted z_star caught ({exc})")
        else:
            _fail("check_validate accepted a moved z_star")


if __name__ == "__main__":
    test_generator()
    test_tracing_is_transparent()
    test_checks_catch_corruption()
    print("selftest passed")
