"""Outside-in layer tracing of the tubeplan package.

``Tracer.install()`` replaces the public functions of each tubeplan
module, wherever a tubeplan module holds a reference to them, with thin
wrappers; ``uninstall()`` puts every original back.  The package itself
is not edited.  A span wrapper records (name, start, end, parent, op id)
into flat in-memory arrays; a counter wrapper only bumps counts, for the
inner calls that run thousands of times per op.  ``save()`` writes the
spans once, at the end of a run.
"""

from __future__ import annotations

import collections
import functools
import sys
import time
from array import array

import numpy as np

_MARK = "__perfbench_wrapper__"


def _rows(args, kwargs, out):
    x = np.asarray(args[1])
    return x.size // x.shape[-1] if x.ndim else 1


def _tube_samples(args, kwargs, out):
    tube, obstacles = args[0], args[1]
    stride = kwargs.get("stride", args[2] if len(args) > 2 else 1)
    return -(-len(tube) // stride) * len(obstacles)


# (module, attribute, span name or None for count-only, {counter: fn})
# A counter fn maps (args, kwargs, result) to the amount to add.
FUNCTIONS = [
    ("runner", "run_validate", "runner.run", {}),
    ("runner", "run_plan", "runner.run", {}),
    ("runner", "run_mc_compare", "runner.run", {}),
    ("scenario", "parse_scenario", "scenario.parse", {}),
    ("simcore", "integrate_nominal", "simcore.nominal", {}),
    ("simcore", "linearize", "simcore.linearize", {}),
    ("simcore", "mc_ensemble", "simcore.mc_ensemble", {}),
    ("simcore", "mc_run", "simcore.mc_run", {}),
    ("uncertainty", "propagate_covariance", "uncertainty.covariance", {}),
    ("uncertainty", "build_tube", "uncertainty.tube", {}),
    ("geometry", "check_tube_collision", "geometry.collision",
     {"geometry.tube_samples": _tube_samples}),
    ("geometry", "buffer_touch_distance", "geometry.buffer_sizing", {}),
    ("geometry", "sphere_prefilter", None,
     {"geometry.prefilter_calls": lambda a, k, r: 1,
      "geometry.prefilter_passes": lambda a, k, r: int(bool(r))}),
    ("planner", "dynamic_informed_rrt_star", "planner.dynamic",
     {"planner.tree_nodes":
      lambda a, k, r: r.tree.num_alive() if r.tree is not None else 0}),
    ("planner", "informed_rrt_star", "planner.rrt", {}),
    ("planner", "comp_obs_dist", "planner.comp_obs_dist", {}),
    ("planner", "cleanup_and_regrow", "planner.surgery", {}),
    ("planner", "add_node", None,
     {"planner.add_node_calls": lambda a, k, r: 1,
      "planner.add_node_accepts": lambda a, k, r: int(r is not None)}),
    ("planner", "no_collision_2d", None,
     {"planner.edge_checks": lambda a, k, r: 1}),
]

# (module, class, method, span name, counters): methods are wrapped on the
# class; every vehicle model's deriv and every reference profile's
# __call__ found in tubeplan.vehicles is added by ``_vehicle_methods``.
METHODS = [
    ("planner", "TubeEvaluator", "tube_for_path", "planner.tube_eval", {}),
]


def _vehicle_methods(vehicles):
    out = []
    for name in getattr(vehicles, "__all__", ()):
        cls = getattr(vehicles, name)
        if not isinstance(cls, type):
            continue
        if "deriv" in cls.__dict__:
            out.append((cls, "deriv", "vehicles.deriv",
                        {"vehicles.deriv_rows": _rows}))
        if "__call__" in cls.__dict__:
            out.append((cls, "__call__", "vehicles.reference", {}))
    return out


class Tracer:
    """Spans and counts of traced ops, kept in memory."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.counts = collections.Counter()
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._op = -1
        self._patches: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def begin_op(self, op_id):
        self._op = int(op_id)
        self.counts.clear()
        self._stack.clear()

    def _id(self, name):
        i = self._name_ids.get(name)
        if i is None:
            i = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return i

    def _wrap(self, fn, span, counters):
        name_id = self._id(span) if span else -1
        counters = tuple(counters.items())
        counts = self.counts
        clock = time.perf_counter
        stack = self._stack

        if span is None:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                out = fn(*args, **kwargs)
                for key, f in counters:
                    counts[key] += f(args, kwargs, out)
                return out
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                idx = len(self.start)
                self.name_id.append(name_id)
                self.parent.append(stack[-1] if stack else -1)
                self.op.append(self._op)
                self.end.append(0.0)
                stack.append(idx)
                self.start.append(clock())
                try:
                    out = fn(*args, **kwargs)
                finally:
                    self.end[idx] = clock()
                    stack.pop()
                for key, f in counters:
                    counts[key] += f(args, kwargs, out)
                return out
        setattr(wrapper, _MARK, True)
        return wrapper

    # -- patching ----------------------------------------------------------

    def install(self):
        """Wrap every traced function and method that exists."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "tubeplan" or n.startswith("tubeplan."))
                   and m is not None]
        self.missing = []
        for mod_name, attr, span, counters in FUNCTIONS:
            module = sys.modules.get(f"tubeplan.{mod_name}")
            original = getattr(module, attr, None)
            if original is None:
                self.missing.append(f"{mod_name}.{attr}")
                continue
            wrapper = self._wrap(original, span, counters)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._patches.append((m, key, original))
                        setattr(m, key, wrapper)
        methods = []
        for mod_name, cls_name, meth, span, counters in METHODS:
            cls = getattr(sys.modules.get(f"tubeplan.{mod_name}"),
                          cls_name, None)
            if cls is None or meth not in cls.__dict__:
                self.missing.append(f"{mod_name}.{cls_name}.{meth}")
                continue
            methods.append((cls, meth, span, counters))
        methods += _vehicle_methods(sys.modules["tubeplan.vehicles"])
        for cls, meth, span, counters in methods:
            original = cls.__dict__[meth]
            self._patches.append((cls, meth, original))
            setattr(cls, meth, self._wrap(original, span, counters))

    def uninstall(self):
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    # -- analysis ----------------------------------------------------------

    def op_summary(self, op_id):
        """Per-span-name self time, inclusive time and call count of one op."""
        name, start, end, parent, op = self._arrays()
        sel = np.flatnonzero(op == op_id)
        dur = end[sel] - start[sel]
        child = np.zeros(len(self.start))
        has_parent = parent[sel] >= 0
        np.add.at(child, parent[sel][has_parent], dur[has_parent])
        self_t = dur - child[sel]
        out = {}
        for i, n in enumerate(self.names):
            m = name[sel] == i
            if m.any():
                out[n] = {"self_s": float(self_t[m].sum()),
                          "incl_s": float(dur[m].sum()),
                          "calls": int(m.sum())}
        return out

    def save(self, path):
        """Write every recorded span once, as arrays in an .npz file."""
        name, start, end, parent, op = self._arrays()
        np.savez_compressed(path, names=np.array(self.names), name_id=name,
                            start=start, end=end, parent=parent, op=op)

    def _arrays(self):
        # copies, so the arrays can keep growing afterwards
        return (np.array(self.name_id, dtype=np.int64),
                np.array(self.start, dtype=float),
                np.array(self.end, dtype=float),
                np.array(self.parent, dtype=np.int64),
                np.array(self.op, dtype=np.int64))


def is_wrapped(obj):
    return getattr(obj, _MARK, False)
