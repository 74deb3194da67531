"""Run-time tracing of the library's layers from the benchmark's side.

``Tracer.install()`` wraps the library's public functions and methods (and
the few private helpers a per-layer metric needs) at run time, in every
``sliceregular`` module namespace that holds them, so no file under ``src/``
changes. Two kinds of wrapper exist:

* a *span* wrapper records (name, start, end, parent span, task id) for each
  call into a layer boundary;
* a *count* wrapper only adds to a counter: it sits on calls so frequent
  (quaternion construction, row kernels, scalar evaluation) that a span per
  call would measure the tracer instead of the layer.

Spans and counts stay in memory until ``save()`` writes them out;
``layer_metrics()`` derives every per-layer metric from them. A layer's self
time is its span minus the parts covered by child spans of other wrapped
calls.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import sys
import time
from collections import defaultdict

import numpy as np

# span name -> [(module, qualified attribute)]
SPANS = {
    "domains.cap_component": [("domains", "cap_component")],
    "domains.second_unit": [("domains", "BandCap.second_unit"),
                            ("domains", "GridCap.second_unit"),
                            ("domains", "WholeSphereCap.second_unit")],
    "douren.cut_distance": [("douren", "cut_distance")],
    "douren.fixtures": [("douren", "fixtures")],
    "slicefn.spherical_data": [("slicefn", "spherical_data")],
    "algebra.star_eval": [("algebra", "star_eval")],
    "algebra.exact": [("algebra", a) for a in (
        "star_product", "reciprocal_poly", "conjugate", "symmetrize",
        "reciprocal", "QPoly.star", "QPoly.conjugate", "QPoly.symmetrize",
        "QPoly.divide_right_linear", "QPoly.divide_real_quadratic",
        "QRational.star", "QRational.conjugate", "QRational.symmetrize",
        "QRational.reciprocal")],
    "zeros.exact": [("zeros", a) for a in (
        "poly_zeros", "multiplicities", "factor_out_point",
        "factor_out_sphere")],
    "zeros.cap_tests": [("zeros", a) for a in (
        "divides_near", "vanishes_on_cap", "cap_zeros")],
    "series.laurent": [("series", "laurent_coeffs")],
    "series.classify": [("series", "classify_singularity")],
    "series.spherical_coeffs": [("series", "spherical_coeffs")],
    "integral.local_cauchy": [("integral", "local_cauchy")],
    "integral.synth": [("integral", "_synth_boundary")],
    "integral.volume_cauchy": [("integral", "volume_cauchy")],
    "cli.main": [("cli", "main")],
}


def _z_points(args, kwargs, out):
    return int(np.size(args[1] if len(args) > 1 else kwargs["z"]))


def _fallback_points(args, kwargs, out):
    # the per-point loop of SliceFunction.eval_slice_many: neither a
    # vectorised evaluator nor a payload that has one
    f = args[0]
    if getattr(f, "_slice_many", None) is not None \
            or hasattr(getattr(f, "payload", None), "eval_slice_many"):
        return 0
    return _z_points(args, kwargs, out)


# counter name -> ([(module, qualified attribute)], amount or None for 1)
COUNTS = {
    "quaternion.kernel_rows": ([("quaternion", "qmul_arr"),
                                ("quaternion", "qinv_arr"),
                                ("quaternion", "emb_arr")],
                               lambda a, k, out: len(out)),
    "domains.grid.vertices": ([("domains", "_flood_fill")],
                              lambda a, k, out: len(out[0])),
    "domains.grid.fills": ([("domains", "_flood_fill")], None),
    "douren.eval.points": ([("douren", "f_douren")], None),
    "douren.eval.points.vectorised": ([("douren", "_f_slice_many")],
                                      lambda a, k, out: len(out)),
    "slicefn.eval.calls": ([("slicefn", "SliceFunction.__call__"),
                            ("slicefn", "SliceFunction.eval_unchecked")], None),
    "slicefn.eval_slice_many.points": (
        [("slicefn", "SliceFunction.eval_slice_many")],
        lambda a, k, out: _z_points(a, k, out)),
    "slicefn.eval_slice_many.fallback_points": (
        [("slicefn", "SliceFunction.eval_slice_many")], _fallback_points),
    "algebra.poly_eval.calls": ([("algebra", "QPoly.eval")], None),
    "algebra.poly_eval_many.points": (
        [("algebra", "QPoly.eval_slice_many")],
        lambda a, k, out: _z_points(a, k, out)),
    "series.contour_nodes": ([("series", "_contour_values")],
                             lambda a, k, out: len(out[0])),
}

# every per-layer metric the traced run reports, with its unit
LAYER_METRICS = [
    ("quaternion.objects", "count"),
    ("quaternion.kernel_rows", "count"),
    ("domains.cap.band.calls", "count"),
    ("domains.cap.band.s", "s"),
    ("domains.cap.grid.calls", "count"),
    ("domains.cap.grid.s", "s"),
    ("domains.cap.whole.calls", "count"),
    ("domains.second_unit.calls", "count"),
    ("domains.second_unit.s", "s"),
    ("domains.grid.vertices", "count"),
    ("domains.cap_cache.hit_ratio", "ratio"),
    ("douren.cut_distance.calls", "count"),
    ("douren.cut_distance.s", "s"),
    ("douren.eval.points", "count"),
    ("slicefn.spherical_data.calls", "count"),
    ("slicefn.spherical_data.s", "s"),
    ("slicefn.spherical_data.hit_ratio", "ratio"),
    ("slicefn.eval.calls", "count"),
    ("slicefn.eval_slice_many.points", "count"),
    ("slicefn.eval_slice_many.fallback_points", "count"),
    ("algebra.star_eval.calls", "count"),
    ("algebra.star_eval.s", "s"),
    ("algebra.exact.s", "s"),
    ("algebra.poly_eval.calls", "count"),
    ("algebra.poly_eval_many.points", "count"),
    ("zeros.exact.s", "s"),
    ("zeros.cap_tests.calls", "count"),
    ("zeros.cap_tests.s", "s"),
    ("series.laurent.s", "s"),
    ("series.contour_nodes", "count"),
    ("series.classify.self_s", "s"),
    ("series.spherical_coeffs.s", "s"),
    ("integral.local_cauchy.s", "s"),
    ("integral.local_cauchy.nodes", "count"),
    ("integral.synth.spherical_calls", "count"),
    ("integral.volume_cauchy.s", "s"),
    ("cli.main.self_s", "s"),
    ("cli.fixtures.s", "s"),
    ("trace.spans", "count"),
    ("trace.tasks_per_s", "1/s"),
    ("fail_frac", "ratio"),
]

_CAP_KIND = {"BandCap": "domains.cap.band", "GridCap": "domains.cap.grid",
             "WholeSphereCap": "domains.cap.whole"}


def _resolve(modname, qual):
    mod = sys.modules["sliceregular." + modname]
    owner, attr = mod, qual
    if "." in qual:
        cls, attr = qual.split(".")
        owner = getattr(mod, cls)
    return owner, attr


class Tracer:
    """Spans and counters of one traced run."""

    def __init__(self):
        self.names = []
        self._ids = {}
        # one row per span: name id, start, end, parent row, task id
        self.name = []
        self.start = []
        self.end = []
        self.parent = []
        self.task = []
        self.nodes = {}          # span row -> quadrature nodes asked for
        self._stack = []
        self.task_id = -1
        self.counts = defaultdict(int)
        self._quats = itertools.count()
        self._quats_at_reset = 0
        self._restore = []

    # -- recording ----------------------------------------------------------

    def _id(self, name):
        i = self._ids.get(name)
        if i is None:
            i = self._ids[name] = len(self.names)
            self.names.append(name)
        return i

    def _span(self, name, fn):
        nid = self._id(name)
        clock = time.perf_counter
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            row = len(self.name)
            self.name.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.task.append(self.task_id)
            self.end.append(0.0)
            stack.append(row)
            self.start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[row] = clock()
                stack.pop()

        return wrapper

    def _cap_span(self, fn):
        """cap_component, named after the resolver type it returns."""
        inner = self._span("domains.cap_component", fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            row = len(self.name)
            out = inner(*args, **kwargs)
            kind = type(getattr(out, "_resolver", None)).__name__
            self.name[row] = self._id(_CAP_KIND.get(kind, "domains.cap_component"))
            return out

        return wrapper

    def _nodes_span(self, fn):
        """local_cauchy, also recording the node count it was asked for."""
        inner = self._span("integral.local_cauchy", fn)
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.nodes[len(self.name)] = \
                sig.bind(*args, **kwargs).arguments.get("nodes", 1024)
            return inner(*args, **kwargs)

        return wrapper

    def _count(self, name, fn, amount):
        counts = self.counts

        if amount is None:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                out = fn(*args, **kwargs)
                counts[name] += amount(args, kwargs, out)
                return out

        return wrapper

    # -- installation -------------------------------------------------------

    def _patch(self, owner, attr, wrapper):
        """Put `wrapper` in place of owner.attr in the owner and in every
        sliceregular namespace that imported the same object."""
        orig = getattr(owner, attr)
        targets = [(owner, attr)]
        if isinstance(owner, type):
            targets += [(owner, k) for k, v in vars(owner).items()
                        if v is orig and k != attr]
        else:
            for mname, mod in list(sys.modules.items()):
                if mname.split(".")[0] == "sliceregular" and mod is not owner:
                    targets += [(mod, k) for k, v in vars(mod).items()
                                if v is orig]
        for obj, key in targets:
            self._restore.append((obj, key, getattr(obj, key)))
            setattr(obj, key, wrapper)

    def install(self):
        import sliceregular.cli  # noqa: F401  (loads every module to patch)
        from sliceregular.quaternion import Quaternion
        for name, sites in SPANS.items():
            for modname, qual in sites:
                owner, attr = _resolve(modname, qual)
                fn = getattr(owner, attr)
                if name == "domains.cap_component":
                    w = self._cap_span(fn)
                elif name == "integral.local_cauchy":
                    w = self._nodes_span(fn)
                else:
                    w = self._span(name, fn)
                self._patch(owner, attr, w)
        # count wrappers go on top of any span wrapper of the same callable
        for name, (sites, amount) in COUNTS.items():
            for modname, qual in sites:
                owner, attr = _resolve(modname, qual)
                self._patch(owner, attr,
                            self._count(name, getattr(owner, attr), amount))
        init = Quaternion.__init__
        tick = self._quats.__next__

        def counted_init(q, w=0.0, x=0.0, y=0.0, z=0.0):
            tick()
            init(q, w, x, y, z)

        self._patch(Quaternion, "__init__", counted_init)

    def uninstall(self):
        for obj, key, orig in reversed(self._restore):
            setattr(obj, key, orig)
        self._restore.clear()

    def reset_counts(self):
        self.counts.clear()
        self._quats_at_reset = next(self._quats) + 1

    def quaternions(self) -> int:
        """Quaternion constructions since the last reset."""
        return next(self._quats) - self._quats_at_reset

    # -- output -------------------------------------------------------------

    def arrays(self):
        n = len(self.end)
        return dict(name=np.array(self.name[:n], dtype=np.int32),
                    start=np.array(self.start[:n]),
                    end=np.array(self.end[:n]),
                    parent=np.array(self.parent[:n], dtype=np.int64),
                    task=np.array(self.task[:n], dtype=np.int32))

    def save(self, path):
        a = self.arrays()
        np.savez_compressed(path, names=np.array(self.names), **a,
                            counts_names=np.array(list(self.counts), dtype=str),
                            counts_values=np.array(list(self.counts.values()),
                                                   dtype=float))

    def layer_metrics(self, tasks: int, quaternions: int) -> dict:
        """Every per-layer metric, per task, from the recorded spans and
        counts of the tasks (spans outside a task are left out)."""
        a = self.arrays()
        name, parent, task = a["name"], a["parent"], a["task"]
        dur = a["end"] - a["start"]
        n = len(dur)
        child = np.zeros(n)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_t = dur - child
        ids = {k: i for i, k in enumerate(self.names)}
        in_task = task >= 0

        def sel(span):
            return in_task & (name == ids.get(span, -1))

        def calls(span):
            return float(sel(span).sum())

        def selfs(*spans):
            return float(sum(self_t[sel(s)].sum() for s in spans))

        def under(ancestor):
            """Rows with a span named `ancestor` above them."""
            aid = ids.get(ancestor, -1)
            out = np.zeros(n, dtype=bool)
            for i in range(n):
                p = parent[i]
                out[i] = p >= 0 and (name[p] == aid or out[p])
            return out

        sph = sel("slicefn.spherical_data")
        cap_rows = np.isin(name, [ids.get(v, -1) for v in _CAP_KIND.values()])
        sph_with_cap = np.zeros(n, dtype=bool)
        sph_with_cap[parent[cap_rows & has_parent]] = True
        grid_calls = calls("domains.cap.grid")
        nodes = sum(v for row, v in self.nodes.items() if task[row] >= 0)
        c = self.counts
        total = {
            "quaternion.objects": quaternions,
            "quaternion.kernel_rows": c["quaternion.kernel_rows"],
            "domains.cap.band.calls": calls("domains.cap.band"),
            "domains.cap.band.s": selfs("domains.cap.band"),
            "domains.cap.grid.calls": grid_calls,
            "domains.cap.grid.s": selfs("domains.cap.grid"),
            "domains.cap.whole.calls": calls("domains.cap.whole"),
            "domains.second_unit.calls": calls("domains.second_unit"),
            "domains.second_unit.s": selfs("domains.second_unit"),
            "domains.grid.vertices": c["domains.grid.vertices"],
            "douren.cut_distance.calls": calls("douren.cut_distance"),
            "douren.cut_distance.s": selfs("douren.cut_distance"),
            "douren.eval.points": (c["douren.eval.points"]
                                   + c["douren.eval.points.vectorised"]),
            "slicefn.spherical_data.calls": float(sph.sum()),
            "slicefn.spherical_data.s": selfs("slicefn.spherical_data"),
            "slicefn.eval.calls": c["slicefn.eval.calls"],
            "slicefn.eval_slice_many.points":
                c["slicefn.eval_slice_many.points"],
            "slicefn.eval_slice_many.fallback_points":
                c["slicefn.eval_slice_many.fallback_points"],
            "algebra.star_eval.calls": calls("algebra.star_eval"),
            "algebra.star_eval.s": selfs("algebra.star_eval"),
            "algebra.exact.s": selfs("algebra.exact"),
            "algebra.poly_eval.calls": c["algebra.poly_eval.calls"],
            "algebra.poly_eval_many.points":
                c["algebra.poly_eval_many.points"],
            "zeros.exact.s": selfs("zeros.exact"),
            "zeros.cap_tests.calls": calls("zeros.cap_tests"),
            "zeros.cap_tests.s": selfs("zeros.cap_tests"),
            "series.laurent.s": selfs("series.laurent"),
            "series.contour_nodes": c["series.contour_nodes"],
            "series.classify.self_s": selfs("series.classify"),
            "series.spherical_coeffs.s": selfs("series.spherical_coeffs"),
            "integral.local_cauchy.s": selfs("integral.local_cauchy"),
            "integral.local_cauchy.nodes": nodes,
            "integral.synth.spherical_calls":
                float((sph & under("integral.synth")).sum()),
            "integral.volume_cauchy.s": selfs("integral.volume_cauchy"),
            "cli.main.self_s": selfs("cli.main"),
            "cli.fixtures.s": float(
                self_t[sel("douren.fixtures") & under("cli.main")].sum()),
            "trace.spans": float(in_task.sum()),
        }
        out = {k: float(v) / tasks for k, v in total.items()}
        # ratios are over the whole run, not per task
        out["domains.cap_cache.hit_ratio"] = (
            1.0 - c["domains.grid.fills"] / grid_calls if grid_calls else 0.0)
        n_sph = float(sph.sum())
        out["slicefn.spherical_data.hit_ratio"] = (
            float((sph & ~sph_with_cap).sum()) / n_sph if n_sph else 0.0)
        return out
