"""Outside-in tracer for the tetrascreen benchmark.

The tracer never edits the package.  It replaces the public functions
listed in TARGETS at every module-level binding of the same function
object (so `from .tetrahedron import face_points` copies in `screen` and
`theorems` are wrapped too), records one span per call and restores the
originals when the `tracing` block ends.

A span is (name, start, end, parent).  Spans stay in memory as typed
arrays and are aggregated or written out after the traced run, so the
per-call cost is two clock reads and four appends.  A layer's self time
is the sum of its spans' durations minus the time covered by their
direct child spans.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from array import array
from collections import Counter
from contextlib import contextmanager

# (layer, module, attribute).  The span name is "<module>.<attribute>";
# an attribute "Class.method" is patched on the class.  Every function
# of a layer adds its self time to the layer's "<layer>_s" metric.
TARGETS = (
    ("cli.self", "cli", "main"),
    ("cli.self", "cli", "cmd_screen"),
    ("cli.self", "cli", "cmd_verify"),
    ("cli.self", "cli", "cmd_hunt"),
    ("screen.self", "screen", "run_screen"),
    ("screen.self", "screen", "run_screen_on_instances"),
    ("screen.self", "screen", "evaluate_cell_on_instance"),
    ("screen.self", "screen", "hunt_counterexample"),
    ("screen.report", "screen", "ScreenReport.to_json"),
    ("theorems.self", "theorems", "verify_cases"),
    ("theorems.self", "theorems", "TheoremCase.run"),
    ("tetrahedron.generate", "tetrahedron", "generate"),
    ("tetrahedron.generate", "tetrahedron", "generate_shifted_product"),
    ("tetrahedron.face_points", "tetrahedron", "face_points"),
    ("tetrahedron.space_centers", "tetrahedron", "space_center"),
    ("tetrahedron.space_centers", "tetrahedron", "space_center_of_points"),
    ("tetrahedron.euler_param", "tetrahedron", "euler_line"),
    ("tetrahedron.euler_param", "tetrahedron", "euler_param"),
    ("tetrahedron.euler_param", "tetrahedron", "euler_param_of_points"),
    ("catalog.areal_on", "catalog", "CatalogEntry.areal_on"),
    ("triangle.self", "triangle", "eval_center_raw"),
    ("triangle.self", "triangle", "eval_center"),
    ("triangle.self", "triangle", "trilinear_to_areal"),
    ("triangle.self", "triangle", "areal_to_trilinear"),
    ("triangle.self", "triangle", "isotomic_conjugate"),
    ("triangle.self", "triangle", "isogonal_conjugate"),
    # eval_tree recurses through its own module's binding; wrapping only
    # triangle's copy makes each span one outer evaluation
    ("centerexpr.eval", "triangle", "eval_tree"),
    ("properties.cevian", "properties", "check_concurrence"),
    ("properties.cevian", "properties", "check_hyperbolic"),
    ("properties.cevian", "properties", "check_coplanar"),
    ("properties.cevian", "properties", "check_collinear"),
    ("properties.cevian", "properties", "cevian"),
    ("properties.cevian", "properties", "pair_concurrence_residual"),
    ("properties.cevian", "properties", "pair_concurrence_condition"),
    ("properties.cevian", "properties", "spear_residual"),
    ("properties.cevian", "properties", "spear_condition"),
    ("properties.cevian", "properties", "spear_trace_constructive"),
    ("properties.cevian", "properties", "hyperboloid_center"),
    ("properties.normals", "properties", "check_normals_concur"),
    ("properties.normals", "properties", "face_normal_line"),
    ("properties.normals", "properties", "face_normal_direction"),
    ("properties.normals", "properties", "tabov_pair_residual"),
    ("properties.normals", "properties", "tabov_pair_condition"),
    ("properties.faces_parallel", "properties", "check_faces_parallel"),
    ("properties.central", "properties", "classify_central"),
    ("properties.central", "properties", "central_squared_edges"),
    ("properties.equal_cevians", "properties", "check_equal_cevians"),
    ("properties.space_relations", "properties", "check_space_center_relations"),
    ("geometry.squared_distance", "geometry", "squared_distance"),
    ("geometry.det4_sign", "geometry", "det4_sign"),
    ("geometry.line_through", "geometry", "line_through"),
    ("geometry.other", "geometry", "det4"),
    ("geometry.other", "geometry", "coplanar4"),
    ("geometry.other", "geometry", "collinear3"),
    ("geometry.other", "geometry", "intersection_point"),
    ("geometry.other", "geometry", "lines_intersect"),
    ("geometry.other", "geometry", "lines_parallel"),
    ("geometry.other", "geometry", "lines_perpendicular"),
    ("geometry.other", "geometry", "plane_through_3"),
    ("geometry.other", "geometry", "planes_parallel"),
    ("geometry.other", "geometry", "plane_point_line"),
    ("geometry.other", "geometry", "plane_line_parallel_line"),
    ("geometry.other", "geometry", "line_parallel_to_plane"),
    ("geometry.other", "geometry", "line_plane_intersection"),
    ("geometry.other", "geometry", "direction_cosines"),
    ("geometry.other", "geometry", "null_direction"),
    ("scalar.sqrt", "scalar", "sqrt"),
    ("scalar.compare_radical_sums", "scalar", "compare_radical_sums"),
    ("scalar.decide_zero", "scalar", "decide_zero"),
)

EVALUATE_CELL = "screen.evaluate_cell_on_instance"
FACE_POINTS = "tetrahedron.face_points"

# exact call counts: metric -> span names counted
CALL_METRICS = {
    "centerexpr.calls": ("triangle.eval_tree",),
    "catalog.areal_on.calls": ("catalog.CatalogEntry.areal_on",),
    "tetrahedron.generate.calls": ("tetrahedron.generate",
                                   "tetrahedron.generate_shifted_product"),
    "tetrahedron.face_points.calls": (FACE_POINTS,),
    "properties.classify_central.calls": ("properties.classify_central",),
    "properties.space_relations.calls": ("properties.check_space_center_relations",),
    "scalar.sqrt.calls": ("scalar.sqrt",),
    "scalar.decide_zero.calls": ("scalar.decide_zero",),
    "screen.evaluate_cell.calls": (EVALUATE_CELL,),
    "theorems.case.calls": ("theorems.TheoremCase.run",),
}

# per-pair ratios: metric -> span counted under evaluate_cell_on_instance
PER_PAIR_METRICS = {
    "screen.face_points_per_pair": FACE_POINTS,
    "properties.classify_central_per_pair": "properties.classify_central",
    "properties.space_relations_per_pair": "properties.check_space_center_relations",
}

# how screen tallies one evaluate_cell_on_instance; exceptions map to the
# tally screen.run_screen_on_instances records for them
VERDICT_STATUSES = ("holds_exact", "holds_numeric", "fails", "undecided",
                    "skipped", "error")

# only the verdict counter, for an untimed pass that checks the verdicts
# of a workload whose output does not record them
VERDICT_TARGETS = tuple(t for t in TARGETS if f"{t[1]}.{t[2]}" == EVALUATE_CELL)

SELF_TIME_LAYERS = sorted({layer for layer, _, _ in TARGETS})


def _package_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "tetrascreen" or name.startswith("tetrascreen."))]


class Tracer:
    """Span recorder plus the set of patches it installed."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_ids = array("H")
        self.parents = array("l")
        self.starts = array("d")
        self.ends = array("d")
        self.verdicts = Counter()
        self.pairs = 0
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    # -- recording

    def _wrap(self, name: str, fn):
        nid = self._name_ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        name_ids, parents, starts, ends = self.name_ids, self.parents, self.starts, self.ends
        stack, clock = self._stack, time.perf_counter

        def traced(*args, **kwargs):
            i = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()

        return functools.update_wrapper(traced, fn)

    def _count_verdicts(self, traced, fn, singular, base):
        """Around the traced evaluate_cell_on_instance: count (instance,
        center) pairs and tally each call the way screen does."""
        verdicts = self.verdicts
        last_pair = [(None, None, None)]

        def counted(e, entry, r, *args, **kwargs):
            # screen and the hunts walk (instance, center) pairs in order,
            # so a change of pair marks a new pair
            pair = (e, entry, r)
            if any(x is not y for x, y in zip(pair, last_pair[0])):
                self.pairs += 1
                last_pair[0] = pair
            try:
                verdict = traced(e, entry, r, *args, **kwargs)
            except singular:
                verdicts["skipped"] += 1
                raise
            except base:
                verdicts["error"] += 1
                raise
            verdicts[verdict.status] += 1
            return verdict

        return functools.update_wrapper(counted, fn)

    # -- patching

    def install(self):
        modules = _package_modules()
        by_name = {m.__name__.rsplit(".", 1)[-1]: m for m in modules}
        errors = by_name["errors"]
        for _layer, mod_name, attr in self.targets:
            module = by_name[mod_name]
            span = f"{mod_name}.{attr}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(module, cls_name)
                self._patch(owner, meth, self._wrap(span, owner.__dict__[meth]))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(span, original)
            if span == EVALUATE_CELL:
                wrapper = self._count_verdicts(wrapper, original, errors.EvaluationSingular,
                                               errors.TetraScreenError)
            if span == "triangle.eval_tree":
                self._patch(module, attr, wrapper)
                continue
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._patch(m, key, wrapper)

    def _patch(self, owner, attr: str, wrapper):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)

    def restored(self) -> bool:
        """True when every binding the tracer patched holds its original."""
        return all(owner.__dict__[attr] is original
                   for owner, attr, original in self._patches)

    # -- aggregation

    def summary(self) -> dict:
        """Self time and call count per span name, plus screen counters."""
        names, name_ids, parents = self.names, self.name_ids, self.parents
        starts, ends = self.starts, self.ends
        n = len(starts)
        child = [0.0] * n
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
        self_s = Counter()
        calls = Counter()
        for i in range(n):
            name = names[name_ids[i]]
            self_s[name] += ends[i] - starts[i] - child[i]
            calls[name] += 1

        # counts of spans that ran inside an evaluate_cell_on_instance call
        cell_id = self._name_ids.get(EVALUATE_CELL, -1)
        under_cell = [-1] * n
        in_cell = Counter()
        face_points_in = Counter()
        fp_id = self._name_ids.get(FACE_POINTS, -1)
        for i in range(n):
            if name_ids[i] == cell_id:
                under_cell[i] = i
                continue
            p = parents[i]
            if p >= 0 and under_cell[p] >= 0:
                under_cell[i] = under_cell[p]
                in_cell[names[name_ids[i]]] += 1
                if name_ids[i] == fp_id:
                    face_points_in[under_cell[i]] += 1
        escalations = sum(c - 1 for c in face_points_in.values() if c > 1)
        return {"self_s": dict(self_s), "calls": dict(calls),
                "in_cell": dict(in_cell), "refine_escalations": escalations,
                "verdicts": dict(self.verdicts), "pairs": self.pairs}

    def write_spans(self, path):
        """Write every span, columnar, as gzip-compressed JSON."""
        doc = {"names": self.names, "name": list(self.name_ids),
               "parent": list(self.parents), "start": list(self.starts),
               "end": list(self.ends)}
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            json.dump(doc, fh)


@contextmanager
def tracing(targets=TARGETS):
    """Install a fresh Tracer on `targets` for the duration of the block."""
    tracer = Tracer(targets)
    tracer.install()
    try:
        yield tracer
    finally:
        tracer.uninstall()


def layer_metrics(summary: dict) -> dict:
    """Per-layer metrics of one traced pass, as {name: (value, unit)}.

    The ratios' base, `screen.pairs`, is the number of (instance, center)
    pairs the pass evaluated through evaluate_cell_on_instance.
    """
    pairs = summary["pairs"]
    layer_of = {f"{m}.{a}": layer for layer, m, a in TARGETS}
    out = {}
    by_layer = Counter()
    for span, secs in summary["self_s"].items():
        by_layer[layer_of[span]] += secs
    for layer in SELF_TIME_LAYERS:
        out[f"{layer}_s"] = (by_layer[layer], "s")
    out["geometry.kernel_s"] = (sum(v for k, v in by_layer.items()
                                    if k.startswith("geometry.")), "s")
    calls = summary["calls"]
    for metric, spans in CALL_METRICS.items():
        out[metric] = (sum(calls.get(s, 0) for s in spans), "count")
    for status in VERDICT_STATUSES:
        out[f"screen.verdict.{status}"] = (summary["verdicts"].get(status, 0), "count")
    out["screen.pairs"] = (pairs, "count")
    for metric, span in PER_PAIR_METRICS.items():
        count = summary["in_cell"].get(span, 0)
        out[metric] = (count / pairs if pairs else 0.0, "ratio")
    out["scalar.refine_escalations"] = (summary["refine_escalations"], "count")
    return out
