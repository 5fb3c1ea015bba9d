"""In-process tracing of kvacert: spans and counts from wrappers around its public API.

The wrappers live here, not in ``src/``.  Each one is patched in at every name
its function is looked up through: a function imported with ``from .x import
f`` is reached through the importing module too, so every ``kvacert`` module
attribute (and every class attribute alias) holding the original is replaced,
and restored afterwards.

A span is ``(id, parent id, name, start ns, end ns, job id)``.  The name's
first component is the layer.  A layer's self time is the time of its spans
minus the part their child spans cover.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

# Public functions (``name``) and methods (``Class.name``) timed by a span, per
# layer (= module of ``kvacert``).  A name missing from the program is skipped
# and reported, so a later refactor shows up as an unwrapped name, not a crash.
SPANNED = {
    "exactmath": (
        "poly_positive_on_ray", "quad_floor_milli",
        "Poly.shift", "Poly.__call__", "Poly.__add__", "Poly.__sub__", "Poly.__mul__",
        "Poly.__neg__", "Poly.scale", "Poly.derivative",
        "QuadExpr.sign", "QuadExpr.floor", "QuadExpr.cmp_rat", "QuadExpr.bounds",
        "QuadExpr.__add__", "QuadExpr.__sub__", "QuadExpr.__rsub__", "QuadExpr.__mul__",
        "QuadExpr.__neg__",
    ),
    "constants": (
        "c_max_search", "pipeline_certs", "delta_raw_at", "delta_raw", "n2_chain_cert",
        "case1_cert", "case_ds2_zero_cert", "z_roots", "z1_decreasing_cert",
        "lhs_increasing_cert", "ceiling_from_n2", "interval_containment_cert",
        "g_positive_cert", "sigma_bound", "standard_discrepancies", "render_margin",
    ),
    "blowup": ("search_obstruction", "seshadri_lower_sq", "star_holds", "n_class",
               "blowup_intersect"),
    "hyperell": ("self_intersection", "intersect", "is_ample", "surface_by_id",
                 "surface_table", "is_nonzero_effective_cone", "kva_sufficient",
                 "DivisorClass.__init__"),
}

# Called about 10^6 times by one heavy search: counted, not timed.
COUNTED = {"blowup": ("bs_condition3",)}

ROOT_SPAN = "cli.main"


def _observe_ray(tracer, result):
    tracer.counts[f"exactmath.ray.{result.method}"] += 1


def _observe_pipeline(tracer, result):
    tracer.counts["constants.pipeline_certs.feasible"] += bool(result[0])


def _observe_search(tracer, result):
    tracer.counts["blowup.search_obstruction.witnesses"] += len(result)


#: what a span's result adds to the counts
OBSERVERS = {
    "exactmath.poly_positive_on_ray": _observe_ray,
    "constants.pipeline_certs": _observe_pipeline,
    "blowup.search_obstruction": _observe_search,
}


class Tracer:
    """Collects spans and counts while its wrappers are installed."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, int, str, int, int, int]] = []
        self.counts: Counter = Counter()
        self.stack = [0]
        self.next_id = 1
        self.job = 0
        self.unwrapped: list[str] = []

    def _span_wrapper(self, fn, name):
        observe = OBSERVERS.get(name)
        clock = time.perf_counter_ns
        stack = self.stack
        spans = self.spans

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self.next_id
            self.next_id = sid + 1
            parent = stack[-1]
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, parent, name, start, end, self.job))
            if observe is not None:
                observe(self, result)
            return result

        return wrapper

    def _count_wrapper(self, fn, name):
        counts = self.counts
        key = f"{name}.calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def job_span(self, job_id: int, call):
        """Run one job under the root span; returns what ``call()`` returns."""
        self.job = job_id
        return self._span_wrapper(call, ROOT_SPAN)()

    @contextmanager
    def installed(self):
        """Patch every wrapper in; restore the originals on exit."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "kvacert" or n.startswith("kvacert.")]
        patches = []
        try:
            for table, make in ((SPANNED, self._span_wrapper), (COUNTED, self._count_wrapper)):
                for layer, names in table.items():
                    module = sys.modules[f"kvacert.{layer}"]
                    for qualname in names:
                        patches += self._patch(module, modules, qualname, f"{layer}.{qualname}",
                                               make)
            yield self
        finally:
            for owner, attr, original in reversed(patches):
                setattr(owner, attr, original)

    def _patch(self, module, modules, qualname, name, make):
        cls_name, _, attr = qualname.rpartition(".")
        if cls_name:
            owner = getattr(module, cls_name, None)
            original = vars(owner).get(attr) if owner is not None else None
            places = [owner]
        else:
            original = getattr(module, attr, None)
            places = modules
        if original is None:
            self.unwrapped.append(name)
            return []
        wrapper = make(original, name)
        patches = []
        for place in places:
            for key, value in list(vars(place).items()):
                if value is original:
                    patches.append((place, key, original))
                    setattr(place, key, wrapper)
        return patches


def layer_metrics(spans, counts) -> dict:
    """The per-layer figures of one traced pass, from its spans and counts."""
    layer_of = {sid: name.split(".", 1)[0] for sid, _, name, *_ in spans}
    covered = defaultdict(int)
    for sid, parent, _, start, end, _ in spans:
        covered[parent] += end - start
    calls, busy = Counter(), Counter()
    self_ns, layer_busy = Counter(), Counter()
    for sid, parent, name, start, end, _ in spans:
        layer = layer_of[sid]
        calls[name] += 1
        busy[name] += end - start
        self_ns[layer] += end - start - covered[sid]
        if layer_of.get(parent) != layer:
            layer_busy[layer] += end - start

    def s(ns):
        return ns / 1e9

    def ratio(num, den):
        return num / den if den else 0.0

    pipeline_calls = calls["constants.pipeline_certs"]
    condition_calls = counts["blowup.bs_condition3.calls"]
    witnesses = counts["blowup.search_obstruction.witnesses"]
    return {
        "exactmath.poly_positive_on_ray.calls": calls["exactmath.poly_positive_on_ray"],
        "exactmath.poly_positive_on_ray.busy_s": s(busy["exactmath.poly_positive_on_ray"]),
        "exactmath.ray.shift-coeffs": counts["exactmath.ray.shift-coeffs"],
        "exactmath.ray.endpoint": counts["exactmath.ray.endpoint"],
        "exactmath.ray.sturm": counts["exactmath.ray.sturm"],
        "exactmath.Poly.shift.calls": calls["exactmath.Poly.shift"],
        "exactmath.Poly.shift.busy_s": s(busy["exactmath.Poly.shift"]),
        "exactmath.QuadExpr.sign.calls": calls["exactmath.QuadExpr.sign"],
        "exactmath.QuadExpr.floor.busy_s": s(busy["exactmath.QuadExpr.floor"]),
        "exactmath.self_s": s(self_ns["exactmath"]),
        "constants.pipeline_certs.calls": pipeline_calls,
        "constants.pipeline_certs.busy_s": s(busy["constants.pipeline_certs"]),
        "constants.pipeline_certs.feasible_ratio":
            ratio(counts["constants.pipeline_certs.feasible"], pipeline_calls),
        "constants.g_positive_cert.busy_s": s(busy["constants.g_positive_cert"]),
        "constants.interval_containment_cert.busy_s":
            s(busy["constants.interval_containment_cert"]),
        "constants.standard_discrepancies.busy_s": s(busy["constants.standard_discrepancies"]),
        "constants.self_s": s(self_ns["constants"]),
        "blowup.search_obstruction.calls": calls["blowup.search_obstruction"],
        "blowup.search_obstruction.busy_s": s(busy["blowup.search_obstruction"]),
        "blowup.search_obstruction.witnesses": witnesses,
        "blowup.bs_condition3.calls": condition_calls,
        "blowup.kept_ratio": ratio(witnesses, condition_calls),
        "blowup.seshadri_lower_sq.calls": calls["blowup.seshadri_lower_sq"],
        "blowup.self_s": s(self_ns["blowup"]),
        "hyperell.calls": sum(n for name, n in calls.items() if name.startswith("hyperell.")),
        "hyperell.busy_s": s(layer_busy["hyperell"]),
        "cli.self_s": s(self_ns["cli"]),
        "cli.output_bytes": counts["cli.output_bytes"],
    }


#: metrics that count work; they must repeat exactly for the same seed
COUNT_METRICS = (
    "exactmath.poly_positive_on_ray.calls", "exactmath.ray.shift-coeffs",
    "exactmath.ray.endpoint", "exactmath.ray.sturm", "exactmath.Poly.shift.calls",
    "exactmath.QuadExpr.sign.calls", "constants.pipeline_certs.calls",
    "blowup.search_obstruction.calls", "blowup.search_obstruction.witnesses",
    "blowup.bs_condition3.calls", "blowup.seshadri_lower_sq.calls", "hyperell.calls",
    "cli.output_bytes",
)
