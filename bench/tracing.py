"""In-memory spans around the benchmark's calls into torusdet.

A span is opened only around a call the benchmark makes into a library
module and around a callback the benchmark hands to the library; nothing
inside ``src/`` is instrumented.  Spans stay in memory and are written out
once, when the run ends.

``NullTracer`` is what the untraced passes use: it calls straight through,
so the end-to-end timings carry no tracing cost.
"""

from __future__ import annotations

import statistics
import time
from collections import Counter, defaultdict

LAYERS = ("discrete.lattice", "discrete.exact", "expansion", "finite_part",
          "smooth", "euler_maclaurin", "interchange", "cli")

# What the ``work`` count of a span means, per layer.
WORK_METRIC = {
    "discrete.lattice": "discrete.lattice.points",      # sum of n^m reduced
    "discrete.exact": "discrete.exact.vertices",        # sum of n^m
    "expansion": "expansion.samples",                   # samples fitted
    "euler_maclaurin": "euler_maclaurin.patterns",      # 4^m per decomposition
}

# Busy time of single functions, keyed by function name.
FUNCTION_METRIC = {
    "reduced_laplacian_det_mod": "discrete.exact.det_mod_s",
    "spanning_tree_count": "discrete.exact.tree_count_s",
    "eigenvalue_product_integer": "discrete.exact.eig_product_s",
    "em_decompose": "euler_maclaurin.decompose_s",
}

# span record fields
LAYER, NAME, PARENT, START, END, WORK, PASS, QUAD_WARNINGS = range(8)


class NullTracer:
    """Calls through without recording anything."""

    def call(self, layer, fn, *args, work=0, **kwargs):
        return fn(*args, **kwargs)

    def callback(self, layer, fn, *, work=0):
        return fn

    def counted(self, fn):
        return fn


class Tracer:
    """Records one span per call, with its parent, work count and pass.

    ``warnings_seen`` is the list a ``warnings.catch_warnings(record=True)``
    context fills during the pass; the SciPy ``IntegrationWarning``s that
    arrive during a top-level span are charged to it.
    """

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(Counter)      # pass index -> name -> value
        self.pass_index = -1
        self.warnings_seen = []
        self._stack = []

    def call(self, layer, fn, *args, work=0, **kwargs):
        parent = self._stack[-1] if self._stack else -1
        span = [layer, fn.__name__, parent, 0.0, 0.0, work, self.pass_index, 0]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        seen = len(self.warnings_seen)
        span[START] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[END] = time.perf_counter()
            self._stack.pop()
            if parent < 0 and len(self.warnings_seen) > seen:
                span[QUAD_WARNINGS] = sum(
                    w.category.__name__ == "IntegrationWarning"
                    for w in self.warnings_seen[seen:])

    def callback(self, layer, fn, *, work=0):
        """Wrap a callback handed to finite_part as a span of ``layer``.

        Its calls are counted as integrand evaluations.
        """
        def traced_callback(*args):
            self.counts[self.pass_index]["finite_part.integrand_evals"] += 1
            return self.call(layer, fn, *args, work=work)
        traced_callback.__name__ = fn.__name__
        return traced_callback

    def counted(self, fn):
        """Wrap a plain integrand so its evaluations are counted, not spanned."""
        def counted_integrand(*args):
            self.counts[self.pass_index]["finite_part.integrand_evals"] += 1
            return fn(*args)
        return counted_integrand

    def to_json(self):
        keys = ("layer", "name", "parent", "start", "end", "work", "pass",
                "quad_warnings")
        return [dict(zip(keys, s)) for s in self.spans]


def _percentile(values, q):
    ordered = sorted(values)
    if not ordered:
        return 0.0
    return ordered[min(len(ordered) - 1, round(q * (len(ordered) - 1)))]


def layer_metrics(tracer: Tracer, traced_pass_s: list) -> dict:
    """Per-layer figures for one traced pass, as medians over traced passes.

    ``busy_s`` is the time inside the layer's spans; ``self_s`` subtracts
    the child spans (callbacks into another layer), so in each pass the
    self times of all layers plus the benchmark's own overhead add up to
    the pass time.
    Returns ``{name: (value, unit)}``.
    """
    spans = tracer.spans
    child_s = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child_s[s[PARENT]] += s[END] - s[START]

    per_pass = [Counter(tracer.counts[p]) for p in range(len(traced_pass_s))]
    lattice_us = []
    for i, s in enumerate(spans):
        dur = s[END] - s[START]
        layer = s[LAYER]
        agg = per_pass[s[PASS]]
        agg[f"{layer}.calls"] += 1
        agg[f"{layer}.busy_s"] += dur
        agg[f"{layer}.self_s"] += dur - child_s[i]
        if layer in WORK_METRIC:
            agg[WORK_METRIC[layer]] += s[WORK]
        if s[NAME] in FUNCTION_METRIC:
            agg[FUNCTION_METRIC[s[NAME]]] += dur
        if s[NAME] == "reduced_laplacian_det_mod":
            agg["discrete.exact.primes"] += 1
        if layer == "smooth":
            agg["smooth.quad_warnings"] += s[QUAD_WARNINGS]
        if layer == "discrete.lattice":
            lattice_us.append(dur * 1e6)

    for agg, pass_s in zip(per_pass, traced_pass_s):
        covered = sum(agg[f"{layer}.self_s"] for layer in LAYERS)
        agg["bench.overhead_s"] = pass_s - covered
        agg["bench.overhead_share"] = (pass_s - covered) / pass_s
        for layer in LAYERS:
            agg[f"{layer}.share"] = agg[f"{layer}.self_s"] / pass_s

    def med(key):
        return statistics.median(agg[key] for agg in per_pass)

    out = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = (med(f"{layer}.calls"), "count")
        out[f"{layer}.busy_s"] = (med(f"{layer}.busy_s"), "s")
        out[f"{layer}.self_s"] = (med(f"{layer}.self_s"), "s")
        out[f"{layer}.share"] = (med(f"{layer}.share"), "ratio")

    points = med("discrete.lattice.points")
    out["discrete.lattice.points"] = (points, "count")
    out["discrete.lattice.ns_per_point"] = (
        med("discrete.lattice.busy_s") / points * 1e9 if points else 0.0, "ns")
    out["discrete.lattice.call_us_p50"] = (_percentile(lattice_us, 0.50), "us")
    out["discrete.lattice.call_us_p99"] = (_percentile(lattice_us, 0.99), "us")
    out["discrete.exact.vertices"] = (med("discrete.exact.vertices"), "count")
    out["discrete.exact.primes"] = (med("discrete.exact.primes"), "count")
    for name in ("det_mod_s", "tree_count_s", "eig_product_s"):
        out[f"discrete.exact.{name}"] = (med(f"discrete.exact.{name}"), "s")
    out["expansion.samples"] = (med("expansion.samples"), "count")
    out["expansion.cond_max"] = (med("expansion.cond_max"), "ratio")
    evals = med("finite_part.integrand_evals")
    out["finite_part.integrand_evals"] = (evals, "count")
    out["finite_part.us_per_eval"] = (
        med("finite_part.self_s") / evals * 1e6 if evals else 0.0, "us")
    out["smooth.quad_warnings"] = (med("smooth.quad_warnings"), "count")
    out["euler_maclaurin.patterns"] = (med("euler_maclaurin.patterns"), "count")
    out["euler_maclaurin.decompose_s"] = (
        med("euler_maclaurin.decompose_s"), "s")
    out["cli.nonzero_exits"] = (med("cli.nonzero_exits"), "count")
    out["bench.overhead_s"] = (med("bench.overhead_s"), "s")
    out["bench.overhead_share"] = (med("bench.overhead_share"), "ratio")
    return out
