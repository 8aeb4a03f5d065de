"""Span tracing at the boundaries between conforminv's modules.

The tracer swaps public names for timing wrappers at the place where one
module looks them up from the layer below, e.g. the ``solve_neumann_system``
that ``conforminv.diskmap`` imported from ``conforminv.kernel``, and puts
the originals back afterwards. The package itself is not modified.

Each wrapped call becomes a span (layer, start, end, parent, query id).
A layer's self time is the duration of its spans minus the time covered
by their child spans, so the self times of all layers plus the root
``query`` span add up to the traced query wall time.

A name that no longer exists is skipped: its layer is reported as
unmeasured and the run goes on.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import json
import weakref
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np


def _count_assembly(tracer, args, kwargs, result):
    # matrices() assembles on the first call per context and caches after
    ctx = args[0]
    ref = tracer.contexts.get(id(ctx))
    if ref is None or ref() is not ctx:
        tracer.contexts[id(ctx)] = weakref.ref(ctx)
        tracer.counts["assemblies"] += 1
        tracer.counts["matrix_bytes"] += 16 * ctx.n * ctx.n  # float64 N and M1


def _count_solve(tracer, args, kwargs, result):
    ctx = args[0]
    tracer.counts["solves"] += 1
    tracer.counts["gmres_iters"] += int(result.gmres_iters)
    digest = hashlib.blake2b(np.ascontiguousarray(ctx.curve.eta).tobytes(),
                             digest_size=16).digest()
    tracer.solve_keys.add((digest, ctx.alpha))


def _count_located(tracer, args, kwargs, result):
    tracer.counts["locate_points"] += int(np.size(args[1]))


def _count_evaluated(tracer, args, kwargs, result):
    tracer.counts["eval_points"] += int(np.size(args[1]))


def _count_quad_iters(tracer, args, kwargs, result):
    tracer.counts["quad_iters"] += int(getattr(result, "iterations", 0))


# (layer, module, attribute, counter). Only names on the benchmark's call
# paths are listed, so a name removed elsewhere does not blank a layer.
TARGETS = (
    ("cli", "conforminv.cli", "main", None),
    ("invariants", "conforminv.cli", "hyperbolic_distance_field", None),
    ("invariants", "conforminv.invariants", "hyperbolic_distance", None),
    ("invariants", "conforminv.invariants", "reduced_modulus", None),
    ("invariants", "conforminv.invariants", "quad_modulus", _count_quad_iters),
    ("curves.build", "conforminv.cli", "make_polygon", None),
    ("curves.build", "conforminv.curves", "make_ellipse", None),
    ("curves.build", "conforminv.invariants", "make_rectangle", None),
    ("curves.locate", "conforminv.invariants", "winding_inside", _count_located),
    ("curves.locate", "conforminv.invariants", "winding_number", _count_located),
    ("curves.locate", "conforminv.invariants", "boundary_clearance", None),
    ("curves.locate", "conforminv.diskmap", "winding_inside", _count_located),
    ("curves.locate", "conforminv.diskmap", "boundary_clearance", None),
    ("diskmap.map", "conforminv.invariants", "map_bounded", None),
    ("diskmap.map", "conforminv.invariants", "map_unbounded", None),
    ("diskmap.cauchy", "conforminv.invariants", "cauchy_eval", _count_evaluated),
    ("kernel.solve", "conforminv.diskmap", "solve_neumann_system", _count_solve),
    ("kernel.assemble", "conforminv.kernel", "KernelContext.matrices", _count_assembly),
)

LAYERS = ("cli", "invariants", "curves.build", "curves.locate", "diskmap.map",
          "diskmap.cauchy", "kernel.solve", "kernel.assemble")

# per-layer metric -> (unit, layer it depends on; None = always measured)
METRICS = {
    "kernel.assemble_s": ("s", "kernel.assemble"),
    "kernel.assemblies": ("count", "kernel.assemble"),
    "kernel.matrix_mb": ("MB", "kernel.assemble"),
    "kernel.solve_s": ("s", "kernel.solve"),
    "kernel.gmres_iters": ("count", "kernel.solve"),
    "kernel.iter_s": ("s/iter", "kernel.solve"),
    "kernel.distinct_ratio": ("frac", "kernel.solve"),
    "invariants.solves_per_query": ("count", "kernel.solve"),
    "curves.locate_s": ("s", "curves.locate"),
    "curves.locate_points": ("count", "curves.locate"),
    "diskmap.cauchy_s": ("s", "diskmap.cauchy"),
    "diskmap.eval_points": ("count", "diskmap.cauchy"),
    "invariants.quad_iters": ("count", "invariants"),
    "curves.build_s": ("s", "curves.build"),
    "diskmap.map_s": ("s", "diskmap.map"),
    "invariants.self_s": ("s", "invariants"),
    "cli.self_s": ("s", "cli"),
    "trace.query_s": ("s", None),
    "trace.overhead_frac": ("frac", None),
    "trace.accounted_frac": ("frac", None),
}


def _resolve(module: str, attr: str):
    """(owner object, final attribute name), or None if the name is gone."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    # a method is wrapped on the class that defines it
    found = vars(owner).get(name) if isinstance(owner, type) else getattr(owner, name, None)
    return (owner, name) if callable(found) else None


def _ratio(num, den):
    return num / den if den else None


class Tracer:
    """Collects spans and counts for the queries run inside ``query()``."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans = []          # [layer, start, end, parent index, query id]
        self.counts = Counter()
        self.solve_keys = set()
        self.contexts = {}       # id -> weakref, to spot first matrices() calls
        self.failed_counters = set()
        self.query_wall = []     # traced query durations
        self._stack = []
        self._saved = []
        self._query_id = -1
        gone = [(layer, f"{m}.{a}") for layer, m, a, _ in targets if _resolve(m, a) is None]
        self.missing = sorted(name for _, name in gone)
        self.unmeasured = sorted({layer for layer, _ in gone})

    # -- installing the wrappers ------------------------------------------

    def install(self):
        for layer, module, attr, counter in self.targets:
            found = _resolve(module, attr)
            if found is None:
                continue
            owner, name = found
            original = vars(owner)[name] if isinstance(owner, type) else getattr(owner, name)
            self._saved.append((owner, name, original))
            setattr(owner, name, self._wrap(layer, original, counter))

    def uninstall(self):
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    def _wrap(self, layer, fn, counter):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = tracer._open(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(index)
            if counter is not None:
                try:
                    counter(tracer, args, kwargs, result)
                except (AttributeError, TypeError, IndexError, ValueError):
                    tracer.failed_counters.add(layer)
            return result

        return traced

    def _open(self, layer) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([layer, perf_counter(), None, parent, self._query_id])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index):
        self.spans[index][2] = perf_counter()
        self._stack.pop()

    @contextmanager
    def query(self):
        """Root span of one traced query; wrappers are live inside it."""
        self._query_id += 1
        self.install()
        index = self._open("query")
        try:
            yield
        finally:
            self._close(index)
            self.uninstall()
            span = self.spans[index]
            self.query_wall.append(span[2] - span[1])

    # -- aggregation -------------------------------------------------------

    def self_times(self) -> dict:
        covered = [0.0] * len(self.spans)
        for layer, start, end, parent, _ in self.spans:
            if parent is not None:
                covered[parent] += end - start
        out = defaultdict(float)
        for (layer, start, end, _, _), child in zip(self.spans, covered):
            out[layer] += (end - start) - child
        return dict(out)

    def metrics(self, overhead_frac) -> dict:
        """Per-query layer metrics; None marks an unmeasured layer."""
        queries = len(self.query_wall)
        wall = sum(self.query_wall)
        st = self.self_times()
        c = self.counts

        def per_query(x):
            return _ratio(x, queries)

        values = {
            "kernel.assemble_s": per_query(st.get("kernel.assemble", 0.0)),
            "kernel.assemblies": per_query(c["assemblies"]),
            "kernel.matrix_mb": per_query(c["matrix_bytes"] / 1e6),
            "kernel.solve_s": per_query(st.get("kernel.solve", 0.0)),
            "kernel.gmres_iters": per_query(c["gmres_iters"]),
            "kernel.iter_s": _ratio(st.get("kernel.solve", 0.0), c["gmres_iters"]),
            "kernel.distinct_ratio": _ratio(len(self.solve_keys), c["solves"]),
            "invariants.solves_per_query": per_query(c["solves"]),
            "curves.locate_s": per_query(st.get("curves.locate", 0.0)),
            "curves.locate_points": per_query(c["locate_points"]),
            "diskmap.cauchy_s": per_query(st.get("diskmap.cauchy", 0.0)),
            "diskmap.eval_points": per_query(c["eval_points"]),
            "invariants.quad_iters": per_query(c["quad_iters"]),
            "curves.build_s": per_query(st.get("curves.build", 0.0)),
            "diskmap.map_s": per_query(st.get("diskmap.map", 0.0)),
            "invariants.self_s": per_query(st.get("invariants", 0.0)),
            "cli.self_s": per_query(st.get("cli", 0.0)),
            "trace.query_s": per_query(wall),
            "trace.overhead_frac": overhead_frac,
            "trace.accounted_frac": _ratio(
                sum(v for k, v in st.items() if k != "query"), wall),
        }
        dead = set(self.unmeasured) | self.failed_counters
        out = {}
        for name, (unit, layer) in METRICS.items():
            value = None if layer in dead else values[name]
            out[name] = {"value": value, "unit": unit}
        return out

    def shares(self) -> dict:
        """Each layer's self time as a share of the traced query wall time."""
        wall = sum(self.query_wall)
        st = self.self_times()
        return {layer: _ratio(st.get(layer, 0.0), wall)
                for layer in LAYERS + ("query",)}

    def dump(self, path, extra: dict):
        doc = dict(extra)
        doc["span_fields"] = ["layer", "start_s", "end_s", "parent", "query"]
        doc["spans"] = self.spans
        with open(path, "w") as fh:
            json.dump(doc, fh)
            fh.write("\n")
