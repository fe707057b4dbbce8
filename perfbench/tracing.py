"""Span tracing of the cavityrb layers, from outside the package.

A ``Tracer`` replaces each traced function with a wrapper at the place
its callers look it up (a class attribute for methods, a module global
for functions imported by name) and puts the original back on exit.
Every call records a span: id, layer, parent span, thread, start, end
and an optional value read from the call (L+U nonzeros, Newton
iterations).  Spans stay in memory until the run ends; the per-layer
metrics are derived from them afterwards, using self time (a span's
duration minus the durations of its child spans on the same thread).
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import threading
import time

# (module, class or None, attribute, layer); a layer may cover several
# functions, and a function imported by name into several modules is
# wrapped in each of them, since each module looks up its own global.
TRACED = (
    ("cavityrb.assembly", "AffineOperator", "evaluate", "assembly.evaluate"),
    ("cavityrb.assembly", "ConvectionAssembler", "matrix",
     "assembly.convection"),
    ("cavityrb.assembly", "ConvectionAssembler", "transport_jacobian",
     "assembly.convection"),
    ("cavityrb.assembly", "SupgAssembler", "transport", "assembly.supg"),
    ("cavityrb.assembly", "SupgAssembler", "jacobian", "assembly.supg"),
    ("cavityrb.linalg", "SparseLU", "__init__", "linalg.lu_factor"),
    ("cavityrb.linalg", "SparseLU", "solve", "linalg.lu_solve"),
    ("cavityrb.rb", None, "modified_gram_schmidt", "linalg.mgs"),
    ("cavityrb.hifi", "FlowSystem", "solve_stokes", "hifi.stokes_solve"),
    ("cavityrb.hifi", "FlowSystem", "solve_navier_stokes",
     "hifi.newton_solve"),
    ("cavityrb.hifi", "FlowSystem", "residual", "hifi.residual"),
    ("cavityrb.hifi", "FlowSystem", "residual_reference",
     "hifi.residual_reference"),
    ("cavityrb.rb", None, "fe_indicator", "rb.indicator"),
    ("cavityrb.rb", None, "build_reduced_model", "rb.build"),
    ("cavityrb.rb", "SupremizerOperator", "solve", "rb.supremizer"),
    ("cavityrb.rb", None, "truncate_model", "rb.truncate"),
    ("cavityrb.analysis", None, "truncate_model", "rb.truncate"),
    ("cavityrb.rb", None, "with_option", "rb.with_option"),
    ("cavityrb.analysis", None, "with_option", "rb.with_option"),
    ("cavityrb.rb", None, "solve_reduced", "rb.solve_reduced"),
    ("cavityrb.analysis", None, "solve_reduced", "rb.solve_reduced"),
    ("cavityrb.rb", None, "save_model", "rb.save"),
    ("cavityrb.rb", None, "load_model", "rb.load"),
)


def _lu_fill(args, result):
    lu = args[0]._lu
    return lu.L.nnz + lu.U.nnz


def _newton_iterations(args, result):
    return result.diagnostics["iterations"]


def _reduced_iterations(args, result):
    return result[2].get("iterations", 0)


# value recorded with a span, read from the call's arguments and result
SPAN_VALUES = {
    "linalg.lu_factor": _lu_fill,
    "hifi.newton_solve": _newton_iterations,
    "rb.solve_reduced": _reduced_iterations,
}

# per-layer metric -> (unit, how it is derived from the layer summary)
PER_LAYER = {
    "assembly.evaluate_count": ("count", "assembly.evaluate", "count"),
    "assembly.evaluate_s": ("s", "assembly.evaluate", "self_s"),
    "assembly.convection_count": ("count", "assembly.convection", "count"),
    "assembly.convection_s": ("s", "assembly.convection", "self_s"),
    "assembly.supg_count": ("count", "assembly.supg", "count"),
    "assembly.supg_s": ("s", "assembly.supg", "self_s"),
    "linalg.lu_factor_count": ("count", "linalg.lu_factor", "count"),
    "linalg.lu_factor_s": ("s", "linalg.lu_factor", "self_s"),
    "linalg.lu_fill_nnz": ("count", "linalg.lu_factor", "mean_value"),
    "linalg.lu_solve_s": ("s", "linalg.lu_solve", "self_s"),
    "linalg.mgs_s": ("s", "linalg.mgs", "self_s"),
    "hifi.stokes_solve_count": ("count", "hifi.stokes_solve", "count"),
    "hifi.stokes_solve_s": ("s", "hifi.stokes_solve", "self_s"),
    "hifi.newton_solve_count": ("count", "hifi.newton_solve", "count"),
    "hifi.newton_solve_s": ("s", "hifi.newton_solve", "self_s"),
    "hifi.newton_iterations": ("count", "hifi.newton_solve", "value"),
    "hifi.residual_count": ("count", "hifi.residual", "count"),
    "hifi.residual_s": ("s", "hifi.residual", "self_s"),
    "hifi.residual_reference_count": ("count", "hifi.residual_reference",
                                      "count"),
    "rb.indicator_count": ("count", "rb.indicator", "count"),
    "rb.indicator_s": ("s", "rb.indicator", "self_s"),
    "rb.build_count": ("count", "rb.build", "count"),
    "rb.build_s": ("s", "rb.build", "self_s"),
    "rb.supremizer_s": ("s", "rb.supremizer", "self_s"),
    "rb.truncate_count": ("count", "rb.truncate", "count"),
    "rb.truncate_s": ("s", "rb.truncate", "self_s"),
    "rb.with_option_us": ("us", "rb.with_option", "mean_us"),
    "rb.solve_reduced_count": ("count", "rb.solve_reduced", "count"),
    "rb.solve_reduced_s": ("s", "rb.solve_reduced", "self_s"),
    "rb.reduced_newton_iterations": ("count", "rb.solve_reduced", "value"),
    "rb.save_s": ("s", "rb.save", "self_s"),
    "rb.load_s": ("s", "rb.load", "self_s"),
}


class Tracer:
    """Context manager that wraps the TRACED functions and records spans."""

    def __init__(self, traced=TRACED):
        self.traced = traced
        # [id, layer, parent id or -1, thread, start, end, value]
        self.spans: list[list] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._restore: list[tuple] = []

    def _wrap(self, fn, layer: str):
        value_of = SPAN_VALUES.get(layer)
        spans, ids, local = self.spans, self._ids, self._local

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span = [next(ids), layer, stack[-1] if stack else -1,
                    threading.get_ident(), time.perf_counter(), 0.0, 0]
            stack.append(span[0])
            try:
                result = fn(*args, **kwargs)
            finally:
                span[5] = time.perf_counter()
                stack.pop()
                spans.append(span)
            if value_of is not None:
                span[6] = value_of(args, result)
            return result
        return traced

    def __enter__(self):
        for module_name, cls_name, attr, layer in self.traced:
            owner = importlib.import_module(module_name)
            if cls_name is not None:
                owner = getattr(owner, cls_name)
            original = (owner.__dict__[attr] if cls_name
                        else getattr(owner, attr))
            setattr(owner, attr, self._wrap(original, layer))
            self._restore.append((owner, attr, original))
        return self

    def __exit__(self, *exc):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)
        return False

    def layers(self) -> dict:
        """{layer: {count, total_s, self_s, value}} over all recorded spans."""
        child_s: dict[int, float] = {}
        for _, _, parent, _, t0, t1, _ in self.spans:
            if parent >= 0:
                child_s[parent] = child_s.get(parent, 0.0) + (t1 - t0)
        out: dict[str, dict] = {}
        for sid, layer, _, _, t0, t1, value in self.spans:
            agg = out.setdefault(layer, {"count": 0, "total_s": 0.0,
                                         "self_s": 0.0, "value": 0})
            agg["count"] += 1
            agg["total_s"] += t1 - t0
            agg["self_s"] += (t1 - t0) - child_s.get(sid, 0.0)
            agg["value"] += value
        return out

    def metrics(self, rounds: int = 1) -> dict:
        """Every PER_LAYER metric, per round of the benchmark pipeline.

        Counts, times and summed values are divided by ``rounds``; the
        two means (L+U fill per factorization, microseconds per
        ``with_option`` call) are not.  A layer the run never entered
        reads 0.
        """
        layers = self.layers()
        out = {}
        for name, (unit, layer, kind) in PER_LAYER.items():
            agg = layers.get(layer, {"count": 0, "self_s": 0.0, "value": 0})
            n = agg["count"]
            if kind == "mean_value":
                value = agg["value"] / n if n else 0.0
            elif kind == "mean_us":
                value = 1e6 * agg["self_s"] / n if n else 0.0
            else:
                value = agg[kind] / rounds
            out[name] = {"value": value, "unit": unit}
        return out

    def dump(self, path: str, extra: dict) -> None:
        """Write the spans (times in s from the first span) as JSON."""
        origin = min((s[4] for s in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({**extra,
                       "fields": ["id", "layer", "parent", "thread",
                                  "start_s", "end_s", "value"],
                       "spans": [[sid, layer, parent, tid,
                                  round(t0 - origin, 7), round(t1 - origin, 7),
                                  value]
                                 for sid, layer, parent, tid, t0, t1, value
                                 in self.spans]},
                      fh, separators=(",", ":"))
