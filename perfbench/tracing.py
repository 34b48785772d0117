"""Span recording around calls into curvswim, rebinding module attributes at run time.

Nothing under src/ is edited.  ``Tracer.install`` replaces the public callables
one curvswim module resolves from another (and the entry points the
benchmark itself calls) with timing wrappers, and ``Tracer.uninstall``
restores them.  A name missing from its module is skipped, so a refactor
that removes it reads as zero calls.

A span is (name, start, end, parent span, operation id); spans are kept in
flat arrays in memory and written once with ``Tracer.save``.  Self time of a
span is its duration minus the durations of its direct children; every span
name belongs to the layer named by its prefix.
"""

from __future__ import annotations

import dataclasses
import importlib
from array import array
from collections import defaultdict
from time import perf_counter

import numpy as np

from curvswim.errors import CurvswimError

# (module, attribute, span name, kind).  kind "call" wraps the callable;
# "field" also wraps the VectorField it returns as a control field;
# "killing" wraps every field of the KillingSet it returns.
PATCHES = [
    # entry points the benchmark calls
    ("curvswim.cli", "main", "cli.main", "call"),
    ("curvswim.integrator", "integrate_stroke", "integrator.integrate_stroke", "call"),
    ("curvswim.body", "balance", "body.balance", "call"),
    ("curvswim.body", "principal_axes", "body.principal_axes", "call"),
    ("curvswim.deformation", "project_gauge", "deformation.project_gauge", "call"),
    ("curvswim.deformation", "gauge_fixed_linear_deformation", "deformation.gauge_fixed", "field"),
    ("curvswim.holonomy", "holonomy_general", "holonomy.general", "call"),
    ("curvswim.holonomy", "holonomy_linear", "holonomy.linear", "call"),
    ("curvswim.holonomy", "holonomy_small_swimmer", "holonomy.small_swimmer", "call"),
    ("curvswim.scenarios", "baron_cat_report", "scenarios.baron_cat", "call"),
    # what cli resolves
    ("curvswim.cli", "integrate_stroke", "integrator.integrate_stroke", "call"),
    ("curvswim.cli", "holonomy_general", "holonomy.general", "call"),
    ("curvswim.cli", "project_gauge", "deformation.project_gauge", "call"),
    ("curvswim.cli", "gauge_residuals", "deformation.gauge_residuals", "call"),
    ("curvswim.cli", "parse_field_spec", "deformation.parse_field_spec", "field"),
    ("curvswim.cli", "balance", "body.balance", "call"),
    ("curvswim.cli", "principal_axes", "body.principal_axes", "call"),
    # what integrator resolves
    ("curvswim.integrator", "expm_frechet", "integrator.shape_flow", "call"),
    ("curvswim.integrator", "expm", "integrator.shape_flow", "call"),
    ("curvswim.integrator", "rigid_generator", "geometry.rigid_generator", "call"),
    ("curvswim.integrator", "killing_fields", "geometry.killing_eval", "killing"),
    # what holonomy resolves
    ("curvswim.holonomy", "killing_two_form", "geometry.two_form", "call"),
    ("curvswim.holonomy", "gauge_residuals", "deformation.gauge_residuals", "call"),
    ("curvswim.holonomy", "killing_gram", "deformation.killing_gram", "call"),
    ("curvswim.holonomy", "gauge_fixed_linear_deformation", "deformation.gauge_fixed", "field"),
    ("curvswim.holonomy", "killing_fields", "geometry.killing_eval", "killing"),
    # what deformation and body resolve
    ("curvswim.deformation", "scalar_product", "body.scalar_product", "call"),
    ("curvswim.deformation", "killing_gram", "deformation.killing_gram", "call"),
    ("curvswim.deformation", "killing_fields", "geometry.killing_eval", "killing"),
    ("curvswim.body", "scalar_product", "body.scalar_product", "call"),
    # what scenarios resolves
    ("curvswim.scenarios", "balance", "body.balance", "call"),
    ("curvswim.scenarios", "principal_axes", "body.principal_axes", "call"),
    ("curvswim.scenarios", "gauge_fixed_linear_deformation", "deformation.gauge_fixed", "field"),
    ("curvswim.scenarios", "holonomy_general", "holonomy.general", "call"),
]

CONTROL_FIELD = "fields.control_eval"
ROOT = "bench.op"
LAYERS = ("integrator", "geometry", "body", "deformation", "holonomy", "fields", "scenarios", "cli")


class Tracer:
    def __init__(self):
        self.name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.stack: list[list] = []      # [span index, start, child time]
        self.op_id = -1
        self.calls = defaultdict(int)
        self.total = defaultdict(float)  # inclusive seconds per span name
        self.self_time = defaultdict(float)
        self.errors = defaultdict(int)   # typed CurvswimErrors per layer
        self._saved: list[tuple] = []

    # -- spans -------------------------------------------------------------

    def _id(self, name: str) -> int:
        return self.name_ids.setdefault(name, len(self.name_ids))

    def wrap(self, name: str, fn):
        nid = self._id(name)
        layer = name.split(".", 1)[0]
        stack, names, starts, ends = self.stack, self.span_name, self.span_start, self.span_end
        parents, ops = self.span_parent, self.span_op

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1][0] if stack else -1)
            ops.append(self.op_id)
            ends.append(0.0)
            frame = [idx, 0.0, 0.0]
            stack.append(frame)
            frame[1] = start = perf_counter()
            starts.append(start)
            try:
                return fn(*args, **kwargs)
            except CurvswimError as exc:
                if not getattr(exc, "_perfbench_counted", False):
                    exc._perfbench_counted = True
                    self.errors[layer] += 1
                raise
            finally:
                end = perf_counter()
                stack.pop()
                ends[idx] = end
                dur = end - frame[1]
                self.calls[name] += 1
                self.total[name] += dur
                self.self_time[name] += dur - frame[2]
                if stack:
                    stack[-1][2] += dur

        return traced

    def field(self, f, name: str = CONTROL_FIELD):
        """The same VectorField with its evaluator timed under name."""
        return dataclasses.replace(f, func=self.wrap(name, f.func))

    def run_op(self, fn, *args):
        """fn(*args) as one operation: a new op id and a root span."""
        self.op_id += 1
        return self.wrap(ROOT, fn)(*args)

    # -- rebinding ---------------------------------------------------------

    def _wrapper(self, name: str, kind: str, fn):
        if kind == "call":
            return self.wrap(name, fn)
        if kind == "field":
            timed = self.wrap(name, fn)
            return lambda *a, **k: self.field(timed(*a, **k))

        def killing_fields(*a, **k):
            ks = fn(*a, **k)
            return dataclasses.replace(ks, fields=tuple(self.field(f, name) for f in ks.fields))

        return killing_fields

    def install(self):
        for module_name, attr, name, kind in PATCHES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                continue
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrapper(name, kind, original))

    def uninstall(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    # -- output ------------------------------------------------------------

    def save(self, path):
        names = sorted(self.name_ids, key=self.name_ids.get)
        np.savez(
            path,
            names=np.array(names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            op=np.frombuffer(self.span_op, dtype=np.int32),
        )

    def layer_self(self, layer: str, exclude=()) -> float:
        return sum(t for n, t in self.self_time.items()
                   if n.split(".", 1)[0] == layer and n not in exclude)
