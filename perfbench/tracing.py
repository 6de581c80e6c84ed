"""Span tracing of foldatlas, installed from outside the package.

``Tracer.install`` replaces every public module-level function of the traced
modules, in every foldatlas module namespace that binds it (``cli`` imports
``return_map_analysis`` by name, for example), with a wrapper that records a
span: name, start, end, parent span and item id.  It also wraps
``Poly3.compiled`` and the compiling branch of ``VectorField3.compiled``, and
the evaluators the latter returns, so that field evaluations are counted
exactly.  Nothing in the package source is edited; ``uninstall`` puts every
original binding back.

Spans stay in memory until ``write_spans``; ``layer_metrics`` reduces them
to the per-layer metrics documented in this directory's README.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import sys
import time

import numpy as np

TRACED_MODULES = ("algebra", "system", "sigma", "sliding", "foldfold", "integrator", "cli")

# Per-call means are in us or ms; per-item figures say so in the unit.
LAYER_UNITS = {
    "integrator.flights": "count/item",
    "integrator.flights_hit_frac": "ratio",
    "integrator.flight_us_p50": "us",
    "integrator.field_evals": "count/item",
    "integrator.field_evals_per_flight": "count/flight",
    "integrator.fold_map_self_ms": "ms",
    "integrator.fold_map_failures": "count",
    "integrator.return_map_ms": "ms",
    "integrator.jacobian_ms": "ms",
    "integrator.event_residual_max": "abs_z",
    "integrator.trajectory_ms": "ms",
    "integrator.segments": "count/item",
    "integrator.sliding_segments": "count/item",
    "integrator.samples": "count/item",
    "algebra.compiles": "count/item",
    "algebra.compile_ms": "ms/item",
    "algebra.lie_derivative_calls": "count/item",
    "algebra.lie_derivative_ms": "ms/item",
    "system.build_normal_form_us": "us",
    "system.load_system_us": "us",
    "sigma.classify_point_us": "us",
    "sigma.tangency_type_us": "us",
    "foldfold.return_map_analysis_us": "us",
    "foldfold.return_map_analysis_calls": "count/item",
    "foldfold.report_us": "us",
    "foldfold.report_calls": "count/item",
    "foldfold.normal_parameters_us": "us",
    "foldfold.normal_parameters_calls": "count/item",
    "sliding.region_class_us": "us",
    "sliding.region_class_calls": "count/item",
    "cli.run_sweep_ms": "ms",
    "cli.sweep_self_ms": "ms",
    "trace.overhead_frac": "ratio",
}
# Module totals: calls of a module's traced functions and their self time.
LAYER_UNITS.update(
    {f"{m}.{k}": u for m in TRACED_MODULES for k, u in (("calls", "count/item"), ("self_ms", "ms/item"))}
)


class Tracer:
    def __init__(self):
        self.names = []
        self.parents = []
        self.items = []
        self.starts = []
        self.ends = []
        self.evals_at_start = []
        self.evals_at_end = []
        self.raised = []
        self.current = -1
        self.item = -1
        self.field_evals = 0
        self.flight_hits = 0
        self.event_residual_max = 0.0
        self.segments = 0
        self.sliding_segments = 0
        self.samples = 0
        self.module_of = {"Poly3.compiled": "algebra", "VectorField3.compiled": "algebra"}
        self._restore = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, name, fn, on_result=None):
        names, parents, items = self.names, self.parents, self.items
        starts, ends, ev0, ev1, raised = (
            self.starts, self.ends, self.evals_at_start, self.evals_at_end, self.raised,
        )
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(names)
            names.append(name)
            parents.append(tracer.current)
            items.append(tracer.item)
            ends.append(0.0)
            ev1.append(0)
            raised.append(False)
            ev0.append(tracer.field_evals)
            tracer.current = sid
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                raised[sid] = True
                raise
            finally:
                ends[sid] = clock()
                ev1[sid] = tracer.field_evals
                tracer.current = parents[sid]
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def _counted(self, fn):
        tracer = self

        def evaluator(x, y, z):
            tracer.field_evals += 1
            return fn(x, y, z)

        return evaluator

    def _on_flight(self, res):
        if res.ok():
            self.flight_hits += 1
            self.event_residual_max = max(self.event_residual_max, abs(res.point[2]))

    def _on_trajectory(self, traj):
        for seg in traj.segments:
            self.segments += 1
            self.samples += len(seg.times)
            if seg.mode.value == "sliding":
                self.sliding_segments += 1
            elif seg.terminal.value == "mode-switch":
                # A flow segment that switched mode ended on the plane.
                self.event_residual_max = max(
                    self.event_residual_max, abs(float(seg.points[-1][2]))
                )

    # -- installation ------------------------------------------------------

    def install(self):
        """Wrap the traced names in every loaded foldatlas module."""
        import foldatlas
        from foldatlas import algebra

        namespaces = [foldatlas] + [
            m for n, m in sorted(sys.modules.items()) if n.startswith("foldatlas.")
        ]
        hooks = {
            "integrate_to_sigma": self._on_flight,
            "filippov_trajectory": self._on_trajectory,
        }
        for short in TRACED_MODULES:
            mod = sys.modules[f"foldatlas.{short}"]
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != mod.__name__:
                    continue
                wrapper = self._wrap(attr, fn, hooks.get(attr))
                self.module_of[attr] = short
                for ns in namespaces:
                    for bound, value in list(vars(ns).items()):
                        if value is fn:
                            self._restore.append((ns, bound, fn))
                            setattr(ns, bound, wrapper)

        poly_compiled = algebra.Poly3.compiled
        field_compiled = algebra.VectorField3.compiled
        compile_poly = self._wrap("Poly3.compiled", poly_compiled)
        compile_field = self._wrap("VectorField3.compiled", field_compiled)
        counted = self._counted

        def vector_field_compiled(field):
            fn = field._fn if field._fn is not None else compile_field(field)
            return counted(fn)

        self._restore.append((algebra.Poly3, "compiled", poly_compiled))
        self._restore.append((algebra.VectorField3, "compiled", field_compiled))
        algebra.Poly3.compiled = compile_poly
        algebra.VectorField3.compiled = vector_field_compiled

    def uninstall(self):
        for ns, attr, original in reversed(self._restore):
            setattr(ns, attr, original)
        self._restore.clear()

    def unwrapped_bindings(self):
        """Module bindings that still hold an original traced function."""
        originals = {id(orig) for _, _, orig in self._restore}
        return [
            f"{n}.{attr}"
            for n, ns in sorted(sys.modules.items())
            if n == "foldatlas" or n.startswith("foldatlas.")
            for attr, value in vars(ns).items()
            if id(value) in originals
        ]

    # -- reduction ---------------------------------------------------------

    def top_level_counts(self):
        counts = {}
        for name, parent in zip(self.names, self.parents):
            if parent == -1:
                counts[name] = counts.get(name, 0) + 1
        return counts

    def self_times(self):
        """Span duration minus the time covered by its direct children."""
        dur = np.array(self.ends) - np.array(self.starts)
        child = np.zeros_like(dur)
        parents = np.array(self.parents, dtype=np.int64)
        has_parent = parents >= 0
        np.add.at(child, parents[has_parent], dur[has_parent])
        return dur, dur - child

    def write_spans(self, path):
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("span,name,parent,item,start_s,end_s,field_evals,raised\n")
            for sid, row in enumerate(
                zip(self.names, self.parents, self.items, self.starts, self.ends,
                    self.evals_at_start, self.evals_at_end, self.raised)
            ):
                name, parent, item, t0, t1, e0, e1, err = row
                fh.write(f"{sid},{name},{parent},{item},{t0!r},{t1!r},{e1 - e0},{int(err)}\n")

    def layer_metrics(self, n_items, time_scale=1.0):
        """Per-layer metrics over a traced pass of ``n_items`` items, with
        every time multiplied by ``time_scale``."""
        dur, self_t = self.self_times()
        dur, self_t = dur * time_scale, self_t * time_scale
        by_name = {}
        for sid, name in enumerate(self.names):
            by_name.setdefault(name, []).append(sid)

        def sel(name):
            return np.array(by_name.get(name, []), dtype=np.int64)

        def calls(name):
            return len(by_name.get(name, []))

        def mean(values, scale):
            return float(np.mean(values)) * scale if len(values) else 0.0

        def busy(name, scale):
            return mean(dur[sel(name)], scale)

        per_item = 1.0 / max(n_items, 1)
        flights = sel("integrate_to_sigma")
        fold_maps = sel("fold_map_numeric")
        flight_evals = sum(self.evals_at_end[i] - self.evals_at_start[i] for i in flights)
        compiles = np.concatenate([sel("Poly3.compiled"), sel("VectorField3.compiled")])
        module_self = {}
        for name, ids in by_name.items():
            mod = self.module_of[name]
            calls_, self_s = module_self.get(mod, (0, 0.0))
            module_self[mod] = (calls_ + len(ids), self_s + float(np.sum(self_t[ids])))
        per_module = {}
        for mod in TRACED_MODULES:
            calls_, self_s = module_self.get(mod, (0, 0.0))
            per_module[f"{mod}.calls"] = calls_ * per_item
            per_module[f"{mod}.self_ms"] = self_s * 1e3 * per_item
        return {
            "integrator.flights": len(flights) * per_item,
            "integrator.flights_hit_frac": self.flight_hits / len(flights) if len(flights) else 0.0,
            "integrator.flight_us_p50": float(np.median(dur[flights])) * 1e6 if len(flights) else 0.0,
            "integrator.field_evals": self.field_evals * per_item,
            "integrator.field_evals_per_flight": flight_evals / len(flights) if len(flights) else 0.0,
            "integrator.fold_map_self_ms": mean(self_t[fold_maps], 1e3),
            "integrator.fold_map_failures": int(sum(self.raised[i] for i in fold_maps)),
            "integrator.return_map_ms": busy("return_map_numeric", 1e3),
            "integrator.jacobian_ms": busy("jacobian_numeric", 1e3),
            "integrator.event_residual_max": self.event_residual_max,
            "integrator.trajectory_ms": busy("filippov_trajectory", 1e3),
            "integrator.segments": self.segments * per_item,
            "integrator.sliding_segments": self.sliding_segments * per_item,
            "integrator.samples": self.samples * per_item,
            "algebra.compiles": len(compiles) * per_item,
            "algebra.compile_ms": float(np.sum(dur[compiles])) * 1e3 * per_item,
            "algebra.lie_derivative_calls": calls("lie_derivative") * per_item,
            "algebra.lie_derivative_ms": float(np.sum(dur[sel("lie_derivative")])) * 1e3 * per_item,
            "system.build_normal_form_us": busy("build_normal_form", 1e6),
            "system.load_system_us": busy("load_system", 1e6),
            "sigma.classify_point_us": busy("classify_point", 1e6),
            "sigma.tangency_type_us": busy("tangency_type", 1e6),
            "foldfold.return_map_analysis_us": busy("return_map_analysis", 1e6),
            "foldfold.return_map_analysis_calls": calls("return_map_analysis") * per_item,
            "foldfold.report_us": busy("report_from_params", 1e6),
            "foldfold.report_calls": calls("report_from_params") * per_item,
            "foldfold.normal_parameters_us": busy("normal_parameters", 1e6),
            "foldfold.normal_parameters_calls": calls("normal_parameters") * per_item,
            "sliding.region_class_us": busy("sliding_region_class", 1e6),
            "sliding.region_class_calls": calls("sliding_region_class") * per_item,
            "cli.run_sweep_ms": busy("run_sweep", 1e3),
            "cli.sweep_self_ms": mean(self_t[sel("run_sweep")], 1e3),
            **per_module,
        }
