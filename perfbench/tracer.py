"""Layer tracing from outside the program.

``Tracer.installed()`` replaces every public function of the traced waistlab
modules with a wrapper that records a span (name, start, end, parent span,
operation id) and, for a few functions, work counters. The wrapper is bound
in every ``waistlab.*`` namespace that holds the function, because modules
import each other's functions by name (``cone`` calls its own binding of
``norms.norm_eval``). Leaving the block restores the originals, so untraced
passes run the unmodified program.

Spans stay in memory; ``layer_metrics`` reduces them to per-layer numbers
and ``dump`` writes them out when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict

import numpy as np

LAYERS = ("norms", "cone", "bounds", "needles", "cli")

# Span record fields.
NAME, START, END, PARENT, OP, COUNTS = range(6)


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _norm_eval_counts(args, kwargs, result, parent_name):
    x = np.asarray(_arg(args, kwargs, 1, "x"))
    counts = {"points": x.size // x.shape[-1]}
    if parent_name == "cone.sample_conical":
        # The rejection sampler keeps the draws inside the unit ball.
        counts["inside"] = int(np.count_nonzero(np.asarray(result) <= 1.0))
    return counts


def _min_norm_distance_counts(args, kwargs, result, parent_name):
    upper = kwargs.get("upper", args[3] if len(args) > 3 else None)
    dist = np.asarray(result)
    hits = np.isfinite(dist) if upper is None else dist <= upper
    return {"queries": dist.shape[0], "hits": int(np.count_nonzero(hits))}


def _best_fiber_counts(args, kwargs, result, parent_name):
    grid = _arg(args, kwargs, 3, "z_grid")
    return {"empty": len(grid) - len(result[2])}


def _derived_density_counts(args, kwargs, result, parent_name):
    specs = _arg(args, kwargs, 0, "specs")
    budget = _arg(args, kwargs, 1, "sample_budget")
    return {"accepted": int(sum(result[1].accepted)),
            "drawn": len(specs) * int(budget)}


# Counters recorded at the layer boundary, keyed by span name.
HOOKS = {
    "norms.norm_eval": _norm_eval_counts,
    "cone.sample_conical": lambda a, kw, r, p: {"points": r.count},
    "cone.fiber_points": lambda a, kw, r, p: {"points": len(r)},
    "cone.min_norm_distance": _min_norm_distance_counts,
    "cone.best_fiber": _best_fiber_counts,
    "cli.emit_report": lambda a, kw, r, p: {"bytes": len(r)},
    "needles.derived_density_estimate": _derived_density_counts,
}


class Tracer:
    """Spans of the traced passes of one benchmark run."""

    def __init__(self):
        self.spans: list[list] = []
        self.op_id = None
        self._stack: list[int] = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            rec = [name, 0.0, 0.0, parent, self.op_id, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = time.perf_counter()
                stack.pop()
            if hook is not None:
                rec[COUNTS] = hook(args, kwargs, result,
                                   spans[parent][NAME] if parent >= 0 else None)
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"waistlab.{layer}")
            for name in mod.__all__:
                fn = getattr(mod, name)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    wrappers[fn] = self._wrap(f"{layer}.{name}", fn)
        patched = []
        for modname, mod in list(sys.modules.items()):
            if modname != "waistlab" and not modname.startswith("waistlab."):
                continue
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    setattr(mod, attr, wrappers[value])
                    patched.append((mod, attr, value))
        try:
            yield self
        finally:
            for mod, attr, value in patched:
                setattr(mod, attr, value)

    def dump(self, path) -> None:
        t0 = self.spans[0][START] if self.spans else 0.0
        rows = [[s[NAME], s[START] - t0, s[END] - t0, s[PARENT], s[OP], s[COUNTS]]
                for s in self.spans]
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op",
                                  "counts"], "spans": rows}, fh)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[list], passes: int) -> dict:
    """Per-layer numbers per traced pass.

    ``X.s`` is the inclusive time of the outermost spans named X, so a
    recursive call (a regularized norm evaluates its base norm through
    ``norm_eval``) is not counted twice; ``X.self_s`` is the time in X
    itself, net of every traced callee; ``.calls`` and ``.points`` count the
    outermost calls.
    """
    child_time = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child_time[s[PARENT]] += s[END] - s[START]
    total = defaultdict(float)
    self_s = defaultdict(float)
    calls = defaultdict(int)
    counts = defaultdict(int)
    rej_drawn = rej_inside = 0
    rejection = set()
    for i, s in enumerate(spans):
        name = s[NAME]
        self_s[name] += s[END] - s[START] - child_time[i]
        parent = s[PARENT]
        if name == "norms.radial_project" and parent >= 0 and \
                spans[parent][NAME] == "cone.sample_conical":
            rejection.add(parent)
        outermost = True
        while parent >= 0:
            if spans[parent][NAME] == name:
                outermost = False
                break
            parent = spans[parent][PARENT]
        if not outermost:
            continue
        total[name] += s[END] - s[START]
        calls[name] += 1
        for key, val in (s[COUNTS] or {}).items():
            counts[f"{name}.{key}"] += val
    for s in spans:
        if s[NAME] == "norms.norm_eval" and s[PARENT] in rejection:
            rej_drawn += s[COUNTS]["points"]
            rej_inside += s[COUNTS]["inside"]
    per = 1.0 / max(passes, 1)
    m = {
        "norms.norm_eval.calls": calls["norms.norm_eval"] * per,
        "norms.norm_eval.points": counts["norms.norm_eval.points"] * per,
        "norms.norm_eval.self_s": self_s["norms.norm_eval"] * per,
        "norms.modulus_curve.s": (total["norms.numeric_modulus_curve"]
                                  + total["norms.analytic_modulus_curve"]) * per,
        "norms.radial_project.s": total["norms.radial_project"] * per,
        "cone.sample_conical.s": total["cone.sample_conical"] * per,
        "cone.sample_conical.points": counts["cone.sample_conical.points"] * per,
        "cone.rejection_acceptance": _ratio(rej_inside, rej_drawn),
        "cone.fiber_points.s": total["cone.fiber_points"] * per,
        "cone.fiber_points.points": counts["cone.fiber_points.points"] * per,
        "cone.min_norm_distance.self_s": self_s["cone.min_norm_distance"] * per,
        "cone.min_norm_distance.queries":
            counts["cone.min_norm_distance.queries"] * per,
        "cone.tube_hit_ratio": _ratio(counts["cone.min_norm_distance.hits"],
                                      counts["cone.min_norm_distance.queries"]),
        "cone.best_fiber.s": total["cone.best_fiber"] * per,
        "cone.empty_fibers": counts["cone.best_fiber.empty"] * per,
        "cone.neighborhood_measure.s": total["cone.neighborhood_measure"] * per,
        "bounds.waist_lower_bound.calls": calls["bounds.waist_lower_bound"] * per,
        "bounds.waist_lower_bound.self_s":
            self_s["bounds.waist_lower_bound"] * per,
        "bounds.sine_integrals.s": total["bounds.sine_integrals"] * per,
        "bounds.sphere_tube_volume.calls":
            calls["bounds.sphere_tube_volume"] * per,
        "bounds.sphere_tube_volume.s": total["bounds.sphere_tube_volume"] * per,
        "bounds.bound_table.s": total["bounds.bound_table"] * per,
        "bounds.ratio_loglog_slope.s": total["bounds.ratio_loglog_slope"] * per,
        "needles.needle_suite.s": total["needles.needle_suite"] * per,
        "needles.random_arc_density.self_s":
            self_s["needles.random_arc_density"] * per,
        "needles.max_structure_check.s": total["needles.max_structure_check"] * per,
        "needles.decay_bound_check.s": total["needles.decay_bound_check"] * per,
        "needles.derived_density_estimate.s":
            total["needles.derived_density_estimate"] * per,
        "needles.lune_acceptance": _ratio(
            counts["needles.derived_density_estimate.accepted"],
            counts["needles.derived_density_estimate.drawn"]),
        "cli.run_experiment.s": total["cli.run_experiment"] * per,
        "cli.emit_report.s": total["cli.emit_report"] * per,
        "cli.report_bytes": counts["cli.emit_report.bytes"] * per,
    }
    m["self_s_total"] = sum(self_s.values()) * per
    return m
