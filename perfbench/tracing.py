"""Outside-in span recorder for the benchmark's traced run.

The recorder wraps the public functions of the holeflow modules from the
benchmark's side: nothing inside ``src/`` changes.  Modules import names
with ``from .x import y``, so a wrapper is bound in every module namespace
that holds the original function object (that is where the call looks it
up); methods are wrapped on their class.  Each call becomes a span
``[name, start, end, parent, value]``, kept in memory and written out once
at the end; ``value`` is an exact counter read from the call's arguments or
output.  Wrappers only time and count: they pass arguments and results
through unchanged, so traced results equal untraced ones bitwise.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import math
import sys
import time

import numpy as np

from holeflow.quadrature import simplex_rule


@functools.lru_cache(maxsize=None)
def _points_per_face(surface_dim, quad_order, subdiv):
    return len(simplex_rule(surface_dim, quad_order, subdiv)[1])


# Counter hooks: hook(fn, args, kwargs, out) -> the span's exact counter.

def _evolve_counts(fn, args, kwargs, traj):
    return len(traj.ledger), traj.snapshots[-1].num_faces


def _remesh_delta(fn, args, kwargs, out):
    return out[1]


def _num_faces(fn, args, kwargs, out):
    return args[0].num_faces


def _series_terms(fn, args, kwargs, out):
    return int(np.size(args[0]))


def _quad_evals(fn, args, kwargs, out):
    """Faces x quadrature points per face of one quadrature integral."""
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    a = bound.arguments
    v = a["v"]
    return v.num_faces * _points_per_face(v.surface_dim, a["quad_order"],
                                          a["subdiv"])


def _faces_in_support(fn, args, kwargs, out):
    """Counter hook on dissipation_check(v, cfg, t): faces meeting |Tx| < R(t).

    A face meets the cutoff support when the distance from the origin to its
    projection onto T is below R(t): zero when the origin lies inside the
    projected triangle, else the nearest of its three edges.
    """
    v, cfg, t = args[:3]
    p = cfg.t_plane.apply(v.face_corners())
    a, b, c = p[:, 0], p[:, 1], p[:, 2]

    def seg_dist(s, e):
        d = e - s
        dd = np.sum(d * d, axis=1)
        u = np.clip(-np.sum(s * d, axis=1) / np.where(dd > 0, dd, 1.0),
                    0.0, 1.0)
        return np.linalg.norm(s + u[:, None] * d, axis=1)

    n = np.cross(b - a, c - a)
    inside = ((np.linalg.norm(n, axis=1) > 0)
              & (np.sum(n * np.cross(b - a, -a), axis=1) >= 0)
              & (np.sum(n * np.cross(c - b, -b), axis=1) >= 0)
              & (np.sum(n * np.cross(a - c, -c), axis=1) >= 0))
    dist = np.where(inside, 0.0, np.minimum(np.minimum(seg_dist(a, b),
                                                       seg_dist(b, c)),
                                            seg_dist(c, a)))
    return int(np.sum(dist < cfg.radius_at(t))), v.num_faces


# (module, attribute, span name, counter hook or None).
# "Class.method" attributes are wrapped on the class.
TARGETS = (
    ("holeflow.fixtures", "make_fixture", "fixtures.make_fixture", None),
    ("holeflow.nucleation", "nucleate", "nucleation.nucleate", None),
    ("holeflow.nucleation", "verify_nucleation", "nucleation.verify", None),
    ("holeflow.flow", "evolve", "flow.evolve", _evolve_counts),
    ("holeflow.remesh", "remesh", "remesh.remesh", _remesh_delta),
    ("holeflow.varifold", "mean_curvature", "varifold.mean_curvature",
     _num_faces),
    ("holeflow.varifold", "vertex_masses", "varifold.vertex_masses", None),
    ("holeflow.varifold", "DiscreteVarifold.__post_init__",
     "varifold.construct", None),
    ("holeflow.varifold", "DiscreteVarifold.min_edge_length",
     "varifold.min_edge_length", None),
    ("holeflow.varifold", "DiscreteVarifold.median_edge_length",
     "varifold.median_edge_length", None),
    ("holeflow.varifold", "DiscreteVarifold.face_altitudes",
     "varifold.face_altitudes", None),
    ("holeflow.varifold", "DiscreteVarifold.quad_points",
     "varifold.quad_points", None),
    ("holeflow.varifold", "weight_measure", "varifold.weight_measure",
     _quad_evals),
    ("holeflow.varifold", "weighted_first_variation",
     "varifold.first_variation", _quad_evals),
    ("holeflow.varifold", "weighted_first_variation_perp",
     "varifold.first_variation_perp", _quad_evals),
    ("holeflow.varifold", "interpolate_vertex_field", "varifold.interpolate",
     None),
    ("holeflow.varifold", "density_ratio", "varifold.density_ratio", None),
    ("holeflow.estimates", "expanding_holes_run",
     "estimates.expanding_holes_run", None),
    ("holeflow.estimates", "dissipation_check", "estimates.dissipation_check",
     _faces_in_support),
    ("holeflow.estimates", "height_excess_sq", "estimates.height_excess",
     None),
    ("holeflow.estimates", "curvature_l2_sq", "estimates.curvature_l2",
     _quad_evals),
    ("holeflow.estimates", "slab_weighted_mass", "estimates.slab_mass", None),
    ("holeflow.estimates", "gaussian_density_sup", "estimates.density_sup",
     None),
    ("holeflow.kernels", "cylindrical_cutoff", "kernels.cutoff", None),
    ("holeflow.kernels", "cylindrical_cutoff_gradient",
     "kernels.cutoff_gradient", None),
    ("holeflow.geom", "Plane.tangential_norm", "geom.tangential_norm", None),
    ("holeflow.geom", "Plane.normal_norm", "geom.normal_norm", None),
    ("holeflow.iteration", "orchestrate", "iteration.orchestrate", None),
    ("holeflow.iteration", "density_floor_check", "iteration.density_floor",
     None),
    ("holeflow.iteration", "tail_sum", "iteration.tail_sum", None),
    ("holeflow.iteration", "choose_tail_start", "iteration.choose_tail_start",
     None),
    ("holeflow.iteration", "empty_spot_scale_log", "iteration.empty_spot",
     None),
    ("holeflow.iteration", "series_term", "iteration.series_term",
     _series_terms),
)

QUAD_INTEGRALS = ("varifold.weight_measure", "varifold.first_variation",
                  "varifold.first_variation_perp", "estimates.curvature_l2")

# Counters that must repeat exactly between two runs on the same seed.
EXACT_COUNTERS = ("flow.steps", "flow.face_steps", "remesh.calls",
                  "remesh.mass_delta", "remesh.faces_final",
                  "varifold.quad_evals", "estimates.support_face_frac",
                  "iteration.series_terms")


class SpanRecorder:
    """Records one span per wrapped call while ``patched()`` is active."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def _wrap(self, name, fn, hook):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, clock(), 0.0, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if hook is not None:
                span[4] = hook(fn, args, kwargs, out)
            return out

        return traced

    @contextlib.contextmanager
    def patched(self, extra_modules=()):
        """Install the wrappers for the duration of the block."""
        namespaces = [m for n, m in sorted(sys.modules.items())
                      if n == "holeflow" or n.startswith("holeflow.")]
        namespaces += list(extra_modules)
        saved = []

        def rebind(owner, key, value):
            saved.append((owner, key, getattr(owner, key)))
            setattr(owner, key, value)

        try:
            for module_name, attr, span_name, hook in TARGETS:
                owner = sys.modules[module_name]
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(owner, cls_name)
                    rebind(cls, meth,
                           self._wrap(span_name, cls.__dict__[meth], hook))
                    continue
                fn = getattr(owner, attr)
                wrapper = self._wrap(span_name, fn, hook)
                for ns in namespaces:
                    for key, val in list(vars(ns).items()):
                        if val is fn:
                            rebind(ns, key, wrapper)
            yield self
        finally:
            for owner, key, original in reversed(saved):
                setattr(owner, key, original)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "value"],
                       "spans": self.spans}, fh)


def _self_times(spans):
    """Duration minus the part of the span that its child spans cover."""
    children = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s[3] >= 0:
            children[s[3]].append(i)
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0.0, s[1]
        for c in sorted(children[i], key=lambda j: spans[j][1]):
            lo, hi = max(spans[c][1], reach), min(spans[c][2], s[2])
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((s[2] - s[1]) - covered)
    return out


def _percentile(values, q) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def layer_metrics(spans) -> dict:
    """Per-layer metrics of one traced run (0 for layers that did not run)."""
    by_name = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s[0], []).append(i)

    def outermost(name):
        # a span nested in a span of the same name is already counted
        for i in by_name.get(name, ()):
            p = spans[i][3]
            while p >= 0 and spans[p][0] != name:
                p = spans[p][3]
            if p < 0:
                yield i

    def busy(*names):
        return math.fsum(spans[i][2] - spans[i][1]
                         for n in names for i in outermost(n))

    def calls(*names):
        return sum(len(by_name.get(n, ())) for n in names)

    def values(name):
        return [spans[i][4] for i in by_name.get(name, ())
                if spans[i][4] is not None]

    def inside(i, name):
        p = spans[i][3]
        while p >= 0:
            if spans[p][0] == name:
                return p
            p = spans[p][3]
        return -1

    self_t = _self_times(spans)
    evolves = values("flow.evolve")
    steps = sum(n for n, _ in evolves)
    evolve_s = busy("flow.evolve")

    step_ms, face_steps, last = [], 0, {}
    for i in by_name.get("varifold.mean_curvature", ()):
        owner = inside(i, "flow.evolve")
        if owner < 0:
            continue
        face_steps += spans[i][4] or 0
        if owner in last:
            step_ms.append(1e3 * (spans[i][1] - last[owner]))
        last[owner] = spans[i][1]

    snapshot_ms = [1e3 * (spans[i][2] - spans[i][1])
                   for i in by_name.get("estimates.dissipation_check", ())]
    support = values("estimates.dissipation_check")
    support_faces = sum(s for s, _ in support)
    checked_faces = sum(n for _, n in support)

    return {
        "flow.evolve_s": evolve_s,
        "flow.self_s": math.fsum(self_t[i] for i in outermost("flow.evolve")),
        "flow.steps": steps,
        "flow.steps_per_s": steps / evolve_s if evolve_s > 0 else 0.0,
        "flow.face_steps": face_steps,
        "flow.step_ms_p50": _percentile(step_ms, 50),
        "flow.step_ms_p99": _percentile(step_ms, 99),
        "varifold.mean_curvature_s": busy("varifold.mean_curvature"),
        "varifold.mean_curvature_calls": calls("varifold.mean_curvature"),
        "varifold.vertex_masses_s": busy("varifold.vertex_masses"),
        "varifold.construct_s": busy("varifold.construct"),
        "varifold.construct_calls": calls("varifold.construct"),
        "varifold.edge_stats_s": busy("varifold.min_edge_length",
                                      "varifold.median_edge_length",
                                      "varifold.face_altitudes"),
        "varifold.edge_stats_calls": calls("varifold.min_edge_length",
                                           "varifold.median_edge_length",
                                           "varifold.face_altitudes"),
        "remesh.s": busy("remesh.remesh"),
        "remesh.calls": calls("remesh.remesh"),
        "remesh.mass_delta": math.fsum(values("remesh.remesh")),
        "remesh.faces_final": evolves[-1][1] if evolves else 0,
        "varifold.quad_points_s": busy("varifold.quad_points"),
        "varifold.weight_measure_s": busy("varifold.weight_measure"),
        "varifold.weight_measure_calls": calls("varifold.weight_measure"),
        "varifold.first_variation_perp_s":
            busy("varifold.first_variation_perp"),
        "varifold.interpolate_s": busy("varifold.interpolate"),
        "varifold.quad_evals": sum(v for n in QUAD_INTEGRALS
                                   for v in values(n)),
        "varifold.density_ratio_s": busy("varifold.density_ratio"),
        "varifold.density_ratio_calls": calls("varifold.density_ratio"),
        "estimates.dissipation_check_s": busy("estimates.dissipation_check"),
        "estimates.dissipation_check_calls":
            calls("estimates.dissipation_check"),
        "estimates.snapshot_ms_p50": _percentile(snapshot_ms, 50),
        "estimates.snapshot_ms_p90": _percentile(snapshot_ms, 90),
        "estimates.height_excess_s": busy("estimates.height_excess"),
        "estimates.curvature_l2_s": busy("estimates.curvature_l2"),
        "estimates.slab_mass_s": busy("estimates.slab_mass"),
        "estimates.density_sup_s": busy("estimates.density_sup"),
        "estimates.support_face_frac": (support_faces / checked_faces
                                        if checked_faces else 0.0),
        "kernels.cutoff_s": busy("kernels.cutoff"),
        "kernels.cutoff_gradient_s": busy("kernels.cutoff_gradient"),
        "kernels.cutoff_calls": calls("kernels.cutoff"),
        "geom.plane_norm_s": busy("geom.tangential_norm", "geom.normal_norm"),
        "nucleation.nucleate_s": busy("nucleation.nucleate"),
        "nucleation.verify_s": busy("nucleation.verify"),
        "fixtures.make_fixture_s": busy("fixtures.make_fixture"),
        "iteration.orchestrate_s": busy("iteration.orchestrate"),
        "iteration.density_floor_s": busy("iteration.density_floor"),
        "iteration.tail_sum_s": busy("iteration.tail_sum"),
        "iteration.tail_sum_calls": calls("iteration.tail_sum"),
        "iteration.choose_tail_start_s": busy("iteration.choose_tail_start"),
        "iteration.empty_spot_s": busy("iteration.empty_spot"),
        "iteration.series_terms": sum(values("iteration.series_term")),
    }
