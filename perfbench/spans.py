"""Span tracing around homoflow's layer boundaries, from outside the library.

:class:`Tracer` wraps public functions at the module attribute their caller
looks them up through (``cli.build_system`` as ``run_sweep`` sees it,
``transport.advect_times`` as ``solve_transport`` sees it, ...) and wraps the
``VectorField``/``ScalarField``/``Diffeo`` members of every system the library
builds.  Each wrapped call records one span ``[name, start, end, parent,
run_id, work]``; spans stay in memory until the run ends.  The patches exist
only inside :meth:`Tracer.installed`, so untraced calls run the library
unmodified.

``work`` is a count made at the boundary: points for field evaluations,
RK4 point-steps for integrations, spacetime nodes for quadratures, the chosen
resolution for ``effective_from_cell``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
from contextlib import contextmanager
from time import perf_counter

import numpy as np

from homoflow import cli, diagnostics, flow, transport

NAME, START, END, PARENT, RUN, WORK = range(6)

FIELD_MEMBERS = {
    "b": ("eval", "jacobian"),
    "sigma": ("eval",),
    "theta": ("eval",),
    "W": ("eval", "jacobian"),
}


def _points(x, dim: int) -> int:
    return int(np.asarray(x).size // dim)


def _rk4_steps(times, h: float) -> int:
    """Step count of flow.advect_times (and advect, for one time)."""
    steps = 0
    t_cur = 0.0
    for t in sorted((float(t) for t in times), key=abs):
        span = t - t_cur
        if span != 0.0:
            steps += max(1, int(math.ceil(abs(span) / h - 1e-12)))
        t_cur = t
    return steps


def _quad_nodes(quad, box, resolution=None) -> int:
    if resolution is None:
        resolution = quad.space_resolution(box.widths)
    res = np.broadcast_to(np.asarray(resolution), (box.dim,))
    return int(np.prod(res))


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.run_id = 0
        self._stack: list[int] = []
        self._batches: dict[int, set] = {}

    # -- recording ---------------------------------------------------------

    def wrap(self, name, fn, work_before=None, work_after=None):
        """``fn`` with a span per call.  ``name`` may be a function of the
        call arguments; ``work_before(args, kwargs)`` and
        ``work_after(result)`` give the span's work count."""
        def traced(*args, **kwargs):
            span = [name(args, kwargs) if callable(name) else name, 0.0, 0.0,
                    self._stack[-1] if self._stack else -1, self.run_id,
                    work_before(args, kwargs) if work_before else 0]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                self._stack.pop()
            if work_after is not None:
                span[WORK] = work_after(result)
            return result

        return traced

    def note_batch(self, field, x, times) -> None:
        """Remember one integration of a point batch, for the waste ratio."""
        digest = hashlib.blake2b(np.ascontiguousarray(x).tobytes(),
                                 digest_size=16).digest()
        key = (id(field), tuple(float(t) for t in np.atleast_1d(times)), digest)
        self._batches.setdefault(self.run_id, set()).add(key)

    def distinct_batches(self, run_id: int) -> int:
        return len(self._batches.get(run_id, ()))

    # -- wrapping library objects -------------------------------------------

    def _wrap_system(self, system):
        parts = {}
        for member, methods in FIELD_MEMBERS.items():
            obj = getattr(system, member)
            dim = obj.dim
            repl = {m: self.wrap(f"fields.{member}_{m}", getattr(obj, m),
                                 work_before=lambda a, k, d=dim: _points(a[0], d))
                    for m in methods}
            parts[member] = dataclasses.replace(obj, **repl)
        return dataclasses.replace(system, **parts)

    def _wrap_sampler(self, sampler):
        return dataclasses.replace(
            sampler, eval_times=self.wrap("transport.eval_times", sampler.eval_times))

    def _advect_times(self, fn):
        def work(args, kwargs):
            field, x0, times = args[:3]
            cfg = args[3] if len(args) > 3 else kwargs.get("cfg", flow.IntegratorConfig())
            self.note_batch(field, x0, times)
            return _points(x0, field.dim) * _rk4_steps(times, cfg.h)
        return self.wrap("flow.advect_times", fn, work_before=work)

    def _advect(self, fn):
        def name(args, kwargs):
            carry = args[4] if len(args) > 4 else kwargs.get("carry_jacobian", False)
            return "flow.advect.carry" if carry else "flow.advect.plain"

        def work(args, kwargs):
            field, x0, t_final = args[:3]
            cfg = args[3] if len(args) > 3 else kwargs.get("cfg", flow.IntegratorConfig())
            self.note_batch(field, x0, t_final)
            return _points(x0, field.dim) * _rk4_steps([t_final], cfg.h)
        return self.wrap(name, fn, work_before=work)

    def _patches(self):
        """(module, attribute, replacement) for every boundary traced."""
        def pairing_nodes(args, kwargs):
            phi, quad = args[-2], args[-1]
            return _quad_nodes(quad, phi.space_box) * quad.n_time

        def strong_nodes(args, kwargs):
            box, t_list, quad = args[3], args[4], args[5]
            res = kwargs.get("resolution", args[6] if len(args) > 6 else None)
            return _quad_nodes(quad, box, res) * len(t_list)

        def returns_system(name, fn):
            inner = self.wrap(name, fn)
            return lambda *a, **k: self._wrap_system(inner(*a, **k))

        def returns_sampler(name, fn):
            inner = self.wrap(name, fn)
            return lambda *a, **k: self._wrap_sampler(inner(*a, **k))

        w = self.wrap
        return [
            (cli, "parse_config", w("cli.parse_config", cli.parse_config)),
            (cli, "build_system", returns_system("cli.build_system", cli.build_system)),
            (cli, "build_coefficients", w("cli.build_coefficients", cli.build_coefficients)),
            (cli, "effective_from_cell", w("homogenize.effective_from_cell",
                                           cli.effective_from_cell,
                                           work_after=lambda c: int(c.resolution))),
            (cli, "solve_transport", returns_sampler("transport.solve_transport",
                                                     cli.solve_transport)),
            (cli, "solve_homogenized", returns_sampler("transport.solve_homogenized",
                                                       cli.solve_homogenized)),
            (cli, "convergence_sweep", w("diagnostics.convergence_sweep",
                                         cli.convergence_sweep)),
            (cli, "strong_l2_error", w("diagnostics.strong_l2_error",
                                       cli.strong_l2_error, work_before=strong_nodes)),
            (diagnostics, "solve_homogenized", returns_sampler(
                "transport.solve_homogenized", diagnostics.solve_homogenized)),
            (diagnostics, "weak_pairing", w("diagnostics.weak_pairing",
                                            diagnostics.weak_pairing,
                                            work_before=pairing_nodes)),
            (diagnostics, "density_pairing", w("diagnostics.density_pairing",
                                               diagnostics.density_pairing,
                                               work_before=pairing_nodes)),
            (diagnostics, "invariant_suite", w("diagnostics.invariant_suite",
                                               diagnostics.invariant_suite)),
            (transport, "advect_times", self._advect_times(transport.advect_times)),
            (transport, "advect", self._advect(transport.advect)),
            (flow, "advect", self._advect(flow.advect)),
            (flow, "dynamic_flow_family", returns_system("flow.dynamic_flow_family",
                                                         flow.dynamic_flow_family)),
        ]

    @contextmanager
    def installed(self, run_id: int):
        """Patch the library for one traced call; restore it afterwards."""
        self.run_id = run_id
        patches = self._patches()
        saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in patches]
        for mod, attr, repl in patches:
            setattr(mod, attr, repl)
        try:
            yield
        finally:
            for mod, attr, orig in saved:
                setattr(mod, attr, orig)


# ---------------------------------------------------------------------------
# per-layer metrics of one traced call
# ---------------------------------------------------------------------------

# span name -> the metrics read straight from its spans
DIRECT = {
    "fields.b_eval": ("calls", "points", "busy_s"),
    **{f"fields.{f}": ("calls", "points", "busy_s")
       for f in ("sigma_eval", "W_eval", "W_jacobian", "b_jacobian", "theta_eval")},
    "flow.advect_times": ("calls", "busy_s", "self_s"),
    "flow.advect.carry": ("calls", "busy_s"),
    "flow.advect.plain": ("calls", "busy_s"),
    "transport.eval_times": ("calls", "busy_s", "self_s"),
    **{f"diagnostics.{d}": ("calls", "busy_s", "self_s")
       for d in ("weak_pairing", "density_pairing", "strong_l2_error", "invariant_suite")},
    "homogenize.effective_from_cell": ("busy_s", "resolution"),
    **{f"cli.{c}": ("busy_s",) for c in ("parse_config", "build_system", "build_coefficients")},
}
QUADRATURES = ("diagnostics.weak_pairing", "diagnostics.density_pairing",
               "diagnostics.strong_l2_error")
INTEGRATIONS = ("flow.advect_times", "flow.advect.carry", "flow.advect.plain")
# work counters, which must repeat exactly from one traced call to the next
COUNTERS = ("flow.point_steps", "diagnostics.quad_nodes")
COUNTER_SUFFIXES = (".calls", ".points", ".resolution")


def is_counter(name: str) -> bool:
    return name in COUNTERS or name.endswith(COUNTER_SUFFIXES)


def layer_metrics(tracer: Tracer, run_id: int, wall_s: float) -> dict[str, float]:
    """Per-layer metrics of the spans of one traced call, by metric name.

    ``busy_s`` (and the work count) sums a name's outermost spans, those with
    no ancestor of the same name; ``self_s`` sums each span's duration minus
    the durations of its children.
    """
    spans = [(i, s) for i, s in enumerate(tracer.spans) if s[RUN] == run_id]
    child: dict[int, float] = {}
    for _, s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] = child.get(s[PARENT], 0.0) + s[END] - s[START]

    def has_ancestor(s, pred) -> bool:
        p = s[PARENT]
        while p >= 0:
            if pred(tracer.spans[p][NAME]):
                return True
            p = tracer.spans[p][PARENT]
        return False

    def layer_busy(*prefixes) -> float:
        def inside(name):
            return name.startswith(prefixes)
        return sum(s[END] - s[START] for _, s in spans
                   if inside(s[NAME]) and not has_ancestor(s, inside))

    stats: dict[str, dict] = {}
    for i, s in spans:
        st = stats.setdefault(s[NAME], {"calls": 0, "busy_s": 0.0, "self_s": 0.0,
                                        "work": 0, "durs": []})
        dur = s[END] - s[START]
        st["calls"] += 1
        st["self_s"] += dur - child.get(i, 0.0)
        st["durs"].append(dur)
        if not has_ancestor(s, lambda n, own=s[NAME]: n == own):
            st["busy_s"] += dur
            st["work"] += s[WORK]

    def get(name, key):
        key = "work" if key in ("points", "resolution") else key
        return stats.get(name, {}).get(key, 0)

    out = {f"{name}.{key}": get(name, key)
           for name, keys in DIRECT.items() for key in keys}
    b_points = get("fields.b_eval", "points")
    b_durs = get("fields.b_eval", "durs") or [0.0]
    point_steps = sum(get(n, "work") for n in INTEGRATIONS)
    flow_busy = layer_busy("flow.advect")
    batches = tracer.distinct_batches(run_id)
    out.update({
        "fields.b_eval.ns_per_point":
            get("fields.b_eval", "busy_s") / b_points * 1e9 if b_points else 0.0,
        "fields.b_eval.p50_us": float(np.percentile(b_durs, 50)) * 1e6,
        "fields.b_eval.p99_us": float(np.percentile(b_durs, 99)) * 1e6,
        "flow.point_steps": point_steps,
        "flow.point_steps_per_s": point_steps / flow_busy if flow_busy else 0.0,
        "flow.integrations_per_batch":
            sum(get(n, "calls") for n in INTEGRATIONS) / batches if batches else 0.0,
        "diagnostics.quad_nodes": sum(get(n, "work") for n in QUADRATURES),
        "trace.flow_fields_share": layer_busy("flow.", "fields.") / wall_s,
    })
    return out
