"""Per-layer spans around grassgeo's public functions, installed from outside.

`Tracer.install()` replaces each traced function by a wrapper in every
grassgeo module that binds it (a `from .x import f` binding included),
and wraps `Matrix.rref` and `Matrix.det` on their class.  Each call is a
span; a span's self time is its duration minus the time of the spans
nested in it.  Counts and self times add up over the run; `metrics`
divides them by the number of passes.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time

TRACED = {
    "associated": ("sample_associated", "associated_tangent_pushforward", "associated_conormal", "chow_hurwitz_ideal"),
    "projvar": ("dual_variety", "sample_smooth_point"),
    "groebner": ("buchberger", "eliminate", "normal_form"),
    "hilbert": ("hilbert_dim_degree",),
    "isoclass": ("classify", "univariate_roots", "affine_points_zero_dim"),
    "contact": ("sample_contact_line", "verify_contact_theorem"),
    "osc": ("osculating_space", "osc_tangent_hom"),
    "grassmann": ("trace_annihilator", "adapted_basis"),
    "cli": ("main",),
}
SCALAR_KINDS = ("fp", "q", "jet")
# scalar values kept per kind for the multiplication kernels
KERNEL_VALUES = 256


def span_names():
    names = ["%s.%s" % (mod, fn) for mod, fns in TRACED.items() for fn in fns]
    return names + ["linalg.rref.%s" % kind for kind in SCALAR_KINDS] + ["linalg.det"]


def metric_names():
    """Every per-layer metric name with its unit, in report order."""
    out = []
    for name in span_names():
        out += [(name + ".calls", "count"), (name + ".self_s", "s")]
        if name.startswith("linalg.rref."):
            out.append((name + ".cells", "count"))
    out += [("groebner.buchberger.basis_len", "count"), ("isoclass.univariate_roots.degree_sum", "count")]
    out += [("fields.fp_mul_ns", "ns"), ("fields.q_mul_ns", "ns"), ("jets.mul_ns", "ns")]
    return out


class Tracer:
    def __init__(self):
        self.calls = dict.fromkeys(span_names(), 0)
        self.self_s = dict.fromkeys(span_names(), 0.0)
        self.counters = {"groebner.buchberger.basis_len": 0, "isoclass.univariate_roots.degree_sum": 0}
        self.counters.update({"linalg.rref.%s.cells" % k: 0 for k in SCALAR_KINDS})
        self.values = {kind: [] for kind in SCALAR_KINDS}
        self.stack = []  # [name, start, nested time, span id]
        self.spans = []  # (id, parent id, name, start, end) while recording
        self.recording = False

    # -- spans -----------------------------------------------------------
    def _enter(self, name):
        self.stack.append([name, time.perf_counter(), 0.0, len(self.spans) if self.recording else -1])
        if self.recording:
            self.spans.append(None)

    def _exit(self):
        end = time.perf_counter()
        name, start, nested, sid = self.stack.pop()
        duration = end - start
        self.calls[name] += 1
        self.self_s[name] += duration - nested
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent[2] += duration
        if sid >= 0:
            self.spans[sid] = (sid, parent[3] if parent is not None else -1, name, start, end)

    def _wrap(self, name, fn, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer._enter(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._exit()
            if after is not None:
                after(args, out)
            return out

        return wrapper

    def _wrap_rref(self, fn):
        tracer = self

        @functools.wraps(fn)
        def rref(m):
            kind = m.field.kind
            tracer._enter("linalg.rref." + kind)
            try:
                out = fn(m)
            finally:
                tracer._exit()
            tracer.counters["linalg.rref.%s.cells" % kind] += m.nrows * m.ncols
            kept = tracer.values[kind]
            if len(kept) < KERNEL_VALUES:
                kept.extend(x for row in m.rows for x in row if x)
                del kept[KERNEL_VALUES:]
            return out

        return rref

    # -- installation ----------------------------------------------------
    def _after(self, name):
        if name == "groebner.buchberger":
            def count(args, basis):
                self.counters["groebner.buchberger.basis_len"] += len(basis)
            return count
        if name == "isoclass.univariate_roots":
            def count(args, roots):
                self.counters["isoclass.univariate_roots.degree_sum"] += args[0].total_degree()
            return count
        return None

    def install(self):
        """Wrap every traced function in every loaded grassgeo module."""
        modules = [m for n, m in sys.modules.items() if n == "grassgeo" or n.startswith("grassgeo.")]
        for mod_name, fns in TRACED.items():
            home = sys.modules["grassgeo." + mod_name]
            for fn_name in fns:
                original = getattr(home, fn_name)
                name = "%s.%s" % (mod_name, fn_name)
                wrapper = self._wrap(name, original, self._after(name))
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
        matrix = sys.modules["grassgeo.linalg"].Matrix
        matrix.rref = self._wrap_rref(matrix.rref)
        matrix.det = self._wrap("linalg.det", matrix.det)

    # -- results -----------------------------------------------------------
    def kernel_ns(self, kind, repeats=5, target=100_000):
        """Median ns per multiplication over pairs of the kept values of one scalar kind.

        0 when the workload built no matrix over that kind.
        """
        vals = self.values[kind]
        if len(vals) < 2:
            return 0.0
        pairs = list(zip(vals, vals[1:] + vals[:1]))
        loops = max(1, target // len(pairs))
        per = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            for _ in range(loops):
                for a, b in pairs:
                    a * b
            per.append((time.perf_counter() - t0) * 1e9 / (loops * len(pairs)))
        return statistics.median(per)

    def metrics(self, passes):
        out = {}
        for name in span_names():
            out[name + ".calls"] = self.calls[name] / passes
            out[name + ".self_s"] = self.self_s[name] / passes
        for name, value in self.counters.items():
            out[name] = value / passes
        out["fields.fp_mul_ns"] = self.kernel_ns("fp")
        out["fields.q_mul_ns"] = self.kernel_ns("q")
        out["jets.mul_ns"] = self.kernel_ns("jet")
        units = dict(metric_names())
        return {name: {"value": out[name], "unit": units[name]} for name, _ in metric_names()}
