"""Span recorder for the traced benchmark run, and the per-layer summary.

``install()`` runs in a child interpreter after ``import fraclab.cli`` and
before ``cli.main``. It replaces, by attribute assignment, the functions the
CLI and ``diagnostics.classify`` look up at call time, two ``KernelTable``
methods, and ``scipy.linalg.eigh`` / ``scipy.sparse.linalg.splu``. Each call
then records a span ``[name, layer, parent, t0, t1, extra]`` in memory; the
child writes the list out when ``cli.main`` returns. A target that no longer
exists is skipped, so its metrics read zero.

``summarize()`` runs in the benchmark process and turns the spans of one
workload iteration into the per-layer metrics. A span's self time is its
duration minus that of its child spans. Library spans (eigh, splu) belong to
the layer that called them, so the layers' self times add up to the time
inside ``cli.main``. The per-function times (``diagnostics.weiss_s``,
``extension.solve_s``, ``gridio.write_s``, ...) are self times too: the
``extension_energy`` calls that ``weiss_curve`` makes count toward
``extension.self_s``, not toward ``weiss_s`` or ``solve_s``.
"""

import functools
import importlib
import time
import tracemalloc
from contextlib import contextmanager

LAYERS = ("cli", "gridio", "nonlocal_form", "eigen", "extension", "shape_opt",
          "diagnostics")

FUNCTIONS = (
    ("gridio", ("parse_config", "read_mask", "read_fields", "read_slab_field",
                "write_mask", "write_fields", "write_slab_field",
                "atomic_write_text", "sha256_file")),
    ("nonlocal_form", ("assemble_form", "kernel_table", "seminorm")),
    ("eigen", ("lowest_eigenpairs", "objective")),
    ("extension", ("extend", "extension_energy", "neumann_trace",
                   "harmonic_replacement")),
    ("shape_opt", ("optimize",)),
    ("diagnostics", ("free_boundary_set", "density_ratio", "weiss_curve",
                     "flatness", "boundary_slope", "classify")),
)

_GRIDIO_READ = {"parse_config", "read_mask", "read_fields", "read_slab_field"}
_GRIDIO_HASH = {"sha256_file"}

# Unit of every per-layer metric, in report order.
METRICS = {
    "nonlocal_form.table_builds": "count",
    "nonlocal_form.table_s": "s",
    "nonlocal_form.table_peak_mb": "MB",
    "nonlocal_form.gathers": "count",
    "nonlocal_form.gather_s": "s",
    "nonlocal_form.self_s": "s",
    "eigen.solves": "count",
    "eigen.solve_s": "s",
    "eigen.self_s": "s",
    "shape_opt.iterations": "count",
    "shape_opt.accepted": "count",
    "shape_opt.evals": "count",
    "shape_opt.evals_per_s": "1/s",
    "shape_opt.eigh_calls": "count",
    "shape_opt.eigh_s": "s",
    "shape_opt.self_s": "s",
    "extension.extends": "count",
    "extension.factorizations": "count",
    "extension.factor_s": "s",
    "extension.factor_fill": "count",
    "extension.solve_s": "s",
    "extension.self_s": "s",
    "diagnostics.points": "count",
    "diagnostics.weiss_points": "count",
    "diagnostics.weiss_s": "s",
    "diagnostics.classify_s": "s",
    "diagnostics.flatness_s": "s",
    "diagnostics.density_s": "s",
    "diagnostics.slope_s": "s",
    "diagnostics.per_point_ms": "ms",
    "diagnostics.slope_nan": "count",
    "diagnostics.self_s": "s",
    "gridio.write_s": "s",
    "gridio.read_s": "s",
    "gridio.hash_s": "s",
    "gridio.bytes_out": "B",
    "gridio.self_s": "s",
    "cli.self_s": "s",
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
    "trace.layer_sum_s": "s",
}


def _now():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Recorder:
    """In-memory span list with the stack of open spans."""

    def __init__(self):
        self.spans = []
        self._open = []

    def start(self, name, layer):
        parent = self._open[-1] if self._open else -1
        if layer is None:  # a library call belongs to its caller's layer
            layer = self.spans[parent][1] if parent >= 0 else "cli"
        self.spans.append([name, layer, parent, _now(), None, None])
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def stop(self, idx, extra=None):
        self._open.pop()
        self.spans[idx][4] = _now()
        self.spans[idx][5] = extra

    @contextmanager
    def span(self, name, layer):
        idx = self.start(name, layer)
        try:
            yield
        finally:
            self.stop(idx)

    def wrap(self, fn, name, layer, extra=None, peak_memory=False):
        """fn with a span around each call. extra(args, result) is stored
        with the span; peak_memory stores the tracemalloc peak instead."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.start(name, layer)
            info = None
            if peak_memory:
                tracemalloc.start()
            try:
                out = fn(*args, **kwargs)
                if extra is not None:
                    info = extra(args, out)
                return out
            finally:
                if peak_memory:
                    info = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                self.stop(idx, info)

        return wrapper


def _lu_fill(args, lu):
    return int(lu.L.nnz + lu.U.nnz)


def _payload_bytes(args, out):
    return len(args[1])


def install():
    """Wrap the layer boundaries of the imported fraclab package."""
    rec = Recorder()
    targets = [(f"fraclab.{layer}", name, f"{layer}.{name}", layer, {})
               for layer, names in FUNCTIONS for name in names]
    targets += [
        ("fraclab.gridio", "atomic_write_bytes", "gridio.atomic_write_bytes", "gridio",
         {"extra": _payload_bytes}),
        ("fraclab.nonlocal_form", "KernelTable.__init__",
         "nonlocal_form.KernelTable.__init__", "nonlocal_form", {"peak_memory": True}),
        ("fraclab.nonlocal_form", "KernelTable.stiffness",
         "nonlocal_form.KernelTable.stiffness", "nonlocal_form", {}),
        ("scipy.linalg", "eigh", "scipy.linalg.eigh", None, {}),
        ("scipy.sparse.linalg", "splu", "scipy.sparse.linalg.splu", None,
         {"extra": _lu_fill}),
    ]
    for module, path, name, layer, options in targets:
        owner = importlib.import_module(module)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part, None)
        fn = getattr(owner, attr, None)
        if fn is not None:
            setattr(owner, attr, rec.wrap(fn, name, layer, **options))
    return rec


def summarize(span_lists):
    """Per-layer metrics of one iteration from the span lists of its commands.

    The metrics read from output files (shape_opt.iterations/accepted,
    diagnostics.slope_nan) and the trace.* wall times are filled in by the
    caller; they start at zero here.
    """
    m = dict.fromkeys(METRICS, 0.0)
    opt_s = 0.0
    for spans in span_lists:
        n = len(spans)
        dur = [s[4] - s[3] for s in spans]
        child = [0.0] * n  # time in child spans
        in_opt = [False] * n
        for i, (name, _layer, parent, *_rest) in enumerate(spans):
            if parent >= 0:
                child[parent] += dur[i]
                in_opt[i] = in_opt[parent]
            if name == "shape_opt.optimize":
                in_opt[i] = True
        for i, (name, layer, parent, _t0, _t1, extra) in enumerate(spans):
            d = dur[i]
            own = d - child[i]
            m[f"{layer}.self_s"] += own
            func = name.rsplit(".", 1)[-1]
            if name == "nonlocal_form.KernelTable.__init__":
                m["nonlocal_form.table_builds"] += 1
                m["nonlocal_form.table_s"] += d
                m["nonlocal_form.table_peak_mb"] = max(
                    m["nonlocal_form.table_peak_mb"], (extra or 0) / 2**20)
            elif name == "nonlocal_form.KernelTable.stiffness":
                m["nonlocal_form.gathers"] += 1
                m["nonlocal_form.gather_s"] += d
                if in_opt[i]:
                    m["shape_opt.evals"] += 1
            elif name == "eigen.lowest_eigenpairs":
                m["eigen.solves"] += 1
                m["eigen.solve_s"] += d
            elif name == "shape_opt.optimize":
                opt_s += d
            elif name == "scipy.linalg.eigh" and in_opt[i]:
                m["shape_opt.eigh_calls"] += 1
                m["shape_opt.eigh_s"] += d
            elif name == "extension.extend":
                m["extension.extends"] += 1
                m["extension.solve_s"] += own
            elif name == "scipy.sparse.linalg.splu":
                m["extension.factorizations"] += 1
                m["extension.factor_s"] += d
                m["extension.factor_fill"] += extra or 0
            elif name == "diagnostics.classify":
                m["diagnostics.points"] += 1
                m["diagnostics.classify_s"] += own
            elif name == "diagnostics.weiss_curve":
                m["diagnostics.weiss_points"] += 1
                m["diagnostics.weiss_s"] += own
            elif name == "diagnostics.flatness":
                m["diagnostics.flatness_s"] += own
            elif name == "diagnostics.density_ratio":
                m["diagnostics.density_s"] += own
            elif name == "diagnostics.boundary_slope":
                m["diagnostics.slope_s"] += own
            elif layer == "gridio" and name.startswith("gridio."):
                if func in _GRIDIO_READ:
                    m["gridio.read_s"] += own
                elif func in _GRIDIO_HASH:
                    m["gridio.hash_s"] += own
                else:
                    m["gridio.write_s"] += own
                if func == "atomic_write_bytes":
                    m["gridio.bytes_out"] += extra or 0
    if opt_s > 0:
        m["shape_opt.evals_per_s"] = m["shape_opt.evals"] / opt_s
    if m["diagnostics.points"]:
        m["diagnostics.per_point_ms"] = (
            1e3 * m["diagnostics.self_s"] / m["diagnostics.points"])
    m["trace.layer_sum_s"] = sum(m[f"{layer}.self_s"] for layer in LAYERS)
    return m
