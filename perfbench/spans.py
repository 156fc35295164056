"""Layer spans for the traced benchmark run.

A layer is one ``spectralflow`` module.  ``Tracer.install`` replaces the
public functions and methods of every layer module (plus the arithmetic
dunders and ``__init__``/``__call__``) with wrappers, at every place the
name is bound: a module that did ``from .geometry import line_integral``
holds its own reference, so each module's namespace is patched too.
``Tracer.uninstall`` puts the originals back, and untraced passes run the
unmodified code.  The library itself is not edited.

A span is recorded only where control crosses into a layer from outside
it (another layer or the benchmark), so ``<layer>.calls`` counts layer
entries and a span's self time is its duration minus its children's.
Spans live in flat arrays (name, start, end, parent, pass id) and are
written out once at the end of the run.  Properties and private helpers
run inside their caller's span.
"""

from __future__ import annotations

import importlib
import inspect
import sys
from array import array
from time import perf_counter

import numpy as np

LAYERS = ("theta", "elliptic", "series", "curve", "recursion", "forms",
          "geometry", "quadrature", "classical")
BENCH = "bench"         # the root span: the benchmark's own code in a pass

_DUNDERS = {"__init__", "__call__", "__add__", "__radd__", "__sub__",
            "__rsub__", "__mul__", "__rmul__", "__truediv__",
            "__rtruediv__", "__pow__", "__neg__"}

# per-pass counts: metric -> functions whose every call is counted
COUNTED = {
    "series.products": ("series.TruncSeries.__mul__",),
    "series.compositions": ("series.TruncSeries.compose",),
    "series.inversions": ("series.TruncSeries.invert",),
    "curve.sheets_above_calls": ("curve.Genus0Curve.sheets_above",
                                 "curve.Genus1Curve.sheets_above"),
    "quadrature.segments": ("quadrature.integrate_segment",),
    "geometry.line_integrals": ("geometry.line_integral",),
    "classical.psi_calls": ("classical.ClassicalSystem.psi",),
}
# per-pass inclusive times: metric -> functions timed at their outermost call
TIMED = {
    "recursion.engine_build_s": ("recursion.RecursionEngine.__init__",),
    "recursion.omega_s": ("recursion.RecursionEngine.omega",),
    "recursion.invariant_s": (
        "recursion.RecursionEngine.invariant",
        "recursion.RecursionEngine.invariant_with_shifted_primitive"),
    "recursion.evaluate_s": ("recursion.RecursionEngine.evaluate",),
    "curve.sheets_above_s": COUNTED["curve.sheets_above_calls"],
    "classical.psi_matrix_s": ("classical.ClassicalSystem.psi_matrix",),
}
_THETA_INIT = "theta.ThetaEvaluator.__init__"
_CORR_INIT = "recursion.CorrForm.__init__"


def per_layer_names():
    """Every per-layer metric a traced pass reports, with its unit."""
    out = {}
    for layer in LAYERS + (BENCH,):
        if layer != BENCH:
            out[f"{layer}.calls"] = "count"
        out[f"{layer}.self_s"] = "s"
    out.update({name: "count" for name in COUNTED})
    out.update({name: "s" for name in TIMED})
    out["recursion.tensor_entries"] = "count"
    out["theta.cache_entries"] = "count"
    return out


def _traced_functions():
    """(layer, owner, attribute, qualified name, function) for every
    function the tracer wraps, in a fixed order."""
    out = []
    for layer in LAYERS:
        mod = importlib.import_module(f"spectralflow.{layer}")
        for name, obj in vars(mod).items():
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj) and not name.startswith("_"):
                out.append((layer, mod, name, f"{layer}.{name}", obj))
            elif inspect.isclass(obj):
                for attr, fn in vars(obj).items():
                    if inspect.isfunction(fn) and (
                            attr in _DUNDERS or not attr.startswith("_")):
                        out.append((layer, obj, attr,
                                    f"{layer}.{name}.{attr}", fn))
    return out


class Tracer:
    """Spans and counters for the passes of one traced run."""

    def __init__(self):
        self._targets = _traced_functions()
        self.names = [BENCH] + [t[3] for t in self._targets]
        self.layer_of = [BENCH] + [t[0] for t in self._targets]
        self._fid = {n: i for i, n in enumerate(self.names)}
        self._layers = LAYERS + (BENCH,)
        self._layer_ix = np.array([self._layers.index(L)
                                   for L in self.layer_of])
        for groups in (COUNTED, TIMED):
            for fns in groups.values():
                missing = [f for f in fns if f not in self._fid]
                if missing:
                    raise LookupError(f"traced functions not found: {missing}")
        # span store
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_pass = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        # current position
        self.layer = BENCH
        self.span = -1
        self.pass_id = -1
        # per-pass counters
        self.calls = [0] * len(self.names)
        self.inclusive = dict.fromkeys(TIMED, 0.0)
        self._depth = dict.fromkeys(TIMED, 0)
        self.tensor_entries = 0
        self.thetas = []
        self._restore = []

    # -- patching ---------------------------------------------------------------

    def install(self):
        if self._restore:
            raise RuntimeError("tracer already installed")
        group_of = {f: g for g, fns in TIMED.items() for f in fns}
        wrappers = {}
        for layer, owner, attr, qual, fn in self._targets:
            w = self._wrap(fn, layer, self._fid[qual], group_of.get(qual),
                           qual)
            wrappers[id(fn)] = w
            self._restore.append((owner, attr, fn))
            setattr(owner, attr, w)
        # names bound by ``from module import name`` elsewhere
        mods = [m for k, m in list(sys.modules.items())
                if k == "spectralflow" or k.startswith("spectralflow.")]
        for mod in mods:
            for attr, obj in list(vars(mod).items()):
                w = wrappers.get(id(obj))
                if w is not None and inspect.isfunction(obj):
                    self._restore.append((mod, attr, obj))
                    setattr(mod, attr, w)

    def uninstall(self):
        while self._restore:
            owner, attr, fn = self._restore.pop()
            setattr(owner, attr, fn)

    def _wrap(self, fn, layer, fid, group, qual):
        tr = self
        calls = self.calls
        if qual in (_THETA_INIT, _CORR_INIT):
            def hooked(obj, *a, **k):
                out = tr.enter(layer, fid, fn, (obj,) + a, k)
                if qual == _THETA_INIT:
                    tr.thetas.append(obj)
                else:
                    tr.tensor_entries += obj.tensor.size
                return out
            return hooked
        if group is None:
            # span_call inlined: this path runs ~10^5 times per pass
            names, parents = self.span_name.append, self.span_parent.append
            passes, ends = self.span_pass.append, self.span_end
            starts = self.span_start

            def wrapped(*a, **k):
                calls[fid] += 1
                if tr.layer == layer:
                    return fn(*a, **k)
                parent, outer = tr.span, tr.layer
                idx = len(starts)
                names(fid)
                parents(parent)
                passes(tr.pass_id)
                ends.append(0.0)
                tr.span, tr.layer = idx, layer
                starts.append(perf_counter())
                try:
                    return fn(*a, **k)
                finally:
                    ends[idx] = perf_counter()
                    tr.span, tr.layer = parent, outer
            return wrapped
        depth = self._depth
        inclusive = self.inclusive

        def timed(*a, **k):
            depth[group] += 1
            t0 = perf_counter()
            try:
                return tr.enter(layer, fid, fn, a, k)
            finally:
                depth[group] -= 1
                if not depth[group]:
                    inclusive[group] += perf_counter() - t0
        return timed

    def enter(self, layer, fid, fn, a, k):
        self.calls[fid] += 1
        if self.layer == layer:
            return fn(*a, **k)
        return self.span_call(layer, fid, fn, a, k)

    def span_call(self, layer, fid, fn, a, k):
        parent, outer = self.span, self.layer
        idx = len(self.span_start)
        self.span_name.append(fid)
        self.span_parent.append(parent)
        self.span_pass.append(self.pass_id)
        self.span_end.append(0.0)
        self.span, self.layer = idx, layer
        self.span_start.append(perf_counter())
        try:
            return fn(*a, **k)
        finally:
            self.span_end[idx] = perf_counter()
            self.span, self.layer = parent, outer

    # -- passes -------------------------------------------------------------------

    def run_pass(self, pass_id, fn, *args):
        """Call ``fn(*args)`` under a root span; returns (result, metrics)."""
        if self.layer != BENCH or self.span != -1:
            raise RuntimeError("passes do not nest")
        for i in range(len(self.calls)):
            self.calls[i] = 0
        for g in self.inclusive:
            self.inclusive[g] = 0.0
        self.tensor_entries = 0
        self.thetas = []
        self.pass_id = pass_id
        first = len(self.span_start)
        result = self.span_call(BENCH, 0, fn, args, {})
        cache_entries = sum(len(t._cache) for t in self.thetas)
        self.thetas = []
        return result, self._pass_metrics(first, cache_entries)

    def _pass_metrics(self, first, cache_entries):
        # copies: a live buffer view would stop the arrays from growing
        names = np.asarray(self.span_name[first:])
        parent = np.asarray(self.span_parent[first:])
        dur = np.asarray(self.span_end[first:]) \
            - np.asarray(self.span_start[first:])
        child = np.zeros(len(dur))
        nested = parent >= 0
        np.add.at(child, parent[nested] - first, dur[nested])
        self_s = dur - child
        lid = self._layer_ix[names]
        n_layers = len(self._layers)
        span_counts = np.bincount(lid, minlength=n_layers)
        self_sums = np.bincount(lid, weights=self_s, minlength=n_layers)
        out = {}
        for i, layer in enumerate(self._layers):
            if layer != BENCH:
                out[f"{layer}.calls"] = int(span_counts[i])
            out[f"{layer}.self_s"] = float(self_sums[i])
        for metric, fns in COUNTED.items():
            out[metric] = sum(self.calls[self._fid[f]] for f in fns)
        out.update(self.inclusive)
        out["recursion.tensor_entries"] = self.tensor_entries
        out["theta.cache_entries"] = cache_entries
        out["pass_span_s"] = float(dur[0])
        return out

    def write(self, path):
        """Save every span of the run as columns of an ``.npz`` file."""
        np.savez(path, names=np.array(self.names),
                 layers=np.array(self.layer_of),
                 name=np.array(self.span_name),
                 parent=np.array(self.span_parent),
                 pass_id=np.array(self.span_pass),
                 start=np.array(self.span_start),
                 end=np.array(self.span_end))
