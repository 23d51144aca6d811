"""Per-layer tracing for the benchmark, installed from outside the program.

The layers are the modules of freedecay: ``scalars`` -> ``algebra`` ->
``measure`` / ``freeword`` -> ``fock`` -> ``khintchine`` / ``rdcert`` ->
``cli``.  :class:`Tracer` wraps

* every public module-level function of a layer, plus the private ones that
  another freedecay module imports (``fock._represent_sparse``, say), in
  every freedecay namespace that binds it;
* the public methods, ``__init__`` and arithmetic operators of the public
  classes of each layer;
* the ``QC`` arithmetic operators and the scalar helpers of ``scalars``.

A wrapped call records a span (id, parent id, name, start, end).  The
scalar operations are far too hot for spans: they only add to a count and to
the self time of ``scalars``, and their time is taken out of the enclosing
span.  A layer's self time is the time in its spans minus the time in their
child spans and scalar operations, so time spent in numpy, scipy or
``fractions`` counts for the layer that called it.  Inclusive times count
the outermost call of a function only.
"""

from __future__ import annotations

import importlib
import json
import time
import types

LAYERS = ("scalars", "algebra", "measure", "freeword", "fock", "khintchine", "rdcert", "cli")
QC_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
          "__truediv__", "__rtruediv__", "__neg__", "conjugate")
CLASS_DUNDERS = ("__init__", "__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
                 "__rmul__", "__neg__", "__truediv__")
SPAN_CAP = 100_000

# Per-layer metrics: name -> (kind, key).  "self" reads a layer's self time,
# "calls" / "incl" read the call count / outermost inclusive time of one or
# more wrapped callables, "counter" one of the extra counters.
METRICS = {
    "scalars.self_s": ("self", "scalars"),
    "scalars.qc_ops": ("counter", "qc_ops"),
    "algebra.self_s": ("self", "algebra"),
    "algebra.state_calls": ("calls", ("algebra.state",)),
    "algebra.center_calls": ("calls", ("algebra.center",)),
    "algebra.mul_calls": ("calls", ("algebra.AlgebraElement.__mul__",
                                    "algebra.AlgebraElement.__rmul__")),
    "algebra.onb_calls": ("calls", ("algebra.onb_complement",)),
    "measure.self_s": ("self", "measure"),
    "measure.recurrence_s": ("incl", ("measure.OrthoPolySequence.extend",)),
    "measure.poly_points": ("counter", "poly_points"),
    "freeword.self_s": ("self", "freeword"),
    "freeword.free_state_s": ("incl", ("freeword.free_state",)),
    "freeword.normalize_calls": ("calls", ("freeword.normalize",)),
    "freeword.normalize_s": ("incl", ("freeword.normalize",)),
    "freeword.l2_inner_free_s": ("incl", ("freeword.l2_inner_free",)),
    "freeword.elements_built": ("calls", ("freeword.FreeElement.__init__",)),
    "fock.self_s": ("self", "fock"),
    "fock.vacuum_s": ("incl", ("fock.vacuum_expectation",)),
    "fock.spaces_built": ("calls", ("fock.TruncatedFock.__init__",)),
    "fock.basis_dim_built": ("counter", "basis_dim_built"),
    "fock.letter_op_calls": ("calls", ("fock.TruncatedFock.letter_operator",)),
    "fock.letter_op_s": ("incl", ("fock.TruncatedFock.letter_operator",)),
    "fock.norm_lb_s": ("incl", ("fock.norm_lower_bound",)),
    "fock.moment_estimate_s": ("incl", ("fock.moment_norm_estimate",)),
    "khintchine.self_s": ("self", "khintchine"),
    "khintchine.tr_bracket_calls": ("calls", ("khintchine.tr_bracket",)),
    "khintchine.tr_bracket_s": ("incl", ("khintchine.tr_bracket",)),
    "rdcert.self_s": ("self", "rdcert"),
    "rdcert.rd_constant_s": ("incl", ("rdcert.ConstantFiltration.rd_constant",
                                      "rdcert.FiniteDimFiltration.rd_constant",
                                      "rdcert.MeasureDegreeFiltration.rd_constant",
                                      "rdcert.FreeProductFiltration.rd_constant")),
    "rdcert.probe_norms": ("counter", "probe_norms"),
    "cli.self_s": ("self", "cli"),
}
UNITS = {"calls": "count", "counter": "count", "self": "s", "incl": "s"}


class Tracer:
    """Installs the wrappers with :meth:`install` and removes them with
    :meth:`uninstall`.  Recording starts with :meth:`start` and pauses with
    :meth:`pause`; benchmark checks run paused so they do not count."""

    def __init__(self):
        self.on = False
        self.hot = False
        self.names: list[str] = []
        self.index: dict[str, int] = {}
        self.layer_of: list[int] = []
        self.calls: list[int] = []
        self.incl: list[float] = []
        self.depth: list[int] = []
        self.layer_self = [0.0] * len(LAYERS)
        self.counters = {"qc_ops": 0, "poly_points": 0, "basis_dim_built": 0,
                         "probe_norms": 0}
        self.stack: list[list] = []
        self.spans: list[tuple] = []
        self.dropped = 0
        self.next_id = 0
        self._restore: list[tuple] = []
        self._rd_idx: tuple = ()

    # -- wrappers ----------------------------------------------------------
    def _name(self, qualname: str, layer: str) -> int:
        if qualname not in self.index:
            self.index[qualname] = len(self.names)
            self.names.append(qualname)
            self.layer_of.append(LAYERS.index(layer))
            self.calls.append(0)
            self.incl.append(0.0)
            self.depth.append(0)
        return self.index[qualname]

    def _hot(self, func, count_op: bool):
        tr = self
        perf = time.perf_counter
        layer = LAYERS.index("scalars")

        def hot(*args, **kwargs):
            if not tr.on:
                return func(*args, **kwargs)
            if count_op:
                tr.counters["qc_ops"] += 1
            if tr.hot:
                return func(*args, **kwargs)
            tr.hot = True
            t0 = perf()
            try:
                return func(*args, **kwargs)
            finally:
                dt = perf() - t0
                tr.hot = False
                tr.layer_self[layer] += dt
                if tr.stack:
                    tr.stack[-1][1] += dt

        return hot

    def _span(self, func, idx: int, extra=None):
        tr = self
        perf = time.perf_counter
        layer = self.layer_of[idx]

        def span(*args, **kwargs):
            if not tr.on or tr.hot:
                return func(*args, **kwargs)
            stack = tr.stack
            frame = [tr.next_id, 0.0]
            parent = stack[-1][0] if stack else -1
            tr.next_id += 1
            tr.depth[idx] += 1
            stack.append(frame)
            t0 = perf()
            try:
                result = func(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                dur = t1 - t0
                tr.layer_self[layer] += dur - frame[1]
                tr.calls[idx] += 1
                tr.depth[idx] -= 1
                if not tr.depth[idx]:
                    tr.incl[idx] += dur
                if stack:
                    stack[-1][1] += dur
                if len(tr.spans) < SPAN_CAP:
                    tr.spans.append((frame[0], parent, idx, t0, t1))
                else:
                    tr.dropped += 1
            if extra is not None:
                extra(args, kwargs, result)
            return result

        return span

    # -- counters fed by individual wrappers ---------------------------------
    def _count_basis(self, args, kwargs, result):
        self.counters["basis_dim_built"] += args[0].dimension

    def _count_points(self, args, kwargs, result):
        ts = args[2] if len(args) > 2 else kwargs["ts"]
        self.counters["poly_points"] += int(getattr(ts, "size", 1))

    def _count_probe(self, args, kwargs, result):
        if any(self.depth[i] for i in self._rd_idx):
            self.counters["probe_norms"] += 1

    # -- installation --------------------------------------------------------
    def install(self, package):
        modules = {layer: importlib.import_module(f"{package.__name__}.{layer}")
                   for layer in LAYERS}
        namespaces = [package] + list(modules.values())
        bound = {}  # id(function) -> number of namespaces binding it
        for ns in namespaces:
            for val in vars(ns).values():
                if isinstance(val, types.FunctionType):
                    bound[id(val)] = bound.get(id(val), 0) + 1
        extras = {"fock.TruncatedFock.__init__": self._count_basis,
                  "measure.OrthoPolySequence.orthonormal_values": self._count_points,
                  "fock.norm_lower_bound": self._count_probe}
        wrappers = {}
        for layer, mod in modules.items():
            for name, val in list(vars(mod).items()):
                if isinstance(val, types.FunctionType) and val.__module__ == mod.__name__:
                    if name.startswith("_") and bound.get(id(val), 0) < 2:
                        continue
                    if layer == "scalars":
                        wrappers[id(val)] = self._hot(val, count_op=False)
                    else:
                        qual = f"{layer}.{name}"
                        wrappers[id(val)] = self._span(val, self._name(qual, layer),
                                                       extras.get(qual))
                elif (isinstance(val, type) and val.__module__ == mod.__name__
                      and not name.startswith("_") and not issubclass(val, BaseException)):
                    self._wrap_class(layer, name, val, extras)
        for ns in namespaces:
            for name, val in list(vars(ns).items()):
                wrapper = wrappers.get(id(val)) if isinstance(val, types.FunctionType) else None
                if wrapper is not None:
                    self._restore.append((ns, name, val))
                    setattr(ns, name, wrapper)
        self._rd_idx = tuple(self.index[q] for q in METRICS["rdcert.rd_constant_s"][1]
                             if q in self.index)

    def unwrapped(self) -> list[str]:
        """Callables named by METRICS that the program no longer has; their
        metrics would read 0."""
        return sorted({q for kind, key in METRICS.values() if kind in ("calls", "incl")
                       for q in key if q not in self.index})

    def _wrap_class(self, layer, cname, cls, extras):
        for attr, val in list(vars(cls).items()):
            if not isinstance(val, types.FunctionType):
                continue
            if cname == "QC" and layer == "scalars":
                if attr in QC_OPS:
                    wrapper = self._hot(val, count_op=True)
                else:
                    continue
            elif not attr.startswith("_") or attr in CLASS_DUNDERS:
                qual = f"{layer}.{cname}.{attr}"
                wrapper = self._span(val, self._name(qual, layer), extras.get(qual))
            else:
                continue
            self._restore.append((cls, attr, val))
            setattr(cls, attr, wrapper)

    def uninstall(self):
        for owner, name, val in reversed(self._restore):
            setattr(owner, name, val)
        self._restore.clear()

    def start(self):
        self.on = True

    def pause(self):
        self.on = False

    # -- results -------------------------------------------------------------
    def metrics(self) -> dict:
        out = {}
        for metric, (kind, key) in METRICS.items():
            if kind == "self":
                value = self.layer_self[LAYERS.index(key)]
            elif kind == "counter":
                value = self.counters[key]
            else:
                table = self.calls if kind == "calls" else self.incl
                value = sum(table[self.index[q]] for q in key if q in self.index)
            out[metric] = value
        return out

    def dump(self, path: str):
        """Write the recorded spans as JSON: names, then one
        [id, parent, name index, start, end] row per span."""
        with open(path, "w") as fh:
            json.dump({"names": self.names, "dropped": self.dropped,
                       "spans": [list(s) for s in self.spans]}, fh)
