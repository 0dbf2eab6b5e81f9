"""Outside-in tracer for the dunkl_hermite layers.

The tracer wraps every function and method the package defines and rebinds
each alias to the wrapper: module globals (including the copies a module takes
with ``from .poly import ...``), functions stored in module-level dicts such as
``cli._CONSTRUCTIONS``, and class attributes such as ``Polynomial.__rmul__``.
Nothing under ``src/`` is edited; a fresh import of the package is untouched.

Every wrapped call adds its duration to its caller's child time, so a layer's
self time is the time spent in its own frames minus the wrapped calls they
make.  Trivial hot helpers are left unwrapped: their cost lands in the caller.
Calls outside ``poly`` keep one span each (id, parent span, op, name, start,
end) in memory; ``poly`` runs hundreds of thousands of ring operations per
workload, so there only aggregates are kept, plus spans for the two reflection
steps ``compose_linear`` and ``divide_by_linear_form``.
"""
from __future__ import annotations

import json
import sys
import time
import types
from array import array
from collections import defaultdict

PACKAGE = "dunkl_hermite"
LAYERS = ("poly", "groups", "operators", "linalg", "clifford", "hermite", "moments", "suites", "cli")

# Called per term or per coefficient; a wrapper would cost more than the body.
SKIP = frozenset({
    "poly.deglex_key", "poly._raw", "poly._check_axis", "poly.rational_str",
    "poly.Polynomial._require_same_dim", "poly.Polynomial.__bool__", "poly.Polynomial.coefficient",
    "operators._check", "clifford._check", "clifford.blade_product",
    "groups._vec", "groups.dot", "groups._fmt",
})
# One metric per operation, whichever dunder Python dispatches to.
ALIASES = {
    "poly.Polynomial.__mul__": "poly.mul", "poly.Polynomial.__rmul__": "poly.mul",
    "poly.Polynomial.__add__": "poly.add", "poly.Polynomial.__sub__": "poly.add",
}
SPANNED_POLY = frozenset({"poly.compose_linear", "poly.divide_by_linear_form"})


def _rref_cells(rows, *args, **kwargs) -> int:
    return len(rows) * len(rows[0]) if len(rows) else 0


# Work counted at the call from the arguments: metric name and counting function.
ARG_COUNTERS = {"linalg.reduced_row_echelon": ("linalg.rref_cells", _rref_cells)}


class Tracer:
    """Aggregates per wrapped name and per layer, plus an in-memory span log."""

    def __init__(self) -> None:
        self.stats: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])  # calls, total_s, self_s
        self.layer_self: dict[str, float] = defaultdict(float)
        self.counters: dict[str, int] = defaultdict(int)
        self.op_id = -1
        self._active = [False]  # only op calls are traced, not the benchmark's own checks
        self._stack: list[list] = []  # frames: [child seconds, span id]
        self._next_id = 0
        self._names: dict[str, int] = {}
        self._spans = {key: array(code) for key, code in
                       (("id", "q"), ("parent", "q"), ("op", "q"), ("name", "i"),
                        ("start", "d"), ("end", "d"))}

    def begin(self, op_id: int) -> None:
        self.op_id = op_id
        self._active[0] = True

    def end(self) -> None:
        self._active[0] = False

    @property
    def span_count(self) -> int:
        return len(self._spans["id"])

    def wrap(self, fn, name: str, layer: str, keep_spans: bool):
        stack = self._stack
        stat = self.stats[name]
        layer_self = self.layer_self
        clock = time.perf_counter
        spans = self._spans
        name_index = self._names.setdefault(name, len(self._names))
        counted = ARG_COUNTERS.get(name)
        counters = self.counters
        active = self._active

        def traced(*args, **kwargs):
            if not active[0]:
                return fn(*args, **kwargs)
            if counted is not None:
                counters[counted[0]] += counted[1](*args, **kwargs)
            if keep_spans:
                self._next_id += 1
                sid = self._next_id
            else:
                sid = stack[-1][1] if stack else -1
            parent = stack[-1][1] if stack else -1
            frame = [0.0, sid]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][0] += duration
                own = duration - frame[0]
                stat[0] += 1
                stat[1] += duration
                stat[2] += own
                layer_self[layer] += own
                if keep_spans:
                    spans["id"].append(sid)
                    spans["parent"].append(parent)
                    spans["op"].append(self.op_id)
                    spans["name"].append(name_index)
                    spans["start"].append(start)
                    spans["end"].append(end)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def install(self, package: types.ModuleType) -> int:
        """Wrap everything ``package`` defines and rebind every alias; returns the wrap count."""
        modules = [mod for key, mod in sorted(sys.modules.items())
                   if mod is not None and (key == package.__name__ or key.startswith(package.__name__ + "."))]
        wrapped: dict[int, object] = {}
        for mod in modules:
            layer = mod.__name__.rpartition(".")[2]
            if layer not in LAYERS:
                continue
            for attr, obj in list(vars(mod).items()):
                if _is_function(obj) and getattr(obj, "__module__", None) == mod.__name__:
                    name = f"{layer}.{attr}"
                    if name not in SKIP:
                        wrapped[id(obj)] = self.wrap(obj, name, layer,
                                                     layer != "poly" or name in SPANNED_POLY)
                elif isinstance(obj, type) and obj.__module__ == mod.__name__:
                    self._install_methods(obj, layer, getattr(mod, "__file__", None))
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped:
                    setattr(mod, attr, wrapped[id(obj)])
                elif isinstance(obj, dict):
                    for key, value in list(obj.items()):
                        if id(value) in wrapped:
                            obj[key] = wrapped[id(value)]
        return len(wrapped)

    def _install_methods(self, cls: type, layer: str, filename) -> None:
        for attr, raw in list(vars(cls).items()):
            kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
            fn = raw.__func__ if kind else raw
            # dataclass-generated methods are compiled from "<string>"; they are glue, not layer work
            if not isinstance(fn, types.FunctionType) or fn.__code__.co_filename != filename:
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if name in SKIP:
                continue
            name = ALIASES.get(name, name)
            traced = self.wrap(fn, name, layer, keep_spans=False)
            setattr(cls, attr, kind(traced) if kind else traced)

    def write_spans(self, path) -> None:
        """One JSON line per span, after a header line naming the span names by index."""
        names = sorted(self._names, key=self._names.get)
        cols = self._spans
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"fields": ["id", "parent", "op", "name", "start", "end"],
                                     "names": names}) + "\n")
            for row in zip(cols["id"], cols["parent"], cols["op"], cols["name"],
                           cols["start"], cols["end"]):
                handle.write(json.dumps(row) + "\n")


def _is_function(obj) -> bool:
    return isinstance(obj, types.FunctionType) or (callable(obj) and hasattr(obj, "cache_info"))
