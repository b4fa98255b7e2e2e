"""Per-layer tracing from outside the program.

Each traced function is replaced by a wrapper at every module attribute of
mixedmono through which callers look it up (and methods on their class), so
the program itself is unchanged.  A span wrapper counts calls and
accumulates self time: its duration minus the time of the traced spans
nested in it.  A count wrapper only counts calls.
"""

from __future__ import annotations

import functools
import sys
import time
from types import ModuleType

# (module, attribute, metric prefix, span?)
_FUNCTIONS = [
    ("cli", "main", "cli", True),
    ("expr", "parse", "expr.parse", False),
    ("expr", "evaluate", "expr.evaluate", True),
    ("expr", "eval_interval", "expr.eval_interval", True),
    ("expr", "differentiate", "expr.differentiate", True),
    ("jacbounds", "jacobian_bounds", "jacbounds.jacobian_bounds", True),
    ("decomp", "build_decomposition", "decomp.build_decomposition", False),
    ("decomp", "eval_decomposition", "decomp.eval_decomposition", True),
    ("decomp", "bound_box", "decomp.bound_box", False),
    ("decomp", "refine_bounds", "decomp.refine_bounds", True),
    ("embed", "integrate_embedding", "embed.integrate_embedding", True),
    ("jordan", "total_variation", "jordan.total_variation", True),
    ("jordan", "quad", "jordan.quad", True),
]
# (module, class, method, metric prefix)
_METHODS = [
    ("interval", "Interval", "__init__", "interval.Interval"),
    ("embed", "EmbeddingSystem", "rhs", "embed.rhs"),
    ("jordan", "ScalarFunction", "__call__", "jordan.f"),
    ("jordan", "ScalarFunction", "derivative", "jordan.derivative"),
]
# differentiate recurses through its own module attribute; only calls from
# other modules (one per derivative tree) are counted
_OUTSIDE_CALLERS_ONLY = {("expr", "differentiate")}

# the per-layer metrics reported, in BENCHMARK.json order: (name, unit)
METRICS = [
    ("cli.self_ms", "ms/op"),
    ("expr.parse.calls", "calls/op"),
    ("expr.evaluate.calls", "calls/op"),
    ("expr.evaluate.self_ms", "ms/op"),
    ("expr.eval_interval.calls", "calls/op"),
    ("expr.eval_interval.self_ms", "ms/op"),
    ("expr.differentiate.calls", "calls/op"),
    ("expr.differentiate.self_ms", "ms/op"),
    ("interval.Interval.allocs", "allocs/op"),
    ("jacbounds.jacobian_bounds.calls", "calls/op"),
    ("jacbounds.jacobian_bounds.self_ms", "ms/op"),
    ("decomp.build_decomposition.calls", "calls/op"),
    ("decomp.eval_decomposition.calls", "calls/op"),
    ("decomp.eval_decomposition.self_ms", "ms/op"),
    ("decomp.bound_box.calls", "calls/op"),
    ("decomp.refine_bounds.calls", "calls/op"),
    ("decomp.refine_bounds.self_ms", "ms/op"),
    ("embed.rhs.calls", "calls/op"),
    ("embed.integrate_embedding.self_ms", "ms/op"),
    ("jordan.total_variation.calls", "calls/op"),
    ("jordan.total_variation.self_ms", "ms/op"),
    ("jordan.quad.calls", "calls/op"),
    ("jordan.quad.self_ms", "ms/op"),
    ("jordan.f.calls", "calls/op"),
    ("jordan.derivative.calls", "calls/op"),
]


class Tracer:
    def __init__(self):
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self._stack: list[float] = []   # child time of each open span
        self._undo: list[tuple[object, str, object]] = []

    def _span(self, key: str, fn):
        calls, self_s, stack = self.calls, self.self_s, self._stack
        calls[key], self_s[key] = 0, 0.0
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                calls[key] += 1
                self_s[key] += dt - stack.pop()
                if stack:
                    stack[-1] += dt

        return traced

    def _count(self, key: str, fn):
        calls = self.calls
        calls[key] = 0
        self.self_s[key] = 0.0

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)

        return counted

    def _patch(self, owner, name: str, wrapped):
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, wrapped)

    def install(self):
        mods = {name.split(".", 1)[1]: mod for name, mod in sys.modules.items()
                if name.startswith("mixedmono.") and isinstance(mod, ModuleType)}
        for home, attr, key, span in _FUNCTIONS:
            orig = getattr(mods[home], attr)
            wrapped = (self._span if span else self._count)(key, orig)
            for modname, mod in mods.items():
                if (home, attr) in _OUTSIDE_CALLERS_ONLY and modname == home:
                    continue
                for name, value in list(vars(mod).items()):
                    if value is orig:
                        self._patch(mod, name, wrapped)
        for home, cls_name, method, key in _METHODS:
            cls = getattr(mods[home], cls_name)
            self._patch(cls, method, self._count(key, getattr(cls, method)))

    def uninstall(self):
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)

    def per_op(self, ops: int) -> dict[str, float]:
        """Every metric of METRICS, divided by the number of ops."""
        values = {}
        for key in self.calls:
            values[f"{key}.calls"] = self.calls[key] / ops
            values[f"{key}.self_ms"] = self.self_s[key] * 1000.0 / ops
        values["interval.Interval.allocs"] = values["interval.Interval.calls"]
        return {name: values[name] for name, _ in METRICS}
