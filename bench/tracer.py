"""Outside-in tracing of the program's layers.

The tracer wraps every public function of the eight ``fourfold`` modules
from the outside: each module attribute bound to such a function,
including ``from``-import re-bindings in other modules (for example
``report.determinant`` or ``cli.hitchin_thorpe``), is replaced by a
wrapper that records a span.  A layer is a module; a span's self time is
its duration minus the durations of the spans it encloses.  The wrapper
sits outside ``functools.lru_cache``, so the cache sees the same calls
as without tracing.  Nothing under ``src/`` is edited.
"""

from __future__ import annotations

import sys
import time

LAYERS = ("cli", "expressions", "manifolds", "lattice", "spinc", "bordism",
          "obstructions", "report")

GENERATORS = ("k3", "surface_product", "cp2", "cp2bar", "s1xs3", "s4", "custom",
              "load_descriptor")

# Marks a wrapper; the untraced path checks that no module holds one.
MARK = "__bench_span__"


def _modules():
    """The package and every loaded ``fourfold.*`` module.  Submodules come
    from ``sys.modules``: the package attribute ``fourfold.spinc`` is the
    function ``spinc``, not the module."""
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "fourfold" or name.startswith("fourfold."))]


def installed_wrappers() -> int:
    return sum(1 for m in _modules() for v in vars(m).values() if hasattr(v, MARK))


def _public_functions():
    """{id: (key, function)} for the public functions defined in each layer."""
    found = {}
    for layer in LAYERS:
        module = sys.modules[f"fourfold.{layer}"]
        for name, obj in vars(module).items():
            if (not name.startswith("_") and callable(obj) and not isinstance(obj, type)
                    and getattr(obj, "__module__", None) == module.__name__):
                found[id(obj)] = (f"{layer}.{name}", obj)
    return found


class Tracer:
    """Span statistics per function, kept in memory for one process."""

    def __init__(self):
        self._open = [0.0]          # time covered by child spans, per open span
        self.stats = {}             # key -> [self seconds, calls]
        self.determinant_max_rank = 0
        self.connected_sum_cells = 0
        self.resolved = []          # manifolds returned by resolve, drained per request
        self._replaced = []         # (module, name, original) per wrapped binding

    def install(self) -> int:
        """Wrap every binding of every public function; returns the number
        of bindings replaced."""
        functions = _public_functions()
        wrappers = {}
        for module in _modules():
            for name, obj in list(vars(module).items()):
                hit = functions.get(id(obj))
                if hit is None:
                    continue
                key, fn = hit
                if key not in wrappers:
                    wrappers[key] = self._wrap(key, fn, self._hooks().get(key))
                setattr(module, name, wrappers[key])
                self._replaced.append((module, name, obj))
        return len(self._replaced)

    def uninstall(self) -> None:
        for module, name, original in self._replaced:
            setattr(module, name, original)
        self._replaced.clear()

    def _hooks(self):
        def determinant(args, result):
            self.determinant_max_rank = max(self.determinant_max_rank, args[0].rank)

        def connected_sum(args, result):
            rank = result.h2.rank
            self.connected_sum_cells += rank * rank + len(result.cup1) * rank

        def resolve(args, result):
            self.resolved.append(result)

        return {"lattice.determinant": determinant,
                "manifolds.connected_sum": connected_sum,
                "expressions.resolve": resolve}

    def _wrap(self, key, fn, hook):
        open_spans = self._open
        stats = self.stats[key] = [0.0, 0]
        clock = time.perf_counter

        def span(*args, **kwargs):
            open_spans.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stats[0] += elapsed - open_spans.pop()
                stats[1] += 1
                open_spans[-1] += elapsed
            if hook is not None:
                hook(args, result)
            return result

        setattr(span, MARK, key)
        return span

    def self_s(self, key: str) -> float:
        return self.stats.get(key, (0.0, 0))[0]

    def calls(self, key: str) -> int:
        return self.stats.get(key, (0.0, 0))[1]

    def layer_self_s(self, layer: str) -> float:
        return sum(s for key, (s, _) in self.stats.items() if key.split(".")[0] == layer)
