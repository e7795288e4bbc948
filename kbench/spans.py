"""Spans around the public functions of kquant's numerical layers.

The tracer wraps every public function (the names in ``__all__``) of the
modules grids, geometry, quantize, functionals and lab, plus the method
``AutomorphismLift.compose_potential``.  The program imports these
functions into each other's namespaces (``from .grids import build_grid``),
so a wrapper replaces the original in every kquant module that holds it,
not only in the module that defines it.  The source of the program is not
edited.

Each call is one span.  Its self time is its duration minus the durations
of the spans it opened.  Spans are aggregated in memory by function and
degree (the ``k`` argument, the ``degree`` of a form or lift argument, or
else the degree of the enclosing span) and handed out phase by phase
through ``take``.
"""

from __future__ import annotations

import inspect
import sys
from time import perf_counter

LAYERS = ("grids", "geometry", "quantize", "functionals", "lab")
METHODS = (("geometry", "AutomorphismLift", "compose_potential"),)


class Tracer:
    def __init__(self):
        self._open: list[list] = []  # [child time, degree] of each open span
        self._stats: dict[tuple[str, int | None], list[float]] = {}

    def install(self, package) -> None:
        """Wrap the layer functions of a freshly imported kquant package."""
        wrappers = {}
        for layer in LAYERS:
            module = getattr(package, layer)
            for name in module.__all__:
                fn = getattr(module, name)
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    wrappers[fn] = self._wrap(f"{layer}.{name}", fn)
        prefix = package.__name__ + "."
        for mod_name, module in list(sys.modules.items()):
            if mod_name == package.__name__ or mod_name.startswith(prefix):
                for attr, value in list(vars(module).items()):
                    if inspect.isfunction(value) and value in wrappers:
                        setattr(module, attr, wrappers[value])
        for layer, cls_name, meth in METHODS:
            cls = getattr(getattr(package, layer), cls_name)
            setattr(cls, meth, self._wrap(f"{layer}.{meth}", getattr(cls, meth)))

    def take(self) -> dict[tuple[str, int | None], list[float]]:
        """Return [calls, self_s, iterations] per (function, degree) and reset."""
        stats, self._stats = self._stats, {}
        return stats

    def _wrap(self, name: str, fn):
        params = list(inspect.signature(fn).parameters)
        k_at = params.index("k") if "k" in params else None
        open_spans = self._open

        def degree(args, kwargs):
            if k_at is not None:
                k = kwargs.get("k", args[k_at] if len(args) > k_at else None)
                if isinstance(k, int):
                    return k
            for arg in args:
                d = getattr(arg, "degree", None)
                if isinstance(d, int):
                    return d
            return None

        def wrapper(*args, **kwargs):
            k = degree(args, kwargs)
            if k is None and open_spans:
                k = open_spans[-1][1]
            frame = [0.0, k]
            open_spans.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span = perf_counter() - start
                open_spans.pop()
                if open_spans:
                    open_spans[-1][0] += span
                rec = self._stats.setdefault((name, k), [0, 0.0, 0])
                rec[0] += 1
                rec[1] += span - frame[0]
            log = result[-1] if isinstance(result, tuple) and result else None
            if hasattr(log, "iterations"):
                rec[2] += log.iterations
            return result

        return wrapper
