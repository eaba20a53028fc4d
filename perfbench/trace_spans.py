"""In-memory span tracer installed around the program's public functions.

The program is not modified: ``install`` replaces, in the namespaces of the ``cvsteer``
modules, every reference to a public function of the traced layers by a wrapper that
records a span (layer, function, start, end, parent span). The quadrature entry
points also get their integrand (and the 2-D inner zero-hint callback) wrapped, which
counts integrand points and the time spent inside them. Spans stay in memory until
``dump`` writes them as one JSON file.

References inside ``quadrature`` itself are left alone: its drivers call
``adaptive_panels`` as their own engine, and wrapping those calls would count the same
integrand points twice.
"""

from __future__ import annotations

import importlib
import json
import time
import types
from functools import wraps

LAYERS = ("cli", "sweep", "criteria", "quadrature", "fock")
QUADRATURE_WITH_INTEGRAND = ("adaptive_panels", "integrate_entropy_1d", "integrate_entropy_2d")

# Span record fields (lists are cheaper than objects on the hot path).
ID, PARENT, NAME, START, END, POINTS, INTEGRAND_S, INTEGRAND_CALLS, HINT_S, MISS = range(10)


class Tracer:
    """Spans of one process, kept in memory until ``dump``."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.meta: dict[str, float] = {}

    def _open(self, name: str) -> list:
        rec = [len(self.spans), self.stack[-1] if self.stack else -1, name,
               0.0, 0.0, 0, 0.0, 0, 0.0, False]
        self.spans.append(rec)
        self.stack.append(rec[ID])
        return rec

    def _close(self, rec: list) -> None:
        rec[END] = time.perf_counter()
        self.stack.pop()

    def wrap(self, name: str, fn):
        cache_info = getattr(fn, "cache_info", None)
        with_integrand = name.startswith("quadrature.") and \
            name.split(".", 1)[1] in QUADRATURE_WITH_INTEGRAND

        @wraps(fn)
        def traced(*args, **kwargs):
            rec = self._open(name)
            if with_integrand:
                args = (_counted(rec, args[0]),) + args[1:]
                if kwargs.get("inner_breakpoints") is not None:
                    kwargs["inner_breakpoints"] = _timed_hints(rec, kwargs["inner_breakpoints"])
            misses = cache_info().misses if cache_info else 0
            rec[START] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(rec)
                if cache_info:
                    rec[MISS] = cache_info().misses > misses

        return traced

    def call(self, name: str, fn, *args, **kwargs):
        return self.wrap(name, fn)(*args, **kwargs)

    def install(self) -> None:
        """Wrap every public function of the traced layers wherever it is referenced."""
        modules = {layer: importlib.import_module(f"cvsteer.{layer}") for layer in LAYERS}
        originals: dict[int, tuple[str, object]] = {}
        for layer, mod in modules.items():
            for attr in getattr(mod, "__all__", ()):
                obj = getattr(mod, attr)
                if isinstance(obj, types.FunctionType) or hasattr(obj, "cache_info"):
                    originals[id(obj)] = (f"{layer}.{attr}", obj)
        wrappers = {key: self.wrap(name, fn) for key, (name, fn) in originals.items()}
        namespaces = [importlib.import_module("cvsteer")] + [
            mod for layer, mod in modules.items() if layer != "quadrature"]
        for mod in namespaces:
            for attr, value in list(vars(mod).items()):
                if id(value) in wrappers:
                    setattr(mod, attr, wrappers[id(value)])

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"meta": self.meta, "spans": self.spans}, fh)


def _counted(rec: list, f):
    def integrand(*xs):
        t0 = time.perf_counter()
        out = f(*xs)
        rec[INTEGRAND_S] += time.perf_counter() - t0
        rec[POINTS] += len(xs[-1])
        rec[INTEGRAND_CALLS] += 1
        return out
    return integrand


def _timed_hints(rec: list, hints):
    def timed(avals):
        t0 = time.perf_counter()
        out = hints(avals)
        rec[HINT_S] += time.perf_counter() - t0
        return out
    return timed
