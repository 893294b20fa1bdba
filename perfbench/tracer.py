"""Per-layer tracing for the benchmark, installed from outside the library.

Every public function and method of the seven layer modules is replaced by
a wrapper that records calls, self time (its duration minus the time of
nested wrapped calls) and exceptions.  A few wrappers also count work from
their arguments and results: coefficient pairs of series products, walk
steps of ball values, scan candidates, binomial-walk steps and cache hits.
Those counts depend only on the inputs, so they repeat exactly.

Every name that binds an original function (module globals, the package
namespace, class attributes such as ``__rmul__ = __mul__``) is rebound to
the wrapper, and ``install`` refuses to return while any reference to an
original is left outside the tracer.
"""

from __future__ import annotations

import bisect
import gc
import importlib
import inspect
import time
from collections import defaultdict

LAYERS = ("padic", "iwasawa", "ainf", "witt", "artin_hasse", "fourier", "cli")

# Dunder methods that do work worth attributing; comparison and hashing
# helpers run inside dict and sort internals and are left to their caller.
_DUNDERS = {
    "__init__", "__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
    "__rmul__", "__pow__", "__neg__", "__truediv__", "__str__",
}


def _sparse_pairs(a, b, p):
    """(pairs, pairs_kept) of a product of two dict-keyed series."""
    if not hasattr(b, "coeffs") or not isinstance(b.coeffs, dict):
        return 0, 0
    depth = max(a.depth, b.depth)
    ka = [k * p ** (depth - a.depth) for k in a.coeffs]
    kb = sorted(k * p ** (depth - b.depth) for k in b.coeffs)
    pairs = len(ka) * len(kb)
    degree = a.degree if b.degree is None else (
        b.degree if a.degree is None else min(a.degree, b.degree))
    if degree is None:
        return pairs, pairs
    bound = degree * p**depth
    return pairs, sum(bisect.bisect_left(kb, bound - k) for k in ka)


def _series_mul_counts(args, result):
    a, b = args[0], args[1]
    if isinstance(b, int):
        return {}
    pairs, kept = _sparse_pairs(a, b, a.p)
    return {"pairs": pairs, "pairs_kept": kept}


def _zp_mul_counts(args, result):
    a, b = args[0], args[1]
    if isinstance(b, int):
        return {}
    ia = [i for i, c in enumerate(a.coeffs) if c]
    jb = [j for j, c in enumerate(b.coeffs) if c]
    degree = min(a.degree, b.degree)
    kept = sum(bisect.bisect_left(jb, degree - i) for i in ia)
    return {"pairs": len(ia) * len(jb), "pairs_kept": kept}


def _walk_counts(args, result):
    return {"walk_steps": sum(m for m, c in enumerate(args[0].coeffs) if c)}


def _scan_counts(args, result):
    return {"candidates": result[0]}


# counters derived from a call's arguments and result, by wrapper key
_COUNTS = {
    "ainf.AinfElt.__mul__": _series_mul_counts,
    "witt.PerfSeries.__mul__": _series_mul_counts,
    "iwasawa.IwasawaElt.__mul__": _zp_mul_counts,
    "iwasawa.IwasawaElt.ball_measure": _walk_counts,
    "iwasawa.intersection_vs_middle_scan": _scan_counts,
}


class Tracer:
    """Span stack and per-key accumulators for one process."""

    def __init__(self):
        self.stack = [0.0]  # child time of each open span; [0] is the root
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.errors = defaultdict(int)
        self._seen_errors = []

    def reset(self):
        """Clear the accumulators in place; the wrappers hold references to them."""
        for acc in (self.calls, self.self_s, self.counts, self.errors):
            acc.clear()
        self.stack[:] = [0.0]
        self._seen_errors.clear()

    def _error(self, layer, exc):
        if isinstance(exc, Exception) and not any(e is exc for e in self._seen_errors):
            self._seen_errors.append(exc)
            self.errors[layer] += 1

    def wrap(self, key, layer, fn):
        stack, calls, self_s, counts = self.stack, self.calls, self.self_s, self.counts
        perf = time.perf_counter
        extra = _COUNTS.get(key)
        cached = hasattr(fn, "cache_info")

        if inspect.isgeneratorfunction(fn):
            def traced_gen(*args, **kwargs):
                calls[key] += 1
                it = fn(*args, **kwargs)
                steps = 0
                try:
                    while True:
                        stack.append(0.0)
                        t0 = perf()
                        try:
                            value = next(it)
                        except StopIteration:
                            return
                        except BaseException as e:
                            self._error(layer, e)
                            raise
                        finally:
                            dt = perf() - t0
                            self_s[key] += dt - stack.pop()
                            stack[-1] += dt
                        steps += 1
                        yield value
                finally:
                    counts[key + ".steps"] += steps
                    it.close()
            return traced_gen

        def traced(*args, **kwargs):
            calls[key] += 1
            if cached:
                hits = fn.cache_info().hits
            stack.append(0.0)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            except BaseException as e:
                self._error(layer, e)
                raise
            finally:
                dt = perf() - t0
                self_s[key] += dt - stack.pop()
                stack[-1] += dt
            if cached or extra is not None:
                t1 = perf()
                if cached:
                    counts[key + ".cache_hits"] += fn.cache_info().hits - hits
                if extra is not None:
                    for name, n in extra(args, result).items():
                        counts[key + "." + name] += n
                # counting is the tracer's own work: no layer's self time
                stack[-1] += perf() - t1
            return result
        return traced


def _targets(mod, layer):
    """(holder, attribute, function, classmethod/staticmethod or None, key)
    for every callable of ``mod`` to wrap."""
    out = []
    for name, obj in vars(mod).items():
        if inspect.isclass(obj) and obj.__module__ == mod.__name__:
            for attr, raw in vars(obj).items():
                fn, kind = raw, None
                if isinstance(raw, (classmethod, staticmethod)):
                    fn, kind = raw.__func__, type(raw)
                if not inspect.isfunction(fn):
                    continue
                if attr.startswith("_") and attr not in _DUNDERS:
                    continue
                out.append((obj, attr, fn, kind, f"{layer}.{obj.__name__}.{fn.__name__}"))
        elif name.startswith("_"):
            continue
        elif (inspect.isfunction(obj) or hasattr(obj, "cache_info")) and (
            getattr(obj, "__module__", None) == mod.__name__
        ):
            out.append((mod, name, obj, None, f"{layer}.{name}"))
    return out


def install():
    """Wrap every public callable of the layer modules; return the tracer."""
    tracer = Tracer()
    pkg = importlib.import_module("padic_fourier")
    mods = {layer: importlib.import_module(f"padic_fourier.{layer}") for layer in LAYERS}
    wrapped = {}  # id(original function) -> (original, wrapper)
    for layer, mod in mods.items():
        for holder, attr, fn, kind, key in _targets(mod, layer):
            if id(fn) not in wrapped:
                wrapped[id(fn)] = (fn, tracer.wrap(key, layer, fn))
            new = wrapped[id(fn)][1]
            setattr(holder, attr, kind(new) if kind else new)
    # rebind every copy made by `from .x import name`, here and in the package
    namespaces = [pkg] + [m for m in list(vars(pkg).values()) if inspect.ismodule(m)]
    for ns in namespaces:
        for name, val in list(vars(ns).items()):
            if id(val) in wrapped and val is wrapped[id(val)][0]:
                setattr(ns, name, wrapped[id(val)][1])
    _check_complete(wrapped)
    return tracer


def _check_complete(wrapped):
    """Raise if any object outside the tracer still references an original."""
    gc.collect()
    mine = {id(wrapped)} | {id(pair) for pair in wrapped.values()}
    left = []
    for fn, new in wrapped.values():
        cells = set(map(id, getattr(new, "__closure__", None) or ()))
        for ref in gc.get_referrers(fn):
            if id(ref) in mine or id(ref) in cells or inspect.isframe(ref):
                continue
            left.append((getattr(fn, "__qualname__", repr(fn)), type(ref).__name__))
    if left:
        raise RuntimeError(f"unwrapped bindings remain: {left[:10]}")
