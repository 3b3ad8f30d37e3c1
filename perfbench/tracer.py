"""Span tracing of the dyadica layers, applied from outside the package.

``Tracer.install`` replaces every public module-level function of the
layer modules with a wrapper that records one span per call: name id,
start, end and parent span.  Modules import each other's names
(``from .haar import level_average``), so the wrapper is bound under every
module-level alias in every ``dyadica`` module, not just the defining one.
The suite functions of ``dyadica.cli`` are private but are what the
per-suite wall times attribute to, so they are wrapped in the suite table.

Spans live in flat arrays (24 bytes per span) and are reduced once, after
the work, by ``Tracer.summary``.  The tracer assumes one thread; the
benchmark pins ``DYADICA_THREADS=1``.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from array import array

LAYERS = ("grid", "dyadic", "haar", "fracops", "weights", "analysis", "paracomm", "cli")

# Functions whose individual call times are kept for median and tail.
PER_CALL = {
    "paracomm.paraproduct": "paracomm.paraproduct.call",
    "haar.level_average": "haar.level_ops.call",
    "haar.level_difference": "haar.level_ops.call",
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self._stack: list[int] = []
        self.cache_bytes: dict[str, int] = {}
        self.cells: dict[str, int] = {}
        self.system_times: list[float] = []
        self.wrapped: dict[str, object] = {}

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, qname, fn):
        nid = len(self.names)
        self.names.append(qname)
        start, end, name, parent, stack = (
            self.start, self.end, self.name, self.parent, self._stack,
        )
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(name)
            name.append(nid)
            parent.append(stack[-1] if stack else -1)
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                start[idx] = t0
                stack.pop()

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", qname)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def _wrap_cached(self, qname, fn):
        """An ``lru_cache`` function: also add the result's size on each miss."""
        self.cache_bytes[qname] = 0
        info = fn.cache_info

        def counted(*args, **kwargs):
            misses = info().misses
            out = fn(*args, **kwargs)
            if info().misses != misses:
                self.cache_bytes[qname] += out.nbytes
            return out

        wrapper = self._wrap(qname, counted)
        wrapper.cache_info = fn.cache_info
        wrapper.cache_clear = fn.cache_clear
        return wrapper

    def _wrap_strong_maximal(self, qname, fn):
        self.cells[qname] = 0

        def counted(f, *args, **kwargs):
            self.cells[qname] += f.values.size
            return fn(f, *args, **kwargs)

        return self._wrap(qname, counted)

    def _wrap_verify_representation(self, qname, fn):
        """Time each system of the scan: the gap between successive
        requests the function makes to its ``systems`` iterable."""
        times = self.system_times
        clock = time.perf_counter

        def timed(systems):
            last = None
            for system in systems:
                now = clock()
                if last is not None:
                    times.append(now - last)
                last = now
                yield system
            if last is not None:
                times.append(clock() - last)

        def counted(f, g, lam, params, systems):
            return fn(f, g, lam, params, timed(systems))

        return self._wrap(qname, counted)

    def install(self) -> None:
        special = {
            "analysis.strong_maximal": self._wrap_strong_maximal,
            "fracops.verify_representation": self._wrap_verify_representation,
        }
        replacement = {}
        for layer in LAYERS:
            module = importlib.import_module(f"dyadica.{layer}")
            for attr, obj in vars(module).items():
                if (
                    attr.startswith("_")
                    or inspect.isclass(obj)
                    or not callable(obj)
                    or getattr(obj, "__module__", None) != module.__name__
                ):
                    continue
                qname = f"{layer}.{attr}"
                if qname in special:
                    wrapper = special[qname](qname, obj)
                elif hasattr(obj, "cache_info"):
                    wrapper = self._wrap_cached(qname, obj)
                else:
                    wrapper = self._wrap(qname, obj)
                replacement[id(obj)] = (obj, wrapper)
                self.wrapped[qname] = obj
        for modname, module in list(sys.modules.items()):
            if modname != "dyadica" and not modname.startswith("dyadica."):
                continue
            for attr, obj in list(vars(module).items()):
                hit = replacement.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(module, attr, hit[1])
        suites = sys.modules["dyadica.cli"]._SUITE_FUNCTIONS
        for suite, fn in list(suites.items()):
            suites[suite] = self._wrap(f"cli.suite.{suite}", fn)

    def unwrapped_aliases(self) -> list[str]:
        """Module-level names in ``dyadica`` still bound to an original."""
        originals = {id(fn): qname for qname, fn in self.wrapped.items()}
        left = []
        for modname, module in sys.modules.items():
            if modname != "dyadica" and not modname.startswith("dyadica."):
                continue
            for attr, obj in vars(module).items():
                if id(obj) in originals:
                    left.append(f"{modname}.{attr} -> {originals[id(obj)]}")
        return sorted(left)

    # -- reduction --------------------------------------------------------

    def summary(self) -> dict:
        """Per span name: calls, total and self seconds; per-call samples
        of the hot functions; cache and size counters."""
        import numpy as np

        name = np.array(self.name, dtype=np.int64)
        parent = np.array(self.parent, dtype=np.int64)
        dur = np.array(self.end, dtype=float) - np.array(self.start, dtype=float)
        covered = np.zeros(len(dur))
        inner = parent >= 0
        np.add.at(covered, parent[inner], dur[inner])
        own = dur - covered
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        total = np.bincount(name, weights=dur, minlength=k)
        self_s = np.bincount(name, weights=own, minlength=k)
        spans = {
            qname: {
                "calls": int(calls[i]),
                "total_s": float(total[i]),
                "self_s": float(self_s[i]),
            }
            for i, qname in enumerate(self.names)
        }
        per_call: dict[str, list[float]] = {}
        for i, qname in enumerate(self.names):
            group = PER_CALL.get(qname)
            if group is not None:
                per_call.setdefault(group, []).extend(dur[name == i].tolist())
        per_call["fracops.verify_representation.per_system"] = list(self.system_times)
        caches = {}
        for qname, nbytes in self.cache_bytes.items():
            info = self.wrapped[qname].cache_info()
            caches[qname] = {"hits": info.hits, "misses": info.misses, "bytes": nbytes}
        return {
            "n_spans": int(len(dur)),
            "spans": spans,
            "per_call": per_call,
            "caches": caches,
            "cells": dict(self.cells),
        }
