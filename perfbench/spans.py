"""In-memory span tracer that wraps the program's public functions from outside.

`Tracer.install` replaces every public module-level function of the listed
apexcsl modules (plus a few named methods) with a wrapper that records one
span {name, start, end, parent}. A function that other modules imported with
`from ... import` is replaced at each importing module's binding too.
Generator functions get a wrapper that counts the items they yield, keyed by
the span that consumes them. Probes read counts off arguments and return
values at the same boundary. Spans stay in flat arrays until `save`.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from array import array
from collections import defaultdict

import numpy as np

MODULES = ("blobio", "csl", "props", "nn", "surrogate", "factorizer", "engine", "evalkit", "cli")
# methods that carry a layer's own work; without them the network math would
# count as self time of whichever module called it
METHODS = {"nn": {"Adam": ("step",), "MLP": ("forward_cache", "backward")}}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("q")
        self.stack = [-1]
        self.counts: dict[str, float] = defaultdict(float)
        self._patches: list[tuple[object, str, object]] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def span_of(self, idx: int) -> str:
        return self.names[self.span_name[idx]] if idx >= 0 else ""

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, name, fn, probe=None):
        nid = self.name_id(name)
        names, starts, ends, parents, stack = (
            self.span_name, self.span_start, self.span_end, self.span_parent, self.stack)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if probe is not None:
                probe(self, idx, args, kwargs, result)
            return result

        return traced

    def _wrap_generator(self, name, fn):
        counts, stack = self.counts, self.stack

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            key = f"{name}@{self.span_of(stack[-1])}"
            for item in fn(*args, **kwargs):
                counts[key] += 1
                yield item

        return counted

    # -- installation --------------------------------------------------------

    def install(self, probes: dict | None = None) -> None:
        """Wrap the program; `probes` maps span names to probe(tracer, idx, args, kwargs, result)."""
        probes = probes or {}
        replaced: dict[int, object] = {}
        modules = {m: importlib.import_module(f"apexcsl.{m}") for m in MODULES}
        for short, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                name = f"{short}.{attr}"
                if inspect.isgeneratorfunction(obj):
                    replaced[id(obj)] = self._wrap_generator(name, obj)
                else:
                    replaced[id(obj)] = self._wrap(name, obj, probes.get(name))
            for cls_name, methods in METHODS.get(short, {}).items():
                cls = getattr(mod, cls_name)
                for meth in methods:
                    name = f"{short}.{cls_name}.{meth}"
                    self._patch(cls, meth, self._wrap(name, vars(cls)[meth], probes.get(name)))
        # rebind every module-level name that refers to a wrapped function,
        # including names imported into other modules and the package root
        owners = [importlib.import_module("apexcsl"), *modules.values()]
        for owner in owners:
            for attr, obj in list(vars(owner).items()):
                if id(obj) in replaced and inspect.isfunction(obj):
                    self._patch(owner, attr, replaced[id(obj)])

    def _patch(self, owner, attr, new) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, old = self._patches.pop()
            setattr(owner, attr, old)

    # -- records -------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.span_name, dtype=np.int32).copy(),
            "start": np.frombuffer(self.span_start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.span_end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.span_parent, dtype=np.int64).copy(),
        }

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), counts_keys=np.array(list(self.counts), dtype=str),
                 counts_values=np.array(list(self.counts.values()), dtype=np.float64), **self.arrays())


class SpanTable:
    """Aggregates over recorded spans: inclusive and self time per name."""

    def __init__(self, tracer: Tracer):
        a = tracer.arrays()
        self.names = tracer.names
        self.name = a["name"]
        self.parent = a["parent"]
        self.duration = a["end"] - a["start"]
        child = np.zeros(len(self.duration))
        has_parent = self.parent >= 0
        np.add.at(child, self.parent[has_parent], self.duration[has_parent])
        self.self_time = self.duration - child
        n = len(self.names)
        self.inclusive = np.bincount(self.name, weights=self.duration, minlength=n)
        self.self_by_name = np.bincount(self.name, weights=self.self_time, minlength=n)
        self.calls = np.bincount(self.name, minlength=n)

    def _id(self, name: str) -> int | None:
        return self.names.index(name) if name in self.names else None

    def total(self, name: str) -> float:
        i = self._id(name)
        return float(self.inclusive[i]) if i is not None else 0.0

    def count(self, name: str) -> int:
        i = self._id(name)
        return int(self.calls[i]) if i is not None else 0

    def layer_self(self, layer: str) -> float:
        return float(sum(self.self_by_name[i] for i, n in enumerate(self.names)
                         if n.split(".", 1)[0] == layer))

    def under(self, name: str, parent_name: str) -> float:
        """Summed duration of `name` spans whose direct parent is a `parent_name` span."""
        i, p = self._id(name), self._id(parent_name)
        if i is None or p is None:
            return 0.0
        sel = (self.name == i) & (self.parent >= 0)
        sel[sel] = self.name[self.parent[sel]] == p
        return float(self.duration[sel].sum())

    def roots(self) -> float:
        return float(self.duration[self.parent < 0].sum())
