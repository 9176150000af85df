"""In-memory span tracer that wraps a package's functions from outside.

The tracer replaces every binding of a traced function -- in the module that
defines it, in the package namespace and in every module that imported it by
name -- with a wrapper that records a span.  Python resolves module globals
at call time, so intra-module calls go through the wrapper too.  Methods are
patched on their class.  ``uninstall`` puts every original binding back.

Spans are kept in parallel lists (name, parent, start, end); aggregation
after the run turns them into per-name call counts, total and self times.
A span's self time is its duration minus the durations of its direct
children.
"""

import functools
import inspect
import math
import time
from collections import defaultdict


class Tracer:
    """Records nested spans for wrapped callables, plus named counters."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names = []
        self.parents = []
        self.starts = []
        self.ends = []
        self.counters = defaultdict(int)
        self._stack = []
        self._patches = []  # (owner, attribute, original)

    def span(self, name, fn, hook=None):
        """Wrapper around ``fn`` that records one span named ``name`` per call.

        ``hook(tracer, args, kwargs, result)`` runs after the span closes, so
        its cost is not charged to the span.
        """
        names, parents, starts, ends = self.names, self.parents, self.starts, self.ends
        stack, clock = self._stack, self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(starts)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(sid)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        wrapper.__traced__ = fn
        return wrapper

    def counter(self, name, fn):
        """Wrapper that only counts calls of ``fn`` under ``name``."""
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counters[name] += 1
            return fn(*args, **kwargs)

        wrapper.__traced__ = fn
        return wrapper

    def patch(self, owner, attribute, wrapper):
        self._patches.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, wrapper)

    def install(self, layers, namespaces, methods=(), counted=(), hooks=None):
        """Wrap the public functions of each layer module wherever they are bound.

        ``layers`` maps a layer name to its module; ``namespaces`` are the
        modules whose global bindings are searched for the originals (the
        package and all its submodules).  ``methods`` lists
        ``(layer, class, method)`` triples patched on the class; ``counted``
        lists ``(counter name, owner, attribute)`` triples that are counted
        without a span.  ``hooks`` maps span names to post-call hooks.
        """
        hooks = hooks or {}
        wrappers = {}
        for layer, module in layers.items():
            for attr, fn in vars(module).items():
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(fn)
                    or fn.__module__ != module.__name__
                ):
                    continue
                name = f"{layer}.{attr}"
                wrappers[id(fn)] = (fn, self.span(name, fn, hooks.get(name)))
        for module in namespaces:
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self.patch(module, attr, hit[1])
        for layer, cls, attr in methods:
            name = f"{layer}.{cls.__name__}.{attr}"
            self.patch(cls, attr, self.span(name, vars(cls)[attr], hooks.get(name)))
        for name, owner, attr in counted:
            self.patch(owner, attr, self.counter(name, getattr(owner, attr)))

    def uninstall(self):
        """Restore every patched binding, newest first."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def summary(self):
        """Per-span-name ``{"calls", "total_s", "self_s", "durations"}``."""
        selfs = self_times(self.parents, self.starts, self.ends)
        out = {}
        for name, start, end, own in zip(self.names, self.starts, self.ends, selfs):
            entry = out.setdefault(
                name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "durations": []}
            )
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += own
            entry["durations"].append(end - start)
        return out


def self_times(parents, starts, ends):
    """Self time of each span: its duration minus its direct children's."""
    child = [0.0] * len(starts)
    for parent, start, end in zip(parents, starts, ends):
        if parent >= 0:
            child[parent] += end - start
    return [end - start - c for start, end, c in zip(starts, ends, child)]


def layer_totals(summary):
    """Sum calls and self time over span names sharing a layer prefix."""
    totals = {}
    for name, entry in summary.items():
        layer = name.split(".", 1)[0]
        acc = totals.setdefault(layer, {"calls": 0, "self_s": 0.0})
        acc["calls"] += entry["calls"]
        acc["self_s"] += entry["self_s"]
    return totals


def nearest_rank(values, pct):
    """Nearest-rank percentile: the smallest value with ``pct``% at or below it."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    return ordered[max(_rank(pct, len(ordered)), 1) - 1]


def _rank(pct, n):
    # rounding first keeps 99.9% of 1000 at rank 999, not 1000
    return math.ceil(round(pct * n / 100.0, 6))


def min_samples(pct, beyond=10):
    """Fewest samples for which the ``pct`` percentile has ``beyond`` samples above it."""
    n = beyond
    while n - _rank(pct, n) < beyond:
        n += 1
    return n


def leftover_wrappers(owners):
    """``owner.attribute`` names, over modules and classes, still bound to a wrapper."""
    return [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner in owners
        for attr, value in list(vars(owner).items())
        if hasattr(value, "__traced__")
    ]
