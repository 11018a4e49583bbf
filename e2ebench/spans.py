"""Timing wrappers patched over the package's functions from outside it.

A target names a function by the module that defines it.  Installing it
wraps the function once and rebinds every ``promil.*`` module attribute that
holds the original object, so callers that imported the name
(``from .network import forward_bag``) and aliases (``auc as auc_metric``)
are timed too.  A target whose function no longer exists is recorded as
absent and skipped; nothing else depends on it.

Each wrapper records a span: the call's duration, the time its wrapped
children took (so self time is duration minus children), a call count,
and optional counters taken from the call's arguments or result.  Spans
are kept as running sums in memory; nothing is written while timing.
Work the benchmark itself does inside a span (``Tracer.excluded``) is
left out of every span around it.
"""

import importlib
import sys
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter


@dataclass(frozen=True)
class Target:
    """One function to time: ``module.attr``, or ``module.Class.attr``."""

    name: str                 # span name, e.g. "network.forward"
    module: str               # defining module, e.g. "promil.network"
    attr: str                 # "forward_bag" or "SortedPredictions.from_raw"
    on_call: object = None    # f(tracer, args, kwargs), called before the call
    on_return: object = None  # f(tracer, args, kwargs, result)


class Tracer:
    """Running sums of span time per name; ``sampled`` names also keep each
    call's duration."""

    def __init__(self, sampled=()):
        self.sampled = frozenset(sampled)
        self.samples = defaultdict(list)
        self.total = defaultdict(float)
        self.child = defaultdict(float)
        self.calls = defaultdict(int)
        self.count = defaultdict(float)
        self.captured = {}
        self.absent = set()
        self.excluded = 0.0   # seconds of benchmark work inside spans, see exclude()
        self._stack = []
        self._patches = []

    # -- spans -------------------------------------------------------------

    def current(self):
        return self._stack[-1][0] if self._stack else None

    def span(self, name, fn, *args, **kwargs):
        """Call fn inside a span called name; returns fn's result."""
        frame = [name, 0.0]
        self._stack.append(frame)
        x0 = self.excluded
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = perf_counter() - t0 - (self.excluded - x0)
            self._stack.pop()
            self.total[name] += dt
            self.child[name] += frame[1]
            self.calls[name] += 1
            if name in self.sampled:
                self.samples[name].append(dt)
            if self._stack:
                self._stack[-1][1] += dt

    def exclude(self, fn):
        """Call fn, leaving its time out of every open span; returns fn's
        result."""
        t0 = perf_counter()
        try:
            return fn()
        finally:
            self.excluded += perf_counter() - t0

    def _wrap(self, target, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            if target.on_call is not None:
                target.on_call(tracer, args, kwargs)
            result = tracer.span(target.name, fn, *args, **kwargs)
            if target.on_return is not None:
                target.on_return(tracer, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", target.name)
        return wrapper

    # -- patching ----------------------------------------------------------

    def install(self, targets):
        for target in targets:
            self._install_one(target)

    def _install_one(self, target):
        try:
            module = importlib.import_module(target.module)
        except ImportError:
            self.absent.add(target.name)
            return
        owner_path, _, leaf = target.attr.rpartition(".")
        owner = module
        for part in filter(None, owner_path.split(".")):
            owner = getattr(owner, part, None)
        if owner is None or leaf not in vars(owner):
            self.absent.add(target.name)
            return
        original = vars(owner)[leaf]
        if isinstance(owner, type):
            # A method: rebind it on its class, keeping classmethod form.
            if isinstance(original, classmethod):
                wrapped = classmethod(self._wrap(target, original.__func__))
            else:
                wrapped = self._wrap(target, original)
            self._patch(owner, leaf, original, wrapped)
            return
        wrapped = self._wrap(target, original)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "promil" or mod_name.startswith("promil.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, attr, original, wrapped)

    def _patch(self, owner, attr, original, wrapped):
        setattr(owner, attr, wrapped)
        self._patches.append((owner, attr, original))

    def remove(self):
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

