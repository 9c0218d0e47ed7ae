"""Span tracing from outside the program under test.

``Tracer.install`` replaces chosen functions by timing wrappers at every
place a module holds them: module attributes (``from .layers import
attention`` binds ``attention`` again in ``encoder``, ``decoder`` and
``visual``), default argument values such as ``act=tn.relu``, and class
attributes for methods. ``Tracer.uninstall`` puts the originals back.

Each call records one span: name, start, end, parent span and the id of
the benchmark operation that was running. Spans stay in memory, in flat
arrays, until the run ends.
"""

from __future__ import annotations

import inspect
import time
import types
from array import array
from dataclasses import dataclass

import numpy as np

# Values of Tracer.current_op outside a timed operation.
SETUP = -1
OUTSIDE = -2


@dataclass
class Target:
    """A function to wrap: its span name, whether a call is one tensor op
    (an autodiff graph node), and an optional probe called with the bound
    arguments and the result to add to the tracer's counters."""

    name: str
    tensor_op: bool = False
    probe: object = None


class Tracer:
    def __init__(self):
        self.names = []
        self._codes = {}
        self.code = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("q")
        self.end = array("q")
        self.ops_in = array("i")  # tensor ops in the span, itself included
        self.counters = {}
        self.current_op = SETUP
        self._stack = []
        self._tensor_ops = 0
        self._restore = []

    def count(self, name, value):
        """Add to a counter; only calls inside a timed operation count."""
        if self.current_op >= 0:
            self.counters[name] = self.counters.get(name, 0) + value

    def _code_of(self, name):
        if name not in self._codes:
            self._codes[name] = len(self.names)
            self.names.append(name)
        return self._codes[name]

    def wrap(self, fn, target):
        code = self._code_of(target.name)
        tensor_op = 1 if target.tensor_op else 0
        probe = target.probe
        signature = inspect.signature(fn) if probe is not None else None
        clock = time.perf_counter_ns
        stack = self._stack
        tracer = self

        def traced(*args, **kwargs):
            sid = len(tracer.code)
            tracer.code.append(code)
            tracer.parent.append(stack[-1] if stack else -1)
            tracer.op.append(tracer.current_op)
            tracer.end.append(0)
            tracer.ops_in.append(0)
            tracer._tensor_ops += tensor_op
            before = tracer._tensor_ops - tensor_op
            stack.append(sid)
            tracer.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end[sid] = clock()
                stack.pop()
                tracer.ops_in[sid] = tracer._tensor_ops - before
            if probe is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                probe(tracer, bound.arguments, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        return traced

    def install(self, modules, targets, methods=()):
        """Wrap every binding of each function in ``targets`` (a dict
        function -> Target) found in ``modules``, and each ``(class,
        attribute, Target)`` in ``methods``."""
        wrapped = {id(fn): (fn, self.wrap(fn, t)) for fn, t in targets.items()}

        def swap(value):
            hit = wrapped.get(id(value))
            return hit[1] if hit is not None and hit[0] is value else None

        for module in modules:
            for attr, value in list(vars(module).items()):
                new = swap(value)
                if new is not None:
                    setattr(module, attr, new)
                    self._restore.append((module, attr, value))
                if isinstance(value, types.FunctionType):
                    self._swap_defaults(value, swap)
        for cls, attr, target in methods:
            original = cls.__dict__[attr]
            setattr(cls, attr, self.wrap(original, target))
            self._restore.append((cls, attr, original))

    def _swap_defaults(self, fn, swap):
        if fn.__defaults__ and any(swap(d) for d in fn.__defaults__):
            old = fn.__defaults__
            fn.__defaults__ = tuple(swap(d) or d for d in old)
            self._restore.append((fn, "__defaults__", old))
        if fn.__kwdefaults__ and any(swap(d) for d in fn.__kwdefaults__.values()):
            old = fn.__kwdefaults__
            fn.__kwdefaults__ = {k: swap(d) or d for k, d in old.items()}
            self._restore.append((fn, "__kwdefaults__", old))

    def uninstall(self):
        while self._restore:
            setattr(*self._restore.pop())

    def spans(self):
        """The recorded spans as numpy columns, durations in ns."""
        start = np.frombuffer(self.start, dtype=np.int64)
        end = np.frombuffer(self.end, dtype=np.int64)
        return Spans(names=list(self.names),
                     code=np.frombuffer(self.code, dtype=np.int32).copy(),
                     parent=np.frombuffer(self.parent, dtype=np.int32).copy(),
                     op=np.frombuffer(self.op, dtype=np.int32).copy(),
                     start=start.copy(), duration=end - start,
                     ops_in=np.frombuffer(self.ops_in, dtype=np.int32).copy())


@dataclass
class Spans:
    names: list
    code: np.ndarray
    parent: np.ndarray
    op: np.ndarray
    start: np.ndarray
    duration: np.ndarray
    ops_in: np.ndarray

    def mask(self, name):
        if name not in self.names:
            return np.zeros(len(self.code), dtype=bool)
        return self.code == self.names.index(name)

    def self_time(self):
        """Each span's duration minus the time its direct children cover."""
        return self_time(self.parent, self.duration)

    def save(self, path):
        np.savez_compressed(path, names=np.array(self.names), code=self.code,
                            parent=self.parent, op=self.op, start=self.start,
                            duration=self.duration, ops_in=self.ops_in)


def self_time(parent, duration):
    """Self time of nested spans given each span's parent index (-1 for a
    root). Spans of one thread nest, so children never overlap."""
    parent = np.asarray(parent)
    duration = np.asarray(duration, dtype=np.int64)
    own = duration.copy()
    child = parent >= 0
    np.subtract.at(own, parent[child], duration[child])
    return own
