"""Span and counter recording for the benchmark's traced run.

The package itself carries no instrumentation, so the tracer wraps public
functions from outside and rebinds each wrapper everywhere a caller would
look the function up: in its defining module and in every other module
that imported it by value (``from .model import prepare_batch``).

A span is one call of a wrapped function: its name, the phase the
benchmark was in, the request or step it served, its parent span, start
and end. Everything runs on one thread, so spans nest strictly and a
span's self time is its duration minus the durations of its direct
children. Counters wrap hot kernels and add a shape-derived quantity per
call without timing them, so they add no span and take no self time.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from dataclasses import dataclass


@dataclass
class LayerStats:
    calls: int = 0
    total: float = 0.0
    self_time: float = 0.0


class Tracer:
    """In-memory spans and counters, keyed by (phase, name)."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.phase = "idle"
        self.unit = -1  # request index or step number the current work serves
        self.spans: list[tuple[int, int, str, str, int, float, float]] = []
        self.stats: dict[tuple[str, str], LayerStats] = defaultdict(LayerStats)
        self.counts: dict[tuple[str, str], int] = defaultdict(int)
        self._stack: list[list] = []  # [span id, child seconds]
        self._next_id = 0

    def span(self, name: str, fn):
        """`fn` wrapped so that each call records a span called `name`."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1][0] if self._stack else -1
            frame = [span_id, 0.0]
            self._stack.append(frame)
            start = self.clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = self.clock()
                self._stack.pop()
                duration = end - start
                rec = self.stats[(self.phase, name)]
                rec.calls += 1
                rec.total += duration
                rec.self_time += duration - frame[1]
                if self._stack:
                    self._stack[-1][1] += duration
                self.spans.append((span_id, parent, name, self.phase, self.unit, start, end))

        return wrapper

    def counter(self, fn, measure):
        """`fn` wrapped so that each call adds `measure(*args)`, a {counter: amount} dict."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            for name, amount in measure(*args, **kwargs).items():
                self.counts[(self.phase, name)] += int(amount)
            return fn(*args, **kwargs)

        return wrapper

    def layer(self, phase: str, name: str) -> LayerStats:
        return self.stats.get((phase, name), LayerStats())

    def count(self, phase: str, name: str) -> int:
        return self.counts.get((phase, name), 0)


class Rebinder:
    """Installs wrappers in place of package functions and restores them."""

    def __init__(self, package: str):
        self.package = package
        self._undo: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Rebinder":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _modules(self):
        prefix = self.package + "."
        return [
            mod
            for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == self.package or name.startswith(prefix))
        ]

    def function(self, module_name: str, attr: str, wrap) -> list[str]:
        """Rebind module-level function `attr` of `module_name` everywhere it is bound.

        Returns the names of the modules where the wrapper was installed.
        """
        original = getattr(sys.modules[module_name], attr)
        wrapper = wrap(original)
        where = []
        for mod in self._modules():
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, key, wrapper)
                    where.append(f"{mod.__name__}.{key}")
        return where

    def method(self, module_name: str, class_name: str, attr: str, wrap) -> list[str]:
        """Replace a plain method or classmethod on a class."""
        cls = getattr(sys.modules[module_name], class_name)
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            self._set(cls, attr, classmethod(wrap(raw.__func__)))
        else:
            self._set(cls, attr, wrap(raw))
        return [f"{module_name}.{class_name}.{attr}"]

    def restore(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)
