"""Span tracer for the benchmark's traced pass.

The tracer replaces every public function of the traced package modules
with a wrapper that records one span per call: its label, the span that
was open when it started (its parent), and its start and end times.
Spans stay in memory; `summary` turns them into calls, total time and
self time (duration minus the time covered by child spans) per label.

Functions are replaced wherever the package holds a reference to them:
module attributes (including names imported from a sibling module) and
module-level tuples of functions such as the oracle suite's check list.
Calls between methods of one object and calls to private helpers are not
spans, so their time counts as self time of the public caller.
"""

from __future__ import annotations

import functools
import sys
import time
import types
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass(slots=True)
class LabelStats:
    """Aggregate of all spans with one label."""

    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


class Tracer:
    """Records spans with parent links for the functions it wraps.

    `aliases` maps (module, function) to the short name used in labels;
    other functions are labelled `<module>.<function>`.
    """

    def __init__(self, aliases: dict):
        self.aliases = aliases
        self.labels: list = []
        self.parents: list = []
        self.starts: list = []
        self.ends: list = []
        self.wrapped: set = set()
        self.warnings: list = []
        self._stack: list = []

    def _wrap(self, label: str, fn):
        labels, parents, starts, ends, stack = (
            self.labels, self.parents, self.starts, self.ends, self._stack
        )
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(labels)
            labels.append(label)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                starts[index] = start
                stack.pop()

        return traced

    @contextmanager
    def installed(self, package: str, modules: tuple):
        """Wrap every public function of `package.<module>` for each module.

        Restores every replaced reference on exit, also after an error.
        """
        loaded = [
            mod for name, mod in list(sys.modules.items())
            if name == package or name.startswith(package + ".")
        ]
        patches = []
        try:
            for short in modules:
                module = sys.modules.get(f"{package}.{short}")
                if module is None:
                    self.warnings.append(f"module {package}.{short} not loaded; not traced")
                    continue
                for attr, fn in list(vars(module).items()):
                    if (
                        attr.startswith("_")
                        or not isinstance(fn, types.FunctionType)
                        or fn.__module__ != module.__name__
                    ):
                        continue
                    label = f"{short}.{self.aliases.get((short, attr), attr)}"
                    patches += _replace_everywhere(loaded, fn, self._wrap(label, fn))
                    self.wrapped.add(label)
            yield self
        finally:
            for mod, attr, original in reversed(patches):
                setattr(mod, attr, original)

    def summary(self) -> dict:
        """label -> LabelStats, with self time net of child spans."""
        child = [0.0] * len(self.labels)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                child[parent] += self.ends[i] - self.starts[i]
        stats: dict = {}
        for i, label in enumerate(self.labels):
            entry = stats.setdefault(label, LabelStats())
            duration = self.ends[i] - self.starts[i]
            entry.calls += 1
            entry.total_s += duration
            entry.self_s += duration - child[i]
        return stats


def _replace_everywhere(modules: list, original, wrapper) -> list:
    """Point every module-level reference to `original` at `wrapper`.

    Returns (module, attribute, old value) for each replacement made.
    """
    patches = []
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if value is original:
                new = wrapper
            elif isinstance(value, tuple) and any(v is original for v in value):
                new = tuple(wrapper if v is original else v for v in value)
            else:
                continue
            patches.append((mod, attr, value))
            setattr(mod, attr, new)
    return patches
