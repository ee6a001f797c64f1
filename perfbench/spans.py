"""Spans around calls into acda's modules, recorded from outside the package.

``Tracer.install()`` replaces chosen functions and methods with wrappers
that record one span per call: layer, start, end and the index of the
enclosing span.  A function imported by name into other modules
(``from .autodiff import forward_eval``) is replaced under every name that
refers to it, so calls made from inside the package are seen too.  Spans
stay in memory and ``write_jsonl`` saves them when the run ends.  A span
nested in a span of its own layer is not counted again: a layer's calls
and time are those of its outermost spans.
"""

from __future__ import annotations

import functools
import json
import sys
import time


class Span:
    __slots__ = ("layer", "name", "start", "end", "parent", "tag", "block")

    def __init__(self, layer, name, start, parent, block):
        self.layer = layer
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.tag = None
        self.block = block


class Tracer:
    """Records spans while installed; ``block`` labels the unit of work."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._undo: list[tuple] = []
        self.block = 0

    # -- wrapping -------------------------------------------------------

    def _wrap(self, layer: str, name: str, fn, tagger=None):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            span = Span(layer, name, clock(), parent, self.block)
            if tagger is not None:
                span.tag = tagger(args)
            index = len(spans)
            spans.append(span)
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                span.end = clock()

        return traced

    def install(self, layers: dict, taggers: dict):
        """Wrap each ``"module:qualname"`` in ``layers`` under every name
        bound to it; ``taggers[key](args)`` may label its spans."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "acda" or n.startswith("acda."))]
        for key, layer in layers.items():
            mod_name, qual = key.split(":")
            owner = sys.modules[mod_name]
            parts = qual.split(".")
            for part in parts[:-1]:
                owner = getattr(owner, part)
            original = getattr(owner, parts[-1])
            wrapped = self._wrap(layer, qual, original, taggers.get(key))
            if len(parts) > 1:  # a method: patch the class attribute only
                self._set(owner, parts[-1], wrapped)
                continue
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, attr, wrapped)

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- reduction ------------------------------------------------------

    def outermost(self, layer: str, blocks=None) -> list[Span]:
        """Spans of ``layer`` with no enclosing span of the same layer."""
        out = []
        for span in self.spans:
            if span.layer != layer or (blocks is not None and span.block not in blocks):
                continue
            parent = span.parent
            while parent >= 0 and self.spans[parent].layer != layer:
                parent = self.spans[parent].parent
            if parent < 0:
                out.append(span)
        return out

    def within(self, span: Span, layer: str) -> bool:
        """True when ``span`` is nested in a span of ``layer``."""
        parent = span.parent
        while parent >= 0:
            if self.spans[parent].layer == layer:
                return True
            parent = self.spans[parent].parent
        return False

    def write_jsonl(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "layer": s.layer, "name": s.name,
                                     "start": s.start, "end": s.end,
                                     "parent": s.parent, "block": s.block,
                                     "tag": s.tag}) + "\n")


def total(spans) -> float:
    return float(sum(s.end - s.start for s in spans))
