"""Span tracing from the benchmark's side of the program's public API.

:class:`Tracer` replaces module or class attributes with timing
wrappers for the duration of a traced run and restores them after.
Each call becomes a span ``(id, parent, name, start, end)`` kept in
memory; the spans are written out once, when the run ends. A layer's
self time is its span's duration minus the duration of the spans
opened directly inside it, so nested layers are never counted twice.

Generator functions (``TransitionEnumerator.transitions``) are traced
step by step: each resumption that produces the next item is one span,
so the consumer's work between items is not charged to the generator.
"""

from __future__ import annotations

import functools
import gc
import inspect
import json
import time

_clock = time.perf_counter


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.self_time: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self._stack: list[list] = []  # [span id, child seconds]
        self._next_id = 0
        self._patches: list[tuple[object, str, object]] = []
        self.gc_seconds = 0.0
        self.gc_collections = 0
        self._gc_started = 0.0

    # -- spans ----------------------------------------------------------

    def _open(self) -> tuple[int, float]:
        self._next_id += 1
        self._stack.append([self._next_id, 0.0])
        return self._next_id, _clock()

    def _close(self, name: str, span_id: int, start: float) -> None:
        end = _clock()
        _, children = self._stack.pop()
        duration = end - start
        parent = 0
        if self._stack:
            parent = self._stack[-1][0]
            self._stack[-1][1] += duration
        self.self_time[name] = self.self_time.get(name, 0.0) + duration - children
        self.calls[name] = self.calls.get(name, 0) + 1
        self.spans.append((span_id, parent, name, start, end))

    def wrap(self, owner, attribute: str, name: str) -> None:
        """Trace every call of ``owner.attribute`` as span ``name``."""
        original = owner.__dict__[attribute] if isinstance(owner, type) else getattr(owner, attribute)
        tracer = self
        if inspect.isgeneratorfunction(original):

            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                iterator = original(*args, **kwargs)
                while True:
                    span_id, start = tracer._open()
                    try:
                        item = next(iterator)
                    except StopIteration:
                        tracer._close(name, span_id, start)
                        return
                    except BaseException:
                        tracer._close(name, span_id, start)
                        raise
                    tracer._close(name, span_id, start)
                    yield item

        else:

            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                span_id, start = tracer._open()
                try:
                    return original(*args, **kwargs)
                finally:
                    tracer._close(name, span_id, start)

        setattr(owner, attribute, wrapper)
        self._patches.append((owner, attribute, original))

    def restore(self) -> None:
        for owner, attribute, original in reversed(self._patches):
            setattr(owner, attribute, original)
        self._patches.clear()

    # -- collector ------------------------------------------------------

    def _on_gc(self, phase: str, _info: dict) -> None:
        if phase == "start":
            self._gc_started = _clock()
        else:
            self.gc_seconds += _clock() - self._gc_started
            self.gc_collections += 1

    def watch_gc(self) -> None:
        gc.callbacks.append(self._on_gc)

    def unwatch_gc(self) -> None:
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    # -- output ---------------------------------------------------------

    def write(self, path) -> None:
        """Write the spans as JSON lines (times relative to the first)."""
        origin = self.spans[0][3] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, parent, name, start, end in sorted(self.spans):
                handle.write(json.dumps({
                    "id": span_id, "parent": parent, "name": name,
                    "start_ms": round((start - origin) * 1e3, 4),
                    "end_ms": round((end - origin) * 1e3, 4),
                }) + "\n")
