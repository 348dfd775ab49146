"""Span tracing from outside the program, for the per-layer ledger.

The tracer never edits ``src/``.  It replaces a layer's public function
at the name its *caller* looks up (for example
``repro.core.repair.solve_fast``, which is what ``repair_against_cluster``
calls) with a wrapper that records one span per call: layer, call site,
start, end, parent span and scope.  Spans stay in memory; the ledger is
computed when the run ends.

Spans nest through one global stack.  That is only sound while a single
thread does traced work at a time, which is how every traced replay runs:
``BatchRepairEngine(workers=1)`` inline, and ``RepairService`` requests
awaited one after another (the event-loop thread is idle while the
executor thread works).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from dataclasses import dataclass, field

__all__ = ["Span", "Tracer", "self_times"]


@dataclass(slots=True)
class Span:
    layer: str
    site: str
    start: float
    end: float = 0.0
    parent: int | None = None
    scope: str | None = ""
    result: object = None
    error: BaseException | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover.

    Children are the spans whose ``parent`` is the span's index.  Child
    intervals are merged first, so overlapping children are not counted
    twice; the covered part is clipped to the parent's own interval.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    result = []
    for index, span in enumerate(spans):
        covered = 0.0
        cursor = span.start
        for start, end in sorted(children.get(index, ())):
            start = max(start, cursor)
            end = min(end, span.end)
            if end > start:
                covered += end - start
                cursor = end
        result.append(span.duration - covered)
    return result


@dataclass
class Tracer:
    """Wraps layer entry points; restores them with :meth:`restore`."""

    spans: list[Span] = field(default_factory=list)
    #: Tag for new spans; ``None`` pauses recording (calls pass straight through).
    scope: str | None = ""
    _stack: list[int] = field(default_factory=list)
    _patched: list[tuple[object, str, object]] = field(default_factory=list)

    # -- installing wrappers ---------------------------------------------------

    def wrap(self, target: str, layer: str, *, keep: bool = False) -> None:
        """Wrap ``"module:attr"`` or ``"module:Class.method"`` as ``layer``.

        ``keep`` holds each call's return value (or raised exception) on its
        span, for checks that read them; other spans keep timings only.
        """
        module_name, _, attr_path = target.partition(":")
        owner: object = importlib.import_module(module_name)
        *owners, attr = attr_path.split(".")
        for name in owners:
            owner = getattr(owner, name)
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(original, (staticmethod, classmethod)):
            kind = type(original)
            wrapped = kind(self._wrapper(original.__func__, layer, target, keep))
        else:
            wrapped = self._wrapper(original, layer, target, keep)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, wrapped)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *_exc) -> None:
        self.restore()

    def _wrapper(self, function, layer: str, site: str, keep: bool):
        tracer = self
        if inspect.iscoroutinefunction(function):

            @functools.wraps(function)
            async def async_traced(*args, **kwargs):
                if tracer.scope is None:
                    return await function(*args, **kwargs)
                span = tracer._open(layer, site)
                try:
                    result = await function(*args, **kwargs)
                except BaseException as exc:
                    if keep:
                        span.error = exc
                    raise
                finally:
                    tracer._close(span)
                if keep:
                    span.result = result
                return result

            return async_traced

        @functools.wraps(function)
        def traced(*args, **kwargs):
            if tracer.scope is None:
                return function(*args, **kwargs)
            span = tracer._open(layer, site)
            try:
                result = function(*args, **kwargs)
            except BaseException as exc:
                if keep:
                    span.error = exc
                raise
            finally:
                tracer._close(span)
            if keep:
                span.result = result
            return result

        return traced

    def _open(self, layer: str, site: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(layer, site, time.perf_counter(), parent=parent, scope=self.scope)
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    # -- reading ---------------------------------------------------------------

    def select(self, *, scope: str | None = None, site: str | None = None,
               layer: str | None = None) -> list[Span]:
        return [
            span
            for span in self.spans
            if (scope is None or span.scope == scope)
            and (site is None or span.site == site)
            and (layer is None or span.layer == layer)
        ]

    def ledger(self) -> dict[str, dict[str, float]]:
        """Per layer: span count and summed self seconds."""
        out: dict[str, dict[str, float]] = {}
        for span, own in zip(self.spans, self_times(self.spans)):
            row = out.setdefault(span.layer, {"calls": 0, "self_s": 0.0})
            row["calls"] += 1
            row["self_s"] += own
        return out
