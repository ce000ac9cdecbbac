"""Nested span tracing with monotonic timings.

The tracer is the event *producer* of :mod:`repro.obs`: instrumented
code opens spans (``with tracer.span("tuning.suggest"): ...``) or emits
point events (``tracer.event("cell_start", cell=...)``); finished spans
and events are pushed to the configured sinks as plain dicts (the JSONL
schema documented in docs/OBSERVABILITY.md).

Two implementations share one duck-typed interface:

:class:`Tracer`
    The real thing — maintains a span stack, stamps
    ``time.perf_counter`` timings, assigns span/parent ids, and emits a
    ``span`` record when each span closes (children therefore appear
    before their parents in the event stream).

:class:`NoopTracer`
    The disabled path.  ``span()`` returns one shared, pre-allocated
    no-op context manager and ``event()`` does nothing, so instrumented
    hot loops pay a single attribute call per site — the acceptance
    bar is < 2% overhead on the suggest fast path with tracing off.
"""

from __future__ import annotations

import itertools
import time
from typing import Callable

#: Bumped when the emitted record schema changes incompatibly.
SCHEMA_VERSION = 1

Event = dict[str, object]
EmitFn = Callable[[Event], None]


class Span:
    """One live span: name, monotonic start, attributes, tree position.

    Returned by ``Tracer.span(...)`` as a context manager; attributes
    added via :meth:`set_attribute` while the span is open are included
    in the emitted record.
    """

    __slots__ = (
        "name",
        "span_id",
        "parent_id",
        "depth",
        "t_start",
        "duration_s",
        "attrs",
        "status",
        "_tracer",
    )

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        span_id: int,
        parent_id: int | None,
        depth: int,
        attrs: dict[str, object],
    ) -> None:
        self._tracer = tracer
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.depth = depth
        self.attrs = attrs
        self.status = "ok"
        self.t_start = 0.0
        self.duration_s = 0.0

    def set_attribute(self, key: str, value: object) -> None:
        self.attrs[key] = value

    def __enter__(self) -> "Span":
        self._tracer._push(self)
        self.t_start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.duration_s = time.perf_counter() - self.t_start
        if exc_type is not None:
            self.status = "error"
            self.attrs.setdefault("exception", exc_type.__name__)
        self._tracer._pop(self)


class Tracer:
    """Emitting tracer: spans and events go to ``emit`` callables.

    Single-threaded by design — the tuning loop, engines, and studies
    all run spans on one thread per process (campaign cell processes
    and fleet workers get their own module state, hence their own
    tracer; thread-executor evaluations may interleave their engine
    spans, see docs/OBSERVABILITY.md).
    """

    enabled = True

    def __init__(self, sinks: tuple[EmitFn, ...] | list[EmitFn] = ()) -> None:
        self._sinks: tuple[EmitFn, ...] = tuple(sinks)
        self._stack: list[Span] = []
        self._ids = itertools.count(1)
        #: Offset subtracted from perf_counter stamps so event times are
        #: small run-relative seconds rather than machine-uptime values.
        self._t0 = time.perf_counter()

    # ------------------------------------------------------------------
    def span(self, name: str, **attributes: object) -> Span:
        parent = self._stack[-1] if self._stack else None
        return Span(
            self,
            name,
            span_id=next(self._ids),
            parent_id=parent.span_id if parent else None,
            depth=len(self._stack),
            attrs=attributes,
        )

    def event(self, name: str, **attributes: object) -> None:
        """Emit a point-in-time event tied to the current span."""
        parent = self._stack[-1] if self._stack else None
        self._emit(
            {
                "type": "event",
                "name": name,
                "t": time.perf_counter() - self._t0,
                "span_id": parent.span_id if parent else None,
                "attrs": attributes,
            }
        )

    @property
    def current_depth(self) -> int:
        return len(self._stack)

    # ------------------------------------------------------------------
    def _push(self, span: Span) -> None:
        self._stack.append(span)

    def _pop(self, span: Span) -> None:
        if not self._stack or self._stack[-1] is not span:
            # Mis-nested exit (a span closed out of order); recover by
            # dropping back to the matching frame rather than corrupting
            # every later parent id.
            while self._stack and self._stack[-1] is not span:
                self._stack.pop()
        if self._stack:
            self._stack.pop()
        self._emit(
            {
                "type": "span",
                "name": span.name,
                "span_id": span.span_id,
                "parent_id": span.parent_id,
                "depth": span.depth,
                "t_start": span.t_start - self._t0,
                "duration_s": span.duration_s,
                "status": span.status,
                "attrs": span.attrs,
            }
        )

    def _emit(self, record: Event) -> None:
        for sink in self._sinks:
            sink(record)


class _NoopSpan:
    """Shared do-nothing span: entering returns itself, exiting is free."""

    __slots__ = ()
    name = ""
    duration_s = 0.0

    def set_attribute(self, key: str, value: object) -> None:
        pass

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        pass


#: The singleton every NoopTracer.span() call returns.
NOOP_SPAN = _NoopSpan()


class NoopTracer:
    """Disabled tracer: zero allocation, zero emission."""

    enabled = False
    current_depth = 0

    def span(self, name: str, **attributes: object) -> _NoopSpan:
        return NOOP_SPAN

    def event(self, name: str, **attributes: object) -> None:
        pass


#: Shared disabled tracer used by the default (inactive) context.
NOOP_TRACER = NoopTracer()
