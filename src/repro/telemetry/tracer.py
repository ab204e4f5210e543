"""Span tracer: nested, attributed time spans in a thread-safe buffer.

Two clocks coexist deliberately:

* **wall-clock spans** (``tracer.span(...)`` context manager /
  ``@tracer.trace`` decorator) time real execution with
  ``perf_counter`` relative to the tracer's epoch — used around
  ``profile``/``run``/graph execution;
* **modeled-time spans** (``tracer.add_span(...)``) carry the
  analytical models' predicted start/duration — the per-operator
  timeline the paper's Fig 6 aggregates. They live on their own
  virtual thread ids so trace viewers render them as separate tracks.

Spans nest per thread: a span opened inside another records the outer
span as its parent and its depth, so exporters can rebuild the tree.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from functools import wraps
from typing import Any, Callable, Dict, Iterable, List, Optional

__all__ = ["Span", "Tracer", "NoopTracer", "MODELED_TID"]

#: Virtual thread id modeled-time spans default to (keeps them off the
#: wall-clock tracks in chrome://tracing / Perfetto).
MODELED_TID = 1000


@dataclass
class Span:
    """One completed span on the tracer's clock (seconds)."""

    name: str
    category: str
    start_s: float
    end_s: float
    tid: int = 0
    depth: int = 0
    span_id: int = 0
    parent_id: Optional[int] = None
    pid: int = 0  # 0 = the default trace process; replicas get their own
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration_s(self) -> float:
        return self.end_s - self.start_s


class _ThreadState(threading.local):
    def __init__(self) -> None:
        self.stack: List[int] = []  # open span ids, innermost last


class _SpanContext:
    """Context manager for one wall-clock span."""

    __slots__ = ("_tracer", "_name", "_category", "_attrs", "_start",
                 "_span_id", "_parent", "_depth")

    def __init__(self, tracer: "Tracer", name: str, category: str,
                 attrs: Dict[str, Any]) -> None:
        self._tracer = tracer
        self._name = name
        self._category = category
        self._attrs = attrs

    def __enter__(self) -> "_SpanContext":
        tracer = self._tracer
        state = tracer._thread_state
        self._span_id = tracer._next_id()
        self._parent = state.stack[-1] if state.stack else None
        self._depth = len(state.stack)
        state.stack.append(self._span_id)
        self._start = time.perf_counter() - tracer._epoch
        return self

    def set(self, **attrs: Any) -> None:
        """Attach attributes from inside the span body."""
        self._attrs.update(attrs)

    def __exit__(self, exc_type, exc, tb) -> None:
        tracer = self._tracer
        end = time.perf_counter() - tracer._epoch
        tracer._thread_state.stack.pop()
        span = Span(
            name=self._name,
            category=self._category,
            start_s=self._start,
            end_s=end,
            tid=threading.get_ident() & 0xFFFF,
            depth=self._depth,
            span_id=self._span_id,
            parent_id=self._parent,
            attrs=self._attrs,
        )
        tracer._append(span)


class Tracer:
    """Thread-safe in-memory span recorder."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._spans: List[Span] = []
        self._epoch = time.perf_counter()
        self._id = 0
        self._thread_state = _ThreadState()

    # -- recording ----------------------------------------------------------

    def _next_id(self) -> int:
        with self._lock:
            self._id += 1
            return self._id

    def _append(self, span: Span) -> None:
        with self._lock:
            self._spans.append(span)

    def span(self, name: str, category: str = "", **attrs: Any) -> _SpanContext:
        """Open a wall-clock span: ``with tracer.span("profile"): ...``"""
        return _SpanContext(self, name, category, attrs)

    def add_span(
        self,
        name: str,
        start_s: float,
        duration_s: float,
        category: str = "",
        tid: int = MODELED_TID,
        depth: int = 0,
        parent_id: Optional[int] = None,
        pid: int = 0,
        **attrs: Any,
    ) -> Span:
        """Record a span with an externally supplied (modeled) clock."""
        span = Span(
            name=name,
            category=category,
            start_s=start_s,
            end_s=start_s + duration_s,
            tid=tid,
            depth=depth,
            span_id=self._next_id(),
            parent_id=parent_id,
            pid=pid,
            attrs=attrs,
        )
        self._append(span)
        return span

    def add_spans(self, spans: Iterable[Span]) -> None:
        with self._lock:
            for span in spans:
                if span.span_id == 0:
                    self._id += 1
                    span.span_id = self._id
                self._spans.append(span)

    def trace(
        self, name: Optional[str] = None, category: str = ""
    ) -> Callable[[Callable], Callable]:
        """Decorator form: ``@tracer.trace()`` times every call."""

        def decorate(fn: Callable) -> Callable:
            span_name = name if name is not None else fn.__qualname__

            @wraps(fn)
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                with self.span(span_name, category=category):
                    return fn(*args, **kwargs)

            return wrapper

        return decorate

    # -- reading ------------------------------------------------------------

    def spans(self) -> List[Span]:
        """Completed spans in completion order (copy)."""
        with self._lock:
            return list(self._spans)

    def sorted_spans(self) -> List[Span]:
        """Completed spans ordered by start time, outermost first."""
        return sorted(self.spans(), key=lambda s: (s.start_s, s.depth))

    def __len__(self) -> int:
        return len(self._spans)

    def clear(self) -> None:
        with self._lock:
            self._spans.clear()
            self._epoch = time.perf_counter()
            self._id = 0


class _NoopSpanContext:
    """Shared, reusable do-nothing span."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpanContext":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        return None

    def set(self, **attrs: Any) -> None:
        return None


_NOOP_SPAN = _NoopSpanContext()


class NoopTracer:
    """API-compatible tracer that records nothing (the disabled default)."""

    def span(self, name: str, category: str = "", **attrs: Any) -> _NoopSpanContext:
        return _NOOP_SPAN

    def add_span(self, name: str, start_s: float, duration_s: float,
                 category: str = "", tid: int = MODELED_TID, depth: int = 0,
                 parent_id: Optional[int] = None, pid: int = 0,
                 **attrs: Any) -> None:
        return None

    def add_spans(self, spans: Iterable[Span]) -> None:
        return None

    def trace(self, name: Optional[str] = None,
              category: str = "") -> Callable[[Callable], Callable]:
        def decorate(fn: Callable) -> Callable:
            return fn

        return decorate

    def spans(self) -> List[Span]:
        return []

    def sorted_spans(self) -> List[Span]:
        return []

    def __len__(self) -> int:
        return 0

    def clear(self) -> None:
        return None
