"""Layer tracer: spans and per-layer self time around the simulator's entry points.

A :class:`LayerTracer` maps layer names to entry points written as
``"module:qualname"`` (``"repro.runtime.graph_cache:get_graph"``,
``"repro.runtime.scheduler:QueryScheduler.run"``). Entering the tracer
looks each entry point up *at that moment* and replaces it with a timing
wrapper; leaving it puts every original object back, also when the
traced code raised. An entry point that no longer exists is reported in
:attr:`LayerTracer.absent` and traced as zero calls, so the benchmark
keeps running when a refactor deletes it.

Only calls made inside :meth:`LayerTracer.op` are recorded. Each one
records a span ``(target, start, end, parent)``; a layer's self time is
the duration of its calls minus the part covered by traced calls nested
inside them. Entry points named in ``per_batch`` run once per simulated
batch or query, so their calls add to the layer's counters without
allocating a span.

A module-level function is replaced in every loaded module that holds
it, which covers ``from x import f`` bindings made before the tracer
was entered; a method is replaced on its class.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterable, Iterator, List, Mapping, Optional, Tuple

__all__ = ["LayerStats", "LayerTracer", "Span", "span_cost_us"]

#: ``(target, start_s, end_s, parent index)``; the op's root span has
#: target ``"op"`` and parent ``-1``.
Span = Tuple[str, float, float, int]


class LayerStats:
    """Calls and self seconds of one layer."""

    __slots__ = ("calls", "self_s")

    def __init__(self) -> None:
        self.calls = 0
        self.self_s = 0.0


class _State:
    """What the wrappers share: the open-call stack and the records."""

    def __init__(self) -> None:
        # One frame per open traced call: [seconds covered by traced
        # children, index of the nearest enclosing span].
        self.stack: List[List[Any]] = []
        # A span's slot is reserved when its call begins and filled when
        # it returns, so parents precede their children.
        self.spans: List[Optional[Span]] = []
        self.kept: List[Tuple[str, Any, Any]] = []


def _wrap(
    fn: Callable,
    target: str,
    stats: LayerStats,
    state: _State,
    per_batch: bool,
    keep: bool,
) -> Callable:
    stack, spans, kept = state.stack, state.spans, state.kept
    clock = time.perf_counter

    if per_batch:
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            parent = stack[-1]
            frame = [0.0, parent[1]]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - t0
                stack.pop()
                parent[0] += duration
                stats.calls += 1
                stats.self_s += duration - frame[0]

        return counted

    @functools.wraps(fn)
    def spanned(*args, **kwargs):
        if not stack:
            return fn(*args, **kwargs)
        parent = stack[-1]
        index = len(spans)
        spans.append(None)
        frame = [0.0, index]
        stack.append(frame)
        t0 = clock()
        try:
            result = fn(*args, **kwargs)
            if keep:
                kept.append((target, args[0] if args else None, result))
            return result
        finally:
            t1 = clock()
            stack.pop()
            duration = t1 - t0
            parent[0] += duration
            stats.calls += 1
            stats.self_s += duration - frame[0]
            spans[index] = (target, t0, t1, parent[1])

    return spanned


def _resolve(target: str) -> Optional[Tuple[Any, str, Any]]:
    """``(owner, attribute, raw object)`` for ``"module:qualname"``, or
    ``None`` when the module or attribute does not exist. For a class
    owner, only an attribute the class defines itself counts."""
    module_name, _, qualname = target.partition(":")
    try:
        owner: Any = importlib.import_module(module_name)
    except ImportError:
        return None
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    raw = vars(owner).get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
    if raw is None:
        return None
    return owner, attr, raw


class LayerTracer:
    """Context manager that traces the entry points of each layer.

    ``layers`` maps a layer name to its entry points. ``per_batch``
    names entry points traced by counters only; ``keep`` names entry
    points whose first argument and return value are appended to
    :attr:`kept`, for counters derived from simulation results.
    """

    def __init__(
        self,
        layers: Mapping[str, Iterable[str]],
        per_batch: Iterable[str] = (),
        keep: Iterable[str] = (),
    ) -> None:
        self.layers = {name: tuple(targets) for name, targets in layers.items()}
        self.per_batch = frozenset(per_batch)
        self.keep = frozenset(keep)
        self.stats: Dict[str, LayerStats] = {name: LayerStats() for name in self.layers}
        self.absent: List[str] = []
        self.op_seconds: List[float] = []
        self._state = _State()
        self._restore: List[Tuple[Any, str, Any]] = []

    # -- records -------------------------------------------------------------

    @property
    def spans(self) -> List[Span]:
        """Every span so far, in the order the calls began; a span's
        parent is an index into this list."""
        return self._state.spans

    @property
    def kept(self) -> List[Tuple[str, Any, Any]]:
        return self._state.kept

    @contextmanager
    def op(self) -> Iterator[None]:
        """Trace one op: the root span every traced call nests under."""
        state = self._state
        if state.stack:
            raise RuntimeError("LayerTracer.op() does not nest")
        index = len(state.spans)
        state.spans.append(None)
        state.stack.append([0.0, index])
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            state.stack.clear()
            state.spans[index] = ("op", t0, t1, -1)
            self.op_seconds.append(t1 - t0)

    # -- patching ------------------------------------------------------------

    def __enter__(self) -> "LayerTracer":
        try:
            self._patch()
        except BaseException:
            self._unpatch()
            raise
        return self

    def __exit__(self, *exc_info) -> None:
        self._unpatch()

    def _patch(self) -> None:
        functions: Dict[int, Tuple[Any, Callable]] = {}
        for layer, targets in self.layers.items():
            for target in targets:
                found = _resolve(target)
                if found is None:
                    self.absent.append(target)
                    continue
                owner, attr, raw = found
                kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
                fn = raw.__func__ if kind is not None else raw
                wrapper = _wrap(
                    fn, target, self.stats[layer], self._state,
                    per_batch=target in self.per_batch,
                    keep=target in self.keep,
                )
                if isinstance(owner, type):
                    self._set(owner, attr, kind(wrapper) if kind is not None else wrapper)
                else:
                    functions[id(raw)] = (raw, wrapper)
        if not functions:
            return
        for module in list(sys.modules.values()):
            namespace = getattr(module, "__dict__", None)
            if not isinstance(namespace, dict):
                continue
            for name, value in list(namespace.items()):
                hit = functions.get(id(value))
                if hit is not None and hit[0] is value:
                    self._set(module, name, hit[1])

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _unpatch(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)


def span_cost_us(calls: int = 20_000, repeats: int = 5) -> float:
    """Host cost of one traced call of an empty function, in µs: the
    median over ``repeats`` of (wrapped - bare) time per call."""

    def empty() -> None:
        return None

    state = _State()
    wrapped = _wrap(empty, "empty", LayerStats(), state, per_batch=False, keep=False)
    clock = time.perf_counter
    costs = []
    for _ in range(repeats):
        state.spans.clear()
        state.stack[:] = [[0.0, -1]]
        t0 = clock()
        for _ in range(calls):
            empty()
        bare = clock() - t0
        t0 = clock()
        for _ in range(calls):
            wrapped()
        costs.append((clock() - t0 - bare) / calls * 1e6)
    return statistics.median(costs)
