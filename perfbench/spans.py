"""In-memory span tracer for the benchmark's traced runs.

Every span is recorded from this package: around the benchmark's own calls
into the program (:meth:`Tracer.span`), and around program functions that a
traced block wraps for its duration (:meth:`Tracer.patch`).  Nothing under
``src/`` knows about it, and an untraced block runs the program unwrapped.

A span has a name (``<layer>.<function>``), start, end, parent and op id.
The parent and the op id travel in context variables, so they follow
``await`` chains, tasks created inside a span and ``asyncio.to_thread``
calls.  Spans stay in memory until the run ends.  A span's self time is its
duration minus the part of that interval its child spans cover.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import time
import types
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Tuple

_CURRENT: "contextvars.ContextVar[Optional[Span]]" = contextvars.ContextVar(
    "perfbench_span", default=None
)
_OP: "contextvars.ContextVar[int]" = contextvars.ContextVar("perfbench_op", default=-1)

#: Op id of spans recorded outside any timed op (set-up, checks).
NO_OP = -1


class Span:
    """One timed interval; ``end`` is ``None`` while it is open."""

    __slots__ = ("name", "start", "end", "parent", "op", "detail")

    def __init__(self, name: str, parent: Optional["Span"], op: int) -> None:
        self.name = name
        self.parent = parent
        self.op = op
        self.detail: Optional[float] = None
        self.end: Optional[float] = None
        self.start = time.perf_counter()

    @property
    def duration(self) -> float:
        """Seconds from start to end (the span must be closed)."""
        return self.end - self.start


class Tracer:
    """Records spans while :attr:`enabled`; owns the patches of one block."""

    def __init__(self) -> None:
        self.enabled = False
        self.spans: List[Span] = []
        self._undo: List[Callable[[], None]] = []

    # -- recording ------------------------------------------------------------

    @staticmethod
    def set_op(op: int) -> None:
        """Attribute spans opened from now on, in this context, to ``op``."""
        _OP.set(op)

    def open(self, name: str, *, current: bool = True) -> Tuple[Span, Any]:
        """Start a span; ``current=False`` keeps it from parenting others."""
        span = Span(name, _CURRENT.get(), _OP.get())
        self.spans.append(span)
        return span, (_CURRENT.set(span) if current else None)

    @staticmethod
    def close(span: Span, token: Any) -> None:
        span.end = time.perf_counter()
        if token is not None:
            _CURRENT.reset(token)

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Time a block of the benchmark's own code (no-op when disabled)."""
        if not self.enabled:
            yield
            return
        span, token = self.open(name)
        try:
            yield
        finally:
            self.close(span, token)

    # -- wrapping program functions -------------------------------------------

    def wrap(self, name: str, func: Callable) -> Callable:
        """``func`` recording one span per call (per ``next()`` for generators)."""
        tracer = self
        if inspect.iscoroutinefunction(func):

            async def wrapper(*args: Any, **kwargs: Any) -> Any:
                span, token = tracer.open(name)
                try:
                    return await func(*args, **kwargs)
                finally:
                    tracer.close(span, token)

        elif inspect.isgeneratorfunction(func):

            def wrapper(*args: Any, **kwargs: Any) -> Any:
                return tracer._traced_items(name, func(*args, **kwargs))

        else:

            def wrapper(*args: Any, **kwargs: Any) -> Any:
                span, token = tracer.open(name)
                try:
                    return func(*args, **kwargs)
                finally:
                    tracer.close(span, token)

        return functools.wraps(func)(wrapper)

    def _traced_items(self, name: str, iterator: Iterator[Any]) -> Iterator[Any]:
        # A generator's body runs inside its consumer's next() call, so each
        # step is a child span of whatever span the consumer is in.
        while True:
            span, token = self.open(name)
            try:
                item = next(iterator)
            except StopIteration:
                return
            finally:
                self.close(span, token)
            yield item

    def patch(self, owner: Any, attribute: str, name: str) -> None:
        """Wrap ``owner.attribute`` in a span until :meth:`unpatch_all`.

        ``owner`` is a module, a class (plain and class methods) or an
        instance (the wrapper shadows the class attribute).
        """
        if isinstance(owner, type):
            raw = owner.__dict__[attribute]
            if isinstance(raw, classmethod):
                self.replace(owner, attribute, classmethod(self.wrap(name, raw.__func__)))
            else:
                self.replace(owner, attribute, self.wrap(name, raw))
        else:
            self.replace(owner, attribute, self.wrap(name, getattr(owner, attribute)))

    def replace(self, owner: Any, attribute: str, replacement: Any) -> None:
        """Set ``owner.attribute`` until :meth:`unpatch_all` restores it."""
        if isinstance(owner, (type, types.ModuleType)) or attribute in vars(owner):
            original = vars(owner)[attribute]
            self._undo.append(lambda: setattr(owner, attribute, original))
        else:
            self._undo.append(lambda: delattr(owner, attribute))
        setattr(owner, attribute, replacement)

    def unpatch_all(self) -> None:
        while self._undo:
            self._undo.pop()()


# -- analysis ---------------------------------------------------------------------


def _covered(intervals: Iterable[Tuple[float, float]], low: float, high: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[low, high]``."""
    total = 0.0
    reach = low
    for start, end in sorted(intervals):
        start = max(start, reach)
        end = min(end, high)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: List[Span]) -> Dict[int, float]:
    """Self seconds per span (keyed by ``id(span)``): duration minus children."""
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None and span.end is not None:
            children[id(span.parent)].append((span.start, span.end))
    result = {}
    for span in spans:
        if span.end is None:
            continue
        result[id(span)] = span.duration - _covered(
            children.get(id(span), ()), span.start, span.end
        )
    return result


def covered_per_op(
    spans: List[Span], ops: Dict[int, Tuple[float, float]]
) -> Dict[int, float]:
    """Seconds of each op's ``(start, end)`` interval that any of its spans covers."""
    by_op: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.end is not None and span.op in ops:
            by_op[span.op].append((span.start, span.end))
    return {
        op: _covered(by_op.get(op, ()), start, end) for op, (start, end) in ops.items()
    }


def span_records(spans: List[Span]) -> List[Dict[str, Any]]:
    """JSON-ready spans, parents as list indices (written when the run ends)."""
    index = {id(span): position for position, span in enumerate(spans)}
    return [
        {
            "name": span.name,
            "start": span.start,
            "end": span.end,
            "parent": None if span.parent is None else index.get(id(span.parent)),
            "op": span.op,
        }
        for span in spans
    ]
