"""In-memory spans recorded by wrappers the benchmark installs from outside.

A traced run patches each layer function it measures (a class method or a
module function of ``repro``) with a wrapper that records one span per
call: ``(span id, parent span id, name, query id, start, end)``.  Spans nest
through a per-thread stack, stay in memory, and are written out when the run
ends.  A span's *self time* is its duration minus the part of it covered by
its child spans.

Nothing is recorded in processes other than the one that installed the
wrappers: forked worker processes inherit the patched classes but their
spans could never be collected.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterator, NamedTuple


class Span(NamedTuple):
    span_id: int
    parent: int | None
    name: str
    query_id: str
    start: float
    end: float

    @property
    def seconds(self) -> float:
        return self.end - self.start


class _ThreadState:
    def __init__(self, enabled: bool, query_id: str) -> None:
        self.enabled = enabled
        self.query_id = query_id
        self.stack: list[int] = []


class SpanRecorder:
    """Wraps layer functions and records their spans.

    Threads the benchmark does not drive (the query server's serving thread)
    record under the query id ``thread:<name>``; the benchmark's own threads
    set their query id, and whether to record at all, with :meth:`context`.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._pid = os.getpid()
        self._patches: list[tuple[Any, str, Any, bool]] = []

    # -- thread context ------------------------------------------------------
    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState(True,
                                 f"thread:{threading.current_thread().name}")
            self._local.state = state
        return state

    @contextmanager
    def context(self, query_id: str, enabled: bool = True) -> Iterator[None]:
        """Attribute this thread's spans to ``query_id`` (or record none)."""
        state = self._state()
        previous = (state.enabled, state.query_id)
        state.enabled, state.query_id = enabled, query_id
        try:
            yield
        finally:
            state.enabled, state.query_id = previous

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Record a span around a block of the benchmark's own code."""
        state = self._state()
        if not state.enabled or os.getpid() != self._pid:
            yield
            return
        span_id = next(self._ids)
        parent = state.stack[-1] if state.stack else None
        state.stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            state.stack.pop()
            self.spans.append(Span(span_id, parent, name, state.query_id,
                                   start, end))

    # -- wrappers ------------------------------------------------------------
    def wrap(self, owner: Any, attribute: str, name: str,
             namer: Callable[..., str] | None = None) -> None:
        """Replace ``owner.attribute`` with a span-recording wrapper.

        ``namer(*args, **kwargs)``, when given, names the span per call
        (e.g. after a request's tag).
        """
        recorder = self

        def make(original: Callable[..., Any]) -> Callable[..., Any]:
            def traced(*args: Any, **kwargs: Any) -> Any:
                return recorder._call(original, name, namer, args, kwargs)
            return traced

        self.replace(owner, attribute, make)

    def replace(self, owner: Any, attribute: str,
                make: Callable[[Callable[..., Any]], Callable[..., Any]]
                ) -> None:
        """Set ``owner.attribute`` to ``make(original)`` until
        :meth:`unwrap_all`."""
        own = attribute in vars(owner)
        original = vars(owner)[attribute] if own else getattr(owner, attribute)
        replacement = make(original)
        replacement.__name__ = getattr(original, "__name__", attribute)
        replacement.__doc__ = getattr(original, "__doc__", None)
        setattr(owner, attribute, replacement)
        self._patches.append((owner, attribute, original, own))

    def _call(self, original: Callable[..., Any], name: str,
              namer: Callable[..., str] | None, args: tuple,
              kwargs: dict) -> Any:
        state = self._state()
        if not state.enabled or os.getpid() != self._pid:
            return original(*args, **kwargs)
        with self.span(name if namer is None else namer(*args, **kwargs)):
            return original(*args, **kwargs)

    def unwrap_all(self) -> None:
        """Restore every wrapped function."""
        for owner, attribute, original, own in reversed(self._patches):
            if own:
                setattr(owner, attribute, original)
            else:
                delattr(owner, attribute)
        self._patches.clear()

    def write(self, path: Path) -> None:
        """Write every span as one JSON object per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(span._asdict()) + "\n")


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    result = {}
    for span in spans:
        covered = 0.0
        cursor = span.start
        for start, end in sorted(children.get(span.span_id, ())):
            start, end = max(start, cursor), min(end, span.end)
            if end > start:
                covered += end - start
                cursor = end
        result[span.span_id] = span.seconds - covered
    return result
