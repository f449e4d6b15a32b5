"""In-memory span recorder for the traced run.

Spans are recorded from the benchmark's own files only: around the
calls it makes into each layer, and by temporarily wrapping public
entry points of the program (:meth:`SpanRecorder.patch`) for the
duration of a traced window.  Nothing under ``src/`` knows about them.

A span is ``(id, name, start, end, parent, rid, thread)``.  Its layer
is the part of the name before the first dot (``sar.ffbp`` belongs to
``sar``).  Nesting is per thread: a span opened while another span of
the same thread is open becomes its child and inherits its request id.
Spans stay in memory; :meth:`SpanRecorder.chrome_trace` writes them
out at the end in the Chrome trace-event JSON that
``repro.machine.tracing.ActivityRecorder.chrome_trace`` emits, so
Perfetto loads both.
"""

from __future__ import annotations

import functools
import importlib
import json
import threading
import time
from contextlib import ExitStack, contextmanager, nullcontext
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Sequence


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    rid: Any
    thread: int

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


def covered(start: float, end: float, intervals: Sequence[tuple[float, float]]) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``.

    Intervals are clipped to the window first, and overlapping ones
    count once -- two children that ran concurrently do not make their
    parent's self time negative.
    """
    clipped = sorted(
        (max(a, start), min(b, end)) for a, b in intervals if b > start and a < end
    )
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_time(span: Span, children: Sequence[Span]) -> float:
    """A span's duration minus the part its children cover."""
    return span.duration - covered(
        span.start, span.end, [(c.start, c.end) for c in children]
    )


class SpanRecorder:
    """Collects spans from any thread; cheap enough for a traced run."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ids = 0
        self._threads: dict[int, int] = {}

    def _stack(self) -> list[tuple[int, Any]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _next_id(self) -> int:
        with self._lock:
            self._ids += 1
            return self._ids

    def _thread(self) -> int:
        ident = threading.get_ident()
        with self._lock:
            return self._threads.setdefault(ident, len(self._threads))

    @contextmanager
    def span(self, name: str, rid: Any = None) -> Iterator[None]:
        """Record a nested span around the body of the ``with``."""
        stack = self._stack()
        parent, parent_rid = stack[-1] if stack else (None, None)
        sid = self._next_id()
        rid = parent_rid if rid is None else rid
        stack.append((sid, rid))
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            span = Span(sid, name, start, end, parent, rid, self._thread())
            with self._lock:
                self.spans.append(span)

    def record(self, name: str, start: float, end: float, rid: Any = None) -> None:
        """Record a root span measured elsewhere (overlapping requests
        of one event loop cannot use the per-thread nesting stack)."""
        span = Span(self._next_id(), name, start, end, None, rid, self._thread())
        with self._lock:
            self.spans.append(span)

    def wrap(
        self, fn: Callable, name: str, rid_of: Callable | None = None
    ) -> Callable:
        """``fn`` inside a span; ``rid_of(*args)`` names its request."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rid = rid_of(*args, **kwargs) if rid_of is not None else None
            with self.span(name, rid):
                return fn(*args, **kwargs)

        return traced

    @contextmanager
    def patch(self, points: Sequence[tuple]) -> Iterator[None]:
        """Wrap ``(module, attribute path, span name[, rid_of])`` points.

        The attribute path may name a class method (``Cls.run``).
        Every original is restored on exit.
        """
        with ExitStack() as stack:
            for module, path, name, *rid_of in points:
                rid_of = rid_of[0] if rid_of else None
                owner: Any = importlib.import_module(module)
                *outer, leaf = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                original = getattr(owner, leaf)
                setattr(owner, leaf, self.wrap(original, name, rid_of))
                stack.callback(setattr, owner, leaf, original)
            yield

    # -- analysis ---------------------------------------------------------

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def total_s(self, name: str) -> float:
        return sum(s.duration for s in self.named(name))

    def self_by_layer(self) -> dict[str, float]:
        """Total self time per layer, in seconds."""
        children: dict[int, list[Span]] = {}
        for s in self.spans:
            if s.parent is not None:
                children.setdefault(s.parent, []).append(s)
        out: dict[str, float] = {}
        for s in self.spans:
            out[s.layer] = out.get(s.layer, 0.0) + self_time(s, children.get(s.id, ()))
        return out

    def chrome_trace(self) -> str:
        """Chrome trace-event JSON (``ph: X`` events, microseconds)."""
        t0 = min((s.start for s in self.spans), default=0.0)
        events = [
            {
                "name": s.name,
                "cat": s.layer,
                "ph": "X",
                "ts": (s.start - t0) * 1e6,
                "dur": s.duration * 1e6,
                "pid": 1,
                "tid": s.thread,
                "args": {"id": s.id, "parent": s.parent, "rid": s.rid},
            }
            for s in self.spans
        ]
        return json.dumps({"traceEvents": events})


class NullRecorder:
    """The untraced run's recorder: every call is a no-op."""

    def span(self, name: str, rid: Any = None):
        return nullcontext()

    def record(self, name: str, start: float, end: float, rid: Any = None) -> None:
        pass
