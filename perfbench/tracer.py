"""In-memory span tracer that wraps the library's public functions.

The traced run installs this tracer around calls into ``serving``,
``api``, ``core``, ``skyline`` and ``relational`` without editing the
library: each target function or method is replaced by a timing
wrapper, and the original is put back by :meth:`Tracer.uninstall`.

Modules import kernels by name (``from ..skyline.dominance import
k_dominated_any``), so replacing the attribute on the defining module
alone would miss most callers. :meth:`Tracer.install` therefore
rebinds every loaded ``repro`` module attribute that *is* the original
function object.

Each span records its name, start, end, parent span and operation id. Per-row kernels (``kind="inner"``) are too hot for one span per
call; their calls are summed into the innermost open span as a count
and a total. A layer's self time is its span's duration minus the part
of it covered by child spans and inner kernel totals.

Spans opened on a thread with no open span of its own (a thread-pool
shard worker) are adopted by the newest open ``adopt=True`` span, the
parallel dispatcher that handed them out. Spans inside process-pool
children are not captured: that time stays in the dispatcher's self
time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import sys
import threading
import time
from collections import defaultdict
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass
from typing import Any

__all__ = ["Span", "Target", "Tracer", "self_times", "union_length"]


class Span:
    """One timed call. ``inner`` maps a per-row kernel's layer name to
    ``[calls, seconds]`` summed over calls made directly inside it."""

    __slots__ = ("id", "parent", "name", "start", "end", "op", "inner")

    def __init__(self, id: int, parent: int | None, name: str, start: float, op: int) -> None:
        self.id = id
        self.parent = parent
        self.name = name
        self.start = start
        self.end = start
        self.op = op
        self.inner: dict[str, list[float]] = {}

    def to_json(self) -> list[object]:
        return [self.id, self.parent, self.name, self.start, self.end, self.op, self.inner]

    @classmethod
    def from_json(cls, row: list[Any]) -> "Span":
        span = cls(row[0], row[1], row[2], row[3], row[5])
        span.end = row[4]
        span.inner = row[6]
        return span


@dataclass(frozen=True)
class Target:
    """One function or method to wrap.

    ``where`` is ``"module:function"`` or ``"module:Class.method"``;
    ``layer`` names the span. ``kind`` is ``"span"``, ``"inner"`` (a
    per-row kernel summed into the enclosing span) or ``"gen"`` (the
    call returns an iterator; the span covers its consumption).
    ``on_result(tracer, args, kwargs, result)`` may record a value.
    """

    layer: str
    where: str
    kind: str = "span"
    adopt: bool = False
    on_result: Callable[["Tracer", tuple, dict, Any], None] | None = None


class Tracer:
    """Collects spans and named values in memory for one traced run."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        self.values: dict[str, list[float]] = defaultdict(list)
        #: Operation id stamped on new spans; ``None`` gives each root
        #: span (one with no open parent) a fresh id of its own.
        self.op: int | None = None
        self._ids = itertools.count(1)
        self._root_ops = itertools.count(1)
        self._local = threading.local()
        self._adopters: list[Span] = []
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> Span:
        stack = self._stack()
        if stack:
            parent: Span | None = stack[-1]
        else:
            parent = self._adopters[-1] if self._adopters else None
        if self.op is not None:
            op = self.op
        elif parent is not None:
            op = parent.op
        else:
            op = next(self._root_ops)
        span = Span(next(self._ids), parent.id if parent else None, name, self.clock(), op)
        stack.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = self.clock()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        elif span in stack:
            stack.remove(span)
        self.spans.append(span)

    def add_inner(self, name: str, seconds: float) -> None:
        """Charge one per-row kernel call to the innermost open span (a
        call outside every span stays unattributed)."""
        stack = self._stack()
        if not stack:
            return
        acc = stack[-1].inner.get(name)
        if acc is None:
            stack[-1].inner[name] = [1, seconds]
        else:
            acc[0] += 1
            acc[1] += seconds

    def reset(self) -> None:
        """Drop everything recorded so far (keeps the installed wrappers)."""
        self.spans = []
        self.values = defaultdict(list)

    # ------------------------------------------------------------------
    # Wrapping
    # ------------------------------------------------------------------
    def _wrap(self, fn: Callable[..., Any], target: Target) -> Callable[..., Any]:
        layer, clock, on_result = target.layer, self.clock, target.on_result

        if target.kind == "inner":
            @functools.wraps(fn)
            def inner(*args: Any, **kwargs: Any) -> Any:
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    self.add_inner(layer, clock() - t0)
            return inner

        if target.kind == "gen":
            @functools.wraps(fn)
            def gen(*args: Any, **kwargs: Any) -> Iterator[Any]:
                return self._traced_iter(layer, fn(*args, **kwargs))
            return gen

        adopt = target.adopt

        @functools.wraps(fn)
        def span(*args: Any, **kwargs: Any) -> Any:
            s = self.begin(layer)
            if adopt:
                self._adopters.append(s)
            try:
                result = fn(*args, **kwargs)
            finally:
                if adopt:
                    self._adopters.remove(s)
                self.end(s)
            if on_result is not None:
                on_result(self, args, kwargs, result)
            return result
        return span

    def _traced_iter(self, layer: str, iterable: Iterable[Any]) -> Iterator[Any]:
        # The consumer thread does nothing but drain this iterator, so
        # spans opened while it runs nest under it on the same stack.
        s = self.begin(layer)
        try:
            yield from iterable
        finally:
            self.end(s)

    def install(self, targets: Iterable[Target]) -> None:
        """Wrap every target, rebinding each by-name import of it."""
        for target in targets:
            module_name, _, path = target.where.partition(":")
            owner: object = importlib.import_module(module_name)
            *classes, attr = path.split(".")
            for cls_name in classes:
                owner = getattr(owner, cls_name)
            raw = inspect.getattr_static(owner, attr)
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped: object = type(raw)(self._wrap(raw.__func__, target))
            else:
                wrapped = self._wrap(raw, target)
            self._patches.append((owner, attr, raw))
            setattr(owner, attr, wrapped)
            if classes:
                continue
            for module in list(sys.modules.values()):
                name = getattr(module, "__name__", "")
                if module is owner or not name.startswith("repro"):
                    continue
                for key, value in list(vars(module).items()):
                    if value is raw:
                        self._patches.append((module, key, raw))
                        setattr(module, key, wrapped)

    def uninstall(self) -> None:
        """Restore every original function, newest patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


# ----------------------------------------------------------------------
# Self-time arithmetic
# ----------------------------------------------------------------------
def union_length(intervals: Iterable[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: Iterable[Span]) -> dict[str, float]:
    """Seconds of self time per layer, inner kernel totals included
    under their own layer names."""
    spans = list(spans)
    children: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    out: dict[str, float] = defaultdict(float)
    for span in spans:
        covered = union_length(
            ((c.start, c.end) for c in children.get(span.id, ())), span.start, span.end
        )
        inner = sum(total for _, total in span.inner.values())
        out[span.name] += max(0.0, span.end - span.start - covered - inner)
        for name, (_, total) in span.inner.items():
            out[name] += total
    return dict(out)
