"""In-memory spans around the benchmark's own calls into the program.

A span is ``(name, start_ns, end_ns, parent)``: ``parent`` is the index of the
enclosing group span, or -1.  Spans are kept in a list while the workload runs
and written out once at the end, so the file system is never touched inside a
measured region.  With tracing disabled, :meth:`Tracer.call` still returns the
call's duration (the workloads need it for latency percentiles) but records
nothing.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter_ns
from typing import Any, Callable, Iterator


class Group:
    """Handle of an open group span; ``ns`` is its duration once closed."""

    __slots__ = ("ns",)

    def __init__(self) -> None:
        self.ns = 0


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[tuple[str, int, int, int] | None] = []
        self._parent = -1
        self._origin = perf_counter_ns()

    def call(self, name: str, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> tuple[Any, int]:
        """Run ``fn(*args, **kwargs)``; return ``(result, duration_ns)``."""
        start = perf_counter_ns()
        result = fn(*args, **kwargs)
        end = perf_counter_ns()
        if self.enabled:
            self.spans.append((name, start, end, self._parent))
        return result, end - start

    @contextmanager
    def group(self, name: str) -> Iterator[Group]:
        """Parent span for the calls made inside the ``with`` block."""
        handle = Group()
        parent, index = self._parent, len(self.spans)
        if self.enabled:
            self.spans.append(None)  # filled in on exit, so children follow their parent
            self._parent = index
        start = perf_counter_ns()
        try:
            yield handle
        finally:
            end = perf_counter_ns()
            handle.ns = end - start
            if self.enabled:
                self._parent = parent
                self.spans[index] = (name, start, end, parent)

    def mark(self) -> int:
        """Position to pass to :meth:`totals` for the spans recorded after now."""
        return len(self.spans)

    def totals(self, since: int = 0) -> dict[str, tuple[int, int]]:
        """``name -> (total_ns, count)`` over the closed spans recorded since ``since``."""
        out: dict[str, tuple[int, int]] = {}
        for span in self.spans[since:]:
            if span is None:
                continue
            name, start, end, _ = span
            total, count = out.get(name, (0, 0))
            out[name] = (total + end - start, count + 1)
        return out

    def durations(self, name: str, since: int = 0) -> list[int]:
        """Durations in ns of the closed spans called ``name`` since ``since``."""
        return [s[2] - s[1] for s in self.spans[since:] if s is not None and s[0] == name]

    def dump(self, path: Path) -> None:
        """Write the spans as JSON, times in ns from the tracer's creation.

        Call it after every group has closed; ``parent`` indexes ``spans``.
        """
        names: dict[str, int] = {}
        rows = [
            [names.setdefault(name, len(names)), start - self._origin, end - self._origin, parent]
            for name, start, end, parent in self.spans
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent"],
                       "names": list(names), "spans": rows}, fh, separators=(",", ":"))
