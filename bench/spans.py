"""The benchmark's own spans: one per call it makes into the program.

A span is (name, start, end, parent, workload).  They are kept in
memory and written out once, when the child exits; the wall time of a
timed region *is* the duration of its span, so there is no second
clock to disagree with.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Iterator, Optional


class Span:
    """One recorded interval; ``end`` is ``None`` until the block exits."""

    __slots__ = ("index", "name", "start", "end", "parent")

    def __init__(self, index: int, name: str, start: float, parent: Optional[int]) -> None:
        self.index = index
        self.name = name
        self.start = start
        self.end: Optional[float] = None
        self.parent = parent

    @property
    def seconds(self) -> float:
        if self.end is None:
            raise RuntimeError(f"span {self.name!r} is still open")
        return self.end - self.start


class SpanRecorder:
    """Nested span recording on ``time.perf_counter``.

    ``origin`` shifts the clock so that 0 is the moment the parent
    launched this interpreter -- spans of one child then line up with
    its ``setup_s``.
    """

    def __init__(self, workload: str, origin: float = 0.0) -> None:
        self.workload = workload
        self.origin = origin
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        parent = self._stack[-1] if self._stack else None
        record = Span(len(self.spans), name, time.perf_counter() - self.origin, parent)
        self.spans.append(record)
        self._stack.append(record.index)
        try:
            yield record
        finally:
            record.end = time.perf_counter() - self.origin
            self._stack.pop()

    def to_json(self) -> list[dict]:
        return [
            {
                "id": span.index,
                "name": span.name,
                "start_s": span.start,
                "end_s": span.end,
                "parent": span.parent,
                "workload": self.workload,
            }
            for span in self.spans
        ]
