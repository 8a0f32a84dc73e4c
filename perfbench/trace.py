"""In-memory span recorder that times calls into the program from outside.

A Tracer replaces a function at the attribute its callers look up (a module
global such as ``tuning.train`` or a class attribute such as
``TrainedModel.score``) with a wrapper that records one span per call: name,
start, end, parent span and run id. Spans stay in memory until the run ends;
``restore`` puts every original function back. The program's own files are
never edited.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable, Optional, Union


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]
    run: int
    rows: int = 0
    counts: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


def lookup(owner: object, attr: str) -> Callable:
    """The function stored at owner.attr; for a class, the plain function from
    its dict rather than a bound or static wrapper, so it can be put back."""
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


class Tracer:
    """Single-threaded span recorder; spans nest by call order."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.run = 0
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, Callable]] = []

    def wrap(
        self,
        owner: object,
        attr: str,
        name: Union[str, Callable[..., str]],
        rows: Optional[Callable[..., int]] = None,
        counts: Optional[Callable[[object], dict]] = None,
    ) -> None:
        original = lookup(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            label = name(*args, **kwargs) if callable(name) else name
            span = Span(label, time.perf_counter(), 0.0, self._stack[-1] if self._stack else None, self.run)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if rows is not None:
                span.rows = rows(*args, **kwargs)
            if counts is not None:
                span.counts = counts(result)
            return result

        setattr(owner, attr, traced)
        self._patched.append((owner, attr, original))

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def self_seconds(self, run: int) -> dict[str, float]:
        """Self time per span name: duration minus the time its children cover."""
        child_time = defaultdict(float)
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] += span.seconds
        out: dict[str, float] = defaultdict(float)
        for i, span in enumerate(self.spans):
            if span.run == run:
                out[span.name] += span.seconds - child_time[i]
        return dict(out)

    def children(self, parent: int) -> list[Span]:
        return [s for s in self.spans if s.parent == parent]
