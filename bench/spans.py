"""In-memory span recorder for the traced benchmark run.

A span is {id, name, start, end, parent, run}: `parent` is the id of the
span that was open when it started, and every span of one traced pass
shares that pass's run id. Spans stay in memory and are written out as
JSON lines when the run ends. A span's self time is its duration minus
the part of its interval that its child spans cover.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from contextlib import nullcontext
from time import perf_counter


class Span:
    __slots__ = ("recorder", "name", "start", "end", "parent", "run")

    def __init__(self, recorder: "Recorder | None", name: str, start: float = 0.0,
                 end: float = 0.0, parent: int | None = None, run: int = 0):
        self.recorder = recorder
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.run = run

    def __enter__(self) -> "Span":
        rec = self.recorder
        self.parent = rec._open[-1] if rec._open else None
        rec._open.append(len(rec.spans))
        rec.spans.append(self)
        self.start = perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.end = perf_counter()
        self.recorder._open.pop()


class Recorder:
    """Collects spans and counters for one traced pass."""

    def __init__(self, run: int = 0):
        self.run = run
        self.spans: list[Span] = []
        self.counts: Counter[str] = Counter()
        self._open: list[int] = []

    def span(self, name: str) -> Span:
        return Span(self, name, run=self.run)

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] += n

    def self_times(self) -> dict[str, float]:
        """Summed self time per span name."""
        return self_times(self.spans)

    def dump(self, fh, meta: dict) -> None:
        fh.write(json.dumps({"meta": meta, "counts": dict(self.counts)}) + "\n")
        for idx, s in enumerate(self.spans):
            fh.write(json.dumps({"id": idx, "name": s.name, "start": round(s.start, 7),
                                 "end": round(s.end, 7), "parent": s.parent, "run": s.run}) + "\n")


class NullRecorder:
    """Tracing off: spans and counters cost one method call and record nothing."""

    _NULL = nullcontext()

    def span(self, name: str):
        return self._NULL

    def count(self, name: str, n: int = 1) -> None:
        pass


def covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of closed intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> dict[str, float]:
    """Sum, per name, of each span's duration minus what its children cover.

    Child intervals are clipped to the parent's, and overlapping children
    are counted once.
    """
    children: defaultdict[int, list[Span]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    out: defaultdict[str, float] = defaultdict(float)
    for idx, s in enumerate(spans):
        clipped = [(max(c.start, s.start), min(c.end, s.end)) for c in children.get(idx, ())]
        busy = covered([(a, b) for a, b in clipped if b > a])
        out[s.name] += (s.end - s.start) - busy
    return dict(out)
