"""Spans recorded by the benchmark around its calls into yamabelab.

A span is a list [name, start, end, parent, op, attrs]: the public function
called (as "<module>.<function>"), perf_counter times, the index of the
enclosing span, the id of the op it belongs to, and counts recorded at the
same boundary.  Spans stay in memory and are written out once, at the end.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager

NAME, START, END, PARENT, OP, ATTRS = range(6)


class Tracer:
    """Collects spans; a disabled tracer records nothing."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[list] = []
        self.op = None
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        """Time the enclosed call.  Yields the span's attrs dict, which the
        caller may fill after the call returns."""
        attrs: dict = {}
        if not self.enabled:
            yield attrs
            return
        parent = self._stack[-1] if self._stack else None
        rec = [name, time.perf_counter(), None, parent, self.op, attrs]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield attrs
        finally:
            rec[END] = time.perf_counter()
            self._stack.pop()

    def self_times(self) -> list[float]:
        """Each span's duration minus the part its child spans cover."""
        out = [s[END] - s[START] for s in self.spans]
        for s in self.spans:
            if s[PARENT] is not None:
                out[s[PARENT]] -= s[END] - s[START]
        return out

    def per_op(self, match) -> list[float]:
        """Per op, the summed self time of the spans whose name satisfies
        match; ops without such a span are left out."""
        sums: dict = {}
        for s, t in zip(self.spans, self.self_times()):
            if match(s[NAME]):
                sums[s[OP]] = sums.get(s[OP], 0.0) + t
        return list(sums.values())

    def attr_values(self, name: str, key: str, ops=None) -> list:
        return [
            s[ATTRS][key]
            for s in self.spans
            if s[NAME] == name and key in s[ATTRS] and (ops is None or s[OP] in ops)
        ]

    def dump(self, path) -> None:
        t0 = self.spans[0][START] if self.spans else 0.0
        rows = [
            {
                "name": s[NAME],
                "start": s[START] - t0,
                "end": s[END] - t0,
                "parent": s[PARENT],
                "op": s[OP],
                "attrs": s[ATTRS],
            }
            for s in self.spans
        ]
        with open(path, "w") as fh:
            json.dump(rows, fh, default=str)
            fh.write("\n")


def median_or_zero(values) -> float:
    return float(statistics.median(values)) if values else 0.0
