"""Spans and counts recorded by the benchmark around calls into the package.

A span has a name, a start and end (``perf_counter_ns``), the index of the
span that was open when it started, and the op it belongs to. Spans are
kept in memory and written out once at the end of a traced run.

Calls made hundreds of thousands of times per op (the interpreter's PRNG
step, bit-source draws) are not stored one by one: each call's duration
is added to a per-(name, op) count and total, and to the child time of the
span that is open around it. A span's self time is its duration minus the
time covered by its child spans and tallied calls.
"""

from __future__ import annotations

import contextlib
from time import perf_counter_ns
from typing import Callable, Dict, Iterator, List, Optional, Tuple

NAME, START, END, PARENT, OP, CHILD_NS = range(6)


class Tracer:
    def __init__(self) -> None:
        self.spans: List[list] = []
        self.tallies: Dict[Tuple[str, int], List[int]] = {}
        self.absent: List[str] = []
        self.op = 0
        self._open: List[int] = []

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[list]:
        parent = self._open[-1] if self._open else -1
        record = [name, perf_counter_ns(), 0, parent, self.op, 0]
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield record
        finally:
            record[END] = perf_counter_ns()
            self._open.pop()
            if parent >= 0:
                self.spans[parent][CHILD_NS] += record[END] - record[START]

    def tally(self, name: str, elapsed_ns: int) -> None:
        entry = self.tallies.setdefault((name, self.op), [0, 0])
        entry[0] += 1
        entry[1] += elapsed_ns
        if self._open:
            self.spans[self._open[-1]][CHILD_NS] += elapsed_ns

    def wrap(self, name: str, fn: Callable) -> Callable:
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def wrap_tallied(self, name: str, fn: Callable) -> Callable:
        def tallied(*args, **kwargs):
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                self.tally(name, perf_counter_ns() - start)

        return tallied

    @contextlib.contextmanager
    def patched(self, targets) -> Iterator[None]:
        """Replace ``module.attr`` by a traced wrapper for the duration.

        ``targets`` holds ``(module, attr, tallied)``; the span name is
        ``<layer>.<attr>``. An attribute the module no longer has is
        recorded as absent instead of failing the run.
        """
        saved = []
        try:
            for module, attr, tallied in targets:
                name = f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"
                fn = getattr(module, attr, None)
                if fn is None:
                    if name not in self.absent:
                        self.absent.append(name)
                    continue
                saved.append((module, attr, fn))
                wrapper = self.wrap_tallied(name, fn) if tallied else self.wrap(name, fn)
                setattr(module, attr, wrapper)
            yield
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    # -- queries -------------------------------------------------------

    def select(self, name: str, parent_name: Optional[str] = None) -> List[list]:
        out = []
        for s in self.spans:
            if s[NAME] != name:
                continue
            if parent_name is not None:
                if s[PARENT] < 0 or self.spans[s[PARENT]][NAME] != parent_name:
                    continue
            out.append(s)
        return out

    def total_ns(self, name: str, parent_name: Optional[str] = None) -> Tuple[int, int]:
        """(span count, summed duration) of the spans called ``name``."""
        spans = self.select(name, parent_name)
        return len(spans), sum(s[END] - s[START] for s in spans)

    def self_ns(self, name: str) -> Tuple[int, int]:
        """(span count, summed self time) of the spans called ``name``."""
        spans = self.select(name)
        return len(spans), sum(s[END] - s[START] - s[CHILD_NS] for s in spans)

    def tally_total(self, name: str) -> Tuple[int, int]:
        """(call count, summed duration) of the tallied calls called ``name``."""
        count = total = 0
        for (n, _op), (c, t) in self.tallies.items():
            if n == name:
                count += c
                total += t
        return count, total

    def summary(self) -> Dict[str, dict]:
        """Per span name: count, total and self milliseconds."""
        out: Dict[str, dict] = {}
        for s in self.spans:
            entry = out.setdefault(s[NAME], {"count": 0, "total_ms": 0.0, "self_ms": 0.0})
            entry["count"] += 1
            entry["total_ms"] += (s[END] - s[START]) / 1e6
            entry["self_ms"] += (s[END] - s[START] - s[CHILD_NS]) / 1e6
        for (name, _op), (count, total) in self.tallies.items():
            entry = out.setdefault(name, {"count": 0, "total_ms": 0.0, "self_ms": 0.0})
            entry["count"] += count
            entry["total_ms"] += total / 1e6
            entry["self_ms"] += total / 1e6
        return out

    def export(self) -> dict:
        return {
            "span_fields": ["name", "start_ns", "end_ns", "parent", "op", "child_ns"],
            "spans": self.spans,
            "tallies": [
                {"name": n, "op": o, "count": c, "total_ns": t}
                for (n, o), (c, t) in sorted(self.tallies.items())
            ],
            "absent": self.absent,
        }
