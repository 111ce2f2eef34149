"""Spans: recording them in a traced command, storing them, and self time.

A span is one call of an instrumented function: its name, its start and
end in nanoseconds on the system-wide monotonic clock (so they compare
with times taken in the benchmark process), the index of the span that
called it (-1 for the root) and the id of the command it ran in.  A
Recorder keeps spans in memory and writes them once, when the command
ends, to OUT.bin (four int64 per span) and OUT.json (names and counters).
"""

from __future__ import annotations

import functools
import json
import time
from array import array
from pathlib import Path
from typing import Callable, NamedTuple


class Span(NamedTuple):
    cmd: int
    name: str
    start: int
    end: int
    parent: int


class Recorder:
    """In-memory span and counter store for one traced process."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.flat = array("q")  # name index, start, end, parent for each span
        self.stack = [-1]
        self.calls: dict[str, int] = {}
        self.keys: dict[str, set] = {}
        self.totals: dict[str, int] = {}

    def span(
        self,
        name: str,
        fn: Callable,
        distinct: bool = False,
        tally: Callable[[object], int] | None = None,
    ) -> Callable:
        """fn wrapped to record a span per call.

        distinct also keeps the set of argument tuples, so repeated
        calls show; tally(result) is added to the name's total.
        """
        index = len(self.names)
        self.names.append(name)
        flat, stack, clock, totals = self.flat, self.stack, time.perf_counter_ns, self.totals
        keys = self.keys.setdefault(name, set()) if distinct else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            me = len(flat) >> 2
            flat.extend((index, 0, 0, stack[-1]))
            stack.append(me)
            if keys is not None:
                keys.add(args)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                flat[4 * me + 1] = start
                flat[4 * me + 2] = end
            if tally is not None:
                totals[name] = totals.get(name, 0) + tally(result)
            return result

        return wrapper

    def count(self, name: str, fn: Callable) -> Callable:
        """fn wrapped to count calls only; its time stays with the caller."""
        calls = self.calls
        calls[name] = 0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def dump(self, out: str, cmd: int) -> None:
        with open(f"{out}.bin", "wb") as fh:
            self.flat.tofile(fh)
        meta = {
            "cmd": cmd,
            "names": self.names,
            "calls": self.calls,
            "distinct": {name: len(keys) for name, keys in self.keys.items()},
            "totals": self.totals,
        }
        Path(f"{out}.json").write_text(json.dumps(meta))


def load(out: str) -> tuple[dict, list[Span]]:
    """Counters and spans that a Recorder wrote to OUT.json and OUT.bin."""
    meta = json.loads(Path(f"{out}.json").read_text())
    flat = array("q")
    flat.frombytes(Path(f"{out}.bin").read_bytes())
    names, cmd = meta["names"], meta["cmd"]
    spans = [
        Span(cmd, names[flat[i]], flat[i + 1], flat[i + 2], flat[i + 3])
        for i in range(0, len(flat), 4)
    ]
    return meta, spans


def self_times(spans: list[Span]) -> list[int]:
    """Each span's duration minus the part of it its child spans cover.

    spans are those of one command; parent is an index into that list.
    """
    children: list[list[Span]] = [[] for _ in spans]
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append(span)
    out = []
    for span, kids in zip(spans, children):
        covered, reach = 0, span.start
        for kid in sorted(kids, key=lambda s: s.start):
            lo, hi = max(kid.start, reach), min(kid.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(span.end - span.start - covered)
    return out
