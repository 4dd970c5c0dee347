"""Span recording and the arithmetic the benchmark reports with.

A `Tracer` wraps functions of `simumt` from the outside (module or class
attributes, patched only for a traced pass and restored afterwards).  Each
wrapped call is a span: name, start, end, parent span and request id.
Spans are kept in memory up to a cap per phase and written out when the
run ends; per-name aggregates (calls, inclusive time, self time, units of
work) are kept for every span, including those past the cap.

Self time is a span's duration minus the part of it that its children
cover.  Children recorded on one thread nest, but the union is taken
anyway, so overlapping children are never counted twice.
"""
from __future__ import annotations

import itertools
import json
import math
import threading
from collections import defaultdict
from time import perf_counter

ROW_BUCKETS = ((16, "r0-16"), (64, "r17-64"), (256, "r65-256"))
ROW_BUCKET_NAMES = tuple(name for _, name in ROW_BUCKETS) + ("r257up",)


def percentile(values, p: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least p% of
    the samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0 < p <= 100:
        raise ValueError("p must be in (0, 100]")
    ordered = sorted(values)
    rank = math.ceil(p / 100.0 * len(ordered))
    return float(ordered[max(rank, 1) - 1])


def median(values) -> float:
    """Middle value; the mean of the two middle values for an even count."""
    if not values:
        raise ValueError("median of no samples")
    s = sorted(values)
    mid = len(s) // 2
    return float(s[mid]) if len(s) % 2 else (s[mid - 1] + s[mid]) / 2.0


def row_bucket(rows: int) -> str:
    """Bucket name for a number of encoder memory rows."""
    if rows < 0:
        raise ValueError("negative row count")
    for upper, name in ROW_BUCKETS:
        if rows <= upper:
            return name
    return ROW_BUCKET_NAMES[-1]


def covered(start: float, end: float, intervals) -> float:
    """Length of [start, end] covered by the union of ``intervals``."""
    total = 0.0
    reach = start
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, end)
        if b > a:
            total += b - a
            reach = b
    return total


def self_time(start: float, end: float, children) -> float:
    """Span duration minus the time its children cover."""
    return (end - start) - covered(start, end, children)


class _Open:
    __slots__ = ("sid", "start", "children")

    def __init__(self, sid: int, start: float):
        self.sid = sid
        self.start = start
        self.children: list[tuple[float, float]] = []


class Tracer:
    """Spans and counts for one traced run; safe to use from threads."""

    def __init__(self, span_cap: int = 2000):
        self.span_cap = span_cap
        self.spans: list[tuple] = []
        self.kept: dict[str, int] = defaultdict(int)
        self.dropped = 0
        # (phase, name) -> [calls, inclusive_s, self_s, units]
        self.stats: dict[tuple[str, str], list] = defaultdict(lambda: [0, 0.0, 0.0, 0])
        self.counts: dict[tuple[str, str], float] = defaultdict(float)
        self.phase = "-"
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _stack(self) -> list:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def set_request(self, request) -> None:
        self._local.request = request

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[(self.phase, name)] += amount

    def call(self, name: str, fn, args=(), kwargs=None, units: int = 0, request=None):
        """Run ``fn`` inside a span called ``name``."""
        stack = self._stack()
        frame = _Open(next(self._ids), perf_counter())
        stack.append(frame)
        try:
            return fn(*args, **(kwargs or {}))
        finally:
            end = perf_counter()
            stack.pop()
            parent = stack[-1] if stack else None
            if parent is not None:
                parent.children.append((frame.start, end))
            own = self_time(frame.start, end, frame.children)
            if request is None:
                request = getattr(self._local, "request", None)
            with self._lock:
                agg = self.stats[(self.phase, name)]
                agg[0] += 1
                agg[1] += end - frame.start
                agg[2] += own
                agg[3] += units
                if self.kept[self.phase] < self.span_cap:
                    self.kept[self.phase] += 1
                    self.spans.append((self.phase, name, frame.start, end, frame.sid,
                                       parent.sid if parent else None, request))
                else:
                    self.dropped += 1

    # -- patching ----------------------------------------------------------

    def patch(self, owner, attr: str, name: str, describe=None, observe=None) -> None:
        """Replace ``owner.attr`` with a traced wrapper until `unpatch_all`.

        ``describe(args, kwargs)`` may return (name, units, request) to
        refine the span per call, e.g. by memory-row bucket; ``observe``
        sees each result, to count what the call did.
        """
        original = getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            if describe is None:
                result = tracer.call(name, original, args, kwargs)
            else:
                span_name, units, request = describe(args, kwargs)
                result = tracer.call(span_name, original, args, kwargs, units, request)
            if observe is not None:
                observe(result)
            return result

        wrapper.__wrapped__ = original
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def unpatch_all(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reporting ---------------------------------------------------------

    def stat(self, name: str, phase: str | None = None) -> tuple[int, float, float, int]:
        """(calls, inclusive_s, self_s, units) summed over matching phases."""
        calls, incl, own, units = 0, 0.0, 0.0, 0
        for (ph, nm), (c, i, s, u) in self.stats.items():
            if nm == name and (phase is None or ph == phase):
                calls, incl, own, units = calls + c, incl + i, own + s, units + u
        return calls, incl, own, units

    def layer_self(self) -> dict[str, float]:
        """Self seconds per layer; a layer is the span name up to its first dot."""
        out: dict[str, float] = defaultdict(float)
        for (_, name), (_, _, own, _) in self.stats.items():
            out[name.split(".", 1)[0]] += own
        return dict(out)

    def export(self) -> dict:
        return {
            "stats": [[ph, nm, *v] for (ph, nm), v in self.stats.items()],
            "counts": [[ph, nm, v] for (ph, nm), v in self.counts.items()],
            "spans": self.spans,
            "dropped": self.dropped,
        }

    def merge(self, exported: dict) -> None:
        """Add aggregates exported by another process's tracer."""
        for ph, nm, c, i, s, u in exported["stats"]:
            agg = self.stats[(ph, nm)]
            agg[0] += c
            agg[1] += i
            agg[2] += s
            agg[3] += u
        for ph, nm, v in exported["counts"]:
            self.counts[(ph, nm)] += v
        self.dropped += exported["dropped"]

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for phase, name, start, end, sid, parent, request in self.spans:
                f.write(json.dumps({"phase": phase, "name": name, "start": start, "end": end,
                                    "id": sid, "parent": parent, "request": request}) + "\n")
