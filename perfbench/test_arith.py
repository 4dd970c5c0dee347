"""Self-tests for the benchmark's own arithmetic, on hand-made inputs.

`run.py` runs these before every measurement and reports a failure as an
incorrect run; `python3 -m pytest perfbench/test_arith.py` runs them alone.
"""
from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from speed import PROBE_NOMINAL_S, SpeedProbe, write_delays  # noqa: E402
from tracing import (Tracer, covered, median, percentile, row_bucket,  # noqa: E402
                     self_time)


def _raises(fn, *args) -> bool:
    try:
        fn(*args)
    except ValueError:
        return True
    return False


def test_percentile_nearest_rank():
    values = list(range(100, 0, -1))           # 1..100, unsorted
    assert percentile(values, 50) == 50.0
    assert percentile(values, 99) == 99.0
    assert percentile(values, 100) == 100.0
    assert percentile([7.0], 99) == 7.0
    assert percentile([1, 2, 3, 4], 50) == 2.0   # ceil(0.5 * 4) = rank 2
    assert percentile([1, 2, 3, 4], 51) == 3.0
    assert percentile(list(range(1, 201)), 99) == 198.0
    assert _raises(percentile, [], 50) and _raises(percentile, [1], 0)
    assert median([3, 1, 2]) == 2.0 and median([4, 1, 3, 2]) == 2.5


def test_self_time_nested_and_overlapping_children():
    # disjoint children
    assert self_time(0.0, 10.0, [(1.0, 3.0), (5.0, 6.0)]) == 7.0
    # overlapping children count their union once: [1, 5] and [4, 8] cover 7
    assert covered(0.0, 10.0, [(4.0, 8.0), (1.0, 5.0)]) == 7.0
    assert self_time(0.0, 10.0, [(4.0, 8.0), (1.0, 5.0)]) == 3.0
    # a child nested inside another adds nothing
    assert self_time(0.0, 10.0, [(2.0, 9.0), (3.0, 4.0)]) == 3.0
    # children reaching outside the parent are clipped to it
    assert self_time(2.0, 6.0, [(0.0, 3.0), (5.0, 9.0)]) == 2.0
    assert self_time(0.0, 4.0, []) == 4.0


def test_tracer_self_time_adds_up():
    tracer = Tracer()
    tracer.phase = "t"

    def leaf():
        return sum(range(2000))

    def outer():
        tracer.call("a.leaf", leaf)
        tracer.call("a.leaf", leaf)
        return "done"

    assert tracer.call("b.outer", outer, request="r1") == "done"
    n_leaf, leaf_incl, leaf_self, _ = tracer.stat("a.leaf")
    n_out, out_incl, out_self, _ = tracer.stat("b.outer")
    assert (n_leaf, n_out) == (2, 1)
    assert leaf_incl == leaf_self > 0
    assert abs(out_self + leaf_incl - out_incl) < 1e-12
    parents = {name: parent for _, name, _, _, _, parent, _ in tracer.spans}
    outer_id = [sid for _, name, _, _, sid, _, _ in tracer.spans if name == "b.outer"][0]
    assert parents["a.leaf"] == outer_id and parents["b.outer"] is None
    assert [s[6] for s in tracer.spans if s[1] == "b.outer"] == ["r1"]
    assert set(tracer.layer_self()) == {"a", "b"}


def test_row_bucketing():
    assert [row_bucket(r) for r in (0, 1, 16)] == ["r0-16"] * 3
    assert [row_bucket(r) for r in (17, 64)] == ["r17-64"] * 2
    assert [row_bucket(r) for r in (65, 256)] == ["r65-256"] * 2
    assert [row_bucket(r) for r in (257, 10_000)] == ["r257up"] * 2
    assert _raises(row_bucket, -1)


def test_write_delays():
    # first write waits from the start of the sentence, later ones from
    # the previous commit, so encoding between writes is included
    assert write_delays(10.0, [10.5, 10.75, 12.0]) == [0.5, 0.25, 1.25]
    assert write_delays(3.0, []) == []
    assert write_delays(1.0, [1.0, 1.0]) == [0.0, 0.0]
    assert _raises(write_delays, 5.0, [4.0])


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= 1e-9 * max(abs(a), abs(b), 1e-3)


def _probe(samples) -> SpeedProbe:
    probe = SpeedProbe()
    for start, length in samples:
        probe.starts.append(start)
        probe.ends.append(start + length)
    return probe


def test_probe_busy_and_factor():
    slow = 2 * PROBE_NOMINAL_S
    probe = _probe([(float(t), slow) for t in range(10)])    # twice as slow
    assert _close(probe.busy(0.0, 9.5), 10 * slow)
    assert _close(probe.busy(0.5, 1.9), slow)                 # only the sample at 1.0
    assert _close(probe.busy(3.0 + slow / 2, 3.5), slow / 2)  # part of a sample
    assert probe.busy(3.5, 3.9) == 0.0
    assert _close(probe.factor(0.0, 9.5), 2.0)
    # a stretch with too few samples widens to WINDOW_S on each side
    assert _close(_probe([(0.0, PROBE_NOMINAL_S)] * 5).factor(0.1, 0.2), 1.0)
    assert _raises(_probe([]).factor, 0.0, 1.0)
    # 9.5 s of which 10 probe samples, at half speed: 4.75 s at nominal speed
    assert _close(probe.scaled(0.0, 9.5), (9.5 - 10 * slow) / 2.0)


def test_write_delays_scaled_by_probe():
    slow = 2 * PROBE_NOMINAL_S
    probe = _probe([(float(t), slow) for t in range(10)])
    # writes at 2.5 and 5.5 after a start at 0.5: the intervals hold the
    # probe samples at 1.0, 2.0 and at 3.0, 4.0, 5.0, which come out
    # before the delays are scaled to nominal speed
    delays = write_delays(0.5, [2.5, 5.5], probe)
    assert _close(delays[0], (2.0 - 2 * slow) / 2.0)
    assert _close(delays[1], (3.0 - 3 * slow) / 2.0)


def run_all() -> list[str]:
    """Run every test here; returns the failures as messages."""
    failures = []
    for name, fn in sorted(globals().items()):
        if name.startswith("test_") and callable(fn):
            try:
                fn()
            except AssertionError as e:
                failures.append(f"{name}: {e!r}")
    return failures
