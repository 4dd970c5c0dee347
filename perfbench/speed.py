"""The machine's speed, sampled while the work runs.

On a shared two-core VM the speed at which this process executes drifts by
a quarter or more within seconds, and from one run to the next, for
reasons outside the process (CPU time consumed stays in step with wall
time, so it is not preemption).  Timings taken as they are then spread by
15-25% between runs of identical code, more than any bound worth setting.

`SpeedProbe` runs a fixed numpy kernel (a small decoder step of the
benchmark's own, touching no `simumt` code) every few milliseconds from a
SIGALRM handler, on the same thread as the work, and records how long each
run of it took.  Each timing is then scaled by

    factor = median probe time over the same stretch / PROBE_NOMINAL_S

and so reads as the time the work would have taken at the nominal speed.
Probe time is taken out of every interval it falls into.  The raw timings
are printed next to the scaled ones.
"""
from __future__ import annotations

import bisect
import signal
from time import perf_counter

import numpy as np

from tracing import median

PROBE_NOMINAL_S = 150e-6      # median probe time on the reference 2-core VM
INTERVAL_S = 0.01
WINDOW_S = 0.25               # half-width of the stretch a local factor uses
MIN_SAMPLES = 5

_rng = np.random.default_rng(12345)
_D, _H = 64, 4
_W = {n: _rng.standard_normal((_D, _D)) * 0.1 for n in ("q", "k", "v", "o")}
_W1 = _rng.standard_normal((_D, 2 * _D)) * 0.1
_W2 = _rng.standard_normal((2 * _D, _D)) * 0.1
_MEM = _rng.standard_normal((8, _D))
_X0 = _rng.standard_normal((1, _D))


def _norm(x: np.ndarray) -> np.ndarray:
    return (x - x.mean(axis=-1, keepdims=True)) / np.sqrt(x.var(axis=-1, keepdims=True) + 1e-5)


def probe_kernel() -> np.ndarray:
    """One pre-norm attention + feed-forward step of a single row over
    eight memory rows: the same mix of small numpy calls as decoding."""
    x = _X0
    q = (_norm(x) @ _W["q"]).reshape(1, _H, _D // _H).transpose(1, 0, 2)
    k = (_MEM @ _W["k"]).reshape(-1, _H, _D // _H).transpose(1, 0, 2)
    v = (_MEM @ _W["v"]).reshape(-1, _H, _D // _H).transpose(1, 0, 2)
    s = q @ k.transpose(0, 2, 1) / 4.0
    p = np.exp(s - s.max(axis=-1, keepdims=True))
    p /= p.sum(axis=-1, keepdims=True)
    x = x + (p @ v).transpose(1, 0, 2).reshape(1, _D) @ _W["o"]
    return x + np.maximum(_norm(x) @ _W1, 0.0) @ _W2


class SpeedProbe:
    """Probe samples, as (start, end) pairs in `perf_counter` time."""

    def __init__(self):
        self.starts: list[float] = []
        self.ends: list[float] = []

    def _sample(self, *_signal_args) -> None:
        start = perf_counter()
        probe_kernel()
        self.starts.append(start)
        self.ends.append(perf_counter())

    def start(self) -> None:
        """Sample every INTERVAL_S until `stop` (main thread only)."""
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _span(self, t0: float, t1: float) -> tuple[int, int]:
        return bisect.bisect_left(self.starts, t0), bisect.bisect_right(self.starts, t1)

    def busy(self, t0: float, t1: float) -> float:
        """Probe time inside [t0, t1]."""
        lo, hi = bisect.bisect_left(self.ends, t0), bisect.bisect_right(self.starts, t1)
        return sum(max(0.0, min(e, t1) - max(s, t0))
                   for s, e in zip(self.starts[lo:hi], self.ends[lo:hi]))

    def factor(self, t0: float, t1: float) -> float:
        """Median probe time over [t0, t1], widened to WINDOW_S on each side
        when it holds fewer than MIN_SAMPLES, relative to PROBE_NOMINAL_S."""
        lo, hi = self._span(t0, t1)
        if hi - lo < MIN_SAMPLES:
            lo, hi = self._span(t0 - WINDOW_S, t1 + WINDOW_S)
        if hi - lo < 1:
            raise ValueError("no probe samples near the interval")
        return median([e - s for s, e in zip(self.starts[lo:hi], self.ends[lo:hi])]) \
            / PROBE_NOMINAL_S

    def scaled(self, t0: float, t1: float) -> float:
        """[t0, t1] without probe time, at the nominal speed."""
        return (t1 - t0 - self.busy(t0, t1)) / self.factor(t0, t1)


def write_delays(start: float, commit_stamps, probe: SpeedProbe | None = None) -> list[float]:
    """Computation delay behind each write: the time from the previous
    commit, or from the start of the sentence for the first one.

    With a probe, probe time is taken out of each delay and the delays are
    scaled by the factor around the whole decode.
    """
    factor = 1.0
    if probe is not None and commit_stamps:
        factor = probe.factor(start, commit_stamps[-1])
    out = []
    prev = start
    for stamp in commit_stamps:
        if stamp < prev:
            raise ValueError("commit stamps must not go backwards")
        busy = probe.busy(prev, stamp) if probe is not None else 0.0
        out.append((stamp - prev - busy) / factor)
        prev = stamp
    return out
