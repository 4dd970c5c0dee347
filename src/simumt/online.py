"""Streaming greedy decoding with a wait-k read/write policy.

A decode run produces an action trace: the interleaved sequence of READ
events (one per source token revealed) and WRITE events (one per target
token emitted, stamped with g = number of reads that preceded it).
Latency metrics consume traces; hypotheses are the written tokens.

Decoding keeps incremental encoder/decoder states so each step costs one
block extension or one decoder step, never a re-run.  Multiple models
form an ensemble by averaging their per-step log-probabilities.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import model as M
from .training import wait_k_z
from .vocab import BOS, EOS


@dataclass(frozen=True)
class ReadEvent:
    index: int                      # 0-based source position (or block) read
    timestamp_ms: float | None = None


@dataclass(frozen=True)
class WriteEvent:
    token: int
    g_tokens: int                   # reads that happened before this write
    g_ms: float | None = None       # audio consumed before this write


@dataclass(frozen=True)
class ActionTrace:
    """Interleaved reads and writes of one decoding run."""

    events: tuple = ()
    truncated: bool = False         # length cap hit before EOS

    def reads(self) -> list[ReadEvent]:
        return [e for e in self.events if isinstance(e, ReadEvent)]

    def writes(self) -> list[WriteEvent]:
        return [e for e in self.events if isinstance(e, WriteEvent)]

    def g_values(self) -> list[int]:
        return [w.g_tokens for w in self.writes()]

    def validate(self, eos_id: int = EOS) -> None:
        """Check trace invariants; raises ValueError on the first breach."""
        reads_seen = 0
        writes = []
        for e in self.events:
            if isinstance(e, ReadEvent):
                if e.index != reads_seen:
                    raise ValueError(f"read index {e.index}, expected {reads_seen}")
                reads_seen += 1
            elif isinstance(e, WriteEvent):
                if e.g_tokens != reads_seen:
                    raise ValueError(
                        f"write has g={e.g_tokens} but {reads_seen} reads precede it")
                writes.append(e)
            else:
                raise ValueError(f"unknown event {e!r}")
        if not writes:
            raise ValueError("trace has no writes")
        gs = [w.g_tokens for w in writes]
        if any(b < a for a, b in zip(gs, gs[1:])):
            raise ValueError("g must be non-decreasing across writes")
        if not self.truncated and writes[-1].token != eos_id:
            raise ValueError("final write of a completed trace must be EOS")
        if any(w.token == eos_id for w in writes[:-1]):
            raise ValueError("EOS written before the final position")


@dataclass(frozen=True)
class OnlinePolicy:
    """Wait-k with a hypothesis length cap of alpha_len * |x| + beta_len."""

    k_eval: float
    alpha_len: float = 1.0
    beta_len: int = 50

    def __post_init__(self) -> None:
        wait_k_z(self.k_eval, 1, 1)  # validates k
        if self.alpha_len < 0 or self.beta_len < 1:
            raise ValueError("length cap must allow at least one token")


class ModelSession:
    """Incremental wrapper around one Parameters for step-wise decoding."""

    def __init__(self, params: M.Parameters):
        self.params = params
        self.enc: M.EncoderState | None = None
        self.dec: M.DecoderState | None = None
        self.prev = BOS
        self._pending: M.DecoderState | None = None

    @property
    def n_encoded(self) -> int:
        return 0 if self.enc is None else self.enc.n_tokens

    def extend_source(self, tokens: Sequence[int]) -> None:
        if len(tokens):
            self.enc = M.encode_prefix(self.params, tokens, self.enc)

    def next_logprobs(self, visible: int) -> np.ndarray:
        logp, self._pending = M.decode_step(
            self.params, self.enc, self.dec, self.prev, visible)
        return logp

    def commit(self, token: int) -> None:
        if self._pending is None:
            raise RuntimeError("commit without a preceding next_logprobs")
        self.dec = self._pending
        self._pending = None
        self.prev = token

    def reset_target(self) -> None:
        """Start a new target sentence; the encoded source is kept."""
        self.dec = None
        self.prev = BOS
        self._pending = None


def ensemble_logprobs(per_model: Sequence[np.ndarray]) -> np.ndarray:
    """Combine per-model log-probability rows by averaging in log space
    (geometric mean of the distributions), then renormalize.

    A single input row is returned unchanged, bit for bit.
    """
    if len(per_model) == 0:
        raise ValueError("no distributions to combine")
    first = np.asarray(per_model[0], dtype=np.float64)
    if len(per_model) == 1:
        return first
    rows = [np.asarray(r, dtype=np.float64) for r in per_model]
    if any(r.shape != first.shape for r in rows):
        raise ValueError("distributions must share one vocabulary size")
    mean = np.mean(rows, axis=0)
    mx = mean.max()
    z = math.log(np.exp(mean - mx).sum()) + mx
    return mean - z


def _as_sessions(models) -> list:
    if isinstance(models, M.Parameters):
        models = [models]
    out = []
    for m in models:
        out.append(ModelSession(m) if isinstance(m, M.Parameters) else m)
    if not out:
        raise ValueError("no models given")
    return out


def online_greedy_decode(models, x: Sequence[int], policy: OnlinePolicy):
    """Greedy wait-k decoding of one source sentence.

    ``models`` is a Parameters, a list of Parameters, or session objects
    exposing extend_source/next_logprobs/commit (all members advance in
    lock step).  Returns (tokens, trace): tokens exclude the final EOS,
    the trace includes its write.  Reads are per real source token; the
    end-of-source marker fed to the encoder is bookkeeping, not a read.

    Depletion is observed the way a stream consumer would: the marker is
    fed only once the schedule demands more tokens than the source holds
    (a read attempt past the end), not merely when the last real token
    happens to satisfy the demand.  A served client with no advance
    knowledge of |x| therefore decodes identically.
    """
    x = list(x)
    if not x:
        raise ValueError("empty source")
    sessions = _as_sessions(models)
    n = len(x)
    cap = int(policy.alpha_len * n + policy.beta_len)
    trace: list = []
    tokens: list[int] = []
    z = 0            # real tokens revealed
    marker_fed = False
    t = 1
    while True:
        want = policy.k_eval + t - 1          # inf stays inf
        z_t = wait_k_z(policy.k_eval, t, n)
        while z < z_t:
            trace.append(ReadEvent(index=z))
            for s in sessions:
                s.extend_source([x[z]])
            z += 1
        if want > n and not marker_fed:
            for s in sessions:
                s.extend_source([EOS])
            marker_fed = True
        visible = z + 1 if marker_fed else z
        logp = ensemble_logprobs([s.next_logprobs(visible) for s in sessions])
        tok = int(np.argmax(logp))
        for s in sessions:
            s.commit(tok)
        trace.append(WriteEvent(token=tok, g_tokens=z))
        if tok == EOS:
            return tokens, ActionTrace(events=tuple(trace))
        tokens.append(tok)
        if len(tokens) >= cap:
            return tokens, ActionTrace(events=tuple(trace), truncated=True)
        t += 1


def offline_greedy_decode(models, x: Sequence[int], max_len: int = 200):
    """Full-source greedy decoding via the batch forward path.

    Recomputes the whole decoder prefix each step instead of using
    incremental states, so it independently cross-checks them.  Returns
    (tokens, trace) where every write has g = |x|.
    """
    x = list(x)
    if not x:
        raise ValueError("empty source")
    if isinstance(models, M.Parameters):
        models = [models]
    n = len(x)
    x_model = M.with_source_marker(x)
    mems = [M.encoder_forward(p, x_model)[0] for p in models]
    y_in = [BOS]
    tokens: list[int] = []
    trace: list = [ReadEvent(index=i) for i in range(n)]
    while True:
        visible = np.full(len(y_in), n + 1, dtype=np.int64)
        rows = []
        for p, mem in zip(models, mems):
            logp, _ = M.decoder_forward(p, mem, np.asarray(y_in), visible)
            rows.append(logp[-1])
        tok = int(np.argmax(ensemble_logprobs(rows)))
        trace.append(WriteEvent(token=tok, g_tokens=n))
        if tok == EOS:
            return tokens, ActionTrace(events=tuple(trace))
        tokens.append(tok)
        y_in.append(tok)
        if len(tokens) >= max_len:
            return tokens, ActionTrace(events=tuple(trace), truncated=True)


# ---------------------------------------------------------------------------
# hypothesis files

def trace_to_wire(trace: ActionTrace) -> list[dict]:
    out = []
    for e in trace.events:
        if isinstance(e, ReadEvent):
            frame = {"a": "R", "i": e.index}
            if e.timestamp_ms is not None:
                frame["t_ms"] = e.timestamp_ms
        else:
            frame = {"a": "W", "g": e.g_tokens}
            if e.g_ms is not None:
                frame["g_ms"] = e.g_ms
        out.append(frame)
    return out


def write_hypotheses(path, records: list[dict], header_comment: str | None = None) -> None:
    """JSON-lines hypotheses: {id, tokens, detok, trace} per sentence."""
    with open(path, "w", encoding="utf-8") as f:
        if header_comment:
            f.write(header_comment.rstrip("\n") + "\n")
        for r in records:
            f.write(json.dumps(r) + "\n")
