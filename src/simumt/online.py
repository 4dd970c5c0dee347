"""Streaming greedy decoding: one read/write driver over a source.

A decode run produces an action trace: the interleaved sequence of READ
events (one per source unit revealed: a token, or a block of audio) and
WRITE events (one per target token emitted, stamped with g = number of
reads that preceded it).  Latency metrics consume traces; hypotheses are
the written tokens.

`read_write_decode` is the only READ/WRITE loop.  A *source* yields a
`Chunk` per read attempt: local tokens here, READ frames in `server`,
timed audio through the recognizer in `cascade`.  A *policy* decides from
what the decoder has observed whether it reads or writes next:
`OnlinePolicy` for wait-k, `cascade.CascadeConfig` for the cascade.  A
*session* per model has three methods: extend_source, next_logprobs and
commit; its target prefix only grows within a run.

Decoding keeps incremental encoder/decoder states so each step costs one
block extension or one decoder step, never a re-run.  A local sentence's
source is known before the first read, so `online_greedy_decode` encodes
it, end marker included, in one block and lets each write read only the
rows fed so far; a live source (wire, audio) is encoded block by block as
it arrives.  Multiple models form an ensemble by averaging their per-step
log-probabilities.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

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
    truncated: bool = False         # stopped by a write budget or cap before EOS

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
    """Wait-k: write once z >= k_eval + writes source tokens are observed
    (or the source has ended), within the write budget alpha_len * z +
    beta_len that `read_write_decode` applies.  With alpha_len >= 1 the
    budget binds only once the whole source is read.
    """

    k_eval: float
    alpha_len: float = 1.0
    beta_len: int = 50

    def __post_init__(self) -> None:
        wait_k_z(self.k_eval, 1, 1)  # validates k
        # written so that NaN fails too
        if not (0 <= self.alpha_len < math.inf and 1 <= self.beta_len < math.inf):
            raise ValueError("write budget needs finite alpha_len >= 0 and beta_len >= 1")

    def write_budget(self, observed: int) -> float:
        return self.alpha_len * observed + self.beta_len

    def waits(self, writes: int, observed: int) -> bool:
        return observed < self.k_eval + writes     # inf stays inf


class ModelSession:
    """Incremental wrapper around one Parameters for step-wise decoding.

    A session told its whole source by ``know_source`` before anything is
    fed encodes it with one `model.encode_prefix` call at its first
    ``next_logprobs``.  The encoder is causal and `model.decode_step`
    slices its memory to ``visible``, so each write still reads only the
    rows fed so far; ``extend_source`` then checks the fed ids against the
    known ones.  A session that is not told keeps the ids fed since its
    last write waiting and encodes them as one block at the next write:
    wait-k's first k reads or a cascade segment cost one encoder call.
    Either way a block's rows may differ from one-token extensions in the
    last bits (`model.encode_prefix`).  ``n_encoded`` counts the ids fed.
    """

    def __init__(self, params: M.Parameters):
        self.params = params
        self.enc: M.EncoderState | None = None
        self.dec: M.DecoderState | None = None
        self.prev = BOS
        self._pending: M.DecoderState | None = None
        self._unencoded: list[int] = []
        self._known: list[int] | None = None
        self._fed = 0

    @property
    def n_encoded(self) -> int:
        return self._fed

    def know_source(self, ids: Sequence[int], encoded: M.EncoderState | None = None) -> None:
        """Take ``ids``, end marker included, as the whole source to be fed.

        ``encoded``, when given, must be ``encode_prefix(params, ids)``;
        sessions of one source (one per k in a sweep) then share its rows.
        Telling the same ids again keeps what the session holds.  Raises
        RuntimeError once any id has been fed, and ValueError for an id
        the model does not embed (`model.check_ids`).
        """
        ids = list(ids)
        if self._fed:
            raise RuntimeError("source told after ids were fed; use a new session")
        if encoded is None and ids == self._known:
            return
        M.check_ids(ids, self.params.config.vocab_size, "source")
        if encoded is not None and encoded.n_tokens != len(ids):
            raise ValueError(f"encoded state holds {encoded.n_tokens} rows, "
                             f"source has {len(ids)} ids")
        self._known, self.enc = ids, encoded
        self._unencoded = ids if encoded is None else []

    def extend_source(self, tokens: Sequence[int]) -> None:
        tokens = list(tokens)
        if self._known is None:
            self._unencoded.extend(tokens)
        elif tokens != self._known[self._fed : self._fed + len(tokens)]:
            raise ValueError(f"fed ids {tokens} disagree with the known source "
                             f"at position {self._fed}")
        self._fed += len(tokens)

    def next_logprobs(self, visible: int) -> np.ndarray:
        if visible > self._fed:
            raise ValueError(f"visible={visible} exceeds the {self._fed} ids fed")
        if self._unencoded:
            self.enc = M.encode_prefix(self.params, self._unencoded, self.enc)
            self._unencoded = []
        logp, self._pending = M.decode_step(
            self.params, self.enc, self.dec, self.prev, visible)
        return logp

    def commit(self, token: int) -> None:
        if self._pending is None:
            raise RuntimeError("commit without a preceding next_logprobs")
        self.dec = self._pending
        self._pending = None
        self.prev = token


def _sessions(models) -> list:
    """A Parameters, or a list of Parameters and session objects, as
    sessions: each Parameters gets a new `ModelSession`."""
    if isinstance(models, M.Parameters):
        models = [models]
    sessions = [ModelSession(m) if isinstance(m, M.Parameters) else m for m in models]
    if not sessions:
        raise ValueError("no models given")
    return sessions


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


class Chunk(NamedTuple):
    """What one read attempt revealed."""

    ids: Sequence[int] = ()         # source ids to encode
    units: int = 0                  # read units consumed: tokens or audio blocks
    ended: bool = False             # the attempt found the end of the source
    at_ms: float | None = None      # audio consumed once this read is done


def read_write_decode(models, source, policy, on_write=None,
                      max_writes: int | None = None):
    """The read/write loop every streaming decoder runs.

    ``source`` yields one `Chunk` per read attempt.  ``policy`` gives
    ``write_budget(z)`` and ``waits(writes, z)``, z being the source ids
    fed so far.  Until the source ends, the driver reads before a write
    while ``writes >= write_budget(z)`` or ``waits(writes, z)``; after it
    has ended, a spent budget stops the run as truncated.  The
    end-of-source marker is fed once, when a read finds the end, and each
    write sees every row fed.  ``on_write`` hears each written token;
    ``max_writes`` caps content writes (the run is then truncated).

    ``models`` is a Parameters, a list of Parameters, or session objects
    exposing extend_source/next_logprobs/commit (all members advance in
    lock step).  Returns (tokens, trace): tokens exclude the final EOS,
    the trace includes its write.
    """
    sessions = _sessions(models)
    events: list = []
    tokens: list[int] = []
    units = observed = 0
    ended = False
    at_ms = None
    while True:
        spent = len(tokens) >= policy.write_budget(observed)
        if not ended and (spent or policy.waits(len(tokens), observed)):
            chunk = next(source)
            events.extend(ReadEvent(index=i) for i in range(units, units + chunk.units))
            units += chunk.units
            at_ms = chunk.at_ms
            for s in sessions:
                if chunk.ids:
                    s.extend_source(chunk.ids)
                if chunk.ended:
                    s.extend_source([EOS])
            observed += len(chunk.ids)
            ended = chunk.ended
            continue
        if spent:
            return tokens, ActionTrace(events=tuple(events), truncated=True)
        rows = observed + 1 if ended else observed
        logp = ensemble_logprobs([s.next_logprobs(rows) for s in sessions])
        tok = int(logp.argmax())
        for s in sessions:
            s.commit(tok)
        if on_write is not None:
            on_write(tok)
        events.append(WriteEvent(token=tok, g_tokens=units, g_ms=at_ms))
        if tok == EOS:
            return tokens, ActionTrace(events=tuple(events))
        tokens.append(tok)
        if max_writes is not None and len(tokens) >= max_writes:
            return tokens, ActionTrace(events=tuple(events), truncated=True)


def online_greedy_decode(models, x: Sequence[int], policy: OnlinePolicy):
    """Greedy wait-k decoding of one local sentence: `read_write_decode`
    over one read per token, then a read that finds the end.

    Depletion is thus observed the way a stream consumer observes it.
    Every `ModelSession` driven, built from a Parameters or passed in, is
    told ``x + [EOS]`` first (`ModelSession.know_source`), so it encodes
    the source in one block; a used session, or an id outside a model's
    source vocabulary, raises before any read.  Other session objects are
    fed as `read_write_decode` feeds them.  The served client
    (`server.client_waitk_session`) gives the same tokens and traces.
    """
    x = list(x)
    if not x:
        raise ValueError("empty source")
    sessions = _sessions(models)
    known = x + [EOS]
    for s in sessions:
        if isinstance(s, ModelSession):
            s.know_source(known)
    chunks = [Chunk(ids=(t,), units=1) for t in x] + [Chunk(ended=True)]
    return read_write_decode(sessions, iter(chunks), policy)


def offline_greedy_decode(models, x: Sequence[int], max_len: int = 200):
    """Full-source greedy decoding via the teacher-forced path, as a batch
    of one; each model's encoder checks the ids first (`model.check_ids`).

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
    mems = [M.encoder_forward(p, [x + [EOS]])[0] for p in models]
    y_in = [BOS]
    tokens: list[int] = []
    trace: list = [ReadEvent(index=i) for i in range(n)]
    while True:
        visible = np.full((1, len(y_in)), n + 1, dtype=np.int64)
        rows = []
        for p, mem in zip(models, mems):
            logp, _ = M.decoder_forward(p, mem, np.asarray([y_in]), visible)
            rows.append(logp[0, -1])
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
