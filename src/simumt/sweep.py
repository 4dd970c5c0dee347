"""Latency-quality sweeps: wait-k text systems over k (`sweep_t2t`) and
the ASR+MT cascade over the READ chunk size (`sweep_s2t`), each grid
value scored by `metrics.score_runs` as the evaluation server scores,
and the trade-off CSV for plotting (`emit_plotdata`).
"""
from __future__ import annotations

import csv
from dataclasses import dataclass, replace
from typing import Sequence

from .cascade import AudioBlocks, cascade_decode
from .metrics import score_runs
from .online import ModelSession, OnlinePolicy, online_greedy_decode
from .training import INFINITE_K
from .vocab import EOS


@dataclass(frozen=True)
class TradeoffRecord:
    system_id: str
    k_eval: float
    bleu: float
    al_words: float
    al_ms: float | None = None


@dataclass(frozen=True)
class Testset:
    """Sources (id sequences or TimedWord streams), one reference string
    each, and ``detokenize``: hypothesis -> string scored against it.
    A length mismatch, an empty testset or an empty source is refused."""

    sources: list
    references: list[str]
    detokenize: object

    def __post_init__(self) -> None:
        if len(self.sources) != len(self.references):
            raise ValueError("sources/references length mismatch")
        if not self.sources:
            raise ValueError("empty testset")
        for i, src in enumerate(self.sources):
            if not src:
                raise ValueError(f"source {i} is empty")


@dataclass(frozen=True)
class T2TSystem:
    system_id: str
    models: list                    # one or more Parameters (ensembled)


@dataclass(frozen=True)
class S2TSystem:
    system_id: str
    mt: object                      # cascade.CascadeMT
    config: object                  # cascade.CascadeConfig


def _sweep(systems: Sequence, values: Sequence[float], testset: Testset,
           decode) -> list[TradeoffRecord]:
    """Sentence-major: ``decode(system, source)`` yields one run per grid
    value, in order; each value's runs over the test set make one record."""
    records = []
    for system in systems:
        per_value = zip(*[list(decode(system, src)) for src in testset.sources])
        records.extend(TradeoffRecord(system.system_id, value, *score_runs(
            runs, testset.references, testset.detokenize))
            for value, runs in zip(values, per_value))
    return records


def sweep_t2t(systems: Sequence[T2TSystem], k_values: Sequence[float],
              testset: Testset) -> list[TradeoffRecord]:
    """Wait-k decode the test set at each k.

    Sentence by sentence, each model encodes the source once, in the
    first k's decode, and every later k decodes against those rows
    (`ModelSession.know_source`): the runs are those of
    `online_greedy_decode` with new sessions, bit for bit.
    """
    policies = [OnlinePolicy(k_eval=k) for k in k_values]

    def decode(system: T2TSystem, src):
        known = [*src, EOS]
        chains = [None] * len(system.models)
        for policy in policies:
            sessions = [ModelSession(p) for p in system.models]
            for session, chain in zip(sessions, chains):
                session.know_source(known, chain)
            yield (*online_greedy_decode(sessions, src, policy), len(src), None)
            chains = [session.enc for session in sessions]

    return _sweep(systems, k_values, testset, decode)


def sweep_s2t(systems: Sequence[S2TSystem], sz_values: Sequence[float],
              testset: Testset) -> list[TradeoffRecord]:
    """Cascade-decode the streams at each READ chunk size in audio blocks;
    an infinite size reads all audio before writing (offline).  AL in
    words is over audio blocks.  A size that is neither a whole number
    >= 1 nor infinite raises ValueError before any decode."""
    for sz in sz_values:
        if not (sz == INFINITE_K or (sz >= 1 and sz == int(sz))):  # NaN fails too
            raise ValueError(f"sz must be a whole number >= 1 or infinite, got {sz!r}")

    def decode(system: S2TSystem, stream):
        blocks = AudioBlocks.of(stream, system.config.block_ms)
        for sz in sz_values:
            real_sz = blocks.n_blocks if sz == INFINITE_K else int(sz)
            res = cascade_decode(stream, system.mt, replace(system.config, sz=real_sz))
            yield res.tokens, res.trace, blocks.n_blocks, blocks.total_ms

    return _sweep(systems, sz_values, testset, decode)


def emit_plotdata(records: Sequence[TradeoffRecord], path,
                  config_header: str | None = None) -> None:
    """Tradeoff CSV: system,k,bleu,al_words,al_ms sorted by (system, al_words).

    k of infinity prints as "inf".  Values are printed with repr so
    reading them back is exact; system ids are quoted as CSV needs."""
    rows = sorted(records, key=lambda r: (r.system_id, r.al_words, r.k_eval))
    with open(path, "w", encoding="utf-8", newline="") as f:
        if config_header:
            f.write(config_header.rstrip("\n") + "\n")
        out = csv.writer(f, lineterminator="\n")
        out.writerow(["system", "k", "bleu", "al_words", "al_ms"])
        for r in rows:
            k = "inf" if r.k_eval == float("inf") else repr(r.k_eval)
            al_ms = "" if r.al_ms is None else repr(float(r.al_ms))
            out.writerow([r.system_id, k, repr(float(r.bleu)), repr(float(r.al_words)), al_ms])
