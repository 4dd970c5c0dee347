"""Translation quality and latency metrics, plus the tradeoff sweep.

Quality is corpus-level BLEU: clipped n-gram precisions pooled over the
corpus, geometric mean over orders 1..4, times a brevity penalty.
Latency is average lagging, in source tokens for text input and in
milliseconds for speech input: how far, on average, the writer trails an
ideal wait-0 writer that consumes the source at the rate the hypothesis
implies.  `score_runs` scores the sweeps and the evaluation server alike.
The sweep runs systems across a range of laggings and collects (quality,
latency) pairs for plotting.
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, replace
from typing import Sequence

from .cascade import AudioBlocks, cascade_decode
from .online import ActionTrace, ModelSession, OnlinePolicy, online_greedy_decode
from .training import INFINITE_K
from .vocab import EOS


@dataclass(frozen=True)
class BleuBreakdown:
    score: float
    precisions: tuple[float, ...]
    brevity_penalty: float
    hyp_len: int
    ref_len: int


def _ngrams(tokens: Sequence, n: int) -> Counter:
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def corpus_bleu(hypotheses: Sequence[Sequence], references: Sequence[Sequence],
                max_n: int = 4) -> BleuBreakdown:
    """Corpus BLEU over token sequences, one reference per hypothesis.

    Unsmoothed: any order with zero matches zeroes the score.
    """
    if len(hypotheses) != len(references):
        raise ValueError("hypothesis/reference count mismatch")
    if len(hypotheses) == 0:
        raise ValueError("empty corpus")
    if max_n < 1:
        raise ValueError("max_n must be >= 1")

    matches = [0] * max_n
    totals = [0] * max_n
    hyp_len = 0
    ref_len = 0
    for hyp, ref in zip(hypotheses, references):
        hyp = list(hyp)
        ref = list(ref)
        hyp_len += len(hyp)
        ref_len += len(ref)
        for n in range(1, max_n + 1):
            hyp_counts = _ngrams(hyp, n)
            ref_counts = _ngrams(ref, n)
            totals[n - 1] += max(len(hyp) - n + 1, 0)
            matches[n - 1] += sum(min(c, ref_counts[g]) for g, c in hyp_counts.items())

    precisions = [m / t if t > 0 else 0.0 for m, t in zip(matches, totals)]
    if hyp_len == 0 or any(p == 0.0 for p in precisions):
        geo = 0.0
    else:
        geo = math.exp(math.fsum(math.log(p) for p in precisions) / max_n)
    bp = 1.0 if hyp_len >= ref_len else math.exp(1.0 - ref_len / max(hyp_len, 1))
    if hyp_len == 0:
        bp = 0.0
    return BleuBreakdown(score=geo * bp, precisions=tuple(precisions),
                         brevity_penalty=bp, hyp_len=hyp_len, ref_len=ref_len)


def _lagging(trace: ActionTrace, tgt_len: int, g_of, src_total: float) -> float:
    """Average-lagging core in token or ms units: ``g_of(w)`` is the source
    consumed before write w, out of ``src_total``.  Only the first tgt_len
    writes count, so a trailing EOS write never does.  The ideal writer
    consumes src_total at the uniform rate src_total / tgt_len, and the
    window ends at the first write made with the whole source consumed
    (compared with >= to be safe under float arithmetic), or at tgt_len.
    """
    writes = trace.writes()
    if len(writes) < tgt_len:
        raise ValueError(f"trace has {len(writes)} writes, need {tgt_len}")
    g = [g_of(w) for w in writes[:tgt_len]]
    if any(v > src_total for v in g):
        raise ValueError("write recorded after more source than the input holds")
    ideal_rate = src_total / tgt_len
    tau = tgt_len
    for t in range(1, tgt_len + 1):
        if g[t - 1] >= src_total:
            tau = t
            break
    acc = 0.0
    for t in range(1, tau + 1):
        acc += g[t - 1] - (t - 1) * ideal_rate
    return acc / tau


def average_lagging_words(trace: ActionTrace, src_len: int, tgt_len: int) -> float:
    """Average lagging in source tokens; ``tgt_len`` is the content length
    of the hypothesis (EOS excluded)."""
    if src_len < 1 or tgt_len < 1:
        raise ValueError("src_len and tgt_len must be >= 1")
    return _lagging(trace, tgt_len, lambda w: float(w.g_tokens), float(src_len))


def _g_ms(write) -> float:
    if write.g_ms is None:
        raise ValueError("write lacks g_ms; not a speech-input trace")
    return float(write.g_ms)


def average_lagging_ms(trace: ActionTrace, total_src_ms: float, tgt_len: int) -> float:
    """Average lagging in milliseconds of consumed audio."""
    if total_src_ms <= 0 or tgt_len < 1:
        raise ValueError("total_src_ms must be positive and tgt_len >= 1")
    return _lagging(trace, tgt_len, _g_ms, float(total_src_ms))


def _mean(values: list[float]) -> float:
    return math.fsum(values) / len(values) if values else 0.0


def score_runs(runs: Sequence[tuple], references: Sequence[str],
               detokenize) -> tuple[float, float, float | None]:
    """(BLEU, mean AL in read units, mean AL in ms) of decoded runs.

    A run is ``(tokens, trace, src_units, total_ms)``: content tokens (no
    EOS), trace, source length in read units (tokens or audio blocks) and
    audio ms (None for text); ``references[i]`` belongs to run i.  BLEU
    compares ``detokenize(tokens).split()`` with the split reference over
    every run; AL covers runs with content tokens, and a mean over no runs
    is 0.0.  The ms mean is None for text.
    """
    hyps = [detokenize(tokens).split() for tokens, _, _, _ in runs]
    bleu = corpus_bleu(hyps, [r.split() for r in references]).score
    timed = [run for run in runs if run[0]]
    al_words = _mean([average_lagging_words(trace, src_units, len(tokens))
                      for tokens, trace, src_units, _ in timed])
    if all(total_ms is None for _, _, _, total_ms in runs):
        return bleu, al_words, None
    return bleu, al_words, _mean([average_lagging_ms(trace, total_ms, len(tokens))
                                  for tokens, trace, _, total_ms in timed])


# ---------------------------------------------------------------------------
# latency-quality sweep

@dataclass(frozen=True)
class TradeoffRecord:
    system_id: str
    k_eval: float
    bleu: float
    al_words: float
    al_ms: float | None = None


@dataclass(frozen=True)
class T2TSystem:
    system_id: str
    models: list                    # one or more Parameters (ensembled)


@dataclass(frozen=True)
class T2TTestset:
    sources: list                   # id sequences
    references: list[str]           # detokenized reference strings
    detokenize: object              # ids -> string


def sweep_t2t(systems: Sequence[T2TSystem], k_values: Sequence[float],
              testset: T2TTestset) -> list[TradeoffRecord]:
    """Decode the test set at each lagging and score it with `score_runs`.

    Sentence by sentence, each model encodes the source once, in the
    first k's decode, and every later k decodes against those rows
    (`ModelSession.know_source`): the runs are those of
    `online_greedy_decode` with new sessions, bit for bit.
    """
    if len(testset.sources) != len(testset.references):
        raise ValueError("testset sources/references mismatch")
    if not testset.sources:
        raise ValueError("empty testset")
    policies = [OnlinePolicy(k_eval=k) for k in k_values]
    records = []
    for system in systems:
        runs = [[] for _ in policies]
        for src in testset.sources:
            known = [*src, EOS]
            chains = [None] * len(system.models)
            for policy, k_runs in zip(policies, runs):
                sessions = [ModelSession(p) for p in system.models]
                for session, chain in zip(sessions, chains):
                    session.know_source(known, chain)
                k_runs.append((*online_greedy_decode(sessions, src, policy), len(src), None))
                chains = [session.enc for session in sessions]
        records.extend(TradeoffRecord(system.system_id, k, *score_runs(
            k_runs, testset.references, testset.detokenize))
            for k, k_runs in zip(k_values, runs))
    return records


@dataclass(frozen=True)
class S2TSystem:
    system_id: str
    mt: object                      # cascade.CascadeMT
    config: object                  # cascade.CascadeConfig


@dataclass(frozen=True)
class S2TTestset:
    streams: list                   # lists of TimedWord
    references: list[str]
    detokenize: object


def sweep_s2t(systems: Sequence[S2TSystem], sz_values: Sequence[float],
              testset: S2TTestset) -> list[TradeoffRecord]:
    """Latency sweep for the cascade: the swept variable is the READ
    chunk size in audio blocks; an infinite value reads all audio before
    writing (offline).  Scored with `score_runs`, AL in words over audio
    blocks.  Every stream must hold at least one word."""
    if len(testset.streams) != len(testset.references):
        raise ValueError("testset streams/references mismatch")
    if not testset.streams:
        raise ValueError("empty testset")
    if not all(testset.streams):
        raise ValueError("testset has an empty stream")
    records = []
    for system in systems:
        for sz in sz_values:
            runs = []
            for stream in testset.streams:
                blocks = AudioBlocks.of(stream, system.config.block_ms)
                real_sz = blocks.n_blocks if sz == INFINITE_K else int(sz)
                res = cascade_decode(stream, system.mt, replace(system.config, sz=real_sz))
                runs.append((res.tokens, res.trace, blocks.n_blocks, blocks.total_ms))
            records.append(TradeoffRecord(system.system_id, sz, *score_runs(
                runs, testset.references, testset.detokenize)))
    return records
