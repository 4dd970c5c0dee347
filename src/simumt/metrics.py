"""Translation quality and latency metrics, plus the tradeoff sweep.

Quality is corpus-level BLEU: clipped n-gram precisions pooled over the
corpus, geometric mean over orders 1..4, times a brevity penalty.
Latency is average lagging, in source tokens for text input and in
milliseconds for speech input: how far, on average, the writer trails an
ideal wait-0 writer that consumes the source at the rate the hypothesis
implies.  The sweep runs systems across a range of laggings and collects
(quality, latency) pairs for plotting.
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, replace
from typing import Sequence

from .cascade import AudioBlocks, cascade_decode
from .online import ActionTrace, OnlinePolicy, online_greedy_decode
from .training import INFINITE_K


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
                max_n: int = 4, smoothing: str = "none") -> BleuBreakdown:
    """Corpus BLEU over token sequences, one reference per hypothesis.

    With smoothing "none", any order with zero matches zeroes the score.
    Smoothing "add_one" uses (matches+1)/(total+1) per order; that is a
    reporting convenience, not the standard definition, so it is off by
    default.
    """
    if smoothing not in ("none", "add_one"):
        raise ValueError(f"unknown smoothing {smoothing!r}")
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

    precisions = []
    for m, t in zip(matches, totals):
        if smoothing == "add_one":
            precisions.append((m + 1.0) / (t + 1.0))
        else:
            precisions.append(m / t if t > 0 else 0.0)

    if hyp_len == 0 or any(p == 0.0 for p in precisions):
        geo = 0.0
    else:
        geo = math.exp(math.fsum(math.log(p) for p in precisions) / max_n)
    bp = 1.0 if hyp_len >= ref_len else math.exp(1.0 - ref_len / max(hyp_len, 1))
    if hyp_len == 0:
        bp = 0.0
    return BleuBreakdown(score=geo * bp, precisions=tuple(precisions),
                         brevity_penalty=bp, hyp_len=hyp_len, ref_len=ref_len)


def _lagging(g: list[float], src_total: float, tgt_len: int,
             ideal_rate: float) -> float:
    """Common average-lagging core over a g sequence (token or ms units)."""
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
    """Average lagging in source tokens.

    ``tgt_len`` is the content length of the hypothesis (EOS excluded);
    only the first tgt_len writes enter the average, so a trailing EOS
    write never does.  The averaging window ends at the first write made
    with the whole source read, or at tgt_len if there is none.
    """
    if src_len < 1 or tgt_len < 1:
        raise ValueError("src_len and tgt_len must be >= 1")
    writes = trace.writes()
    if len(writes) < tgt_len:
        raise ValueError(f"trace has {len(writes)} writes, need {tgt_len}")
    g = [float(w.g_tokens) for w in writes[:tgt_len]]
    if any(v > src_len for v in g):
        raise ValueError("write recorded after more reads than the source has tokens")
    return _lagging(g, float(src_len), tgt_len, src_len / tgt_len)


def average_lagging_ms(trace: ActionTrace, total_src_ms: float, tgt_len: int) -> float:
    """Average lagging in milliseconds of consumed audio.

    The ideal writer consumes total_src_ms at the uniform rate
    total_src_ms / tgt_len per written token.  The window ends at the
    first write with all audio consumed (g_ms >= total, compared with >=
    to be safe under float arithmetic).
    """
    if total_src_ms <= 0 or tgt_len < 1:
        raise ValueError("total_src_ms must be positive and tgt_len >= 1")
    writes = trace.writes()
    if len(writes) < tgt_len:
        raise ValueError(f"trace has {len(writes)} writes, need {tgt_len}")
    g = []
    for w in writes[:tgt_len]:
        if w.g_ms is None:
            raise ValueError("write lacks g_ms; not a speech-input trace")
        g.append(float(w.g_ms))
    if any(v > total_src_ms for v in g):
        raise ValueError("write recorded after more audio than the stream holds")
    return _lagging(g, float(total_src_ms), tgt_len, total_src_ms / tgt_len)


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
    """Decode the test set at each lagging and score BLEU plus mean AL.

    BLEU is computed on whitespace-split detokenized text.  Sentences
    whose hypothesis is empty are skipped for AL (an empty hypothesis has
    no writes) but still count for BLEU.
    """
    if len(testset.sources) != len(testset.references):
        raise ValueError("testset sources/references mismatch")
    if not testset.sources:
        raise ValueError("empty testset")
    records = []
    for system in systems:
        for k in k_values:
            policy = OnlinePolicy(k_eval=k)
            hyps = []
            laggings = []
            for src in testset.sources:
                tokens, trace = online_greedy_decode(system.models, src, policy)
                hyps.append(testset.detokenize(tokens).split())
                if tokens:
                    laggings.append(
                        average_lagging_words(trace, len(src), len(tokens)))
            bleu = corpus_bleu(hyps, [r.split() for r in testset.references])
            al = math.fsum(laggings) / len(laggings) if laggings else 0.0
            records.append(TradeoffRecord(system_id=system.system_id, k_eval=k,
                                          bleu=bleu.score, al_words=al, al_ms=None))
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
    writing (offline).  AL in words is computed over audio blocks."""
    if len(testset.streams) != len(testset.references):
        raise ValueError("testset streams/references mismatch")
    if not testset.streams:
        raise ValueError("empty testset")
    records = []
    for system in systems:
        for sz in sz_values:
            hyps = []
            al_w = []
            al_ms = []
            for stream in testset.streams:
                blocks = AudioBlocks.of(stream, system.config.block_ms)
                real_sz = blocks.n_blocks if sz == INFINITE_K else int(sz)
                cfg = replace(system.config, sz=real_sz)
                res = cascade_decode(stream, system.mt, cfg)
                hyps.append(testset.detokenize(res.tokens).split())
                if res.tokens and blocks.total_ms > 0:
                    al_w.append(average_lagging_words(
                        res.trace, blocks.n_blocks, len(res.tokens)))
                    al_ms.append(average_lagging_ms(
                        res.trace, blocks.total_ms, len(res.tokens)))
            bleu = corpus_bleu(hyps, [r.split() for r in testset.references])
            records.append(TradeoffRecord(
                system_id=system.system_id, k_eval=sz, bleu=bleu.score,
                al_words=math.fsum(al_w) / len(al_w) if al_w else 0.0,
                al_ms=math.fsum(al_ms) / len(al_ms) if al_ms else 0.0,
            ))
    return records


def sweep(systems, k_values, testset) -> list[TradeoffRecord]:
    """Dispatch on testset type: text-to-text or speech-to-text."""
    if isinstance(testset, T2TTestset):
        return sweep_t2t(systems, k_values, testset)
    if isinstance(testset, S2TTestset):
        return sweep_s2t(systems, k_values, testset)
    raise TypeError(f"unknown testset type {type(testset).__name__}")
