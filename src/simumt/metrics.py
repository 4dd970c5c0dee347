"""Translation quality and latency metrics.

Quality is corpus-level BLEU: clipped n-gram precisions pooled over the
corpus, geometric mean over orders 1..4, times a brevity penalty.
Latency is average lagging, in source tokens for text input and in
milliseconds for speech input: how far, on average, the writer trails an
ideal wait-0 writer that consumes the source at the rate the hypothesis
implies.  `score_runs` scores the sweeps and the evaluation server alike.
"""
from __future__ import annotations

import math
from collections import Counter
from itertools import chain
from dataclasses import dataclass
from typing import Sequence

from .online import ActionTrace


@dataclass(frozen=True)
class BleuBreakdown:
    score: float
    precisions: tuple[float, ...]
    brevity_penalty: float
    hyp_len: int
    ref_len: int


def _ngrams(tokens: Sequence, max_n: int) -> Counter:
    """Counts of the n-grams of ``tokens`` for every n in 1..max_n, each an
    n-tuple, so orders never share a key: zip over n shifted slices, which
    yields nothing once n exceeds the length."""
    return Counter(chain.from_iterable(zip(*[tokens[i:] for i in range(n)])
                                       for n in range(1, max_n + 1)))


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
            totals[n - 1] += max(len(hyp) - n + 1, 0)
        for gram, clipped in (_ngrams(hyp, max_n) & _ngrams(ref, max_n)).items():
            matches[len(gram) - 1] += clipped

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

