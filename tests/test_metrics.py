import ast
import math
import random
from collections import Counter
from pathlib import Path

import pytest

from simumt import metrics as X
from simumt import model as M
from simumt import sweep as W
from simumt.cascade import CascadeConfig, CascadeMT, EndpointRule, TimedWord
from simumt.online import (ActionTrace, OnlinePolicy, ReadEvent, WriteEvent,
                           online_greedy_decode)
from simumt.training import INFINITE_K
from simumt.vocab import EOS


def small_params(seed=0, vocab=16):
    cfg = M.ModelConfig(vocab_size=vocab, d_model=16,
                        n_heads=2, n_enc_layers=1, n_dec_layers=1, d_ffn=24)
    return M.init_parameters(cfg, seed=seed)


# ---------------------------------------------------------------------------
# BLEU

def test_bleu_perfect_match():
    b = X.corpus_bleu([["a", "b", "c", "d", "e"]], [["a", "b", "c", "d", "e"]])
    assert b.score == 1.0
    assert b.precisions == (1.0, 1.0, 1.0, 1.0)
    assert b.brevity_penalty == 1.0
    assert (b.hyp_len, b.ref_len) == (5, 5)


def test_bleu_brevity_penalty_hand_value():
    # all precisions 1, hypothesis one word short: score = exp(1 - 5/4)
    b = X.corpus_bleu([["a", "b", "c", "d"]], [["a", "b", "c", "d", "e"]])
    assert b.precisions == (1.0, 1.0, 1.0, 1.0)
    assert b.score == pytest.approx(0.7788007830714049, rel=1e-14)
    assert b.brevity_penalty == pytest.approx(math.exp(-0.25), rel=1e-15)


def test_bleu_clips_repeated_ngrams():
    b = X.corpus_bleu([["the", "the", "the"]], [["the", "cat"]], max_n=1)
    assert b.precisions == (1 / 3,)
    assert b.score == pytest.approx(1 / 3, rel=1e-15)   # bp = 1, hyp longer


def test_bleu_zero_order_zeroes_unsmoothed_score():
    b = X.corpus_bleu([["a", "b"]], [["a", "c"]], max_n=2)
    assert b.precisions[1] == 0.0
    assert b.score == 0.0


def test_bleu_pools_counts_over_corpus():
    # second sentence contributes a unigram miss and no bigram positions
    b = X.corpus_bleu([["a", "b"], ["c"]], [["a", "b"], ["d"]], max_n=2)
    assert b.precisions == (2 / 3, 1.0)
    assert b.score == pytest.approx(math.sqrt(2 / 3), rel=1e-15)
    assert (b.hyp_len, b.ref_len) == (3, 3)


def test_bleu_empty_hypothesis_scores_zero():
    b = X.corpus_bleu([[]], [["a", "b"]])
    assert b.score == 0.0 and b.brevity_penalty == 0.0 and b.hyp_len == 0


def test_bleu_validation():
    with pytest.raises(ValueError):
        X.corpus_bleu([], [])
    with pytest.raises(ValueError):
        X.corpus_bleu([["a"]], [["a"], ["b"]])
    with pytest.raises(ValueError):
        X.corpus_bleu([["a"]], [["a"]], max_n=0)


def reference_bleu(hypotheses, references, max_n=4):
    """corpus_bleu as first written: n-grams counted with a generator of
    slices, clipped one n-gram at a time."""
    def ngrams(tokens, n):
        return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))

    matches, totals = [0] * max_n, [0] * max_n
    hyp_len = ref_len = 0
    for hyp, ref in zip(hypotheses, references):
        hyp, ref = list(hyp), list(ref)
        hyp_len += len(hyp)
        ref_len += len(ref)
        for n in range(1, max_n + 1):
            hyp_counts, ref_counts = ngrams(hyp, n), ngrams(ref, n)
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
    return X.BleuBreakdown(score=geo * bp, precisions=tuple(precisions),
                           brevity_penalty=bp, hyp_len=hyp_len, ref_len=ref_len)


def test_bleu_equals_the_reference_field_for_field():
    rng = random.Random(5)
    words = "a b c d e".split()
    for _ in range(300):
        size = rng.randint(1, 8)
        # short lengths: empty hypotheses and ones shorter than n are common
        hyps = [[rng.choice(words) for _ in range(rng.choice([0, 1, 2, 3, 5, 9]))]
                for _ in range(size)]
        refs = [h[:] if rng.random() < 0.3
                else [rng.choice(words) for _ in range(rng.randint(0, 9))] for h in hyps]
        if rng.random() < 0.3:
            hyps = [tuple(h) for h in hyps]
        max_n = rng.choice([1, 2, 4, 6])
        got, want = X.corpus_bleu(hyps, refs, max_n), reference_bleu(hyps, refs, max_n)
        assert got == want and repr(got) == repr(want)


# ---------------------------------------------------------------------------
# average lagging, token units

def trace_with_g(gs, n_reads, eos_tail=True):
    events = [ReadEvent(i) for i in range(n_reads)]
    events += [WriteEvent(token=5, g_tokens=g) for g in gs]
    if eos_tail:
        events.append(WriteEvent(token=EOS, g_tokens=gs[-1]))
    return ActionTrace(events=tuple(events))


def test_al_words_wait1_full_length():
    tr = ActionTrace(events=(
        ReadEvent(0), WriteEvent(5, 1), ReadEvent(1), WriteEvent(6, 2),
        ReadEvent(2), WriteEvent(7, 3), WriteEvent(EOS, 3)))
    assert X.average_lagging_words(tr, src_len=3, tgt_len=3) == pytest.approx(1.0)


def test_al_words_uneven_rate_hand_value():
    # n=4, |y|=2, g=(2,4): rate 2, tau=2, AL = ((2-0)+(4-2))/2 = 2.0
    tr = trace_with_g([2, 4], n_reads=4)
    assert X.average_lagging_words(tr, src_len=4, tgt_len=2) == pytest.approx(2.0)


def test_al_words_offline_equals_src_len():
    tr = trace_with_g([4, 4, 4], n_reads=4)
    assert X.average_lagging_words(tr, src_len=4, tgt_len=3) == pytest.approx(4.0)


def test_al_words_window_stops_at_first_full_read():
    # tau = 1: later writes cannot dilute the average
    tr = trace_with_g([4, 4], n_reads=4)
    assert X.average_lagging_words(tr, src_len=4, tgt_len=2) == pytest.approx(4.0)


def test_al_words_tau_falls_back_to_tgt_len():
    # g never reaches the source: tau = |y| = 2, rate 1.5
    tr = trace_with_g([1, 1], n_reads=3, eos_tail=False)
    tr = ActionTrace(events=tr.events, truncated=True)
    assert X.average_lagging_words(tr, src_len=3, tgt_len=2) == pytest.approx(
        ((1 - 0.0) + (1 - 1.5)) / 2)


def test_al_words_excludes_eos_write():
    # the EOS write has g=4 but tgt_len=1 keeps it out of the window
    tr = trace_with_g([2], n_reads=4)
    assert X.average_lagging_words(tr, src_len=4, tgt_len=1) == pytest.approx(2.0)


def test_al_words_validation():
    tr = trace_with_g([2, 3], n_reads=3)
    with pytest.raises(ValueError):
        X.average_lagging_words(tr, src_len=0, tgt_len=2)
    with pytest.raises(ValueError):
        X.average_lagging_words(tr, src_len=3, tgt_len=0)
    with pytest.raises(ValueError):
        X.average_lagging_words(tr, src_len=3, tgt_len=5)   # not enough writes
    with pytest.raises(ValueError):
        X.average_lagging_words(tr, src_len=2, tgt_len=2)   # g beyond source


# ---------------------------------------------------------------------------
# average lagging, millisecond units

def ms_trace(g_ms_list):
    events = [ReadEvent(0, timestamp_ms=0.0)]
    events += [WriteEvent(5, 1, g_ms=v) for v in g_ms_list]
    return ActionTrace(events=tuple(events), truncated=True)


def test_al_ms_hand_value():
    # total 1000 ms, writes at 400 and 1000 ms consumed, |y| = 2:
    # rate 500, AL = ((400-0) + (1000-500)) / 2 = 450
    assert X.average_lagging_ms(ms_trace([400.0, 1000.0]), 1000.0, 2) == \
        pytest.approx(450.0)


def test_al_ms_offline():
    assert X.average_lagging_ms(ms_trace([800.0, 800.0]), 800.0, 2) == \
        pytest.approx(800.0)


def test_al_ms_validation():
    with pytest.raises(ValueError):
        X.average_lagging_ms(ms_trace([100.0]), 0.0, 1)
    with pytest.raises(ValueError):
        X.average_lagging_ms(ms_trace([100.0]), 1000.0, 2)
    with pytest.raises(ValueError):
        X.average_lagging_ms(ms_trace([1100.0]), 1000.0, 1)
    bare = ActionTrace(events=(ReadEvent(0), WriteEvent(5, 1)), truncated=True)
    with pytest.raises(ValueError, match="g_ms"):
        X.average_lagging_ms(bare, 1000.0, 1)


# ---------------------------------------------------------------------------
# tradeoff sweeps (simumt.sweep)

def detok_ids(tokens):
    return " ".join(str(t) for t in tokens)


def test_sweep_t2t_records_match_direct_decoding():
    params = small_params(seed=6)
    sources = [[4, 5, 6, 7], [8, 9, 10]]
    # references that the random model will not match; BLEU just has to be
    # a well-defined number in [0, 1]
    testset = W.Testset(sources=sources, references=["4 5", "8 9"],
                        detokenize=detok_ids)
    ks = [1, 2, INFINITE_K]
    recs = W.sweep_t2t([W.T2TSystem("sys", [params])], ks, testset)
    assert [r.k_eval for r in recs] == ks
    assert all(r.system_id == "sys" and r.al_ms is None for r in recs)
    assert all(0.0 <= r.bleu <= 1.0 for r in recs)

    # recompute one record by hand
    policy = OnlinePolicy(k_eval=2)
    laggings, hyps = [], []
    for src in sources:
        tokens, trace = online_greedy_decode([params], src, policy)
        hyps.append(detok_ids(tokens).split())
        if tokens:
            laggings.append(X.average_lagging_words(trace, len(src), len(tokens)))
    expect_al = math.fsum(laggings) / len(laggings) if laggings else 0.0
    expect_bleu = X.corpus_bleu(hyps, [["4", "5"], ["8", "9"]]).score
    rec = recs[1]
    assert rec.al_words == pytest.approx(expect_al, rel=1e-15)
    assert rec.bleu == pytest.approx(expect_bleu, rel=1e-15)


def test_sweep_t2t_encodes_each_sentence_once_per_model(monkeypatch):
    models = [small_params(seed=6), small_params(seed=7)]
    sources = [[4, 5, 6, 7], [8, 9, 10], [11, 4, 9, 12, 5]]
    testset = W.Testset(sources=sources, references=["4 5", "8 9", "11 4"],
                        detokenize=detok_ids)
    ks = [1, 2, 3, INFINITE_K]
    systems = [W.T2TSystem("pair", models), W.T2TSystem("one", models[:1])]
    blocks = []
    real_encode = M.encode_prefix

    def encode(p, ids, state=None):
        blocks.append((id(p), len(ids)))
        return real_encode(p, ids, state)

    monkeypatch.setattr(M, "encode_prefix", encode)
    recs = W.sweep_t2t(systems, ks, testset)
    assert blocks == [(id(p), len(src) + 1) for system in systems
                      for src in sources for p in system.models]
    # the records of per-k decodes with new sessions, bit for bit
    expect = []
    for system in systems:
        for k in ks:
            runs = [(*online_greedy_decode(system.models, src, OnlinePolicy(k_eval=k)),
                     len(src), None) for src in sources]
            expect.append(W.TradeoffRecord(system.system_id, k, *X.score_runs(
                runs, testset.references, detok_ids)))
    assert recs == expect


def test_sweep_t2t_validation():
    # the testset refuses itself at construction, before any sweep runs
    with pytest.raises(ValueError, match="empty testset"):
        W.Testset(sources=[], references=[], detokenize=detok_ids)
    with pytest.raises(ValueError, match="length mismatch"):
        W.Testset(sources=[[4]], references=[], detokenize=detok_ids)
    with pytest.raises(ValueError, match="source 1 is empty"):
        W.Testset(sources=[[4], []], references=["4", "5"], detokenize=detok_ids)


def test_sweep_s2t_structure():
    params = small_params(seed=7)
    mt = CascadeMT(models=[params],
                   encode_source=lambda text: [4 + len(w) % 10
                                               for w in text.split()])
    cfg = CascadeConfig(sz=1, alpha=1.0, beta=5.0,
                        endpoint_rules=(EndpointRule("c", 0.5),),
                        block_ms=100.0)
    streams = [[TimedWord("aa", 0, 300), TimedWord("bbb", 400, 300)],
               [TimedWord("cccc", 0, 500)]]
    testset = W.Testset(sources=streams, references=["4 5", "6"],
                        detokenize=detok_ids)
    recs = W.sweep_s2t([W.S2TSystem("cas", mt, cfg)], [1, 2, INFINITE_K], testset)
    assert [r.k_eval for r in recs] == [1, 2, INFINITE_K]
    for r in recs:
        assert 0.0 <= r.bleu <= 1.0
        assert r.al_ms is not None
        assert r.al_ms <= max(s[-1].end_ms for s in streams)


# ---------------------------------------------------------------------------
# score_runs

def eos_only_trace(n_reads, g_ms=None):
    events = [ReadEvent(i) for i in range(n_reads)]
    return ActionTrace(events=tuple(events) + (WriteEvent(EOS, n_reads, g_ms=g_ms),))


def test_score_runs_text_hand_values():
    # run 0 writes 4 5 6 7 at g = 1..4 of 4 tokens: AL 1.0; run 1 writes
    # nothing, so it counts for BLEU (its reference stretches the brevity
    # penalty to exp(1 - 5/4)) but not for AL
    full = trace_with_g([1, 2, 3, 4], n_reads=4)
    runs = [([4, 5, 6, 7], full, 4, None), ([], eos_only_trace(2), 2, None)]
    bleu, al_words, al_ms = X.score_runs(runs, ["4 5 6 7", "8"], detok_ids)
    assert bleu == pytest.approx(math.exp(1 - 5 / 4), rel=1e-15)
    assert al_words == 1.0
    assert al_ms is None


def test_score_runs_speech_hand_values():
    # 2 blocks over 150 ms; writes after 1 and 2 blocks (100 and 150 ms):
    # AL words ((1-0) + (2-1)) / 2 = 1.0, AL ms ((100-0) + (150-75)) / 2 = 87.5;
    # the run without tokens enters neither mean
    trace = ActionTrace(events=(
        ReadEvent(0, timestamp_ms=100.0), WriteEvent(4, 1, g_ms=100.0),
        ReadEvent(1, timestamp_ms=150.0), WriteEvent(5, 2, g_ms=150.0),
        WriteEvent(EOS, 2, g_ms=150.0)))
    runs = [([4, 5], trace, 2, 150.0), ([], eos_only_trace(3, 300.0), 3, 300.0)]
    bleu, al_words, al_ms = X.score_runs(runs, ["4 5", "6"], detok_ids)
    assert (al_words, al_ms) == (1.0, 87.5)
    assert bleu == 0.0                          # 2 tokens have no 3-grams


def test_score_runs_without_tokens_means_are_zero():
    text = [([], eos_only_trace(2), 2, None)]
    assert X.score_runs(text, ["4"], detok_ids) == (0.0, 0.0, None)
    speech = [([], eos_only_trace(1, 50.0), 1, 50.0), ([], eos_only_trace(2, 200.0), 2, 200.0)]
    assert X.score_runs(speech, ["4", "5"], detok_ids) == (0.0, 0.0, 0.0)


@pytest.mark.parametrize("sz", [2.5, 0, -1, math.nan, -math.inf])
def test_sweep_s2t_refuses_a_size_that_is_not_a_whole_number(monkeypatch, sz):
    # sz 2.5 once decoded at 2 and was recorded as 2.5
    decodes = []
    monkeypatch.setattr(W, "cascade_decode", lambda *args: decodes.append(args))
    testset = W.Testset(sources=[[TimedWord("a", 0, 300)]], references=["4"],
                        detokenize=detok_ids)
    with pytest.raises(ValueError, match="whole number"):
        W.sweep_s2t([W.S2TSystem("cas", None, CascadeConfig())], [1, sz], testset)
    assert decodes == []


def test_sweep_s2t_takes_a_whole_float_size():
    mt = CascadeMT(models=[small_params(seed=7)],
                   encode_source=lambda text: [4 + len(w) % 10 for w in text.split()])
    testset = W.Testset(sources=[[TimedWord("aa", 0, 300), TimedWord("bbb", 400, 300)]],
                        references=["4 5"], detokenize=detok_ids)
    whole, floated = W.sweep_s2t([W.S2TSystem("cas", mt, CascadeConfig())], [2, 2.0], testset)
    assert (floated.bleu, floated.al_words, floated.al_ms) == \
        (whole.bleu, whole.al_words, whole.al_ms)


def test_sweep_s2t_rejects_an_empty_stream():
    with pytest.raises(ValueError, match="source 1 is empty"):
        W.Testset(sources=[[TimedWord("a", 0, 300)], []],
                  references=["4", "5"], detokenize=detok_ids)


# ---------------------------------------------------------------------------
# layering

def test_metrics_imports_nothing_of_the_package_but_action_trace():
    # scoring knows nothing of the decoders it scores; the sweeps live in
    # simumt.sweep
    tree = ast.parse(Path(X.__file__).read_text(encoding="utf-8"))
    package_imports = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.level > 0 or (node.module or "").startswith("simumt")):
            package_imports += [(node.module, a.name) for a in node.names]
        elif isinstance(node, ast.Import):
            package_imports += [(a.name, None) for a in node.names
                                if a.name.startswith("simumt")]
    assert package_imports == [("online", "ActionTrace")]
