"""Acceptance gate: thirteen mechanism-level criteria, one test each.

Every test prints a single summary line on success (run with -v to see one
pass/fail line per criterion from the test runner itself).  Expected values
come from closed forms, hand-derived tables, or independently written
brute-force oracles in this file -- never from the code under test.
"""
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from simumt import metrics as X
from simumt import model as M
from simumt import online as O
from simumt import server as S
from simumt import sweep as W
from simumt import training as T
from simumt.cascade import (CascadeConfig, CascadeMT, EndpointRule, Segment,
                            TimedWord, cascade_decode, default_endpoint_rules,
                            detect_endpoint, segment_stream, AsrSnapshot)
from simumt.corpus import SentencePair, gen_toy_corpus, split_corpus, toy_vocabulary
from simumt.normalize import asr_normalize
from simumt.online import ActionTrace, ReadEvent, WriteEvent
from simumt.training import INFINITE_K
from simumt.vocab import BOS, EOS, EOS_TOKEN, Vocabulary

INF = math.inf


def tiny_config(rng, vocab=14):
    return M.ModelConfig(
        vocab_size=vocab,
        d_model=int(rng.choice([16, 32])), n_heads=int(rng.choice([2, 4])),
        n_enc_layers=int(rng.integers(1, 3)), n_dec_layers=int(rng.integers(1, 3)),
        d_ffn=int(rng.choice([24, 48])))


# ===========================================================================
# 1. wait-k path law: z = min(k + t - 1, n), exhaustive, < 1 s

def test_criterion_01_waitk_path_law():
    t0 = time.monotonic()
    for k in range(1, 65):
        for t in range(1, 129):
            for n in range(1, 65):
                assert T.wait_k_z(k, t, n) == min(k + t - 1, n)
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0, f"exhaustive law check took {elapsed:.2f}s"
    print(f"criterion 1 PASS: wait-k law exhaustive over 524288 triples "
          f"({elapsed:.2f}s)")


# ===========================================================================
# 2. causality: decode_step bit-identical under changes beyond z_t

def test_criterion_02_causality_bit_identity():
    t0 = time.monotonic()
    for trial in range(50):
        rng = np.random.default_rng(1000 + trial)
        params = M.init_parameters(tiny_config(rng), seed=trial)
        n = int(rng.integers(3, 10))
        x = rng.integers(4, 14, size=n)
        z = int(rng.integers(1, n))

        x_perm = x.copy()
        x_perm[z:] = rng.permutation(x_perm[z:])
        x_repl = x.copy()
        x_repl[z:] = rng.integers(4, 14, size=n - z)

        states = [M.encode_prefix(params, v) for v in (x, x_perm, x_repl)]
        decs = [None, None, None]
        prev = BOS
        for _ in range(3):
            logps = []
            for i, enc in enumerate(states):
                logp, decs[i] = M.decode_step(params, enc, decs[i], prev, z)
                logps.append(logp)
            assert np.array_equal(logps[0], logps[1]), \
                "permuting unseen source tokens changed the step output"
            assert np.array_equal(logps[0], logps[2]), \
                "replacing unseen source tokens changed the step output"
            prev = int(np.argmax(logps[0]))
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    print(f"criterion 2 PASS: 50 models, bitwise-stable decode under unseen-"
          f"source edits ({elapsed:.1f}s)")


# ===========================================================================
# 3. incremental equivalence vs from-scratch recomputation, <= 1e-6

def test_criterion_03_incremental_equivalence():
    t0 = time.monotonic()
    worst = 0.0
    for case in range(50):
        rng = np.random.default_rng(2000 + case)
        params = M.init_parameters(tiny_config(rng), seed=case)
        n = int(rng.integers(2, 11))
        x = [int(v) for v in rng.integers(4, 14, size=n)]
        x_model = np.array(x + [EOS])

        # encoder: random block sizes vs one shot
        state = None
        i = 0
        while i < len(x_model):
            j = min(len(x_model), i + int(rng.integers(1, 4)))
            state = M.encode_prefix(params, x_model[i:j], state)
            i = j
        mem_full, _ = M.encoder_forward(params, x_model[None])
        worst = max(worst, float(np.abs(state.memory - mem_full[0]).max()))

        # decoder: step chain vs teacher-forced batch forward
        m = int(rng.integers(1, 9))
        y = [int(v) for v in rng.integers(4, 14, size=m)]
        k = int(rng.integers(1, n + 2))
        path = [min(k + t - 1, n) for t in range(1, m + 1)]
        y_in = [BOS] + y[:-1]
        logp_full, _ = M.forward_full(params, [x], [y_in], [path])
        logp_full = logp_full[0]
        visible = M.path_visibility(np.array([path]), np.array([n]))[0]
        dec = None
        prev = BOS
        for t in range(1, m + 1):
            logp, dec = M.decode_step(params, state, dec, prev, int(visible[t - 1]))
            worst = max(worst, float(np.abs(logp - logp_full[t - 1]).max()))
            prev = y_in[t] if t < m else EOS
    elapsed = time.monotonic() - t0
    assert worst <= 1e-6, f"incremental drift {worst:.3e}"
    assert elapsed < 60.0
    print(f"criterion 3 PASS: 50 cases, max incremental drift {worst:.2e} "
          f"({elapsed:.1f}s)")


# ===========================================================================
# 4. gradient check: path_loss and fixed-k multi_path_loss vs central FD

def test_criterion_04_gradient_check():
    t0 = time.monotonic()
    cfg = M.ModelConfig(vocab_size=18, d_model=32,
                        n_heads=4, n_enc_layers=2, n_dec_layers=2, d_ffn=48)
    params = M.init_parameters(cfg, seed=0)
    rng = np.random.default_rng(0)
    pair = SentencePair(
        source=tuple(int(v) for v in rng.integers(4, 18, size=6)),
        target=tuple(int(v) for v in rng.integers(4, 18, size=5)) + (EOS,))

    def single_path(p):
        return T.path_loss(p, pair, k=2, want_grads=True)

    def multi_fixed(p):
        # a freshly seeded generator per call pins the sampled k
        loss, grads, k = T.multi_path_loss(p, pair, np.random.default_rng(5),
                                           want_grads=True)
        assert k == multi_fixed.k_expected
        return loss, grads

    multi_fixed.k_expected = T.multi_path_loss(
        params, pair, np.random.default_rng(5))[1]

    errs = []
    for fn in (single_path, multi_fixed):
        report = T.grad_check(params, fn, n_probes=100, tol=1e-4, seed=1)
        assert report.n_probes >= 100
        assert report.passed, f"max rel err {report.max_rel_err:.3e}"
        errs.append(report.max_rel_err)
    elapsed = time.monotonic() - t0
    assert elapsed < 300.0
    print(f"criterion 4 PASS: 200 probed weights, max rel errs "
          f"{errs[0]:.2e} / {errs[1]:.2e} ({elapsed:.1f}s)")


# ===========================================================================
# 5. multi-path consistency: enumeration mean == expectation, <= 1e-9

def test_criterion_05_multi_path_consistency():
    t0 = time.monotonic()
    rng = np.random.default_rng(3)
    cfg = M.ModelConfig(vocab_size=14, d_model=16,
                        n_heads=2, n_enc_layers=1, n_dec_layers=1, d_ffn=24)
    params = M.init_parameters(cfg, seed=0)
    for n in range(1, 9):
        m = int(rng.integers(1, 8))
        pair = SentencePair(
            source=tuple(int(v) for v in rng.integers(4, 14, size=n)),
            target=tuple(int(v) for v in rng.integers(4, 14, size=m)) + (EOS,))
        per_k = [T.path_loss(params, pair, k) for k in range(1, n + 1)]
        expect = T.expected_multi_path_loss(params, pair)
        assert abs(math.fsum(per_k) / n - expect) <= 1e-9
        assert abs(sum(per_k) / n - expect) <= 1e-9
        # each sampled realization is exactly one of the enumerated losses
        for seed in range(30):
            loss, k = T.multi_path_loss(params, pair, np.random.default_rng(seed))
            assert 1 <= k <= n
            assert loss == per_k[k - 1]
    # the sampler covers every k
    pair5 = SentencePair(source=(4, 5, 6, 7, 8), target=(9, EOS))
    seen = {T.multi_path_loss(params, pair5, np.random.default_rng(s))[1]
            for s in range(200)}
    assert seen == {1, 2, 3, 4, 5}
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    print(f"criterion 5 PASS: enumeration mean matches expectation for "
          f"|x| 1..8 ({elapsed:.1f}s)")


# ===========================================================================
# 6. toy-task learning: BLEU >= 0.90 offline, BLEU(9) >= BLEU(1), <= 15 min

def test_criterion_06_toy_task_learning():
    t0 = time.monotonic()
    pairs = gen_toy_corpus(seed=11, n_pairs=10000, task="digit_to_word")
    vocab = toy_vocabulary("digit_to_word")
    train_pairs, held = split_corpus(pairs, 500)
    tr, dev = split_corpus(train_pairs, 300)

    params = M.init_parameters(M.desk_config(len(vocab)), seed=0)
    res = T.train(params, tr, dev, T.LossConfig(mode="multi_path"), epochs=8,
                  seed=0, batch_size=32, base_lr=0.2, warmup_steps=400)

    def bleu_at(k):
        hyps, refs = [], []
        pol = O.OnlinePolicy(k_eval=k)
        for p in held:
            toks, _ = O.online_greedy_decode(res.params, list(p.source), pol)
            hyps.append([vocab.token(t) for t in toks])
            refs.append([vocab.token(t) for t in p.target[:-1]])
        return X.corpus_bleu(hyps, refs).score

    bleu_1 = bleu_at(1)
    bleu_9 = bleu_at(9)
    bleu_inf = bleu_at(INFINITE_K)
    elapsed = time.monotonic() - t0
    assert bleu_inf >= 0.90, f"offline BLEU {bleu_inf:.4f} < 0.90"
    assert bleu_9 >= bleu_1, f"BLEU(9)={bleu_9:.4f} < BLEU(1)={bleu_1:.4f}"
    assert elapsed <= 900.0, f"training run took {elapsed:.0f}s"
    print(f"criterion 6 PASS: BLEU k=1/9/inf = {bleu_1:.4f}/{bleu_9:.4f}/"
          f"{bleu_inf:.4f} on 500 held-out pairs ({elapsed:.0f}s)")


# ===========================================================================
# 7. AL exactness: wait-k equal-length traces give AL = k; offline gives n

def test_criterion_07_al_exactness():
    t0 = time.monotonic()
    for n in range(1, 33):
        for k in range(1, n + 1):
            events = []
            z = 0
            for t in range(1, n + 1):
                zt = min(k + t - 1, n)
                while z < zt:
                    events.append(ReadEvent(index=z))
                    z += 1
                events.append(WriteEvent(token=5, g_tokens=z))
            events.append(WriteEvent(token=EOS, g_tokens=n))
            trace = ActionTrace(events=tuple(events))
            trace.validate()
            al = X.average_lagging_words(trace, src_len=n, tgt_len=n)
            assert al == float(k), f"n={n} k={k}: AL={al!r}"
        offline = ActionTrace(events=tuple(
            [ReadEvent(index=i) for i in range(n)]
            + [WriteEvent(token=5, g_tokens=n) for _ in range(n)]
            + [WriteEvent(token=EOS, g_tokens=n)]))
        assert X.average_lagging_words(offline, n, n) == float(n)
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    print(f"criterion 7 PASS: AL == k for all k <= n <= 32, offline AL == n "
          f"({elapsed:.2f}s)")


# ===========================================================================
# 8. endpointing golden table (hand-derived expectations)

RULES_DEF = default_endpoint_rules()        # a:5.0  b:1.0/8.0  c:2.0  d:20.0
RULES_BB = [EndpointRule("b", 1.0, cost_threshold=2.0),
            EndpointRule("b", 3.0, cost_threshold=100.0)]
RULES_A = [EndpointRule("a", 0.5)]
RULES_C = [EndpointRule("c", 2.0)]
RULES_D = [EndpointRule("d", 10.0)]

# (rules, silence_s, decoded, final, cost, utterance_s, fired, rule_index)
GOLDEN_ENDPOINT_TABLE = [
    (RULES_DEF, 4.999, False, False, INF, 4.999, False, None),
    (RULES_DEF, 5.0,   False, False, INF, 5.0,   True,  0),
    (RULES_DEF, 5.001, True,  True,  0.0, 6.0,   True,  0),
    (RULES_DEF, 5.0,   True,  True,  7.9, 30.0,  True,  0),   # a beats b and d
    (RULES_DEF, 1.0,   True,  True,  7.999, 1.5, True,  1),
    (RULES_DEF, 1.0,   True,  True,  8.0, 1.5,   False, None),  # cost strict
    (RULES_DEF, 0.999, True,  True,  0.0, 1.0,   False, None),
    (RULES_DEF, 1.0,   False, False, INF, 1.0,   False, None),  # b needs output
    (RULES_DEF, 1.5,   True,  False, INF, 1.5,   False, None),  # b needs final
    (RULES_DEF, 2.0,   True,  False, INF, 2.5,   True,  2),
    (RULES_DEF, 2.0,   True,  True,  9.0, 2.5,   True,  2),   # b misses on cost
    (RULES_DEF, 1.999, True,  True,  9.0, 2.0,   False, None),
    (RULES_DEF, 3.0,   False, False, INF, 19.0,  False, None),  # c needs output
    (RULES_DEF, 0.0,   True,  True,  0.0, 20.0,  True,  3),
    (RULES_DEF, 0.0,   True,  True,  0.0, 19.999, False, None),
    (RULES_DEF, 0.0,   False, False, INF, 25.0,  True,  3),
    (RULES_DEF, 2.5,   True,  True,  1.0, 50.0,  True,  1),   # b beats c and d
    (RULES_DEF, 2.0,   True,  True,  INF, 3.0,   True,  2),   # infinite cost
    (RULES_DEF, 6.0,   True,  True,  1.0, 25.0,  True,  0),   # a beats b,c,d
    (RULES_DEF, 1.0,   True,  True,  7.999999, 1.0, True, 1),
    (RULES_BB, 3.5, True, True, 1.5,   4.0, True,  0),  # both fire, first wins
    (RULES_BB, 3.5, True, True, 50.0,  4.0, True,  1),  # first misses on cost
    (RULES_BB, 2.0, True, True, 1.0,   2.5, True,  0),
    (RULES_BB, 2.0, True, True, 150.0, 2.5, False, None),
    (RULES_BB, 3.0, True, True, 99.999, 3.5, True, 1),
    (RULES_BB, 0.5, True, True, 0.5,   1.0, False, None),
    (RULES_BB, 4.0, True, False, INF,  4.0, False, None),
    (RULES_BB, 4.0, False, False, INF, 4.0, False, None),
    (RULES_BB, 4.0, True, True, INF,   4.0, False, None),  # inf cost never < c
    (RULES_A, 0.5,   False, False, INF, 0.5,  True,  0),
    (RULES_A, 0.499, False, False, INF, 10.0, False, None),
    (RULES_A, 0.6,   True,  True,  0.0, 1.0,  True,  0),  # a ignores decoding
    (RULES_C, 10.0, False, False, INF, 10.0, False, None),
    (RULES_C, 2.0,  True,  True,  5.0, 2.0,  True,  0),
    (RULES_C, 2.0,  True,  False, INF, 2.0,  True,  0),   # c ignores finality
    (RULES_C, 1.9,  True,  True,  0.0, 1.9,  False, None),
    (RULES_D, 0.0, False, False, INF, 10.0, True,  0),
    (RULES_D, 0.0, True,  True,  0.0, 9.99, False, None),
    (RULES_D, 9.0, True,  True,  0.0, 10.5, True,  0),
    ([], 100.0, True,  True,  0.0, 100.0, False, None),
    ([], 0.0,   False, False, INF, 0.0,   False, None),
]


def test_criterion_08_endpoint_golden_table():
    assert len(GOLDEN_ENDPOINT_TABLE) >= 40
    for row_i, (rules, sil, dec, fin, cost, utt, want_fired, want_idx) in \
            enumerate(GOLDEN_ENDPOINT_TABLE):
        snap = AsrSnapshot(silence_s=sil, decoded_anything=dec,
                           final_state_reached=fin, cost_relative=cost,
                           utterance_s=utt)
        fired, rule = detect_endpoint(snap, rules)
        assert fired == want_fired, f"row {row_i}: fired={fired}"
        want_rule = None if want_idx is None else rules[want_idx]
        assert rule is want_rule, f"row {row_i}: rule={rule}"
    print(f"criterion 8 PASS: {len(GOLDEN_ENDPOINT_TABLE)}-row golden "
          f"endpoint table matches")


# ===========================================================================
# 9. cascade controller vs an independently written step simulator

class ScriptedSession:
    """Session stand-in whose next token is always the next scripted id."""

    def __init__(self, script):
        self.script = list(script)
        self.i = 0
        self.n_encoded = 0
        self.dec = None
        self.prev = BOS
        self._pending = None

    def extend_source(self, tokens):
        self.n_encoded += len(tokens)

    def next_logprobs(self, visible):
        row = np.full(16, -10.0)
        row[self.script[self.i]] = -0.1
        self._pending = True
        return row

    def commit(self, token):
        self._pending = None
        self.prev = token
        self.i += 1


def reference_cascade(stream, script, cfg, cost_script=None, total_ms=None,
                      hard_cap=1000):
    """Brute-force re-derivation of the read/write controller.

    Written independently of cascade_decode as a flat state machine: read
    groups of sz blocks, decode words by end time, evaluate the endpoint
    rules in kind order after every group, transcribe on fire or at audio
    depletion, then write while the budget n_written < alpha*x_asr + beta
    holds.  Returns (tokens, events, x_asr, truncated, budget_log).
    """
    words = list(stream)
    last_end = words[-1].end_ms if words else 0.0
    total = last_end if total_ms is None else max(total_ms, last_end)
    n_blocks = max(1, math.ceil(total / cfg.block_ms))

    events, out_tokens, budget_log = [], [], []
    z = 0
    next_dec = 0
    emit_from = 0
    utt_start = 0.0
    x_asr = 0
    n_written = 0
    si = 0
    marker_done = False
    truncated = False
    finished = False

    def now_ms():
        return min(z * cfg.block_ms, total)

    def endpoint_fires():
        now = now_ms()
        decoded = next_dec > emit_from
        if decoded:
            sil = (now - max(words[next_dec - 1].end_ms, utt_start)) / 1000.0
            fin, cost = ((True, 0.0) if cost_script is None
                         else cost_script[next_dec - 1])
            if not fin:
                cost = INF
        else:
            sil = (now - utt_start) / 1000.0
            fin, cost = False, INF
        utt = (now - utt_start) / 1000.0
        for kind in "abcd":
            for r in cfg.endpoint_rules:
                if r.kind != kind:
                    continue
                if kind == "a" and sil >= r.t_seconds:
                    return True
                if kind == "b" and decoded and fin and sil >= r.t_seconds \
                        and cost < r.cost_threshold:
                    return True
                if kind == "c" and decoded and sil >= r.t_seconds:
                    return True
                if kind == "d" and utt >= r.t_seconds:
                    return True
        return False

    def transcribe():
        nonlocal x_asr, emit_from
        chunk = [w.word for w in words[emit_from:next_dec]]
        emit_from = next_dec
        if chunk:
            text = asr_normalize(" ".join(chunk))
            x_asr += len(text.split())

    while not finished:
        while True:                              # READ turn
            for _ in range(min(cfg.sz, n_blocks - z)):
                events.append(ReadEvent(index=z))
                z += 1
            while next_dec < len(words) and words[next_dec].end_ms <= now_ms():
                next_dec += 1
            fired = endpoint_fires()
            if fired:
                transcribe()
                utt_start = now_ms()
            if z == n_blocks:
                transcribe()
                marker_done = True
                break
            if fired:
                break
        while True:                              # WRITE turn
            visible = x_asr + (1 if marker_done else 0)
            if visible == 0 or n_written >= cfg.alpha * x_asr + cfg.beta:
                if z >= n_blocks:
                    truncated = True
                    finished = True
                break
            budget_log.append((n_written, x_asr))
            tok = script[si]
            si += 1
            events.append(WriteEvent(token=tok, g_tokens=z, g_ms=now_ms()))
            n_written += 1
            if tok == EOS:
                finished = True
                break
            out_tokens.append(tok)
            if n_written >= hard_cap:
                truncated = True
                finished = True
                break
    return out_tokens, tuple(events), x_asr, truncated, budget_log


def one_token_per_word_mt(script):
    return CascadeMT(models=[ScriptedSession(script)],
                     encode_source=lambda text: [5] * len(text.split()))


def run_both(stream, script, cfg, **kw):
    res = cascade_decode(stream, one_token_per_word_mt(script), cfg, **kw)
    ref = reference_cascade(stream, script, cfg, **kw)
    return res, ref


def tw(word, start, dur=100.0):
    return TimedWord(word, start, dur)


def scripted_triples():
    c2 = (EndpointRule("c", 2.0),)
    hello = [tw("hello", 0, 400), tw("world", 500, 400), tw("again", 3500, 400)]
    return [
        # (stream, config, script, extra kwargs)
        ([], CascadeConfig(sz=1, beta=2.0, endpoint_rules=c2), [EOS], {}),
        ([tw("hi", 0, 250)], CascadeConfig(sz=1, beta=1.0, endpoint_rules=c2),
         [7, EOS], {}),
        (hello, CascadeConfig(sz=1, alpha=1.0, beta=1.0, endpoint_rules=c2),
         [7, 8, 9, EOS], {}),
        (hello, CascadeConfig(sz=4, alpha=1.0, beta=1.0, endpoint_rules=c2),
         [7, 8, 9, EOS], {}),
        (hello, CascadeConfig(sz=7, alpha=1.0, beta=2.0, endpoint_rules=c2),
         [7, 8, 9, 10, EOS], {}),
        ([tw("ok", 0, 300)],
         CascadeConfig(sz=1, beta=1.0,
                       endpoint_rules=(EndpointRule("b", 0.5, cost_threshold=4.0),)),
         [7, EOS], {"cost_script": [(True, 1.0)], "total_ms": 2000.0}),
        ([tw("ok", 0, 300)],
         CascadeConfig(sz=1, beta=1.0,
                       endpoint_rules=(EndpointRule("b", 0.5, cost_threshold=4.0),
                                       EndpointRule("c", 1.5))),
         [7, EOS], {"cost_script": [(True, 9.0)], "total_ms": 2500.0}),
        ([tw("ok", 0, 300)],
         CascadeConfig(sz=1, beta=1.0,
                       endpoint_rules=(EndpointRule("b", 0.5, cost_threshold=4.0),
                                       EndpointRule("d", 1.2))),
         [7, EOS], {"cost_script": [(False, INF)], "total_ms": 2500.0}),
        ([tw("late", 3000, 400)],
         CascadeConfig(sz=1, beta=1.0, endpoint_rules=(EndpointRule("a", 1.0),)),
         [7, 8, EOS], {}),
        ([tw("w1", 0, 900), tw("w2", 1000, 900), tw("w3", 2000, 900)],
         CascadeConfig(sz=1, beta=1.0, endpoint_rules=(EndpointRule("d", 1.5),)),
         [7, 8, 9, EOS], {}),
        (hello, CascadeConfig(sz=1, alpha=0.5, beta=2.0, endpoint_rules=c2),
         [7, 8, 9, EOS], {}),
        (hello, CascadeConfig(sz=1, alpha=0.0, beta=3.0, endpoint_rules=c2),
         [7, 8, EOS], {}),
        ([tw("hi", 0, 100)], CascadeConfig(sz=1, beta=1.0, endpoint_rules=c2),
         [7] * 50, {}),
        ([tw("hi", 0, 100)], CascadeConfig(sz=1, beta=30.0, endpoint_rules=c2),
         [7] * 50, {"hard_cap": 5}),
        ([tw("hi", 0, 100)], CascadeConfig(sz=1, alpha=1.0, beta=1.0,
                                           endpoint_rules=c2),
         [7, EOS], {}),
        ([tw("one", 0, 400), tw("two", 3000, 400)],
         CascadeConfig(sz=1, alpha=1.0, beta=1.0, endpoint_rules=c2),
         [7, 8, 9, EOS], {"total_ms": 6000.0}),
        ([tw("3000", 0, 400), tw("people", 500, 400)],
         CascadeConfig(sz=1, alpha=1.0, beta=1.0, endpoint_rules=c2),
         [7, 8, 9, 10, EOS], {}),
        ([tw("edge", 0, 200)], CascadeConfig(sz=1, beta=2.0, endpoint_rules=c2),
         [7, EOS], {}),
        (hello, CascadeConfig(sz=2, alpha=1.0, beta=1.0, endpoint_rules=c2,
                              block_ms=250.0), [7, 8, 9, EOS], {}),
        ([tw("hi", 0, 500)], CascadeConfig(sz=1, beta=2.0, endpoint_rules=c2),
         [7, EOS], {"total_ms": 100.0}),
        ([tw("tail", 0, 300)],
         CascadeConfig(sz=1, beta=2.0, endpoint_rules=(EndpointRule("a", 2.0),)),
         [7, 8, EOS], {"total_ms": 4000.0}),
        ([tw("a", 0, 300), tw("b", 400, 300)],
         CascadeConfig(sz=1, beta=1.0,
                       endpoint_rules=(EndpointRule("b", 1.0, cost_threshold=2.0),
                                       EndpointRule("b", 2.0, cost_threshold=50.0))),
         [7, 8, EOS], {"cost_script": [(True, 30.0), (True, 30.0)],
                       "total_ms": 4000.0}),
    ]


def test_criterion_09_cascade_trace_oracle():
    triples = scripted_triples()
    assert len(triples) >= 20
    for i, (stream, cfg, script, kw) in enumerate(triples):
        res, (ref_toks, ref_events, ref_x, ref_trunc, _) = \
            run_both(stream, script, cfg, **kw)
        assert res.tokens == ref_toks, f"triple {i}: token mismatch"
        assert tuple(res.trace.events) == ref_events, f"triple {i}: trace mismatch"
        assert res.transcript_tokens == ref_x, f"triple {i}"
        assert res.truncated == ref_trunc, f"triple {i}"
    # anchor: hand-derived g stamps for the classic triple
    stream, cfg, script, _kw = scripted_triples()[2]
    res, _ = run_both(stream, script, cfg)
    assert [(w.g_tokens, w.g_ms) for w in res.trace.writes()] == \
        [(29, 2900.0), (29, 2900.0), (29, 2900.0), (39, 3900.0)]

    # randomized sweep: event equality plus the write-budget invariant
    pool = ["go", "stop", "hello", "ok", "yes", "now", "3000", "42"]
    n_writes_checked = 0
    for run in range(1000):
        rng = np.random.default_rng(50_000 + run)
        n_words = int(rng.integers(0, 7))
        words = []
        t = float(rng.integers(0, 300))
        for _ in range(n_words):
            dur = float(rng.integers(60, 500))
            words.append(TimedWord(str(rng.choice(pool)), t, dur))
            t += dur + float(rng.choice([0.0, 50.0, 150.0, 400.0, 1200.0, 2500.0]))
        rules = []
        if rng.random() < 0.4:
            rules.append(EndpointRule("a", float(rng.uniform(1.0, 5.0))))
        for _ in range(int(rng.integers(0, 3))):
            rules.append(EndpointRule("b", float(rng.uniform(0.3, 2.0)),
                                      cost_threshold=float(rng.uniform(1.0, 12.0))))
        if rng.random() < 0.6:
            rules.append(EndpointRule("c", float(rng.uniform(0.5, 3.0))))
        if rng.random() < 0.4:
            rules.append(EndpointRule("d", float(rng.uniform(3.0, 20.0))))
        cfg = CascadeConfig(
            sz=int(rng.integers(1, 6)),
            alpha=float(rng.choice([0.0, 0.5, 1.0, 2.0])),
            beta=float(rng.integers(1, 6)),
            endpoint_rules=tuple(rules),
            block_ms=float(rng.choice([100.0, 100.0, 250.0])))
        cost_script = None
        if words and rng.random() < 0.5:
            cost_script = []
            for _ in words:
                if rng.random() < 0.3:
                    cost_script.append((False, INF))
                else:
                    cost_script.append((True, float(rng.uniform(0.0, 12.0))))
        total_ms = None
        if rng.random() < 0.5:
            base = words[-1].end_ms if words else 0.0
            total_ms = base + float(rng.integers(0, 4000))
        script = [int(v) for v in rng.integers(4, 14, size=2000)]
        eos_at = int(rng.integers(0, 12))
        script[eos_at] = EOS
        hard_cap = 3 if rng.random() < 0.1 else 1000

        res, (ref_toks, ref_events, ref_x, ref_trunc, budget_log) = run_both(
            words, script, cfg, cost_script=cost_script, total_ms=total_ms,
            hard_cap=hard_cap)
        assert res.tokens == ref_toks, f"run {run}"
        assert tuple(res.trace.events) == ref_events, f"run {run}"
        assert res.truncated == ref_trunc, f"run {run}"
        assert res.transcript_tokens == ref_x, f"run {run}"

        # invariants straight off the produced trace
        for n_before, x_asr in budget_log:
            assert n_before < cfg.alpha * x_asr + cfg.beta, f"run {run}"
        n_writes_checked += len(budget_log)
        reads = res.trace.reads()
        assert [r.index for r in reads] == list(range(len(reads)))
        last_end = words[-1].end_ms if words else 0.0
        total = last_end if total_ms is None else max(total_ms, last_end)
        seen = 0
        for e in res.trace.events:
            if isinstance(e, ReadEvent):
                seen += 1
            else:
                assert e.g_tokens == seen
                assert e.g_ms == min(seen * cfg.block_ms, total)
    assert n_writes_checked > 1000
    print(f"criterion 9 PASS: {len(triples)} scripted triples + 1000 random "
          f"runs match the reference simulator ({n_writes_checked} writes "
          f"budget-checked)")


# ===========================================================================
# 10. segmentation vs an independent reference scan

def reference_segments(words, theta_long, theta_short, max_words):
    """Index-based re-derivation: mark boundaries, then slice."""
    boundaries = []
    run = 0
    for i, w in enumerate(words):
        if i == 0:
            run = 1
            continue
        gap_s = (w.start_ms - words[i - 1].end_ms) / 1000.0
        active = theta_short if run > max_words else theta_long
        if gap_s > active:
            boundaries.append(i)
            run = 1
        else:
            run += 1
    pieces = []
    prev = 0
    for b in boundaries + [len(words)]:
        if b > prev:
            pieces.append(tuple(words[prev:b]))
        prev = b
    return pieces


def test_criterion_10_segmentation_oracle():
    import inspect
    sig = inspect.signature(segment_stream)
    assert sig.parameters["theta_long"].default == 0.65
    assert sig.parameters["theta_short"].default == 0.15
    assert sig.parameters["max_words"].default == 40

    for run in range(1000):
        rng = np.random.default_rng(80_000 + run)
        n = int(rng.integers(0, 81))
        words = []
        t = 0.0
        for i in range(n):
            dur = float(rng.integers(50, 400))
            words.append(TimedWord(f"w{i}", t, dur))
            gap_kind = rng.random()
            if gap_kind < 0.35:
                gap = float(rng.uniform(0.0, 300.0))
            elif gap_kind < 0.7:
                gap = float(rng.uniform(500.0, 800.0))
            elif gap_kind < 0.85:
                gap = 650.0                     # exactly theta_long
            else:
                gap = 150.0                     # exactly theta_short
            t += dur + gap
        segs = segment_stream(words)
        ref = reference_segments(words, 0.65, 0.15, 40)
        assert [s.words for s in segs] == ref, f"run {run}"
        flat = [w for s in segs for w in s.words]
        assert flat == words                    # no loss, duplication, reorder
        assert all(s.n_words >= 1 for s in segs)
    print("criterion 10 PASS: 1000 random streams match the reference scan "
          "at defaults 0.65/0.15/40")


# ===========================================================================
# 11. BLEU vs a brute-force counter + the hand example

def reference_bleu(hyps, refs, max_n=4):
    matches = [0] * max_n
    totals = [0] * max_n
    hyp_len = sum(len(h) for h in hyps)
    ref_len = sum(len(r) for r in refs)
    for h, r in zip(hyps, refs):
        for n in range(1, max_n + 1):
            hyp_counts = {}
            for i in range(len(h) - n + 1):
                g = tuple(h[i:i + n])
                hyp_counts[g] = hyp_counts.get(g, 0) + 1
            ref_counts = {}
            for i in range(len(r) - n + 1):
                g = tuple(r[i:i + n])
                ref_counts[g] = ref_counts.get(g, 0) + 1
            totals[n - 1] += max(len(h) - n + 1, 0)
            for g, c in hyp_counts.items():
                matches[n - 1] += min(c, ref_counts.get(g, 0))
    precisions = [Fraction(m, t) if t else Fraction(0)
                  for m, t in zip(matches, totals)]
    if hyp_len == 0 or any(p == 0 for p in precisions):
        geo = 0.0
    else:
        geo = math.exp(sum(math.log(p) for p in precisions) / max_n)
    if hyp_len == 0:
        bp = 0.0
    elif hyp_len >= ref_len:
        bp = 1.0
    else:
        bp = math.exp(1.0 - ref_len / hyp_len)
    return geo * bp, precisions, bp


def test_criterion_11_bleu_oracle():
    b = X.corpus_bleu([["a", "b", "c", "d"]], [["a", "b", "c", "d", "e"]])
    assert round(b.score, 4) == 0.7788

    alphabet = ["a", "b", "c", "d", "e", "f"]
    for case in range(500):
        rng = np.random.default_rng(90_000 + case)
        n_sent = int(rng.integers(1, 11))
        hyps, refs = [], []
        for _ in range(n_sent):
            hyps.append([alphabet[v] for v in
                         rng.integers(0, len(alphabet), size=rng.integers(0, 13))])
            refs.append([alphabet[v] for v in
                         rng.integers(0, len(alphabet), size=rng.integers(1, 13))])
        got = X.corpus_bleu(hyps, refs)
        want_score, want_prec, want_bp = reference_bleu(hyps, refs)
        assert got.precisions == tuple(float(p) for p in want_prec), f"case {case}"
        assert got.brevity_penalty == pytest.approx(want_bp, abs=1e-15)
        assert got.score == pytest.approx(want_score, abs=1e-12), f"case {case}"
    print("criterion 11 PASS: 500 fuzz corpora match the brute-force counter; "
          "hand example rounds to 0.7788")


# ===========================================================================
# 12. streaming service reproduces the offline sweep within 1e-12

def test_criterion_12_service_offline_equality():
    vocab = Vocabulary.build([f"t{i}" for i in range(10)])
    params = M.init_parameters(M.ModelConfig(
        vocab_size=len(vocab), d_model=16,
        n_heads=2, n_enc_layers=1, n_dec_layers=1, d_ffn=24), seed=12)
    rng = np.random.default_rng(7)
    sources_ids = [[int(v) for v in rng.integers(4, len(vocab),
                                                 size=rng.integers(2, 8))]
                   for _ in range(6)]
    detok = lambda toks: " ".join(toks)

    # references: the offline decode, so at least one point scores nonzero
    refs = []
    for ids in sources_ids:
        toks, _ = O.offline_greedy_decode(params, ids, max_len=20)
        refs.append(" ".join(vocab.token(t) for t in toks) or "t4")

    t2t = W.Testset(sources=sources_ids, references=refs,
                    detokenize=lambda ids: " ".join(vocab.token(t) for t in ids))
    k_values = [1, 3, INFINITE_K]
    offline = W.sweep_t2t([W.T2TSystem("m", [params])], k_values, t2t)

    sources_strs = [[vocab.token(t) for t in ids] for ids in sources_ids]
    any_nonzero = False
    for k, rec in zip(k_values, offline):
        testset = S.ServerTestset(mode="t2t", sources=sources_strs,
                                  references=refs, detokenize=detok)
        srv = S.serve_eval("127.0.0.1", 0, testset)
        srv.start_background()
        try:
            host, port = srv.server_address[0], srv.server_address[1]
            policy = O.OnlinePolicy(k_eval=k)
            for sid in range(len(sources_strs)):
                S.client_waitk_session(host, port, sid, params, policy, vocab)
            score = S.client_score(host, port)
        finally:
            srv.stop()
        assert score["n_sessions"] == len(sources_strs)
        assert abs(score["bleu"] - rec.bleu) <= 1e-12, f"k={k}"
        assert abs(score["al_words"] - rec.al_words) <= 1e-12, f"k={k}"
        any_nonzero = any_nonzero or rec.bleu > 0
    assert any_nonzero, "degenerate comparison: every BLEU was zero"
    print("criterion 12 PASS: served BLEU/AL equal the offline sweep at "
          "k = 1, 3, inf")


# ===========================================================================
# 13. ensembling N identical models changes nothing

def test_criterion_13_ensemble_identity():
    params = M.init_parameters(M.ModelConfig(
        vocab_size=14, d_model=16, n_heads=2,
        n_enc_layers=1, n_dec_layers=1, d_ffn=24), seed=13)
    rng = np.random.default_rng(4)
    sources = [[int(v) for v in rng.integers(4, 14, size=rng.integers(2, 9))]
               for _ in range(4)]
    for k in (1, 3, INFINITE_K):
        policy = O.OnlinePolicy(k_eval=k, alpha_len=1.0, beta_len=10)
        for x in sources:
            single, tr1 = O.online_greedy_decode(params, x, policy)
            for n_copies in (2, 3, 5):
                models = [params] + [params.copy() for _ in range(n_copies - 1)]
                toks, tr = O.online_greedy_decode(models, x, policy)
                assert toks == single, f"N={n_copies}, k={k}"
                assert tr.g_values() == tr1.g_values()
    print("criterion 13 PASS: N in {2,3,5} identical-model ensembles decode "
          "token-identically at k = 1, 3, inf")
