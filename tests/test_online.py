import json
import math

import numpy as np
import pytest

from simumt import model as M
from simumt import online as O
from simumt.training import INFINITE_K
from simumt.vocab import BOS, EOS


def small_params(seed=0, vocab=16):
    cfg = M.ModelConfig(vocab_size=vocab, d_model=16,
                        n_heads=2, n_enc_layers=1, n_dec_layers=1, d_ffn=24)
    return M.init_parameters(cfg, seed=seed)


class FakeSession:
    """Scripted stand-in for ModelSession: always argmaxes the next scripted
    token and records every call, so the policy loop can be checked exactly."""

    def __init__(self, script, vocab_size=16):
        self.script = list(script)
        self.vocab_size = vocab_size
        self.calls = []
        self.i = 0
        self._pending = None

    def extend_source(self, tokens):
        self.calls.append(("extend", tuple(tokens)))

    def next_logprobs(self, visible):
        self.calls.append(("probs", visible))
        row = np.full(self.vocab_size, -10.0)
        row[self.script[self.i]] = -0.1
        self._pending = True
        return row

    def commit(self, token):
        assert self._pending
        self.calls.append(("commit", token))
        self._pending = None
        self.i += 1


# ---------------------------------------------------------------------------
# trace invariants

def good_trace():
    return O.ActionTrace(events=(
        O.ReadEvent(0), O.ReadEvent(1), O.WriteEvent(5, 2),
        O.ReadEvent(2), O.WriteEvent(6, 3), O.WriteEvent(EOS, 3)))


def test_trace_accessors_and_validate():
    tr = good_trace()
    tr.validate()
    assert [r.index for r in tr.reads()] == [0, 1, 2]
    assert [w.token for w in tr.writes()] == [5, 6, EOS]
    assert tr.g_values() == [2, 3, 3]


def test_trace_validate_rejects_breaches():
    with pytest.raises(ValueError, match="read index"):
        O.ActionTrace(events=(O.ReadEvent(1), O.WriteEvent(EOS, 1))).validate()
    with pytest.raises(ValueError, match="reads precede"):
        O.ActionTrace(events=(O.ReadEvent(0), O.WriteEvent(EOS, 2))).validate()
    with pytest.raises(ValueError, match="no writes"):
        O.ActionTrace(events=(O.ReadEvent(0),)).validate()
    with pytest.raises(ValueError, match="must be EOS"):
        O.ActionTrace(events=(O.ReadEvent(0), O.WriteEvent(5, 1))).validate()
    with pytest.raises(ValueError, match="before the final"):
        O.ActionTrace(events=(O.ReadEvent(0), O.WriteEvent(EOS, 1),
                              O.WriteEvent(EOS, 1))).validate()
    # truncated traces may end on a non-EOS token
    O.ActionTrace(events=(O.ReadEvent(0), O.WriteEvent(5, 1)),
                  truncated=True).validate()


def test_policy_validation():
    O.OnlinePolicy(k_eval=3)
    O.OnlinePolicy(k_eval=INFINITE_K)
    with pytest.raises(ValueError):
        O.OnlinePolicy(k_eval=0)
    with pytest.raises(ValueError):
        O.OnlinePolicy(k_eval=2, beta_len=0)


@pytest.mark.parametrize("field", ["alpha_len", "beta_len"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_policy_refuses_non_finite_budget(field, value):
    # NaN passed both `<` checks and left the write budget unbounded
    with pytest.raises(ValueError):
        O.OnlinePolicy(k_eval=2, **{field: value})


# ---------------------------------------------------------------------------
# scripted policy-loop oracle

def test_waitk_schedule_against_scripted_session():
    # k=2 over a 5-token source, script emits 4 tokens then EOS:
    # g per write must follow min(k + t - 1, n) = 2,3,4,5,5
    sess = FakeSession(script=[7, 8, 9, 10, EOS])
    tokens, trace = O.online_greedy_decode(
        [sess], x=[4, 5, 6, 7, 8], policy=O.OnlinePolicy(k_eval=2))
    assert tokens == [7, 8, 9, 10]
    assert trace.g_values() == [2, 3, 4, 5, 5]
    assert not trace.truncated
    trace.validate()
    # interleaving: two reads, then read/write alternation, then tail writes
    kinds = ["R" if isinstance(e, O.ReadEvent) else "W" for e in trace.events]
    assert kinds == ["R", "R", "W", "R", "W", "R", "W", "R", "W", "W"]
    assert [r.index for r in trace.reads()] == [0, 1, 2, 3, 4]


def test_source_marker_fed_once_and_not_counted_as_read():
    sess = FakeSession(script=[7, EOS])
    tokens, trace = O.online_greedy_decode(
        [sess], x=[4, 5, 6], policy=O.OnlinePolicy(k_eval=INFINITE_K))
    assert tokens == [7]
    extends = [c for c in sess.calls if c[0] == "extend"]
    # three single-token reveals plus exactly one end-of-source marker
    assert extends == [("extend", (4,)), ("extend", (5,)), ("extend", (6,)),
                       ("extend", (EOS,))]
    assert len(trace.reads()) == 3
    assert trace.g_values() == [3, 3]


def test_visible_length_passed_to_sessions():
    # while the source is partial the decoder sees z rows; the marker row
    # appears only after the schedule asks for more than the source holds
    # (t=3 wants 4 of 3), exactly when a stream consumer learns the end
    sess = FakeSession(script=[7, 8, 9, EOS])
    O.online_greedy_decode([sess], x=[4, 5, 6],
                           policy=O.OnlinePolicy(k_eval=2))
    probs = [c[1] for c in sess.calls if c[0] == "probs"]
    assert probs == [2, 3, 4, 4]


def test_length_cap_truncates():
    sess = FakeSession(script=[7] * 50)        # never emits EOS
    tokens, trace = O.online_greedy_decode(
        [sess], x=[4, 5, 6], policy=O.OnlinePolicy(k_eval=1, alpha_len=0.0,
                                                   beta_len=4))
    assert tokens == [7, 7, 7, 7]
    assert trace.truncated
    trace.validate()


@pytest.mark.parametrize("alpha_len, gs", [(0.0, [1, 2]), (0.5, [1, 2, 3, 4, 5])])
def test_write_budget_counts_the_observed_source(alpha_len, gs):
    # writes < alpha_len * z + 2 over the z tokens read so far; a spent
    # budget reads on while the source lasts and stops, truncated, once a
    # read finds its end
    sess = FakeSession(script=[7] * 10)
    tokens, trace = O.online_greedy_decode(
        [sess], x=[4, 5, 6, 7, 8],
        policy=O.OnlinePolicy(k_eval=1, alpha_len=alpha_len, beta_len=2))
    assert trace.truncated and trace.g_values() == gs
    assert len(trace.reads()) == 5
    assert sess.calls[-1] == ("extend", (EOS,))
    trace.validate()


def test_empty_source_rejected():
    with pytest.raises(ValueError):
        O.online_greedy_decode(small_params(), [], O.OnlinePolicy(k_eval=1))
    with pytest.raises(ValueError):
        O.offline_greedy_decode(small_params(), [])
    with pytest.raises(ValueError):
        O.online_greedy_decode([], [4, 5], O.OnlinePolicy(k_eval=1))


# ---------------------------------------------------------------------------
# real-model decoding

def test_online_with_infinite_k_matches_offline():
    # the offline decoder recomputes the full prefix each step, so equality
    # cross-checks the incremental caches end to end
    params = small_params(seed=3)
    rng = np.random.default_rng(0)
    for trial in range(5):
        x = [int(v) for v in rng.integers(4, 16, size=rng.integers(2, 9))]
        on_toks, on_tr = O.online_greedy_decode(
            params, x, O.OnlinePolicy(k_eval=INFINITE_K, alpha_len=0.0,
                                      beta_len=12))
        off_toks, off_tr = O.offline_greedy_decode(params, x, max_len=12)
        assert on_toks == off_toks
        assert on_tr.truncated == off_tr.truncated
        assert on_tr.g_values() == [len(x)] * len(on_tr.writes())


def test_online_waitk_trace_is_valid_for_real_model():
    params = small_params(seed=4)
    rng = np.random.default_rng(1)
    for k in (1, 2, 5):
        x = [int(v) for v in rng.integers(4, 16, size=6)]
        tokens, trace = O.online_greedy_decode(
            params, x, O.OnlinePolicy(k_eval=k, alpha_len=1.0, beta_len=6))
        trace.validate()
        gs = trace.g_values()
        assert gs == [min(k + t, 6) for t in range(len(gs))]


class PerTokenSession:
    """A session that encodes every source id in its own call, as one-row
    encoder extensions."""

    def __init__(self, params):
        self.params, self.enc, self.dec, self.prev = params, None, None, BOS

    def extend_source(self, tokens):
        for t in tokens:
            self.enc = M.encode_prefix(self.params, [t], self.enc)

    def next_logprobs(self, visible):
        logp, self.pending = M.decode_step(self.params, self.enc, self.dec,
                                           self.prev, visible)
        return logp

    def commit(self, token):
        self.dec, self.prev = self.pending, token


def count_encoder_calls(monkeypatch):
    """Record the number of ids of every `model.encode_prefix` call."""
    blocks = []
    real_encode = M.encode_prefix

    def encode(p, ids, state=None):
        blocks.append(len(ids))
        return real_encode(p, ids, state)

    monkeypatch.setattr(M, "encode_prefix", encode)
    return blocks


@pytest.mark.parametrize("k", [1, 3, INFINITE_K])
def test_deferred_block_encoding_matches_per_token_encoding(k, monkeypatch):
    # ModelSession encodes a known source as one block; blocks round
    # differently from one-row extensions, within 1e-12
    params = small_params(seed=6)
    rng = np.random.default_rng(7)
    logps = []
    real_step = M.decode_step

    def step(*args):
        logp, dec = real_step(*args)
        logps.append(logp)
        return logp, dec

    monkeypatch.setattr(M, "decode_step", step)
    for _ in range(8):
        x = [int(v) for v in rng.integers(4, 16, size=rng.integers(2, 12))]
        policy = O.OnlinePolicy(k_eval=k, alpha_len=1.0, beta_len=6)
        runs = []
        for session in (O.ModelSession(params), PerTokenSession(params)):
            logps.clear()
            runs.append((O.online_greedy_decode([session], x, policy), list(logps)))
        (block_out, block_logps), (token_out, token_logps) = runs
        assert block_out == token_out
        assert len(block_logps) == len(token_logps)
        assert all(np.abs(a - b).max() < 1e-12 for a, b in zip(block_logps, token_logps))


@pytest.mark.parametrize("k", [1, 3, INFINITE_K])
def test_live_source_encodes_the_reads_since_the_last_write_as_one_block(k, monkeypatch):
    # a session fed by a source it cannot see ahead of, as on the wire
    params = small_params(seed=6)
    rng = np.random.default_rng(7)
    block_calls = count_encoder_calls(monkeypatch)
    for _ in range(8):
        x = [int(v) for v in rng.integers(4, 16, size=rng.integers(2, 12))]
        policy = O.OnlinePolicy(k_eval=k, alpha_len=1.0, beta_len=6)
        chunks = [O.Chunk(ids=(t,), units=1) for t in x] + [O.Chunk(ended=True)]
        block_calls.clear()
        live = O.read_write_decode(params, iter(chunks), policy)
        # the first write encodes k ids in one call, or the whole source
        # and its end marker when k reaches past it
        assert block_calls[0] == (len(x) + 1 if k >= len(x) else k)
        assert sum(block_calls) == len(x) + 1
        assert live == O.online_greedy_decode(params, x, policy)


@pytest.mark.parametrize("k", [1, 3, INFINITE_K])
@pytest.mark.parametrize("n_models", [1, 2])
def test_known_source_is_encoded_in_one_call_per_session(k, n_models, monkeypatch):
    models = [small_params(seed=6 + i) for i in range(n_models)]
    rng = np.random.default_rng(7)
    block_calls = count_encoder_calls(monkeypatch)
    for _ in range(8):
        x = [int(v) for v in rng.integers(4, 16, size=rng.integers(2, 12))]
        block_calls.clear()
        sessions = [O.ModelSession(p) for p in models]
        O.online_greedy_decode(sessions, x, O.OnlinePolicy(k_eval=k))
        assert block_calls == [len(x) + 1] * n_models
        assert all(s.n_encoded == len(x) + 1 for s in sessions)


def test_fed_ids_must_agree_with_the_known_source():
    s = O.ModelSession(small_params())
    s.know_source([4, 5, 6, EOS])
    s.extend_source([4, 5])
    with pytest.raises(ValueError, match="disagree"):
        s.extend_source([7])
    with pytest.raises(ValueError, match="disagree"):
        s.extend_source([6, EOS, EOS])
    with pytest.raises(ValueError, match="exceeds"):   # no row beyond those fed
        s.next_logprobs(3)


def test_a_used_session_refuses_a_new_source():
    # it used to decode the second sentence against the first one's rows
    params = small_params(seed=5)
    s = O.ModelSession(params)
    O.online_greedy_decode([s], [4, 5, 6], O.OnlinePolicy(k_eval=2))
    with pytest.raises(RuntimeError, match="fed"):
        O.online_greedy_decode([s], [7, 8], O.OnlinePolicy(k_eval=2))
    fresh = O.ModelSession(params)
    fresh.know_source([9, EOS])                   # told, not yet fed: may change
    assert (O.online_greedy_decode([fresh], [7, 8], O.OnlinePolicy(k_eval=2))
            == O.online_greedy_decode(params, [7, 8], O.OnlinePolicy(k_eval=2)))


@pytest.mark.parametrize("bad", [-1, 16, 99, 4.5, 4.0])
def test_out_of_range_source_ids_are_refused(bad):
    # -1 used to embed the last vocabulary row, 16 raised IndexError, and
    # both drivers decoded [4, 4.5, 5] as [4, 4, 5]
    params = small_params()
    s = O.ModelSession(params)
    with pytest.raises(ValueError, match="outside|integers"):
        s.know_source([4, bad, 5, EOS])
    with pytest.raises(ValueError, match="outside|integers"):
        O.online_greedy_decode([s], [4, bad, 5], O.OnlinePolicy(k_eval=1))
    assert s.n_encoded == 0 and s.enc is None and s.dec is None
    with pytest.raises(ValueError, match="outside|integers"):
        O.online_greedy_decode([params, small_params(vocab=200)], [4, bad],
                               O.OnlinePolicy(k_eval=1))
    with pytest.raises(ValueError, match="outside|integers"):
        O.offline_greedy_decode(params, [4, bad, 5])


# ---------------------------------------------------------------------------
# ensembling

def test_ensemble_single_model_is_identity():
    row = np.log(np.array([0.5, 0.25, 0.25]))
    out = O.ensemble_logprobs([row])
    assert np.array_equal(out, row)


def test_ensemble_two_model_hand_oracle():
    # geometric mean of (0.6,0.4) and (0.2,0.8), renormalized:
    # p = (sqrt(.12), sqrt(.32)) / (sqrt(.12)+sqrt(.32))
    a = np.log(np.array([0.6, 0.4]))
    b = np.log(np.array([0.2, 0.8]))
    out = O.ensemble_logprobs([a, b])
    s12, s32 = math.sqrt(0.12), math.sqrt(0.32)
    expect = np.array([s12, s32]) / (s12 + s32)
    assert np.allclose(np.exp(out), expect, atol=1e-12)
    assert int(np.argmax(out)) == 1
    assert math.fsum(np.exp(out)) == pytest.approx(1.0, abs=1e-12)


def test_ensemble_of_identical_rows_is_unchanged():
    row = np.log(np.random.default_rng(2).dirichlet(np.ones(8)))
    out = O.ensemble_logprobs([row, row, row])
    assert np.allclose(out, row, atol=1e-12)


def test_ensemble_validation():
    with pytest.raises(ValueError):
        O.ensemble_logprobs([])
    with pytest.raises(ValueError):
        O.ensemble_logprobs([np.zeros(3), np.zeros(4)])


def test_ensemble_of_identical_models_decodes_identically():
    params = small_params(seed=5)
    x = [4, 9, 11, 6]
    pol = O.OnlinePolicy(k_eval=2, alpha_len=1.0, beta_len=8)
    single, tr1 = O.online_greedy_decode(params, x, pol)
    triple, tr3 = O.online_greedy_decode([params, params.copy(), params.copy()],
                                         x, pol)
    assert single == triple
    assert tr1 == tr3


# ---------------------------------------------------------------------------
# wire format and files

def test_trace_to_wire():
    tr = O.ActionTrace(events=(
        O.ReadEvent(0), O.ReadEvent(1, timestamp_ms=200.0),
        O.WriteEvent(5, 2), O.WriteEvent(EOS, 2, g_ms=200.0)))
    assert O.trace_to_wire(tr) == [
        {"a": "R", "i": 0}, {"a": "R", "i": 1, "t_ms": 200.0},
        {"a": "W", "g": 2}, {"a": "W", "g": 2, "g_ms": 200.0}]


def test_write_hypotheses(tmp_path):
    path = tmp_path / "hyps.jsonl"
    recs = [{"id": 0, "tokens": [5, 6], "detok": "a b"},
            {"id": 1, "tokens": [7], "detok": "c"}]
    O.write_hypotheses(path, recs, header_comment="# hdr")
    lines = path.read_text().splitlines()
    assert lines[0] == "# hdr"
    assert [json.loads(l) for l in lines[1:]] == recs
