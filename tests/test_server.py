import json
import math
import socket
import struct
import sys
import time
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simumt import model as M
from simumt import server as S
from simumt import sweep as W
from simumt.cascade import (AsrSimulator, AudioBlocks, CascadeConfig, CascadeMT,
                            EndpointRule, TimedWord, cascade_decode)
from simumt.corpus import toy_vocabulary
from simumt.online import OnlinePolicy, ReadEvent, online_greedy_decode
from simumt.training import INFINITE_K
from simumt.vocab import EOS, EOS_TOKEN, Vocabulary


def small_params(seed=0, vocab=16):
    cfg = M.ModelConfig(vocab_size=vocab, d_model=16,
                        n_heads=2, n_enc_layers=1, n_dec_layers=1, d_ffn=24)
    return M.init_parameters(cfg, seed=seed)


def detok(tokens):
    return " ".join(tokens)


class RawClient:
    """Line-JSON client that returns replies verbatim (errors included)."""

    def __init__(self, host, port):
        self.sock = socket.create_connection((host, port), timeout=5)
        self.file = self.sock.makefile("rwb")

    def send_line(self, text):
        self.file.write((text + "\n").encode())
        self.file.flush()

    def call(self, frame):
        self.send_line(json.dumps(frame))
        return self.recv()

    def recv(self):
        line = self.file.readline()
        if not line:
            raise ConnectionError("closed")
        return json.loads(line.decode())

    def close(self):
        try:
            self.file.close()
        finally:
            self.sock.close()


@contextmanager
def running(testset):
    """A background server; on a clean exit, asserts that no handler raised
    (`handle_error` would only print a traceback)."""
    srv = S.serve_eval("127.0.0.1", 0, testset)
    errors = []
    srv.handle_error = lambda request, address: errors.append(sys.exc_info()[1])
    srv.start_background()
    try:
        yield srv, srv.server_address[0], srv.server_address[1]
    finally:
        srv.stop()
    assert errors == []


def test_stop_returns_promptly():
    srv = S.serve_eval("127.0.0.1", 0, t2t_testset())
    srv.start_background()
    time.sleep(0.1)                     # serve_forever is waiting in its poll
    t0 = time.perf_counter()
    srv.stop()
    assert time.perf_counter() - t0 < 0.25


def t2t_testset():
    return S.ServerTestset(mode="t2t",
                           sources=[["a", "b", "c"], ["d", "e"]],
                           references=["w1 w2 w3 w4", "w1"],
                           detokenize=detok)


# ---------------------------------------------------------------------------
# testset validation

def test_testset_validation():
    with pytest.raises(ValueError):
        S.ServerTestset(mode="audio", sources=[["a"]], references=["x"],
                        detokenize=detok)
    with pytest.raises(ValueError):
        S.ServerTestset(mode="t2t", sources=[["a"]], references=[],
                        detokenize=detok)
    with pytest.raises(ValueError):
        S.ServerTestset(mode="t2t", sources=[], references=[], detokenize=detok)


def test_testset_rejects_an_empty_source_or_stream():
    # an empty t2t source once made every SCORE after its session fail
    with pytest.raises(ValueError, match="source 1 is empty"):
        S.ServerTestset(mode="t2t", sources=[["a"], []], references=["x", "y"],
                        detokenize=detok)
    with pytest.raises(ValueError, match="source 0 is empty"):
        S.ServerTestset(mode="s2t", sources=[[]], references=["x"], detokenize=detok)


@pytest.mark.parametrize("block_ms", [0.0, math.nan, -100.0, 1e-6])
def test_s2t_testset_refuses_a_bad_block_size(block_ms):
    # 0 and NaN failed at the first READ on the handler thread, and the
    # client saw only a closed socket; -100 was served as it stood, and
    # 1e-6 as 10^8 blocks
    with pytest.raises(ValueError, match="block_ms"):
        S.ServerTestset(mode="s2t", sources=[[TimedWord("a", 0, 100)]], references=["x"],
                        detokenize=detok, block_ms=block_ms)


def test_s2t_testset_rejects_overlapping_stream():
    # reveal hands out words in order of their end times, which needs them
    # to increase; "b" starts inside "a" and ends before it
    overlapping = [TimedWord("a", 0, 500), TimedWord("b", 100, 100)]
    with pytest.raises(ValueError, match="overlapping"):
        S.ServerTestset(mode="s2t", sources=[[TimedWord("ok", 0, 100)], overlapping],
                        references=["x", "y"], detokenize=detok)


# ---------------------------------------------------------------------------
# t2t protocol

def test_t2t_reveal_write_and_server_side_lagging():
    with running(t2t_testset()) as (srv, host, port):
        c = RawClient(host, port)
        assert c.call({"act": "START", "id": 0}) == {"ok": True, "id": 0}
        assert c.call({"act": "READ"}) == {"token": "a"}
        assert c.call({"act": "READ"}) == {"token": "b"}
        assert c.call({"act": "WRITE", "token": "w1"}) == {"ok": True}
        assert c.call({"act": "READ"}) == {"token": "c"}
        for _ in range(3):                       # reads past the end repeat eos
            assert c.call({"act": "READ"}) == {"eos": True}
        for t in ("w2", "w3", "w4"):
            assert c.call({"act": "WRITE", "token": t}) == {"ok": True}
        assert c.call({"act": "WRITE", "token": EOS_TOKEN}) == \
            {"ok": True, "done": True}
        c.close()

        # server-side bookkeeping: g = (2, 3, 3, 3), src 3, |y| 4, rate 3/4
        # tau = 2, AL = ((2 - 0) + (3 - 0.75)) / 2 = 2.125; BLEU exact match
        score = S.client_score(host, port)
        assert score["n_sessions"] == 1
        assert score["bleu"] == pytest.approx(1.0)
        assert score["al_words"] == pytest.approx(2.125)

        sess = srv.sessions[0]
        assert sess.done and not sess.aborted
        assert sess.hyp_tokens == ["w1", "w2", "w3", "w4"]
        assert [w.g_tokens for w in sess.trace().writes()] == [2, 3, 3, 3, 3]


def test_auto_session_assignment_and_exhaustion():
    with running(t2t_testset()) as (_, host, port):
        c1 = RawClient(host, port)
        assert c1.call({"act": "READ"}) == {"token": "a"}   # auto id 0
        c2 = RawClient(host, port)
        assert c2.call({"act": "READ"}) == {"token": "d"}   # auto id 1
        c3 = RawClient(host, port)
        assert "error" in c3.call({"act": "READ"})          # exhausted
        for c in (c1, c2, c3):
            c.close()


def test_start_errors():
    with running(t2t_testset()) as (_, host, port):
        c = RawClient(host, port)
        assert "error" in c.call({"act": "START", "id": 99})
        c.close()
        c = RawClient(host, port)
        assert c.call({"act": "START", "id": 1})["ok"]
        assert "error" in c.call({"act": "START", "id": 1})
        c.close()
        c = RawClient(host, port)
        assert "error" in c.call({"act": "START", "id": "junk"})
        c.close()


def test_start_id_must_be_a_json_integer():
    # int() used to turn 1.9 into sentence 1 and "0" into sentence 0
    with running(t2t_testset()) as (srv, host, port):
        for bad in (1.9, 1.0, "0", True, [0], {"id": 0}):
            c = RawClient(host, port)
            assert c.call({"act": "START", "id": bad}) == {"error": "no such sentence"}
            c.close()
        assert srv.sessions == {}
        c = RawClient(host, port)
        assert c.call({"act": "START", "id": 1}) == {"ok": True, "id": 1}
        c.close()


def test_duplicate_start_keeps_finished_session():
    with running(t2t_testset()) as (srv, host, port):
        c = RawClient(host, port)
        assert c.call({"act": "START", "id": 0})["ok"]
        c.call({"act": "READ"})
        c.call({"act": "WRITE", "token": EOS_TOKEN})
        c.close()
        assert S.client_score(host, port)["n_sessions"] == 1
        c = RawClient(host, port)
        assert "already has a session" in c.call({"act": "START", "id": 0})["error"]
        c.close()
        assert srv.sessions[0].done and not srv.sessions[0].aborted
        assert S.client_score(host, port)["n_sessions"] == 1


def test_auto_assigned_id_refuses_a_taken_sentence():
    with running(t2t_testset()) as (_, host, port):
        c1 = RawClient(host, port)
        assert c1.call({"act": "START", "id": 0})["ok"]
        c2 = RawClient(host, port)
        assert "already has a session" in c2.call({"act": "READ"})["error"]
        c3 = RawClient(host, port)
        assert c3.call({"act": "READ"}) == {"token": "d"}   # auto id 1
        for c in (c1, c2, c3):
            c.close()


def test_malformed_frames_abort_session():
    with running(t2t_testset()) as (srv, host, port):
        c = RawClient(host, port)
        assert c.call({"act": "START", "id": 0})["ok"]
        assert c.call({"act": "READ"}) == {"token": "a"}
        c.send_line("this is not json")
        assert "error" in c.recv()
        c.close()
        assert srv.sessions[0].aborted

        c = RawClient(host, port)
        assert "error" in c.call({"act": "FLY"})
        c.close()
        c = RawClient(host, port)
        assert "error" in c.call({"no_act": 1})
        c.close()
        c = RawClient(host, port)
        c.call({"act": "START", "id": 1})
        assert "error" in c.call({"act": "WRITE", "token": 7})  # non-string
        c.close()
        assert srv.sessions[1].aborted


def test_invalid_utf8_gets_an_error_frame_and_aborts():
    # bytes ff fe once killed the handler thread with no reply
    with running(t2t_testset()) as (srv, host, port):
        c = RawClient(host, port)
        assert c.call({"act": "START", "id": 0})["ok"]
        c.file.write(b"\xff\xfe\n")
        c.file.flush()
        assert c.recv()["error"].startswith("malformed frame:")
        c.close()
        assert srv.sessions[0].aborted
        c = RawClient(host, port)
        assert "error" in c.call({"act": "SCORE"})      # the server still answers
        c.close()


def _wait_for(cond, timeout_s=5.0):
    deadline = time.monotonic() + timeout_s
    while not cond():
        assert time.monotonic() < deadline, "timed out"
        time.sleep(0.01)


def test_silent_connection_times_out_quietly(monkeypatch):
    # with no timeout a silent client held its thread and session forever
    monkeypatch.setattr(S, "IDLE_TIMEOUT_S", 0.2)
    with running(t2t_testset()) as (srv, host, port):
        c = RawClient(host, port)
        assert c.call({"act": "START", "id": 0})["ok"]
        t0 = time.monotonic()
        assert c.file.readline() == b""         # closed without a reply
        assert 0.15 < time.monotonic() - t0 < 5.0
        c.close()
        _wait_for(lambda: srv.sessions[0].aborted)


def test_reset_connection_aborts_its_session_quietly():
    with running(t2t_testset()) as (srv, host, port):
        c = RawClient(host, port)
        assert c.call({"act": "START", "id": 0})["ok"]
        # linger 0: close sends a reset instead of an orderly end of stream
        c.sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
        c.close()
        _wait_for(lambda: srv.sessions[0].aborted)
        c = RawClient(host, port)
        assert "error" in c.call({"act": "SCORE"})      # the server still answers
        c.close()


def test_connections_over_the_cap_are_refused_without_a_thread(monkeypatch):
    monkeypatch.setattr(S, "MAX_CONNECTIONS", 1)
    with running(t2t_testset()) as (srv, host, port):
        threads = []
        serve = srv.process_request_thread

        def counted(*args):
            threads.append(args)
            serve(*args)

        monkeypatch.setattr(srv, "process_request_thread", counted)
        held = RawClient(host, port)
        assert held.call({"act": "START", "id": 0})["ok"]
        busy = RawClient(host, port)
        assert busy.recv() == {"error": "server busy"}
        assert busy.file.readline() == b""      # closed
        busy.close()
        assert len(threads) == 1
        held.close()

        def served():   # the slot frees when the held connection's thread ends
            c = RawClient(host, port)
            try:
                return c.call({"act": "START", "id": 1}) == {"ok": True, "id": 1}
            except OSError:     # refused, and reset before the reply was read
                return False
            finally:
                c.close()

        _wait_for(served)
        assert len(threads) == 2


def test_frames_longer_than_the_limit_are_refused():
    def read_frame(n):
        """A READ frame line of n bytes, newline included."""
        head = '{"act": "READ", "pad": "'
        return head + "x" * (n - len(head) - 3) + '"}'

    with running(t2t_testset()) as (srv, host, port):
        c = RawClient(host, port)
        assert c.call({"act": "START", "id": 0})["ok"]
        c.send_line(read_frame(S.MAX_FRAME_BYTES))
        assert c.recv() == {"token": "a"}
        c.send_line(read_frame(S.MAX_FRAME_BYTES + 1))
        assert c.recv() == {"error": f"frame longer than {S.MAX_FRAME_BYTES} bytes"}
        c.close()
        assert srv.sessions[0].aborted


def test_writes_past_the_cap_abort_the_session():
    # the cap is 2 * |source| + 50 content tokens; 20,000 WRITEs to a
    # 3-token source were once all accepted
    with running(t2t_testset()) as (srv, host, port):
        c = RawClient(host, port)
        assert c.call({"act": "START", "id": 0})["ok"]
        for i in range(2 * 3 + 50):
            assert c.call({"act": "WRITE", "token": f"w{i}"}) == {"ok": True}
        assert "56 WRITEs" in c.call({"act": "WRITE", "token": "more"})["error"]
        c.close()
        assert srv.sessions[0].aborted and len(srv.sessions[0].hyp_tokens) == 56

        c = RawClient(host, port)                 # EOS at the cap still finishes
        assert c.call({"act": "START", "id": 1})["ok"]
        for i in range(2 * 2 + 50):
            c.call({"act": "WRITE", "token": "w"})
        assert c.call({"act": "WRITE", "token": EOS_TOKEN}) == {"ok": True, "done": True}
        c.close()
        assert srv.sessions[1].done and not srv.sessions[1].aborted


def test_disconnection_aborts_and_aborted_excluded_from_scores():
    with running(t2t_testset()) as (srv, host, port):
        c = RawClient(host, port)
        c.call({"act": "START", "id": 0})
        c.call({"act": "READ"})
        c.call({"act": "WRITE", "token": "w1"})
        c.close()                                 # hang up mid-session
        # finish the other sentence properly
        c = RawClient(host, port)
        c.call({"act": "START", "id": 1})
        c.call({"act": "READ"})
        c.call({"act": "WRITE", "token": "w1"})
        c.call({"act": "WRITE", "token": EOS_TOKEN})
        c.close()
        deadline = time.time() + 5
        while not srv.sessions[0].aborted and time.time() < deadline:
            time.sleep(0.01)
        assert srv.sessions[0].aborted
        score = S.client_score(host, port)
        assert score["n_sessions"] == 1


def test_score_with_no_completed_sessions():
    with running(t2t_testset()) as (_, host, port):
        c = RawClient(host, port)
        assert "error" in c.call({"act": "SCORE"})
        c.close()
        with pytest.raises(RuntimeError, match="no completed"):
            S.client_score(host, port)


# ---------------------------------------------------------------------------
# s2t protocol

def s2t_testset():
    streams = [[TimedWord("hello", 0, 250), TimedWord("world", 400, 150)]]
    return S.ServerTestset(mode="s2t", sources=streams, references=["w1 w2 w3 w4"],
                           detokenize=detok, block_ms=100.0)


def test_s2t_blocks_and_g_ms():
    with running(s2t_testset()) as (srv, host, port):
        c = RawClient(host, port)
        c.call({"act": "START", "id": 0})
        frames = [c.call({"act": "READ"}) for _ in range(6)]
        assert [f["block_ms"] for f in frames] == [100, 200, 300, 400, 500, 550]
        # words surface in the block containing their end time
        assert [len(f["words"]) for f in frames] == [0, 0, 1, 0, 0, 1]
        assert frames[2]["words"][0]["word"] == "hello"
        assert frames[5]["words"][0]["word"] == "world"
        assert c.call({"act": "READ"}) == {"eos": True}
        for t in ("w1", "w2", "w3", "w4", EOS_TOKEN):
            c.call({"act": "WRITE", "token": t})
        c.close()

        writes = srv.sessions[0].trace().writes()
        assert all(w.g_ms == 550.0 for w in writes)   # clamped to real audio
        score = S.client_score(host, port)
        assert score["bleu"] == pytest.approx(1.0)
        assert score["al_ms"] == pytest.approx(550.0)  # offline: AL = total
        assert score["al_words"] == pytest.approx(6.0)


def test_s2t_write_mid_stream_g_ms():
    with running(s2t_testset()) as (srv, host, port):
        c = RawClient(host, port)
        c.call({"act": "START", "id": 0})
        for _ in range(3):
            c.call({"act": "READ"})
        c.call({"act": "WRITE", "token": "w1"})
        c.call({"act": "WRITE", "token": EOS_TOKEN})
        c.close()
        writes = srv.sessions[0].trace().writes()
        assert [w.g_ms for w in writes] == [300.0, 300.0]


def test_s2t_block_words_at_boundaries():
    # ends at 100 (on a block edge), 180 and 200 (two in one block), 450
    # (a word spanning blocks); the recognizer hears the same words by each
    # served block_ms
    stream = [TimedWord("a", 0, 100), TimedWord("b", 120, 60),
              TimedWord("c", 180, 20), TimedWord("d", 300, 150)]
    testset = S.ServerTestset(mode="s2t", sources=[stream], references=["x"],
                              detokenize=detok, block_ms=100.0)
    with running(testset) as (_, host, port):
        c = RawClient(host, port)
        c.call({"act": "START", "id": 0})
        frames = [c.call({"act": "READ"}) for _ in range(5)]
        c.close()
    assert [f["block_ms"] for f in frames] == [100, 200, 300, 400, 450]
    assert [[w["word"] for w in f["words"]] for f in frames] == \
        [["a"], ["b", "c"], [], [], ["d"]]
    sim, served = AsrSimulator(stream, rules=[]), 0
    for f in frames:
        sim.advance(f["block_ms"])
        served += len(f["words"])
        assert sim.next_word == served


def test_s2t_served_scores_equal_the_offline_sweep():
    # replay each cascade trace on the wire: a READ per ReadEvent, a WRITE
    # per WriteEvent, and EOS after a truncated run.  With seed 25 the last
    # stream ends on EOS without content at sz 1 and 3, so the empty
    # hypothesis counts for BLEU and not for AL, and BLEU differs across sz
    vocab = toy_vocabulary("copy")
    mt = CascadeMT(models=[small_params(seed=25, vocab=len(vocab))],
                   encode_source=lambda text: vocab.encode_tokens(text.split()))
    cfg = CascadeConfig(sz=1, alpha=1.0, beta=3.0,
                        endpoint_rules=(EndpointRule("c", 0.5),), block_ms=100.0)
    streams = [[TimedWord("a", 0, 300), TimedWord("b", 420, 250)],
               [TimedWord("c", 50, 200), TimedWord("d", 900, 300), TimedWord("e", 1250, 200)],
               [TimedWord("f", 0, 180)],
               [TimedWord("g", 0, 200), TimedWord("h", 300, 200), TimedWord("i", 2000, 250),
                TimedWord("j", 2300, 150)]]
    detok_ids = lambda ids: " ".join(vocab.decode_ids(ids))   # noqa: E731

    def decode(stream, sz):
        n_blocks = AudioBlocks.of(stream, cfg.block_ms).n_blocks
        return cascade_decode(stream, mt, replace(cfg, sz=n_blocks if sz == INFINITE_K else sz))

    # references: the offline hypotheses, so BLEU is not zero throughout
    refs = [detok_ids(decode(stream, INFINITE_K).tokens) or "a" for stream in streams]
    sz_values = [1, 3, INFINITE_K]
    records = W.sweep_s2t([W.S2TSystem("cas", mt, cfg)], sz_values,
                          W.Testset(sources=streams, references=refs, detokenize=detok_ids))
    testset = S.ServerTestset(mode="s2t", sources=streams, references=refs,
                              detokenize=detok, block_ms=100.0)
    for sz, rec in zip(sz_values, records):
        with running(testset) as (_, host, port):
            for sid, stream in enumerate(streams):
                res = decode(stream, sz)
                c = RawClient(host, port)
                assert c.call({"act": "START", "id": sid})["ok"]
                for ev in res.trace.events:
                    if isinstance(ev, ReadEvent):
                        assert "block_ms" in c.call({"act": "READ"})
                    else:
                        assert c.call({"act": "WRITE", "token": vocab.token(ev.token)})["ok"]
                if res.trace.truncated:
                    assert c.call({"act": "WRITE", "token": EOS_TOKEN})["done"]
                c.close()
            score = S.client_score(host, port)
        assert score["n_sessions"] == len(streams)
        for key in ("bleu", "al_words", "al_ms"):
            assert abs(score[key] - getattr(rec, key)) <= 1e-12, (sz, key)
    assert records[-1].bleu > 0


# ---------------------------------------------------------------------------
# reference client against a real model

def test_client_waitk_matches_local_decoding():
    vocab = Vocabulary.build([f"t{i}" for i in range(12)])
    params = small_params(seed=9, vocab=len(vocab))
    src_strings = [["t0", "t3", "t5", "t2"], ["t7", "t1", "t4"]]
    testset = S.ServerTestset(
        mode="t2t", sources=src_strings,
        references=["t1 t2", "t3"], detokenize=detok)
    policy = OnlinePolicy(k_eval=2, alpha_len=1.0, beta_len=8)

    local = []
    for src in src_strings:
        ids = [vocab.id(t) for t in src]
        tokens, trace = online_greedy_decode(params, ids, policy)
        local.append([vocab.token(t) for t in tokens])

    with running(testset) as (_, host, port):
        remote = [S.client_waitk_session(host, port, i, params, policy, vocab)
                  for i in range(2)]
        score = S.client_score(host, port)
    assert remote == local
    assert score["n_sessions"] == 2
    assert 0.0 <= score["bleu"] <= 1.0


def served_decode(host, port, sid, srv, params, policy, vocab):
    """Wire decode of sentence ``sid``: the client's tokens and the g values
    the server recorded for every write."""
    tokens = S.client_waitk_session(host, port, sid, params, policy, vocab)
    writes = srv.sessions[sid].trace().writes()
    return tokens, [w.token for w in writes], [w.g_tokens for w in writes]


def test_client_matches_local_when_the_write_budget_binds_early():
    # alpha_len = 0: the budget (2 writes) is spent while the source is
    # still arriving; both paths read to the end, then stop truncated
    vocab = Vocabulary.build([f"t{i}" for i in range(12)])
    params = small_params(seed=0, vocab=len(vocab))
    src = ["t0", "t3", "t5", "t2", "t7", "t1", "t4", "t6"]
    policy = OnlinePolicy(k_eval=1, alpha_len=0.0, beta_len=2)
    tokens, trace = online_greedy_decode(params, [vocab.id(t) for t in src], policy)
    assert trace.truncated and len(tokens) == 2
    testset = S.ServerTestset(mode="t2t", sources=[src], references=["t1"],
                              detokenize=detok)
    with running(testset) as (srv, host, port):
        remote, written, g = served_decode(host, port, 0, srv, params, policy, vocab)
    assert remote == [vocab.token(t) for t in tokens]
    assert written == remote + [EOS_TOKEN]
    assert g[:-1] == trace.g_values() == [1, 2]
    assert g[-1] == len(trace.reads()) == 8


class ScriptedSession:
    """Writes a scripted token sequence whatever it reads, and records every
    source feed and the number of rows each write saw."""

    def __init__(self, script):
        self.script = script
        self.calls = []

    def extend_source(self, tokens):
        self.calls.append(("extend", tuple(tokens)))

    def next_logprobs(self, visible):
        self.calls.append(("probs", visible))
        row = np.full(16, -10.0)
        row[self.script[sum(c[0] == "commit" for c in self.calls)]] = -0.1
        return row

    def commit(self, token):
        self.calls.append(("commit", token))


POOL = [["t0", "t3", "t5", "t2", "t7", "t1", "t4", "t6"], ["t9"], ["t4", "t4", "t8"],
        ["t11", "t2", "t0", "t5", "t9"], ["t6", "t1"], ["t3", "t10", "t7", "t2", "t8", "t0"]]
COPIES = 80       # ids per pool sentence, so no id is STARTed twice


def test_client_matches_local_for_random_policies():
    vocab = Vocabulary.build([f"t{i}" for i in range(12)])
    testset = S.ServerTestset(
        mode="t2t", sources=[POOL[i % len(POOL)] for i in range(len(POOL) * COPIES)],
        references=["t1"] * (len(POOL) * COPIES), detokenize=detok)
    next_id = list(range(len(POOL)))
    with running(testset) as (srv, host, port):
        @settings(max_examples=60, deadline=None)
        @given(k=st.one_of(st.integers(1, 9), st.just(math.inf)),
               alpha_len=st.floats(0.0, 2.5), beta_len=st.integers(1, 6),
               which=st.integers(0, len(POOL) - 1),
               script=st.lists(st.integers(4, 15), min_size=40, max_size=40),
               eos_at=st.integers(0, 40))
        def check(k, alpha_len, beta_len, which, script, eos_at):
            script = script[:eos_at] + [EOS] + script[eos_at:]
            policy = OnlinePolicy(k_eval=k, alpha_len=alpha_len, beta_len=beta_len)
            src = POOL[which]
            local = ScriptedSession(script)
            tokens, trace = online_greedy_decode(
                [local], [vocab.id(t) for t in src], policy)
            sid = next_id[which]
            next_id[which] += len(POOL)
            wire = ScriptedSession(script)
            remote, written, g = served_decode(host, port, sid, srv, [wire], policy, vocab)
            assert wire.calls == local.calls
            assert remote == [vocab.token(t) for t in tokens]
            assert written == remote + [EOS_TOKEN]
            closing = [len(trace.reads())] if trace.truncated else []
            assert g == trace.g_values() + closing

        check()
