import math
import re

import numpy as np
import pytest

from simumt import cascade as C
from simumt.online import ReadEvent, WriteEvent
from simumt.vocab import BOS, EOS


def tw(word, start, dur=100.0):
    return C.TimedWord(word, start, dur)


class ScriptedSession:
    """Cascade-facing session that argmaxes a scripted token sequence and
    records calls, including the running target prefix."""

    def __init__(self, script, vocab_size=16):
        self.script = list(script)
        self.vocab_size = vocab_size
        self.calls = []
        self.i = 0
        self.n_encoded = 0
        self.prev = BOS
        self._pending = None

    def extend_source(self, tokens):
        self.calls.append(("extend", tuple(tokens)))
        self.n_encoded += len(tokens)

    def next_logprobs(self, visible):
        self.calls.append(("probs", visible, self.prev))
        row = np.full(self.vocab_size, -10.0)
        row[self.script[self.i]] = -0.1
        self._pending = True
        return row

    def commit(self, token):
        assert self._pending
        self._pending = None
        self.prev = token
        self.i += 1


def word_per_token_mt(sessions_or_script):
    """MT whose encoder maps every transcribed word to one token id 5."""
    if isinstance(sessions_or_script, list) and sessions_or_script and \
            not hasattr(sessions_or_script[0], "extend_source"):
        sessions_or_script = [ScriptedSession(sessions_or_script)]
    return C.CascadeMT(models=sessions_or_script,
                       encode_source=lambda text: [5] * len(text.split()))


# ---------------------------------------------------------------------------
# timed words and streams

def test_timed_word_validation():
    w = tw("hello", 100.0, 250.0)
    assert w.end_ms == 350.0
    with pytest.raises(ValueError):
        C.TimedWord("", 0.0, 100.0)
    with pytest.raises(ValueError):
        C.TimedWord("two words", 0.0, 100.0)
    with pytest.raises(ValueError):
        C.TimedWord("x", -1.0, 100.0)
    with pytest.raises(ValueError):
        C.TimedWord("x", 0.0, 0.0)


@pytest.mark.parametrize("start, dur", [
    (math.nan, 100.0), (0.0, math.nan), (math.inf, 100.0), (0.0, math.inf),
    (0.0, -math.inf), (1e12, 100.0), (C.MAX_STREAM_MS - 99.0, 100.0),
])
def test_timed_word_rejects_non_finite_and_overlong_spans(start, dur):
    with pytest.raises(ValueError):
        C.TimedWord("x", start, dur)


def test_timed_word_may_end_at_the_maximum():
    assert C.TimedWord("x", C.MAX_STREAM_MS - 100.0, 100.0).end_ms == C.MAX_STREAM_MS


def test_validate_stream_rejects_overlap():
    C.validate_stream([tw("a", 0), tw("b", 100), tw("c", 300)])
    with pytest.raises(ValueError, match="overlap"):
        C.validate_stream([tw("a", 0, 150), tw("b", 100)])


# ---------------------------------------------------------------------------
# endpoint rules

def test_endpoint_rule_validation():
    C.EndpointRule("a", 5.0)
    C.EndpointRule("b", 1.0, cost_threshold=8.0)
    with pytest.raises(ValueError):
        C.EndpointRule("e", 1.0)
    with pytest.raises(ValueError):
        C.EndpointRule("a", 0.0)
    with pytest.raises(ValueError):
        C.EndpointRule("b", 1.0)                      # missing cost
    with pytest.raises(ValueError):
        C.EndpointRule("b", 1.0, cost_threshold=0.0)
    with pytest.raises(ValueError):
        C.EndpointRule("c", 1.0, cost_threshold=5.0)  # cost not allowed


def snap(silence=0.0, decoded=False, final=False, cost=None, utt=0.0):
    if cost is None:
        cost = 0.0 if final else C.INFINITE_COST
    return C.AsrSnapshot(silence_s=silence, decoded_anything=decoded,
                         final_state_reached=final, cost_relative=cost,
                         utterance_s=utt)


def test_snapshot_cost_invariant():
    with pytest.raises(ValueError):
        C.AsrSnapshot(silence_s=0, decoded_anything=True,
                      final_state_reached=False, cost_relative=3.0,
                      utterance_s=1.0)


def test_detect_endpoint_each_kind():
    rules = C.default_endpoint_rules()      # a:5.0  b:1.0/8.0  c:2.0  d:20.0
    fired, r = C.detect_endpoint(snap(silence=5.0), rules)
    assert fired and r.kind == "a"
    fired, r = C.detect_endpoint(
        snap(silence=1.0, decoded=True, final=True, cost=2.0), rules)
    assert fired and r.kind == "b"
    fired, r = C.detect_endpoint(
        snap(silence=2.0, decoded=True, final=True, cost=9.0), rules)
    assert fired and r.kind == "c"           # cost too high for b
    fired, r = C.detect_endpoint(snap(utt=20.0, decoded=True), rules)
    assert fired and r.kind == "d"
    fired, r = C.detect_endpoint(snap(silence=0.5, decoded=True), rules)
    assert not fired and r is None


def test_detect_endpoint_kind_precedence():
    rules = C.default_endpoint_rules()
    # satisfies a, b, c and d at once: kind order says a wins
    fired, r = C.detect_endpoint(
        snap(silence=6.0, decoded=True, final=True, cost=1.0, utt=30.0), rules)
    assert fired and r.kind == "a"


def test_detect_endpoint_declaration_order_within_kind():
    b1 = C.EndpointRule("b", 1.0, cost_threshold=2.0)
    b2 = C.EndpointRule("b", 3.0, cost_threshold=100.0)
    # fires only the looser-cost rule when the tight one misses on cost
    fired, r = C.detect_endpoint(
        snap(silence=3.5, decoded=True, final=True, cost=50.0), [b1, b2])
    assert fired and r is b2
    # when both fire, the first declared wins
    fired, r = C.detect_endpoint(
        snap(silence=3.5, decoded=True, final=True, cost=1.5), [b1, b2])
    assert fired and r is b1


def test_rule_b_requires_final_state():
    rules = [C.EndpointRule("b", 0.5, cost_threshold=10.0)]
    fired, _ = C.detect_endpoint(snap(silence=4.0, decoded=True, final=False),
                                 rules)
    assert not fired


# ---------------------------------------------------------------------------
# the recognizer simulation

def test_simulator_decodes_on_word_end():
    sim = C.AsrSimulator([tw("a", 0, 400), tw("b", 500, 400)], rules=[])
    sim.advance(399.0)
    assert not sim.snapshot().decoded_anything
    sim.advance(400.0)
    s = sim.snapshot()
    assert s.decoded_anything and s.silence_s == 0.0
    sim.advance(700.0)
    assert sim.snapshot().silence_s == pytest.approx(0.3)   # inside word b
    sim.advance(900.0)
    assert sim.snapshot().silence_s == 0.0


def test_simulator_endpoint_emits_and_resets_clock():
    rules = [C.EndpointRule("c", 2.0)]
    sim = C.AsrSimulator([tw("a", 0, 400), tw("b", 500, 400)], rules)
    step = sim.advance(2900.0)            # silence (2900-900)/1000 = 2.0
    assert step.endpoint_fired and step.rule.kind == "c"
    assert step.words == ["a", "b"]
    s = sim.snapshot()
    assert s.utterance_s == 0.0 and not s.decoded_anything
    step = sim.advance(3400.0)
    assert not step.endpoint_fired        # only 0.5 s into the new utterance
    assert sim.snapshot().utterance_s == pytest.approx(0.5)


def test_simulator_cost_script_controls_rule_b():
    rules = [C.EndpointRule("b", 0.5, cost_threshold=4.0)]
    stream = [tw("a", 0, 200)]
    # not in a final state: b can never fire
    sim = C.AsrSimulator(stream, rules, cost_script=[(False, C.INFINITE_COST)])
    assert not sim.advance(5000.0).endpoint_fired
    # final but too costly
    sim = C.AsrSimulator(stream, rules, cost_script=[(True, 9.0)])
    assert not sim.advance(5000.0).endpoint_fired
    # final and cheap
    sim = C.AsrSimulator(stream, rules, cost_script=[(True, 1.0)])
    assert sim.advance(5000.0).endpoint_fired
    with pytest.raises(ValueError):
        C.AsrSimulator(stream, rules, cost_script=[(True, 1.0), (True, 1.0)])


def test_simulator_flush_and_monotone_time():
    sim = C.AsrSimulator([tw("a", 0, 100), tw("b", 200, 100)], rules=[])
    sim.advance(300.0)
    assert sim.flush() == ["a", "b"]
    assert sim.flush() == []
    with pytest.raises(ValueError):
        sim.advance(200.0)


def test_simulator_total_ms_extension():
    sim = C.AsrSimulator([tw("a", 0, 100)], rules=[], total_ms=1000.0)
    assert sim.total_ms == 1000.0
    # cannot be shorter than the audio itself
    sim = C.AsrSimulator([tw("a", 0, 500)], rules=[], total_ms=100.0)
    assert sim.total_ms == 500.0


# ---------------------------------------------------------------------------
# the cascade controller

def c_only(t=2.0):
    return (C.EndpointRule("c", t),)


def test_cascade_hand_traced_run():
    # words end at 400, 900 and 3900 ms; rule c (2 s silence) fires at
    # 2900 ms = block 29, the rest flushes at depletion (block 39)
    stream = [tw("hello", 0, 400), tw("world", 500, 400), tw("again", 3500, 400)]
    sess = ScriptedSession([7, 8, 9, EOS])
    cfg = C.CascadeConfig(sz=1, alpha=1.0, beta=1.0, endpoint_rules=c_only())
    res = C.cascade_decode(stream, word_per_token_mt([sess]), cfg)

    assert res.tokens == [7, 8, 9]
    assert not res.truncated
    assert res.transcript_tokens == 3
    res.trace.validate()
    reads = res.trace.reads()
    assert [r.index for r in reads] == list(range(39))
    writes = res.trace.writes()
    # three writes after the endpoint (budget 1*2+1), EOS after depletion
    assert [(w.g_tokens, w.g_ms) for w in writes] == [
        (29, 2900.0), (29, 2900.0), (29, 2900.0), (39, 3900.0)]
    # source fed in two chunks plus the end-of-source marker exactly once
    extends = [c for c in sess.calls if c[0] == "extend"]
    assert extends == [("extend", (5, 5)), ("extend", (5,)), ("extend", (EOS,))]


def test_cascade_sz_batches_reads():
    stream = [tw("hello", 0, 400), tw("world", 500, 400), tw("again", 3500, 400)]
    sess = ScriptedSession([7, EOS])
    cfg = C.CascadeConfig(sz=4, alpha=1.0, beta=1.0, endpoint_rules=c_only())
    res = C.cascade_decode(stream, word_per_token_mt([sess]), cfg)
    # endpointer is only consulted every 4 blocks, so the fire lands at
    # block 32 (3200 ms) instead of 29
    assert res.trace.writes()[0].g_tokens == 32
    assert res.trace.writes()[0].g_ms == 3200.0


def test_cascade_g_ms_clamped_to_audio_length():
    # 250 ms of audio is 3 blocks of 100 ms; the last block may only claim
    # the real 250 ms
    stream = [tw("hi", 0, 250)]
    sess = ScriptedSession([7, EOS])
    cfg = C.CascadeConfig(sz=5, alpha=1.0, beta=2.0, endpoint_rules=c_only())
    res = C.cascade_decode(stream, word_per_token_mt([sess]), cfg)
    assert len(res.trace.reads()) == 3
    assert all(w.g_ms == 250.0 for w in res.trace.writes())


def test_cascade_budget_exhaustion_truncates():
    stream = [tw("hi", 0, 100)]
    sess = ScriptedSession([7] * 50)     # never EOS
    cfg = C.CascadeConfig(sz=1, alpha=1.0, beta=1.0, endpoint_rules=c_only())
    res = C.cascade_decode(stream, word_per_token_mt([sess]), cfg)
    # budget: 1 transcribed token * 1.0 + 1.0 = 2 writes, then depleted audio
    assert res.tokens == [7, 7]
    assert res.truncated and res.trace.truncated


def test_cascade_empty_audio_writes_from_marker_alone():
    sess = ScriptedSession([EOS])
    cfg = C.CascadeConfig(sz=1, alpha=1.0, beta=2.0, endpoint_rules=c_only())
    res = C.cascade_decode([], word_per_token_mt([sess]), cfg)
    assert res.tokens == [] and not res.truncated
    assert res.transcript_tokens == 0
    assert len(res.trace.reads()) == 1   # the single (empty) block
    assert [c for c in sess.calls if c[0] == "extend"] == [("extend", (EOS,))]


def test_cascade_hard_cap():
    stream = [tw("hi", 0, 100)]
    sess = ScriptedSession([7] * 50)
    cfg = C.CascadeConfig(sz=1, alpha=1.0, beta=30.0, endpoint_rules=c_only())
    res = C.cascade_decode(stream, word_per_token_mt([sess]), cfg, hard_cap=5)
    assert res.tokens == [7] * 5
    assert res.truncated


def test_cascade_target_prefix_persists_across_endpoints():
    # two utterances, each closed by a rule-c endpoint (trailing silence is
    # padded with total_ms so the second fire precedes depletion); the first
    # writes 7, 8 (budget 2), and after the second endpoint the recorded
    # prefix token is 8, not BOS
    stream = [tw("one", 0, 400), tw("two", 3000, 400)]
    cfg = C.CascadeConfig(sz=1, alpha=1.0, beta=1.0, endpoint_rules=c_only())
    sess = ScriptedSession([7, 8, 9, EOS])
    C.cascade_decode(stream, word_per_token_mt([sess]), cfg, total_ms=6000.0)
    assert [c[2] for c in sess.calls if c[0] == "probs"] == [BOS, 7, 8]


@pytest.mark.parametrize("total_ms, block_ms", [
    (100.0, 0.0), (100.0, -100.0), (100.0, math.nan), (100.0, math.inf),
    (-1.0, 100.0), (math.nan, 100.0), (math.inf, 100.0), (1e12, 100.0),
    (1000.0, 1e-6), (C.MAX_STREAM_MS, 10.0)])
def test_audio_blocks_refuse_bad_sizes(total_ms, block_ms):
    # block_ms=0 divided by zero at the first READ; 1e12 ms stepped through
    # 10^10 blocks, and 1e-6 ms blocks cut a second into 10^9
    with pytest.raises(ValueError):
        C.AudioBlocks(total_ms, block_ms)


def test_audio_blocks_cap_fits_the_longest_stream():
    assert C.AudioBlocks(C.MAX_STREAM_MS, 100.0).n_blocks == 864_000 <= C.MAX_BLOCKS


def test_cascade_refuses_infinite_audio_before_any_read():
    # total_ms=inf raised OverflowError counting the blocks
    sess = ScriptedSession([EOS])
    with pytest.raises(ValueError, match="total_ms"):
        C.cascade_decode([tw("hi", 0, 100)], word_per_token_mt([sess]), C.CascadeConfig(),
                         total_ms=math.inf)
    assert sess.calls == []


def test_cascade_refuses_too_many_blocks_before_any_read():
    # a valid config whose blocks cut the stream into 10^8 READ events
    sess = ScriptedSession([EOS])
    with pytest.raises(ValueError, match="MAX_BLOCKS"):
        C.cascade_decode([tw("hi", 0, 100)], word_per_token_mt([sess]),
                         C.CascadeConfig(block_ms=1e-6))
    assert sess.calls == []


def test_cascade_normalizes_transcripts():
    # digits in the word stream reach the encoder as number words
    seen = []

    def encode(text):
        seen.append(text)
        return [5] * len(text.split())

    stream = [tw("3", 0, 400), tw("people", 500, 400)]
    sess = ScriptedSession([EOS])
    mt = C.CascadeMT(models=[sess], encode_source=encode)
    cfg = C.CascadeConfig(sz=1, alpha=1.0, beta=1.0, endpoint_rules=c_only())
    C.cascade_decode(stream, mt, cfg)
    assert seen == ["three people"]


def test_cascade_config_validation():
    with pytest.raises(ValueError):
        C.CascadeConfig(sz=0)
    with pytest.raises(ValueError):
        C.CascadeConfig(beta=0.0)
    with pytest.raises(ValueError):
        C.CascadeConfig(block_ms=0.0)


@pytest.mark.parametrize("field, value", [
    ("sz", math.nan), ("sz", 1.5), ("alpha", math.nan), ("alpha", math.inf),
    ("beta", math.nan), ("beta", math.inf), ("block_ms", math.nan), ("block_ms", math.inf)])
def test_cascade_config_refuses_non_finite_or_fractional_numbers(field, value):
    # NaN passed every `<` check: alpha=nan wrote up to the hard cap, and
    # block_ms=nan failed later converting NaN to an integer; sz=1.5 failed
    # in the driver with a TypeError
    with pytest.raises(ValueError):
        C.CascadeConfig(**{field: value})


# ---------------------------------------------------------------------------
# segmentation

def spaced_words(n, gap_ms, dur=100.0, start=0.0):
    out, t = [], start
    for i in range(n):
        out.append(tw(f"w{i}", t, dur))
        t += dur + gap_ms
    return out


def test_segment_boundary_is_strict():
    # a gap of exactly theta_long does not split; epsilon more does
    at = [tw("a", 0, 100), tw("b", 750, 100)]          # gap 650 ms
    assert len(C.segment_stream(at, theta_long=0.65)) == 1
    above = [tw("a", 0, 100), tw("b", 750.001, 100)]
    assert len(C.segment_stream(above, theta_long=0.65)) == 2


def test_segment_short_threshold_after_max_words():
    # 45 words, 200 ms gaps: theta_long tolerates them, but once a segment
    # holds more than 40 words theta_short (0.15 s) splits
    words = spaced_words(45, gap_ms=200.0)
    segs = C.segment_stream(words)
    assert [s.n_words for s in segs] == [41, 4]
    # same stream with small gaps never splits regardless of length
    tight = spaced_words(45, gap_ms=100.0)
    assert [s.n_words for s in C.segment_stream(tight)] == [45]


def test_segment_partition_and_order():
    words = spaced_words(10, gap_ms=700.0)             # every gap splits
    segs = C.segment_stream(words)
    assert [s.n_words for s in segs] == [1] * 10
    flat = [w for s in segs for w in s.words]
    assert flat == words
    assert segs[0].start_ms == 0.0 and segs[0].end_ms == 100.0


def test_segment_validation_and_empty():
    assert C.segment_stream([]) == []
    with pytest.raises(ValueError):
        C.segment_stream([], theta_long=0.1, theta_short=0.2)
    with pytest.raises(ValueError):
        C.segment_stream([], theta_long=0.5, theta_short=0.0)
    with pytest.raises(ValueError):
        C.segment_stream([], max_words=0)


@pytest.mark.parametrize("thresholds", [
    {"theta_long": math.nan}, {"theta_short": math.nan},
    {"theta_long": math.nan, "theta_short": math.nan}])
def test_segment_stream_refuses_nan_thresholds(thresholds):
    with pytest.raises(ValueError, match="thresholds must be positive"):
        C.segment_stream([C.TimedWord("a", 0, 100)], **thresholds)


def test_segment_stream_accepts_infinite_thresholds():
    words = [C.TimedWord("a", 0, 100), C.TimedWord("b", 5000, 100)]
    assert len(C.segment_stream(words, theta_long=math.inf)) == 1
    assert len(C.segment_stream(words, theta_long=math.inf, theta_short=math.inf)) == 1


# ---------------------------------------------------------------------------
# files

def test_timed_stream_roundtrip(tmp_path):
    docs = [[tw("a", 0, 123.5), tw("b", 200.25, 99.0)], [tw("c", 10, 20)]]
    p = tmp_path / "streams.tsv"
    C.save_timed_streams(docs, p)
    assert C.load_timed_streams(p) == docs
    assert C.DOC_SEPARATOR in p.read_text().splitlines()


def test_timed_stream_malformed_lines(tmp_path):
    p = tmp_path / "bad.tsv"
    p.write_text("a\t0\t100\nb\t50\n")
    with pytest.raises(ValueError, match=r":2:"):
        C.load_timed_streams(p)
    p.write_text("a\t0\tnope\n")
    with pytest.raises(ValueError, match=r":1:"):
        C.load_timed_streams(p)
    p.write_text("a\t0\t100\nb\t50\t100\n")             # overlap
    with pytest.raises(ValueError, match="overlap"):
        C.load_timed_streams(p)


def test_timed_stream_bad_times_name_the_line(tmp_path):
    p = tmp_path / "bad.tsv"
    for start, dur in (("nan", "10"), ("0", "inf"), ("1e12", "10")):
        p.write_text(f"a\t0\t100\nb\t{start}\t{dur}\n")
        with pytest.raises(ValueError, match=rf"{re.escape(str(p))}:2:"):
            C.load_timed_streams(p)


def test_save_segments(tmp_path):
    segs = [C.Segment(words=(tw("a", 0, 100),)),
            C.Segment(words=(tw("b", 800, 100), tw("c", 950, 100)))]
    p = tmp_path / "segs.tsv"
    C.save_segments(segs, p)
    rows = [l.split("\t") for l in p.read_text().splitlines()]
    assert [r[0] for r in rows] == ["a", "b", "c"]
    assert [r[3] for r in rows] == ["0", "1", "1"]
