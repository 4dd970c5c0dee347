import pytest

from simumt import corpus as C
from simumt.vocab import EOS, PAD


def _pair(ns, nt):
    # targets include their EOS in the stored length
    return C.SentencePair(source=tuple([4] * ns), target=tuple([5] * (nt - 1)) + (EOS,))


def test_sentence_pair_invariants():
    with pytest.raises(ValueError):
        C.SentencePair(source=(), target=(5, EOS))
    with pytest.raises(ValueError):
        C.SentencePair(source=(4,), target=(5,))  # no EOS
    with pytest.raises(ValueError):
        C.SentencePair(source=(PAD,), target=(5, EOS))
    with pytest.raises(ValueError):
        C.SentencePair(source=(4, EOS), target=(5, EOS))  # EOS in source


def test_filter_length_ratio():
    pairs = [_pair(10, 14), _pair(10, 13), _pair(14, 10), _pair(7, 7)]
    kept = C.filter_length_ratio(pairs, 1.3)
    assert kept == [pairs[1], pairs[3]]
    assert C.filter_length_ratio(pairs, 1.5) == pairs
    with pytest.raises(ValueError):
        C.filter_length_ratio(pairs, 0.9)


def test_text_io_tsv_and_jsonl(tmp_path):
    pairs = [("a b", "x y z"), ("hello", "welt")]
    for fmt in ("tsv", "jsonl"):
        p = tmp_path / f"c.{fmt}"
        C.save_parallel_text(pairs, p, fmt=fmt)
        assert C.load_parallel_text(p) == pairs
    bad = tmp_path / "bad.tsv"
    bad.write_text("only one field\n")
    with pytest.raises(ValueError):
        C.load_parallel_text(bad)
    badj = tmp_path / "bad2.tsv"
    badj.write_text('{"src": "a"}\n')
    with pytest.raises(ValueError):
        C.load_parallel_text(badj)


def test_jsonl_sides_must_be_strings(tmp_path):
    for line in ('{"src": 5, "tgt": "a b"}', '{"src": "a", "tgt": null}',
                 '{"src": ["a"], "tgt": "a"}'):
        p = tmp_path / "c.jsonl"
        p.write_text('{"src": "a", "tgt": "b"}\n' + line + "\n")
        with pytest.raises(ValueError, match=r"c\.jsonl:2: src and tgt must be strings"):
            C.load_parallel_text(p)


def test_encode_pairs_appends_eos():
    enc = lambda s: [ord(c) % 20 + 4 for c in s.replace(" ", "")]
    pairs = C.encode_pairs([("ab", "cd")], enc, enc)
    assert pairs[0].target[-1] == EOS
    assert len(pairs[0].target) == 3


def test_toy_corpus_deterministic_and_shaped():
    a = C.gen_toy_corpus(seed=5, n_pairs=40, task="copy")
    b = C.gen_toy_corpus(seed=5, n_pairs=40, task="copy")
    assert a == b
    c = C.gen_toy_corpus(seed=6, n_pairs=40, task="copy")
    assert a != c
    for p in a:
        assert 2 <= len(p.source) <= 12
        assert p.target == p.source + (EOS,)


def test_toy_local_swap():
    pairs = C.gen_toy_corpus(seed=1, n_pairs=60, task="local_swap")
    for p in pairs:
        src, tgt = list(p.source), list(p.target[:-1])
        expect = list(src)
        for i in range(0, len(src) - 1, 2):
            expect[i], expect[i + 1] = expect[i + 1], expect[i]
        assert tgt == expect


def test_toy_digit_to_word():
    vocab = C.toy_vocabulary("digit_to_word")
    pairs = C.gen_toy_corpus(seed=2, n_pairs=60, task="digit_to_word")
    for p in pairs:
        assert len(p.target) == len(p.source) + 1
        for s, t in zip(p.source, p.target):
            assert C.DIGIT_WORDS[vocab.token(s)] == vocab.token(t)


def test_unknown_task():
    with pytest.raises(ValueError):
        C.gen_toy_corpus(0, 1, "reverse")
    with pytest.raises(ValueError):
        C.toy_vocabulary("reverse")


@pytest.mark.parametrize("n_pairs", [0, -5])
def test_gen_toy_corpus_refuses_fewer_than_one_pair(n_pairs):
    with pytest.raises(ValueError, match="n_pairs must be >= 1"):
        C.gen_toy_corpus(seed=0, n_pairs=n_pairs, task="copy")


def test_split_corpus():
    pairs = C.gen_toy_corpus(seed=0, n_pairs=10, task="copy")
    tr, dev = C.split_corpus(pairs, 3)
    assert len(tr) == 7 and len(dev) == 3
    assert tr + dev == pairs
    with pytest.raises(ValueError):
        C.split_corpus(pairs, 10)
