import string

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simumt.bpe import BpeModel, train_bpe
from simumt.vocab import UNK, UNK_TOKEN


def test_first_merge_counts_overlaps_per_occurrence():
    # "aaab" gives pair (a,a) twice, ("aab") once more -> freq 3 for (a,a)
    # vs (a,b</w>) freq 2; so the first merge must be (a, a).
    model = train_bpe(["aaab aab"], target_vocab_size=10)
    assert model.merges[0] == ("a", "a")


def test_detokenize_keeps_unk_a_word_of_its_own():
    model = train_bpe(["ab cd ab cd"], target_vocab_size=10)
    tokens = [UNK_TOKEN, "ab</w>", "cd</w>", UNK_TOKEN]
    ids = model.vocab.encode_tokens(tokens)
    assert ids[0] == ids[-1] == UNK and UNK not in ids[1:-1]
    assert model.detokenize(tokens) == model.decode(ids) == "<unk> ab cd <unk>"
    assert model.detokenize(["a", "b</w>", "c", "d</w>"]) == "ab cd"


def test_ties_break_lexicographically():
    # "ab" and "cd" both occur once as their only pair; (a,b</w>) sorts
    # before (c,d</w>).
    model = train_bpe(["ab cd", "ab cd"], target_vocab_size=9)
    assert model.merges[0] == ("a", "b</w>")


def test_vocab_layout_and_single_char_word():
    model = train_bpe(["zz z", "zz z"], target_vocab_size=7)
    # specials + alphabet {z, z</w>} + merge output (z, z</w>) -> "zz</w>"
    assert model.vocab.token_of[4:] == ("z", "z</w>", "zz</w>")
    assert model.encode_tokens("zz z") == ["zz</w>", "z</w>"]


def test_merge_replay_order_and_unknown_symbol():
    model = train_bpe(["abab abab baba"], target_vocab_size=20)
    ids = model.encode("abab")
    assert model.decode(ids) == "abab"
    # characters never seen in training have no symbol, so they become UNK
    ids = model.encode("aXa")
    assert UNK in ids


def test_roundtrip_exact_on_training_alphabet():
    corpus = ["the cat sat", "the mat", "a cat on a mat"]
    model = train_bpe(corpus, target_vocab_size=40)
    for line in corpus + ["the cat on the mat", "sat sat sat"]:
        assert model.decode(model.encode(line)) == line


def test_save_load_identity(tmp_path):
    model = train_bpe(["few words here", "more words there"], 30)
    path = tmp_path / "m.bpe"
    model.save(path)
    back = BpeModel.load(path)
    assert back.merges == model.merges
    assert back.vocab.token_of == model.vocab.token_of
    text = "more here"
    assert back.encode(text) == model.encode(text)


def test_load_rejects_garbage(tmp_path):
    p = tmp_path / "bad.bpe"
    p.write_text("not a model\n")
    with pytest.raises(ValueError):
        BpeModel.load(p)


def test_train_errors():
    with pytest.raises(ValueError):
        train_bpe([], 10)
    with pytest.raises(ValueError):
        train_bpe(["   "], 10)
    with pytest.raises(ValueError):
        train_bpe(["abcdef"], 5)  # below specials + alphabet floor


def test_stops_when_no_pair_repeats():
    model = train_bpe(["ab"], target_vocab_size=1000)
    # single occurrence of (a, b</w>): frequency 1, never merged
    assert model.merges == ()


@settings(max_examples=60, deadline=None)
@given(st.lists(
    st.lists(st.text(alphabet="abcd", min_size=1, max_size=6), min_size=1,
             max_size=6).map(" ".join),
    min_size=1, max_size=8))
def test_roundtrip_property(lines):
    model = train_bpe(lines, target_vocab_size=60)
    for line in lines:
        assert model.decode(model.encode(line)) == line


def test_roundtrip_fuzz_seeded():
    rng = np.random.default_rng(4)
    letters = list(string.ascii_lowercase[:6])
    for _ in range(25):
        n_lines = int(rng.integers(1, 9))
        lines = []
        for _ in range(n_lines):
            words = ["".join(rng.choice(letters, size=rng.integers(1, 7)))
                     for _ in range(int(rng.integers(1, 7)))]
            lines.append(" ".join(words))
        # floor: 4 specials + at most 12 alphabet symbols (6 letters, each
        # plain and word-final), so any target >= 16 is always valid
        model = train_bpe(lines, target_vocab_size=int(rng.integers(16, 90)))
        for line in lines:
            assert model.decode(model.encode(line)) == line
