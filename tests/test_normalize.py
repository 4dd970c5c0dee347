import logging

import pytest

from simumt.normalize import (asr_normalize, build_number_lexicon,
                              number_to_words)


def test_number_words_hand_values():
    assert number_to_words(0) == "zero"
    assert number_to_words(13) == "thirteen"
    assert number_to_words(20) == "twenty"
    assert number_to_words(21) == "twenty one"
    assert number_to_words(100) == "one hundred"
    assert number_to_words(305) == "three hundred five"
    assert number_to_words(999) == "nine hundred ninety nine"
    assert number_to_words(3000) == "three thousand"
    assert number_to_words(9999) == "nine thousand nine hundred ninety nine"
    with pytest.raises(ValueError):
        number_to_words(10000)
    with pytest.raises(ValueError):
        number_to_words(-1)


def test_lexicon_covers_range():
    lex = build_number_lexicon()
    assert len(lex) == 10_000 and lex["9999"] == "nine thousand nine hundred ninety nine"
    assert lex["42"] == "forty two"
    assert all(not any(ch.isdigit() for ch in v) for v in lex.values())


def test_normalize_basic():
    assert asr_normalize("Hello, World!") == "hello world"
    assert asr_normalize("  a\t b \n c ") == "a b c"
    assert asr_normalize("it's") == "its"
    assert asr_normalize("3,000 people") == "three thousand people"
    assert asr_normalize("room 42.") == "room forty two"
    assert asr_normalize("007") == "seven"
    assert asr_normalize("3rd") == "3rd"  # mixed token, not a number


def test_normalize_idempotent():
    samples = ["Hello, World!", "3,000 people", "A.B.C. 12 x-ray"]
    for s in samples:
        once = asr_normalize(s)
        assert asr_normalize(once) == once


def test_unknown_number_warns_and_passes_through(caplog):
    with caplog.at_level(logging.WARNING, logger="simumt.normalize"):
        out = asr_normalize("take 123456 steps")
    assert out == "take 123456 steps"
    assert any("123456" in r.message for r in caplog.records)
