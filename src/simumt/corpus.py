"""Parallel corpora: id-encoded sentence pairs, file I/O, toy generators.

Text corpora live on disk either as tab-separated ``source<TAB>target``
lines or as JSON lines ``{"src": ..., "tgt": ...}``.  In memory a training
example is a pair of id sequences where the target always ends with the
end-of-sequence id; the source carries no terminator of its own (the
model appends one when the source is complete).
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .vocab import EOS, PAD, Vocabulary

TOY_TASKS = ("copy", "local_swap", "digit_to_word")

DIGIT_WORDS = {
    "0": "zero", "1": "one", "2": "two", "3": "three", "4": "four",
    "5": "five", "6": "six", "7": "seven", "8": "eight", "9": "nine",
}


@dataclass(frozen=True)
class SentencePair:
    """One id-encoded training example. Target ends with EOS, never PAD."""

    source: tuple[int, ...]
    target: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.source or not self.target:
            raise ValueError("empty side in sentence pair")
        if PAD in self.source or PAD in self.target:
            raise ValueError("PAD id inside a sentence pair")
        if self.target[-1] != EOS:
            raise ValueError("target must end with EOS")
        if EOS in self.source:
            raise ValueError("EOS id inside a source sequence")


def filter_length_ratio(pairs: list[SentencePair], max_ratio: float) -> list[SentencePair]:
    """Keep pairs whose longer side is at most ``max_ratio`` times the shorter.

    Lengths are the stored sequence lengths (the target includes its EOS).
    """
    if max_ratio < 1.0:
        raise ValueError("max_ratio must be >= 1.0")
    out = []
    for p in pairs:
        a, b = len(p.source), len(p.target)
        if max(a, b) / min(a, b) <= max_ratio:
            out.append(p)
    return out


def load_parallel_text(path) -> list[tuple[str, str]]:
    """Read a text corpus; format is sniffed per line (TSV vs JSON lines).
    A malformed line raises ValueError naming ``path:line``."""
    pairs: list[tuple[str, str]] = []
    with open(path, encoding="utf-8") as f:
        for ln, line in enumerate(f, 1):
            line = line.rstrip("\n")
            if not line:
                continue
            if line.startswith("{"):
                try:
                    obj = json.loads(line)
                    pair = (obj["src"], obj["tgt"])
                except (json.JSONDecodeError, KeyError, TypeError) as e:
                    raise ValueError(f"{path}:{ln}: bad JSON corpus line") from e
                if not all(isinstance(side, str) for side in pair):
                    raise ValueError(f"{path}:{ln}: src and tgt must be strings")
                pairs.append(pair)
            else:
                fields = line.split("\t")
                if len(fields) != 2:
                    raise ValueError(f"{path}:{ln}: expected source<TAB>target")
                pairs.append((fields[0], fields[1]))
    return pairs


def save_parallel_text(pairs: list[tuple[str, str]], path, fmt: str = "tsv") -> None:
    with open(path, "w", encoding="utf-8") as f:
        for src, tgt in pairs:
            if fmt == "tsv":
                if "\t" in src or "\t" in tgt:
                    raise ValueError("tab inside sentence; use jsonl format")
                f.write(f"{src}\t{tgt}\n")
            elif fmt == "jsonl":
                f.write(json.dumps({"src": src, "tgt": tgt}) + "\n")
            else:
                raise ValueError(f"unknown corpus format {fmt!r}")


def encode_pairs(text_pairs, encode_src, encode_tgt) -> list[SentencePair]:
    """Id-encode text pairs; appends EOS to each target."""
    out = []
    for src, tgt in text_pairs:
        out.append(
            SentencePair(
                source=tuple(encode_src(src)),
                target=tuple(encode_tgt(tgt)) + (EOS,),
            )
        )
    return out


def toy_vocabulary(task: str) -> Vocabulary:
    """Vocabulary shared by source and target of a toy task."""
    if task in ("copy", "local_swap"):
        return Vocabulary.build([chr(c) for c in range(ord("a"), ord("k"))])
    if task == "digit_to_word":
        return Vocabulary.build(list(DIGIT_WORDS) + list(DIGIT_WORDS.values()))
    raise ValueError(f"unknown toy task {task!r}; expected one of {TOY_TASKS}")


def gen_toy_corpus(seed: int, n_pairs: int, task: str) -> list[SentencePair]:
    """Deterministic synthetic corpus for the given task.

    copy:          target repeats the source.
    local_swap:    adjacent positions (0,1), (2,3), ... are exchanged.
    digit_to_word: digit tokens map to their English words, in order.

    Sequence lengths are uniform on [2, 12]; same (seed, n_pairs, task)
    always yields the same list.  ``n_pairs`` below 1 raises ValueError.
    """
    if n_pairs < 1:
        raise ValueError(f"n_pairs must be >= 1, got {n_pairs}")
    vocab = toy_vocabulary(task)
    rng = np.random.default_rng(seed)
    if task == "digit_to_word":
        src_tokens = list(DIGIT_WORDS)
    else:
        src_tokens = [chr(c) for c in range(ord("a"), ord("k"))]
    src_ids = [vocab.id(t) for t in src_tokens]

    pairs = []
    for _ in range(n_pairs):
        n = int(rng.integers(2, 13))
        src = [src_ids[int(i)] for i in rng.integers(0, len(src_ids), size=n)]
        if task == "copy":
            tgt = list(src)
        elif task == "local_swap":
            tgt = list(src)
            for i in range(0, n - 1, 2):
                tgt[i], tgt[i + 1] = tgt[i + 1], tgt[i]
        else:
            tgt = [vocab.id(DIGIT_WORDS[vocab.token(s)]) for s in src]
        pairs.append(SentencePair(source=tuple(src), target=tuple(tgt) + (EOS,)))
    return pairs


def detok_toy(vocab: Vocabulary, ids) -> str:
    """Space-joined surface form for toy-task id sequences."""
    return " ".join(vocab.token(i) for i in ids if i != EOS)


def toy_text_pairs(pairs: list[SentencePair], vocab: Vocabulary) -> list[tuple[str, str]]:
    return [(detok_toy(vocab, p.source), detok_toy(vocab, p.target)) for p in pairs]


def split_corpus(pairs: list[SentencePair], n_dev: int) -> tuple[list[SentencePair], list[SentencePair]]:
    """Last ``n_dev`` pairs become the held-out set."""
    if not 0 <= n_dev < len(pairs):
        raise ValueError("n_dev out of range")
    cut = len(pairs) - n_dev
    return list(pairs[:cut]), list(pairs[cut:])


def write_corpus_file(pairs: list[SentencePair], vocab: Vocabulary, path: Path, fmt: str = "tsv") -> None:
    save_parallel_text(toy_text_pairs(pairs, vocab), path, fmt=fmt)
